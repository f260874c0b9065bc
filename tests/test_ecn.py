"""Tests for the ECN marker."""

import dataclasses

import pytest

from repro.core.ecn import ECNMarker
from repro.platform.config import PlatformConfig
from repro.platform.packet import Flow
from repro.platform.ring import PacketRing


@pytest.fixture
def ecn_config():
    return PlatformConfig(ecn_ewma_alpha=0.5, ecn_min_fraction=0.2,
                          ecn_max_fraction=0.6)


def test_ewma_tracks_queue(ecn_config):
    marker = ECNMarker(ecn_config)
    ring = PacketRing(capacity=100, name="r")
    ring.enqueue(Flow("f"), 80, 0)
    v1 = marker.observe(ring)
    v2 = marker.observe(ring)
    assert 0 < v1 < v2 <= 80


def test_no_marks_below_min(ecn_config):
    marker = ECNMarker(ecn_config)
    ring = PacketRing(capacity=100, name="r")
    ring.enqueue(Flow("f"), 10, 0)
    for _ in range(50):
        marker.observe(ring)
    assert marker.mark_fraction(ring) == 0.0
    assert not marker.should_mark(ring)


def test_full_marking_above_max(ecn_config):
    marker = ECNMarker(ecn_config)
    ring = PacketRing(capacity=100, name="r")
    ring.enqueue(Flow("f"), 90, 0)
    for _ in range(50):
        marker.observe(ring)
    assert marker.mark_fraction(ring) == 1.0


def test_ramp_monotone(ecn_config):
    marker = ECNMarker(ecn_config)
    ring = PacketRing(capacity=100, name="r")
    fractions = []
    for fill in (25, 35, 45, 55):
        ring.purge()
        ring.enqueue(Flow("f"), fill, 0)
        for _ in range(100):
            marker.observe(ring)
        fractions.append(marker.mark_fraction(ring))
    assert fractions == sorted(fractions)
    assert 0.0 < fractions[1] < 1.0


def test_mark_only_responsive_flows(ecn_config):
    marker = ECNMarker(ecn_config)
    udp = Flow("u", protocol="udp")
    tcp = Flow("t", protocol="tcp")
    assert marker.mark(udp, 10, 0) == 0
    assert marker.mark(tcp, 10, 0) == 10
    assert tcp.stats.ecn_marks == 10
    assert udp.stats.ecn_marks == 0
    assert marker.marked_packets == 10


def test_mark_notifies_tcp_model(ecn_config):
    marker = ECNMarker(ecn_config)

    class FakeTCP:
        marks = 0

        def on_ecn_mark(self, count, now):
            self.marks += count

    tcp = Flow("t", protocol="tcp")
    tcp.tcp = FakeTCP()
    marker.mark(tcp, 7, 0)
    assert tcp.tcp.marks == 7


def test_separate_rings_independent_ewma(ecn_config):
    marker = ECNMarker(ecn_config)
    r1 = PacketRing(capacity=100, name="r1")
    r2 = PacketRing(capacity=100, name="r2")
    r1.enqueue(Flow("f"), 90, 0)
    for _ in range(50):
        marker.observe(r1)
        marker.observe(r2)
    assert marker.ewma_of(r1) > 80
    assert marker.ewma_of(r2) == 0.0
