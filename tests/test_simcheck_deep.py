"""Whole-program ``repro check --deep``: flow passes, witnesses, registry.

The fixture battery under ``tests/fixtures/simcheck/deep/`` holds one
bad/clean pair per cross-module rule; the bad member must fire exactly
its rule (with a call-chain witness where the rule promises one) and
the clean member must stay silent.  The repo's own ``src/`` tree is
asserted deep-clean with zero suppressions — the bar CI holds it to.
Every run is uncached and serial: each file is read and parsed once.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

from repro.check import registry
from repro.check.flow import DEEP_RULES, EXPLAIN
from repro.check.graph import ProjectGraph, extract_summary
from repro.check.simcheck import main, run_deep

REPO = Path(__file__).resolve().parents[1]
DEEP = REPO / "tests" / "fixtures" / "simcheck" / "deep"


def deep_findings(path):
    return run_deep([str(path)]).deep_findings


# ----------------------------------------------------------------------
# Fixture battery
# ----------------------------------------------------------------------
#: fixture pair -> (rule code, expected finding count in bad/)
PAIRS = {
    "digest_leak": ("SIM601", 1),
    "registry": ("SIM602", 1),
    "transitive": ("SIM611", 1),
    "rng": ("SIM612", 1),
}


@pytest.mark.parametrize(
    "pair,code,count",
    [(p, c, k) for p, (c, k) in sorted(PAIRS.items())],
    ids=sorted(PAIRS),
)
def test_bad_fixture_fires_exactly_its_rule(pair, code, count):
    findings = deep_findings(DEEP / pair / "bad")
    assert Counter(f.code for f in findings) == {code: count}


@pytest.mark.parametrize("pair", sorted(PAIRS) + ["pool"])
def test_clean_fixtures_are_silent(pair):
    assert deep_findings(DEEP / pair / "clean") == []


def test_pool_bad_fixture_fires_all_three_rules():
    findings = deep_findings(DEEP / "pool" / "bad")
    assert Counter(f.code for f in findings) == {
        "SIM701": 2, "SIM702": 1, "SIM703": 1}


def test_digest_leak_finding_carries_call_chain_witness():
    (finding,) = deep_findings(DEEP / "digest_leak" / "bad")
    assert finding.code == "SIM601"
    assert finding.path.endswith("collect.py")
    assert "loop_stats" in finding.message
    assert [q.rsplit(".", 1)[1] for q in finding.chain] == \
        ["report_digest", "collect"]
    assert "witness:" in finding.render()


def test_transitive_wall_clock_witness_goes_root_to_site():
    (finding,) = deep_findings(DEEP / "transitive" / "bad")
    assert finding.code == "SIM611"
    assert finding.path.endswith("timeutil.py")  # the offending call site
    assert "time.time" in finding.message
    assert [q.rsplit(".", 1)[1] for q in finding.chain] == \
        ["boot_clock", "stamp"]


def test_suppression_applies_to_deep_findings(tmp_path):
    src = (DEEP / "pool" / "bad" / "repro" / "sim" / "state.py").read_text()
    src = src.replace("    _MODE = mode",
                      "    _MODE = mode  # simcheck: ignore[SIM702]")
    dest = tmp_path / "repro" / "sim"
    dest.mkdir(parents=True)
    (dest / "state.py").write_text(src)
    result = run_deep([str(tmp_path)])
    codes = Counter(f.code for f in result.deep_findings)
    assert "SIM702" not in codes
    assert codes["SIM701"] == 2
    assert result.suppressed == 1


def test_missing_digest_safety_marker_is_flagged(tmp_path):
    dest = tmp_path / "repro" / "runner"
    dest.mkdir(parents=True)
    (dest / "digest.py").write_text(
        "import hashlib\n\n\ndef digest_of(value):\n"
        "    return hashlib.sha256(repr(value).encode()).hexdigest()\n")
    findings = deep_findings(tmp_path)
    assert any(f.code == "SIM603" for f in findings)
    (dest / "digest.py").write_text(
        '__digest_safety__ = "digest-checked"\n'
        "import hashlib\n\n\ndef digest_of(value):\n"
        "    return hashlib.sha256(repr(value).encode()).hexdigest()\n")
    assert deep_findings(tmp_path) == []


def test_repo_src_tree_is_deep_clean_with_zero_suppressions():
    out = io.StringIO()
    assert main([str(REPO / "src")], out=out, deep=True) == 0
    assert "0 finding(s), 0 suppression(s)" in out.getvalue()


# ----------------------------------------------------------------------
# Parse errors stay per-file in deep mode
# ----------------------------------------------------------------------
def test_deep_parse_error_keeps_scanning_and_exits_two(tmp_path):
    tree = tmp_path / "repro" / "runner"
    tree.mkdir(parents=True)
    for name in ("report.py", "collect.py"):
        shutil.copy(
            DEEP / "digest_leak" / "bad" / "repro" / "runner" / name,
            tree / name)
    (tree / "broken.py").write_text("def f(:\n")
    out = io.StringIO()
    assert main([str(tmp_path)], as_json=True, out=out, deep=True) == 2
    payload = json.loads(out.getvalue())
    assert len(payload["errors"]) == 1
    assert payload["errors"][0]["path"].endswith("broken.py")
    leak = [f for f in payload["findings"] if f["code"] == "SIM601"]
    assert len(leak) == 1  # the graph still linked the parseable files
    assert leak[0]["chain"]  # witness survives JSON


# ----------------------------------------------------------------------
# --explain and rule docs
# ----------------------------------------------------------------------
def test_explain_known_code():
    out = io.StringIO()
    assert main([], out=out, explain_code="SIM601") == 0
    text = out.getvalue()
    assert "SIM601" in text and "digest" in text.lower()


def test_explain_unknown_code():
    out = io.StringIO()
    assert main([], out=out, explain_code="SIM999") == 2


def test_every_rule_code_has_explain_text():
    from repro.check.simcheck import iter_rules
    codes = {r.code for r in iter_rules()} | set(DEEP_RULES)
    assert codes <= set(EXPLAIN)
    assert all(len(EXPLAIN[c]) > 80 for c in codes)


# ----------------------------------------------------------------------
# Registry consistency against the real ScenarioResult
# ----------------------------------------------------------------------
def test_registry_partition_matches_scenario_result():
    from repro.experiments.common import ScenarioResult
    names = [f.name for f in dataclasses.fields(ScenarioResult)]
    assert registry.validate_fields(names) == []


def test_registry_partition_is_disjoint():
    assert not (registry.DIGEST_CHECKED_FIELDS
                & registry.DIGEST_INVISIBLE_FIELDS)
    assert registry.TELEMETRY_EXPORT_FIELDS <= \
        registry.DIGEST_INVISIBLE_FIELDS


def test_ensure_digest_safe_guards_the_hash_input():
    from repro.runner.digest import ensure_digest_safe
    ok = {"scheduler": "cfs", "chains": []}
    assert ensure_digest_safe(ok) is ok
    with pytest.raises(ValueError, match="SIM601"):
        ensure_digest_safe({"scheduler": "cfs", "causality": {}})
    with pytest.raises(ValueError, match="digest-invisible"):
        ensure_digest_safe({"telemetry": {}})


def test_marked_modules_exist_and_carry_markers():
    import importlib
    for rel, kind in registry.MARKED_MODULES.items():
        module = importlib.import_module(
            rel[:-3].replace("/", "."))
        assert kind in getattr(module, "__digest_safety__")


# ----------------------------------------------------------------------
# Graph internals worth pinning
# ----------------------------------------------------------------------
def test_graph_links_alias_self_and_nested_calls(tmp_path):
    a = tmp_path / "repro"
    (a / "sim").mkdir(parents=True)
    (a / "sim" / "mod.py").write_text(
        "from repro.sim.helper import top\n\n\n"
        "class C:\n"
        "    def run(self):\n"
        "        return self.step()\n\n"
        "    def step(self):\n"
        "        def inner():\n"
        "            return top()\n"
        "        return inner()\n")
    (a / "sim" / "helper.py").write_text("def top():\n    return 1\n")
    summaries = {}
    for path in sorted((a / "sim").glob("*.py")):
        summaries[str(path)] = extract_summary(
            str(path), ast.parse(path.read_text()))
    graph = ProjectGraph(summaries)
    edges = graph.edges
    assert "repro.sim.mod.C.step" in edges["repro.sim.mod.C.run"]
    assert "repro.sim.mod.C.step.inner" in edges["repro.sim.mod.C.step"]
    assert "repro.sim.helper.top" in edges["repro.sim.mod.C.step.inner"]
    parents = graph.reachable_from(["repro.sim.mod.C.run"])
    chain = graph.chain_to(parents, "repro.sim.helper.top")
    assert chain == ["repro.sim.mod.C.run", "repro.sim.mod.C.step",
                     "repro.sim.mod.C.step.inner", "repro.sim.helper.top"]
