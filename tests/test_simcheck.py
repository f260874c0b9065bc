"""simcheck lint pass: fixture battery, suppression, exit-code contract.

Each file under ``tests/fixtures/simcheck/bad/`` violates exactly one
rule a known number of times; everything under ``clean/`` is the closest
non-violating look-alike and must stay silent.  The repo's own ``src/``
tree is asserted clean with zero suppressions — the acceptance bar for
``repro check``.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.check.simcheck import check_file, check_paths, iter_rules, main

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "fixtures" / "simcheck"
BAD = FIXTURES / "bad" / "repro"
CLEAN = FIXTURES / "clean"

#: fixture file -> (rule code, expected finding count)
EXPECTED = {
    "sim101_wall_clock.py": ("SIM101", 5),
    "sim102_global_random.py": ("SIM102", 4),
    "sim103_id_sort_key.py": ("SIM103", 3),
    "sim201_set_iteration.py": ("SIM201", 4),
    "sim301_float_ns.py": ("SIM301", 7),
    "sim401_rng_construction.py": ("SIM401", 3),
    "sim501_heapq.py": ("SIM501", 5),
    "sim502_enum_member.py": ("SIM502", 1),
    "sim502_relative_import.py": ("SIM502", 2),
}

#: fixture file -> inline ``# simcheck: ignore[...]`` lines it carries
SUPPRESSED = {
    "suppressed_sim101.py": 1,
    "sim502_enum_member.py": 1,
}


def _bad(name: str) -> Path:
    """The one fixture called ``name`` under ``bad/repro/<layer>/``."""
    path, = BAD.glob(f"*/{name}")
    return path


@pytest.mark.parametrize(
    "name,code,count",
    [(n, c, k) for n, (c, k) in sorted(EXPECTED.items())],
    ids=sorted(EXPECTED),
)
def test_bad_fixture_fires_exactly_its_rule(name, code, count):
    report = check_file(str(_bad(name)))
    assert report.error is None
    assert Counter(f.code for f in report.findings) == {code: count}
    assert report.suppressed == SUPPRESSED.get(name, 0)


def test_clean_fixtures_are_silent():
    reports, suppressed = check_paths([str(CLEAN)])
    assert len(reports) == 5
    assert suppressed == 0
    for report in reports:
        assert report.error is None
        assert report.findings == []


def test_suppression_silences_its_line_only():
    report = check_file(str(_bad("suppressed_sim101.py")))
    assert report.suppressed == 1
    assert [f.code for f in report.findings] == ["SIM101"]


def test_findings_sorted_and_renderable():
    report = check_file(str(_bad("sim301_float_ns.py")))
    positions = [(f.line, f.col, f.code) for f in report.findings]
    assert positions == sorted(positions)
    for f in report.findings:
        rendered = f.render()
        assert rendered.startswith(f"{f.path}:{f.line}:{f.col}: {f.code} ")
        assert f.message in rendered


def test_rule_registry_codes_unique_and_documented():
    rules = list(iter_rules())
    codes = [r.code for r in rules]
    assert len(codes) == len(set(codes))
    assert {"SIM101", "SIM102", "SIM103", "SIM201", "SIM301", "SIM401",
            "SIM501", "SIM502"} <= set(codes)
    assert all(r.summary for r in rules)


def test_exit_code_zero_on_clean_tree():
    out = io.StringIO()
    assert main([str(CLEAN)], out=out) == 0
    assert "0 finding(s), 0 suppression(s)" in out.getvalue()


def test_exit_code_one_and_json_payload_on_findings():
    out = io.StringIO()
    assert main([str(FIXTURES / "bad")], as_json=True, out=out) == 1
    payload = json.loads(out.getvalue())
    assert payload["errors"] == []
    assert payload["suppressed"] == sum(SUPPRESSED.values())
    expected_total = sum(k for _c, k in EXPECTED.values()) + 1
    assert len(payload["findings"]) == expected_total
    assert set(payload["rules"]) >= set(c for c, _k in EXPECTED.values())
    for f in payload["findings"]:
        assert set(f) == {"path", "line", "col", "code", "message"}


def test_exit_code_two_on_parse_error(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    out = io.StringIO()
    assert main([str(broken)], out=out) == 2
    assert "ERROR" in out.getvalue()


def test_parse_error_does_not_abort_the_batch(tmp_path):
    """A broken file is a per-file error entry; the rest still scans."""
    (tmp_path / "broken.py").write_text("def f(:\n")
    (tmp_path / "uses_clock.py").write_text(
        "import time\n\ndef f():\n    return time.time()\n")
    out = io.StringIO()
    assert main([str(tmp_path)], as_json=True, out=out) == 2
    payload = json.loads(out.getvalue())
    assert len(payload["errors"]) == 1
    assert payload["errors"][0]["path"].endswith("broken.py")
    codes = {f["code"] for f in payload["findings"]}
    assert "SIM101" in codes  # the parseable file was still linted


def test_sarif_output_structure():
    out = io.StringIO()
    assert main([str(FIXTURES / "bad")], fmt="sarif", out=out) == 1
    doc = json.loads(out.getvalue())
    assert doc["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in doc["$schema"]
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "simcheck"
    rule_ids = {r["id"] for r in driver["rules"]}
    assert {"SIM101", "SIM501"} <= rule_ids
    assert all(r["shortDescription"]["text"] for r in driver["rules"])
    assert run["results"], "expected findings in SARIF results"
    for res in run["results"]:
        assert res["ruleId"] in rule_ids
        assert res["level"] == "error"
        assert res["message"]["text"]
        (loc,) = res["locations"]
        region = loc["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1  # SARIF columns are 1-based
        assert res["partialFingerprints"]["simcheck/v1"]


def test_sarif_clean_tree_has_empty_results():
    out = io.StringIO()
    assert main([str(CLEAN)], fmt="sarif", out=out) == 0
    doc = json.loads(out.getvalue())
    assert doc["runs"][0]["results"] == []


def test_repo_src_tree_is_clean_with_zero_suppressions():
    out = io.StringIO()
    assert main([str(REPO / "src")], out=out) == 0
    assert "0 finding(s), 0 suppression(s)" in out.getvalue()
