"""Per-rule fixture tests: positive, negative, and suppressed samples.

Each module-scope rule has three checked-in fixtures under
``fixtures/``: a ``*_bad.py`` the rule must flag, an ``*_ok.py`` that is
completely clean, and a ``*_suppressed.py`` whose inline suppression
silences the finding without tripping the unused-suppression check.
Fixtures are linted under *logical* ``src/repro`` paths so path-keyed
rules (clock, backend) see them as the modules whose contracts they
break.
"""

import pathlib

import pytest

from repro.devtools.lint import lint_source

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: rule id -> the logical path its fixtures are linted under.
CASES = {
    "REPRO001": "src/repro/kernels/sample.py",
    "REPRO002": "src/repro/campaign/sample.py",
    "REPRO003": "src/repro/store/sample.py",
    "REPRO004": "src/repro/serve/jobs.py",
    "REPRO005": "src/repro/store/sample.py",
    "REPRO006": "src/repro/backend/sample.py",
    "REPRO007": "src/repro/utils/sample.py",
    "REPRO008": "src/repro/distributed/sample.py",
    "REPRO010": "src/repro/engine/sample.py",
}


def fixture(rule_id: str, variant: str) -> str:
    return (FIXTURES / f"{rule_id.lower()}_{variant}.py").read_text()


@pytest.mark.parametrize("rule_id", sorted(CASES))
class TestFixtures:
    def test_positive_fires(self, rule_id):
        findings = lint_source(
            fixture(rule_id, "bad"), path=CASES[rule_id]
        )
        assert any(f.rule == rule_id for f in findings)
        # The bad fixture breaks exactly one contract — no cross-fire.
        assert {f.rule for f in findings} == {rule_id}

    def test_negative_is_clean(self, rule_id):
        findings = lint_source(fixture(rule_id, "ok"), path=CASES[rule_id])
        assert findings == []

    def test_suppression_silences(self, rule_id):
        findings = lint_source(
            fixture(rule_id, "suppressed"), path=CASES[rule_id]
        )
        # Suppressed finding gone, and the suppression counted as used
        # (no REPRO000 unused-suppression report either).
        assert findings == []


class TestFindingDetails:
    def test_finding_carries_location_and_snippet(self):
        findings = lint_source(
            fixture("REPRO001", "bad"), path=CASES["REPRO001"]
        )
        finding = next(f for f in findings if f.rule == "REPRO001")
        assert finding.path == CASES["REPRO001"]
        assert "raise KeyError" in finding.snippet
        assert finding.line > 1
        assert "REPRO001" in finding.render()

    def test_mutable_default_flags_each_argument(self):
        findings = lint_source(
            fixture("REPRO007", "bad"), path=CASES["REPRO007"]
        )
        assert len([f for f in findings if f.rule == "REPRO007"]) == 2

    def test_schedule_fields_each_reported(self):
        findings = lint_source(
            fixture("REPRO002", "bad"), path=CASES["REPRO002"]
        )
        messages = " ".join(f.message for f in findings)
        assert ".engine" in messages and ".tile_size" in messages

    def test_rules_keyed_on_logical_path(self):
        # The clock rule only binds inside the clock-disciplined
        # modules: the same source is legal elsewhere in the tree.
        source = fixture("REPRO004", "bad")
        elsewhere = lint_source(source, path="src/repro/experiments/x.py")
        assert [f for f in elsewhere if f.rule == "REPRO004"] == []

    def test_error_policy_skips_errors_module(self):
        source = "raise ValueError('defining the hierarchy itself')\n"
        findings = lint_source(source, path="src/repro/errors.py")
        assert findings == []

    def test_selected_rules_subset(self):
        from repro.devtools.lint import select_rules

        only = select_rules(select=("REPRO007",))
        findings = lint_source(
            fixture("REPRO007", "bad"),
            path=CASES["REPRO007"],
            rules=only,
        )
        assert {f.rule for f in findings} == {"REPRO007"}
