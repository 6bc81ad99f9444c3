"""The replint framework: suppressions, scoping, finding formatting."""

import ast
from pathlib import Path

from repro.analysis import ReplintConfig, lint_paths, lint_source
from repro.analysis.core import Finding, SourceFile, scope_relpath
from repro.analysis.rules import all_rules, rules_by_id

FIXTURES = Path(__file__).parent / "fixtures"


def test_suppression_comments_silence_findings():
    findings = lint_paths(
        [FIXTURES / "suppressed.py"], config=ReplintConfig.everywhere()
    )
    assert findings == []


def test_same_code_without_suppressions_fires():
    text = (FIXTURES / "suppressed.py").read_text(encoding="utf-8")
    stripped = "\n".join(
        line.split("# replint:")[0].rstrip() for line in text.splitlines()
    )
    src = SourceFile(
        FIXTURES / "suppressed.py", "suppressed.py", stripped, ast.parse(stripped)
    )
    findings = lint_source(src, all_rules(), ReplintConfig.everywhere())
    assert {f.rule for f in findings} == {"slots", "nondeterminism", "runtime-assert"}


def test_unused_suppressions_are_reported_on_request():
    rule = rules_by_id()["nondeterminism"]()
    findings = lint_paths(
        [FIXTURES / "unused_suppression.py"],
        config=ReplintConfig.everywhere(),
        rules=[rule],
        warn_unused_suppressions=True,
    )
    # the live suppression (wall_clock) silences its finding and is not
    # reported; the stale one (pure) is; the slots one is skipped because
    # the slots rule did not run, so there is no verdict on it
    assert [f.rule for f in findings] == ["unused-suppression"]
    assert "disable=nondeterminism" in findings[0].message
    assert findings[0].line == 11


def test_unused_suppressions_stay_quiet_by_default():
    rule = rules_by_id()["nondeterminism"]()
    findings = lint_paths(
        [FIXTURES / "unused_suppression.py"],
        config=ReplintConfig.everywhere(),
        rules=[rule],
    )
    assert findings == []


def test_default_scopes_keep_rules_off_unrelated_modules():
    config = ReplintConfig()
    assert config.in_scope("runtime-assert", "storage/persist.py")
    assert not config.in_scope("runtime-assert", "xpath/parser.py")
    assert config.in_scope("nondeterminism", "sim/disk.py")
    assert not config.in_scope("nondeterminism", "obs/tracer.py")


def test_scope_relpath_strips_package_prefix():
    assert (
        scope_relpath(Path("src/repro/sim/disk.py"), Path("src")) == "sim/disk.py"
    )
    assert (
        scope_relpath(Path("/a/b/src/repro/storage/nav.py"), Path("/a/b"))
        == "storage/nav.py"
    )


def test_finding_format_and_dict_round_trip():
    finding = Finding("slots", "x.py", 3, 1, "class X must declare __slots__")
    assert finding.format() == "x.py:3:1: [slots] class X must declare __slots__"
    assert finding.as_dict()["rule"] == "slots"


def test_rule_catalogue_is_complete_and_described():
    catalogue = rules_by_id()
    assert set(catalogue) == {
        "nondeterminism",
        "runtime-assert",
        "slots",
        "feature-gate",
        "set-iteration",
        "charge-accounting",
        "gate-coherence",
        "determinism-taint",
    }
    for rule_class in catalogue.values():
        assert rule_class.id
        assert rule_class.description
