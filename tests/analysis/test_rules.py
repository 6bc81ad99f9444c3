"""Each replint rule fires on its bad fixture and stays quiet on the good one."""

from pathlib import Path

from repro.analysis import ReplintConfig, lint_paths
from repro.analysis.rules import rules_by_id

FIXTURES = Path(__file__).parent / "fixtures"


def run_rule(rule_id: str, fixture: str):
    rule = rules_by_id()[rule_id]()
    config = ReplintConfig.everywhere()
    return lint_paths([FIXTURES / fixture], config=config, rules=[rule])


# ------------------------------------------------------------ runtime-assert


def test_runtime_assert_fires_on_bad_fixture():
    # a function, a method and an invariant walk named check(): no
    # function is exempt
    findings = run_rule("runtime-assert", "runtime_assert_bad.py")
    assert len(findings) == 3
    assert all("python -O" in f.message for f in findings)


def test_runtime_assert_passes_good_fixture():
    assert run_rule("runtime-assert", "runtime_assert_good.py") == []


# ------------------------------------------------------------- set-iteration


def test_set_iteration_fires_on_bad_fixture():
    findings = run_rule("set-iteration", "set_iteration_bad.py")
    assert len(findings) == 4
    assert all("hash order" in f.message for f in findings)


def test_set_iteration_passes_good_fixture():
    assert run_rule("set-iteration", "set_iteration_good.py") == []
