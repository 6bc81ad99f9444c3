"""Each replint rule fires on its bad fixture and stays quiet on the good one."""

from pathlib import Path

from repro.analysis import ReplintConfig, lint_paths
from repro.analysis.rules import rules_by_id

FIXTURES = Path(__file__).parent / "fixtures"


def run_rule(rule_id: str, fixture: str):
    rule = rules_by_id()[rule_id]()
    config = ReplintConfig.everywhere()
    return lint_paths([FIXTURES / fixture], config=config, rules=[rule])


# ------------------------------------------------------------ nondeterminism


def test_nondeterminism_fires_on_bad_fixture():
    findings = run_rule("nondeterminism", "nondeterminism_bad.py")
    messages = [f.message for f in findings]
    assert len(findings) == 6
    assert any("time.time()" in m for m in messages)
    assert any("time.perf_counter()" in m for m in messages)
    assert any("os.urandom()" in m for m in messages)
    assert any("global unseeded RNG" in m for m in messages)
    assert any("without a seed" in m for m in messages)
    assert any("PYTHONHASHSEED" in m for m in messages)


def test_nondeterminism_passes_good_fixture():
    assert run_rule("nondeterminism", "nondeterminism_good.py") == []


# ------------------------------------------------------------ runtime-assert


def test_runtime_assert_fires_on_bad_fixture():
    findings = run_rule("runtime-assert", "runtime_assert_bad.py")
    assert len(findings) == 2
    assert all("python -O" in f.message for f in findings)


def test_runtime_assert_passes_good_fixture():
    # asserts inside check()/_debug* functions are allowlisted
    assert run_rule("runtime-assert", "runtime_assert_good.py") == []


# --------------------------------------------------------------------- slots


def test_slots_fires_on_bad_fixture():
    findings = run_rule("slots", "slots_bad.py")
    messages = [f.message for f in findings]
    assert len(findings) == 3
    assert any("dataclass Point" in m for m in messages)
    assert any("class Frame" in m for m in messages)
    assert any("shadows a slot" in m for m in messages)


def test_slots_passes_good_fixture():
    # enums, exceptions, and Protocols are exempt by shape
    assert run_rule("slots", "slots_good.py") == []


# -------------------------------------------------------------- feature-gate


def test_feature_gate_fires_on_bad_fixture():
    findings = run_rule("feature-gate", "feature_gate_bad.py")
    keys = {f.message.split("'")[1] for f in findings}
    assert len(findings) == 3
    assert keys == {"self.tracer", "self.synopsis", "faults"}


def test_feature_gate_passes_good_fixture():
    # guard shapes: if-body, and-chain, early bail, conditional expression,
    # plus a local proven non-optional at its binding
    assert run_rule("feature-gate", "feature_gate_good.py") == []


def test_feature_gate_recognises_walrus_and_while_guards():
    # `if (tracer := self.tracer) is not None:` proves both the local and
    # the slot; a while condition guards the loop body each iteration
    assert run_rule("feature-gate", "feature_gate_walrus_good.py") == []


def test_feature_gate_walrus_guards_do_not_overreach():
    findings = run_rule("feature-gate", "feature_gate_walrus_bad.py")
    keys = {f.message.split("'")[1] for f in findings}
    assert len(findings) == 2
    # a walrus on tracer proves nothing about synopsis, and the while
    # guard expires at the loop exit
    assert keys == {"self.synopsis", "tracer"}


# ------------------------------------------------------------- set-iteration


def test_set_iteration_fires_on_bad_fixture():
    findings = run_rule("set-iteration", "set_iteration_bad.py")
    assert len(findings) == 4
    assert all("hash order" in f.message for f in findings)


def test_set_iteration_passes_good_fixture():
    assert run_rule("set-iteration", "set_iteration_good.py") == []
