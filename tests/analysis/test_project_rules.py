"""The interprocedural rules: fixtures, scope pruning, suppressions.

Each project rule gets the same treatment as the per-file rules — it
fires on its bad fixture and stays quiet on the good one — plus the
properties unique to project rules: findings anchored in a file outside
the rule's scope are pruned, and line suppressions at the anchor silence
them, exactly as for per-file findings.
"""

from pathlib import Path

from repro.analysis import ReplintConfig, lint_paths
from repro.analysis.rules import rules_by_id

FIXTURES = Path(__file__).parent / "fixtures"


def run_rule(rule_id: str, fixture: str, config: ReplintConfig | None = None):
    rule = rules_by_id()[rule_id]()
    cfg = config if config is not None else ReplintConfig.everywhere()
    return lint_paths([FIXTURES / fixture], config=cfg, rules=[rule])


# ---------------------------------------------------------- charge-accounting


def test_charge_accounting_fires_on_bad_fixture():
    findings = run_rule("charge-accounting", "charge_accounting_bad.py")
    messages = [f.message for f in findings]
    assert len(findings) == 3
    assert any("charge exactly once" in m for m in messages)
    assert any("paired accounting is incomplete" in m for m in messages)
    assert any("never free" in m for m in messages)
    # the double-charge diagnostic names the callee chain
    assert any("layered_read -> " in m for m in messages)


def test_charge_accounting_passes_good_fixture():
    # delegation charges once; CPU-work counters are exempt from the
    # charge-once check even when charged at two layers
    assert run_rule("charge-accounting", "charge_accounting_good.py") == []


def test_charge_accounting_entry_point_completeness():
    # entrytree/sim/iosys.py defines AsyncIOSystem.request without its
    # contracted pages_requested charge; read_sync is complete
    findings = run_rule(
        "charge-accounting", "entrytree", config=ReplintConfig()
    )
    assert len(findings) == 1
    assert "missed charge" in findings[0].message
    assert "pages_requested" in findings[0].message
    assert findings[0].path.endswith("iosys.py")


def test_charge_accounting_reports_dead_fields():
    # drifttree stages a miniature sim/stats.py whose node_tests counter
    # nothing in the tree charges
    findings = run_rule("charge-accounting", "drifttree", config=ReplintConfig())
    assert len(findings) == 1
    assert "node_tests" in findings[0].message
    assert "never charged" in findings[0].message
    assert findings[0].path.endswith("stats.py")


# ------------------------------------------------------------- gate-coherence


def test_gate_coherence_fires_on_bad_fixture():
    findings = run_rule("gate-coherence", "gate_coherence_bad.py")
    assert len(findings) == 2
    assert all("possibly-None" in f.message for f in findings)
    keys = {f.message.split("'")[1] for f in findings}
    assert keys == {"self.tracer", "tracer"}


def test_gate_coherence_passes_good_fixture():
    # guarded call sites, optional-parameter helpers, guarded locals
    assert run_rule("gate-coherence", "gate_coherence_good.py") == []


# ---------------------------------------------------------- determinism-taint


def test_determinism_taint_fires_on_bad_fixture():
    findings = run_rule("determinism-taint", "determinism_taint_bad.py")
    messages = [f.message for f in findings]
    assert len(findings) == 3
    assert sum("hash order" in m for m in messages) == 2
    assert sum("id() values vary" in m for m in messages) == 1


def test_determinism_taint_passes_good_fixture():
    assert run_rule("determinism-taint", "determinism_taint_good.py") == []


# ------------------------------------------------- scope pruning, suppressions


def test_project_findings_prune_by_anchor_file_scope():
    """The scope-pruning regression: identical bug, different directory.

    scopetree stages byte-identical double-charge code under storage/
    (inside charge-accounting's default scope) and xpath/ (outside it).
    The project rule sees both files in one index; only the finding
    anchored in storage/ may survive.
    """
    rule = rules_by_id()["charge-accounting"]()
    findings = lint_paths(
        [FIXTURES / "scopetree"], config=ReplintConfig(), rules=[rule]
    )
    assert findings, "the staged storage/ bug must fire"
    assert all("storage" in f.path for f in findings)
    assert not any("xpath" in f.path for f in findings)
    # not vacuous: the same xpath file fires under an everywhere config
    unscoped = lint_paths(
        [FIXTURES / "scopetree" / "xpath" / "pagecache.py"],
        config=ReplintConfig.everywhere(),
        rules=[rule],
    )
    assert unscoped


def test_project_findings_honour_line_suppressions():
    # suppressed_cache.py carries the same bug as pagecache.py with a
    # `# replint: disable=charge-accounting` at the anchor line
    rule = rules_by_id()["charge-accounting"]()
    findings = lint_paths(
        [FIXTURES / "scopetree"], config=ReplintConfig(), rules=[rule]
    )
    assert not any("suppressed_cache" in f.path for f in findings)
    assert any("pagecache" in f.path for f in findings)
