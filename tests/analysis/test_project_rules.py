"""The interprocedural rule: fixtures, scope pruning, suppressions.

``determinism-taint`` gets the same treatment as the per-file rules — it
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


# ---------------------------------------------------------- determinism-taint


def test_determinism_taint_fires_on_bad_fixture():
    findings = run_rule("determinism-taint", "determinism_taint_bad.py")
    messages = [f.message for f in findings]
    assert len(findings) == 3
    assert sum("hash order" in m for m in messages) == 2
    assert sum("id() values vary" in m for m in messages) == 1


def test_determinism_taint_passes_good_fixture():
    assert run_rule("determinism-taint", "determinism_taint_good.py") == []


def test_determinism_taint_sees_set_algebra():
    """``set(a) - b``, ``{*a} | b`` and ``.union``/``.intersection``/
    ``.symmetric_difference`` on a set are sets too: iterating what a
    helper returns from them leaks hash order."""
    findings = run_rule("determinism-taint", "determinism_taint_set_algebra_bad.py")
    assert sorted(f.message.split("'")[1] for f in findings) == [
        "live_pages",
        "moved",
        "shared",
        "touched",
    ]
    assert run_rule("determinism-taint", "determinism_taint_set_algebra_good.py") == []


# ------------------------------------------------- scope pruning, suppressions


def test_project_findings_prune_by_anchor_file_scope():
    """The scope-pruning regression: identical bug, different directory.

    scopetree stages byte-identical hash-order leaks under storage/
    (inside determinism-taint's default scope) and xpath/ (outside it).
    The project rule sees both files in one index; only the finding
    anchored in storage/ may survive.
    """
    rule = rules_by_id()["determinism-taint"]()
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
    # `# replint: disable=determinism-taint` at the anchor line
    rule = rules_by_id()["determinism-taint"]()
    findings = lint_paths(
        [FIXTURES / "scopetree"], config=ReplintConfig(), rules=[rule]
    )
    assert not any("suppressed_cache" in f.path for f in findings)
    assert any("pagecache" in f.path for f in findings)
