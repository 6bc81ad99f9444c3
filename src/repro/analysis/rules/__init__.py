"""Rule registry: one module per invariant."""

from __future__ import annotations

from repro.analysis.core import Rule
from repro.analysis.rules.determinism_taint import DeterminismTaintRule
from repro.analysis.rules.runtime_assert import RuntimeAssertRule
from repro.analysis.rules.set_iteration import SetIterationRule

_RULE_CLASSES: tuple[type[Rule], ...] = (
    RuntimeAssertRule,
    SetIterationRule,
    # interprocedural (runs once over the whole-tree ProjectIndex)
    DeterminismTaintRule,
)


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in catalogue order."""
    return [cls() for cls in _RULE_CLASSES]


def rules_by_id() -> dict[str, type[Rule]]:
    return {cls.id: cls for cls in _RULE_CLASSES}
