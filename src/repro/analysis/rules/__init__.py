"""Rule registry: one module per invariant."""

from __future__ import annotations

from repro.analysis.core import Rule
from repro.analysis.rules.charge_accounting import ChargeAccountingRule
from repro.analysis.rules.determinism_taint import DeterminismTaintRule
from repro.analysis.rules.feature_gate import FeatureGateRule
from repro.analysis.rules.gate_coherence import GateCoherenceRule
from repro.analysis.rules.nondeterminism import NondeterminismRule
from repro.analysis.rules.runtime_assert import RuntimeAssertRule
from repro.analysis.rules.set_iteration import SetIterationRule
from repro.analysis.rules.slots import SlotsRule

_RULE_CLASSES: tuple[type[Rule], ...] = (
    NondeterminismRule,
    RuntimeAssertRule,
    SlotsRule,
    FeatureGateRule,
    SetIterationRule,
    # interprocedural rules (run once over the whole-tree ProjectIndex)
    ChargeAccountingRule,
    GateCoherenceRule,
    DeterminismTaintRule,
)


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in catalogue order."""
    return [cls() for cls in _RULE_CLASSES]


def rules_by_id() -> dict[str, type[Rule]]:
    return {cls.id: cls for cls in _RULE_CLASSES}
