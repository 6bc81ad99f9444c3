"""Rule ``slots``: hot classes declare ``__slots__`` (and don't shadow them).

Per-tuple and per-page objects (path instances, records, frames, disk
requests) are allocated millions of times per query; ``__slots__`` cuts
both their footprint and attribute-access cost, which the perf
ledger's host metrics depend on.  The rule demands an explicit ``__slots__`` (or
``@dataclass(slots=True)``) on every class in the configured hot
modules, and rejects class attributes that would shadow a declared slot
(a latent ``ValueError`` at class-creation time).

Exempt by shape: enums, exceptions, Protocols/ABCs, NamedTuples and
TypedDicts — none of them are per-tuple allocations.
"""

from __future__ import annotations

import ast

from repro.analysis.config import ReplintConfig
from repro.analysis.core import Finding, Rule, SourceFile

_EXEMPT_BASE_MARKERS = (
    "Enum",
    "Exception",
    "Error",
    "Protocol",
    "ABC",
    "NamedTuple",
    "TypedDict",
)


class SlotsRule(Rule):
    id = "slots"
    description = "hot-module classes declare __slots__ and never shadow them"

    def check(self, src: SourceFile, config: ReplintConfig) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ClassDef):
                self._check_class(node, src, findings)
        return findings

    def _check_class(
        self, node: ast.ClassDef, src: SourceFile, findings: list[Finding]
    ) -> None:
        if self._exempt_by_bases(node):
            return
        dataclass_dec = self._dataclass_decorator(node)
        slot_names = self._declared_slots(node)
        if dataclass_dec is not None:
            if not self._dataclass_has_slots(dataclass_dec):
                findings.append(
                    self.finding(
                        src,
                        node,
                        f"dataclass {node.name} in a hot module must pass "
                        "slots=True",
                    )
                )
            return  # field assignments are not shadowing for dataclasses
        if slot_names is None:
            findings.append(
                self.finding(
                    src,
                    node,
                    f"class {node.name} in a hot module must declare __slots__",
                )
            )
            return
        for stmt in node.body:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in slot_names:
                    findings.append(
                        self.finding(
                            src,
                            stmt,
                            f"class attribute {target.id!r} shadows a slot of "
                            f"{node.name}",
                        )
                    )

    @staticmethod
    def _exempt_by_bases(node: ast.ClassDef) -> bool:
        for base in node.bases:
            text = ast.unparse(base)
            if any(marker in text for marker in _EXEMPT_BASE_MARKERS):
                return True
        return False

    @staticmethod
    def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else (
                target.id if isinstance(target, ast.Name) else None
            )
            if name == "dataclass":
                return dec
        return None

    @staticmethod
    def _dataclass_has_slots(dec: ast.expr) -> bool:
        if not isinstance(dec, ast.Call):
            return False
        for keyword in dec.keywords:
            if keyword.arg == "slots":
                value = keyword.value
                return isinstance(value, ast.Constant) and value.value is True
        return False

    @staticmethod
    def _declared_slots(node: ast.ClassDef) -> set[str] | None:
        for stmt in node.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    names: set[str] = set()
                    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                        for element in value.elts:
                            if isinstance(element, ast.Constant) and isinstance(
                                element.value, str
                            ):
                                names.add(element.value)
                    elif isinstance(value, ast.Constant) and isinstance(
                        value.value, str
                    ):
                        names.add(value.value)
                    return names
        return None
