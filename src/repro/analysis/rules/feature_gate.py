"""Rule ``feature-gate``: optional subsystems stay behind ``is not None``.

Tracing, fault injection, the write-ahead log and crash injection are
*optional* subsystems: when disabled, their slots hold ``None`` and the
engine must pay nothing beyond one pointer test — that is what the
ablation benchmarks prove dynamically (off-path is bit-identical and
free).  The static half: any attribute access *through* such a slot
(``ctx.tracer.event(...)``, ``self.faults.service(...)``) must sit
inside one of the engine's blessed guard shapes (see
:mod:`repro.analysis.guards`), otherwise the off-path would raise
``AttributeError`` — or worse, the guard got lost and the off-path now
pays for the feature.  (The cluster synopsis and the path summary are no
such slots: switched off, they are objects that prune nothing.)

Locals provably bound non-optional (``faults = FaultPlan(...)``) are
not tracked; the rule follows the engine's convention that the *slots*
named ``tracer``/``faults``/``wal``/``crash`` are the optional ones.
"""

from __future__ import annotations

import ast

from repro.analysis.config import ReplintConfig
from repro.analysis.core import Finding, Rule, SourceFile
from repro.analysis.guards import (
    GuardIndex,
    expr_key,
    iter_scopes,
    terminal_name,
    tracked_feature_names,
    walk_scope,
)


class FeatureGateRule(Rule):
    id = "feature-gate"
    description = "uses of optional subsystems are guarded so the off-path stays free"

    def check(self, src: SourceFile, config: ReplintConfig) -> list[Finding]:
        findings: list[Finding] = []
        for scope in iter_scopes(src.tree):
            self._check_scope(scope, src, config, findings)
        return findings

    def _check_scope(
        self,
        scope: ast.AST,
        src: SourceFile,
        config: ReplintConfig,
        findings: list[Finding],
    ) -> None:
        features = config.feature_names
        uses: list[tuple[ast.AST, str, str]] = []
        for node in walk_scope(scope):
            base: ast.expr | None = None
            if isinstance(node, ast.Attribute):
                base = node.value
            elif isinstance(node, ast.Subscript):
                base = node.value
            if base is None:
                continue
            name = terminal_name(base)
            if name not in features:
                continue
            key = expr_key(base)
            if key is None:
                continue
            uses.append((node, name, key))
        if not uses:
            return
        tracked_locals = tracked_feature_names(scope, features)
        guards = GuardIndex(scope)
        for node, name, key in uses:
            if key == name and name not in tracked_locals:
                continue  # local proven non-optional at its binding
            if guards.is_guarded(node, key):
                continue
            findings.append(
                self.finding(
                    src,
                    node,
                    f"use of optional subsystem {key!r} is not behind an "
                    "`is not None` guard; the off-path must stay zero-overhead "
                    "(and None-safe)",
                )
            )
