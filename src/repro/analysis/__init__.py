"""replint: AST-based invariant checking for the repro engine.

Two of the engine's guarantees — replay that no hash order can move,
``python -O`` safety of the storage layer — are mechanical properties
of the *source*.  This package proves them statically on
every commit instead of waiting for an ablation benchmark to drift.

Run it as ``python -m repro.analysis src/repro`` (see
:mod:`repro.analysis.__main__` for the CLI) or call :func:`lint_paths`
programmatically.  Each rule can be suppressed per line with
``# replint: disable=<rule-id>`` or per file with
``# replint: disable-file=<rule-id>``; see ``docs/static-analysis.md``
for the rule catalogue and the invariants behind it.
"""

from __future__ import annotations

from repro.analysis.config import ReplintConfig
from repro.analysis.core import Finding, Rule, SourceFile, lint_paths, lint_source
from repro.analysis.rules import all_rules

__all__ = [
    "Finding",
    "ReplintConfig",
    "Rule",
    "SourceFile",
    "all_rules",
    "lint_paths",
    "lint_source",
]
