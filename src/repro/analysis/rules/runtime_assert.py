"""Rule ``runtime-assert``: data validation must survive ``python -O``.

``assert`` compiles to nothing under ``-O``.  In the storage and disk
layers, the conditions being checked are *data* properties — record
kinds read back from a store file, child lists reconstructed by the
importer, completion timestamps of the disk simulation.  Running
optimised must not turn store corruption into silent misbehaviour, so
these paths raise typed errors from :mod:`repro.errors`
(``StoreCorruptError``, ``DiskProgressError``, ``StorageError``)
instead.

No function in the rule's scope is exempt: an invariant walk that wants
to check itself raises too.  Tests are out of scope entirely.
"""

from __future__ import annotations

import ast

from repro.analysis.config import ReplintConfig
from repro.analysis.core import Finding, Rule, SourceFile


class RuntimeAssertRule(Rule):
    id = "runtime-assert"
    description = "no assert for data validation in -O-safe runtime paths"

    def check(self, src: SourceFile, config: ReplintConfig) -> list[Finding]:
        return [
            self.finding(
                src,
                node,
                "assert is stripped under python -O; raise a typed "
                "error from repro.errors (StoreCorruptError, "
                "DiskProgressError, ...) for data validation",
            )
            for node in ast.walk(src.tree)
            if isinstance(node, ast.Assert)
        ]
