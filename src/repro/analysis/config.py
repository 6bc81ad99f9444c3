"""replint configuration: rule scopes.

This module is the one source of configuration, so the checker runs
identically everywhere; tests build their own :class:`ReplintConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Which part of the tree each rule polices, as posix path prefixes
#: relative to the ``repro`` package root.  An empty-string prefix means
#: "everywhere" (used by the test fixtures).
DEFAULT_SCOPES: dict[str, tuple[str, ...]] = {
    # data-validation paths that must survive ``python -O``
    "runtime-assert": (
        "storage/persist.py",
        "storage/export.py",
        "storage/importer.py",
        "storage/update.py",
        "storage/store.py",
        "storage/ordpath.py",
        "storage/wal.py",
        "sim/disk.py",
    ),
    # dedup sets must not leak their iteration order into results
    "set-iteration": ("algebra/", "sim/", "storage/"),
    # interprocedural: unordered iteration order can't flow through calls
    "determinism-taint": ("sim/", "algebra/", "storage/", "xmark/"),
}


@dataclass(frozen=True)
class ReplintConfig:
    """Everything the rules consult besides the AST itself."""

    #: rule id -> path prefixes it applies to ("" = every file)
    scopes: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_SCOPES)
    )

    def in_scope(self, rule_id: str, relpath: str) -> bool:
        return any(relpath.startswith(prefix) for prefix in self.scopes.get(rule_id, ()))

    @classmethod
    def everywhere(cls) -> "ReplintConfig":
        """A config applying every rule to every file (used by tests)."""
        return cls(scopes={rule_id: ("",) for rule_id in DEFAULT_SCOPES})

