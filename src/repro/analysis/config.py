"""replint configuration: rule scopes, allowlists, tracked feature slots.

Defaults live here so the checker runs identically everywhere; a
``[tool.replint]`` table in ``pyproject.toml`` may override them where
:mod:`tomllib` is available (Python >= 3.11).  On 3.10 the defaults are
used as-is — configuration is a convenience, never a dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

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
    # hot per-tuple / per-page classes must declare __slots__
    "slots": (
        "algebra/",
        "sim/",
        "storage/record.py",
        "storage/colview.py",
        "storage/pathsummary.py",
    ),
    # optional subsystems stay behind `is not None` guards off-path
    "feature-gate": ("sim/", "algebra/", "storage/"),
    # dedup sets must not leak their iteration order into results
    "set-iteration": ("algebra/", "sim/", "storage/"),
    # interprocedural: possibly-None feature slots never cross into
    # helpers that require them non-None (findings anchor at call sites)
    "gate-coherence": ("sim/", "storage/", "algebra/", "exec/", "xpath/", "engine.py"),
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
    #: function names whose ``assert`` statements are debug-only by
    #: convention (never data validation), exempt from runtime-assert
    assert_exempt_functions: frozenset[str] = frozenset({"check"})
    #: attribute/parameter names treated as optional feature slots by the
    #: feature-gate and gate-coherence rules
    feature_names: frozenset[str] = frozenset({"tracer", "faults", "wal", "crash"})

    def scope_for(self, rule_id: str) -> tuple[str, ...]:
        return self.scopes.get(rule_id, ())

    def in_scope(self, rule_id: str, relpath: str) -> bool:
        return any(relpath.startswith(prefix) for prefix in self.scope_for(rule_id))

    @classmethod
    def everywhere(cls, rule_ids: tuple[str, ...] | None = None) -> "ReplintConfig":
        """A config applying every rule to every file (used by tests)."""
        ids = rule_ids if rule_ids is not None else tuple(DEFAULT_SCOPES)
        return cls(scopes={rule_id: ("",) for rule_id in ids})


def load_config(start: Path | None = None) -> ReplintConfig:
    """Build the configuration, honouring ``[tool.replint]`` when present.

    ``start`` is where the search for ``pyproject.toml`` begins (the
    current directory by default); the file is optional, as is
    :mod:`tomllib` — both absent simply yields the defaults.
    """
    table = _pyproject_table(start if start is not None else Path.cwd())
    if not table:
        return ReplintConfig()
    scopes = dict(DEFAULT_SCOPES)
    raw_scopes = table.get("scopes")
    if isinstance(raw_scopes, dict):
        for rule_id, prefixes in raw_scopes.items():
            if isinstance(prefixes, list):
                scopes[str(rule_id)] = tuple(str(p) for p in prefixes)
    exempt = table.get("assert-exempt-functions")
    features = table.get("feature-names")
    return ReplintConfig(
        scopes=scopes,
        assert_exempt_functions=(
            frozenset(str(name) for name in exempt)
            if isinstance(exempt, list)
            else ReplintConfig().assert_exempt_functions
        ),
        feature_names=(
            frozenset(str(name) for name in features)
            if isinstance(features, list)
            else ReplintConfig().feature_names
        ),
    )


def _pyproject_table(start: Path) -> dict[str, object]:
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: defaults only
        return {}
    for directory in (start, *start.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            try:
                with open(candidate, "rb") as handle:
                    data = tomllib.load(handle)
            except (OSError, tomllib.TOMLDecodeError):
                return {}
            tool = data.get("tool")
            if isinstance(tool, dict):
                section = tool.get("replint")
                if isinstance(section, dict):
                    return section
            return {}
    return {}
