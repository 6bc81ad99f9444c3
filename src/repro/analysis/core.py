"""The replint framework: findings, suppressions, file walking, rule base.

Rules are small classes over a shared :class:`ast` visit; each parses
nothing itself — one parse per file feeds every rule.  Findings carry a
stable rule id so they can be suppressed per line
(``# replint: disable=<rule>``) or per file
(``# replint: disable-file=<rule>``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from repro.analysis.config import ReplintConfig
    from repro.analysis.project import ProjectIndex

#: rule id under which stale suppression comments are reported
UNUSED_SUPPRESSION_RULE = "unused-suppression"


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


_SUPPRESS_RE = re.compile(r"#\s*replint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\s-]+)")


class Suppressions:
    """Parsed ``# replint: disable[-file]=...`` comments of one file.

    Each declaration remembers whether it ever silenced a finding, so a
    run can report the stale ones: a disable comment that matches nothing
    is no longer documenting an exception — it is hiding the next
    regression.
    """

    __slots__ = ("_by_line", "_file_wide", "_used")

    def __init__(self, text: str) -> None:
        self._by_line: dict[int, set[str]] = {}
        #: file-wide rule -> line of the declaring comment
        self._file_wide: dict[str, int] = {}
        #: (declaration line, rule) pairs that silenced at least one finding
        self._used: set[tuple[int, str]] = set()
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            rules = {part.strip() for part in match.group(2).split(",") if part.strip()}
            if match.group(1) == "disable-file":
                for rule in rules:
                    self._file_wide.setdefault(rule, lineno)
            else:
                self._by_line.setdefault(lineno, set()).update(rules)

    def active(self, rule: str, line: int) -> bool:
        for name in (rule, "all"):
            declared_at = self._file_wide.get(name)
            if declared_at is not None:
                self._used.add((declared_at, name))
                return True
        on_line = self._by_line.get(line)
        if on_line is None:
            return False
        for name in (rule, "all"):
            if name in on_line:
                self._used.add((line, name))
                return True
        return False

    def declared(self) -> list[tuple[int, str, bool]]:
        """Every declaration as ``(line, rule, file_wide)``, in line order."""
        entries = [(line, rule, True) for rule, line in self._file_wide.items()]
        entries.extend(
            (line, rule, False)
            for line, rules in self._by_line.items()
            for rule in rules
        )
        return sorted(entries)

    def unused(self) -> list[tuple[int, str, bool]]:
        """Declarations that silenced nothing during the runs so far."""
        return [
            entry for entry in self.declared() if (entry[0], entry[1]) not in self._used
        ]


class SourceFile:
    """One parsed source file plus everything rules need about it."""

    __slots__ = ("path", "relpath", "text", "tree", "suppressions")

    def __init__(self, path: Path, relpath: str, text: str, tree: ast.Module) -> None:
        self.path = path
        self.relpath = relpath
        self.text = text
        self.tree = tree
        self.suppressions = Suppressions(text)


class Rule:
    """Base class: one invariant, one stable id, one ``check`` pass."""

    id: str = ""
    description: str = ""

    def check(self, src: SourceFile, config: "ReplintConfig") -> list[Finding]:
        raise NotImplementedError

    def finding(
        self, src: SourceFile, node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(self.id, str(src.path), int(line), int(col) + 1, message)


class ProjectRule(Rule):
    """A rule that needs the whole linted tree at once.

    Project rules run after the per-file rules, over a
    :class:`~repro.analysis.project.ProjectIndex` of every linted file;
    their findings still anchor to one file/line each, so scopes and
    suppressions apply exactly as for per-file rules.
    """

    def check(self, src: SourceFile, config: "ReplintConfig") -> list[Finding]:
        return []  # project rules only run via check_project

    def check_project(
        self, index: "ProjectIndex", config: "ReplintConfig"
    ) -> list[Finding]:
        raise NotImplementedError


def scope_relpath(path: Path, root: Path) -> str:
    """Path of ``path`` relative to the ``repro`` package root, as posix.

    Scope prefixes in the configuration are written relative to the
    package (``sim/disk.py``), whatever tree the checker was pointed at
    (``src/repro``, ``src``, a checkout root, or a single file).
    """
    try:
        rel = path.relative_to(root).as_posix()
    except ValueError:
        rel = path.as_posix()
    for marker in ("src/repro/", "repro/"):
        index = rel.rfind(marker)
        if index != -1:
            return rel[index + len(marker):]
    return rel


def iter_python_files(paths: Iterable[Path]) -> Iterator[tuple[Path, Path]]:
    """Yield ``(file, root)`` pairs for every ``.py`` under ``paths``."""
    for path in paths:
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                yield file, path
        elif path.suffix == ".py":
            yield path, path.parent


def load_source(path: Path, root: Path) -> SourceFile:
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    return SourceFile(path, scope_relpath(path, root), text, tree)


def lint_source(
    src: SourceFile, rules: Iterable[Rule], config: "ReplintConfig"
) -> list[Finding]:
    """Run ``rules`` over one parsed file, honouring scopes + suppressions."""
    findings: list[Finding] = []
    for rule in rules:
        if not config.in_scope(rule.id, src.relpath):
            continue
        for finding in rule.check(src, config):
            if not src.suppressions.active(finding.rule, finding.line):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_paths(
    paths: Iterable[Path | str],
    config: "ReplintConfig" | None = None,
    rules: Iterable[Rule] | None = None,
) -> list[Finding]:
    """Lint every python file under ``paths`` with every (or the given) rule.

    Per-file rules run file by file; :class:`ProjectRule` instances run
    once over a :class:`~repro.analysis.project.ProjectIndex` of the
    whole tree.  Every suppression comment that silenced nothing (for a
    rule this run actually ran) is reported under the
    ``unused-suppression`` pseudo-rule.
    """
    from repro.analysis.config import ReplintConfig
    from repro.analysis.rules import all_rules

    cfg = config if config is not None else ReplintConfig()
    active = list(rules) if rules is not None else all_rules()
    file_rules = [rule for rule in active if not isinstance(rule, ProjectRule)]
    project_rules = [rule for rule in active if isinstance(rule, ProjectRule)]
    sources = [
        load_source(file, root) for file, root in iter_python_files(Path(p) for p in paths)
    ]
    findings: list[Finding] = []
    for src in sources:
        findings.extend(lint_source(src, file_rules, cfg))
    if project_rules:
        from repro.analysis.project import ProjectIndex

        index = ProjectIndex.build(sources)
        by_path = {str(src.path): src for src in sources}
        for rule in project_rules:
            for finding in rule.check_project(index, cfg):
                src = by_path.get(finding.path)
                if src is None:
                    continue
                if not cfg.in_scope(finding.rule, src.relpath):
                    continue
                if src.suppressions.active(finding.rule, finding.line):
                    continue
                findings.append(finding)
    run_ids = {rule.id for rule in active}
    for src in sources:
        for line, rule_id, file_wide in src.suppressions.unused():
            if rule_id != "all" and rule_id not in run_ids:
                continue  # the suppressed rule did not run; no verdict
            form = "disable-file" if file_wide else "disable"
            findings.append(
                Finding(
                    UNUSED_SUPPRESSION_RULE,
                    str(src.path),
                    line,
                    1,
                    f"suppression `# replint: {form}={rule_id}` silenced "
                    "nothing in this run; remove it so it cannot hide a "
                    "future regression",
                )
            )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
