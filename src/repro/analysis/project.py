"""Interprocedural index for replint: module graph, call graph, charges.

The per-file rules see one ``ast.Module`` at a time; the invariants
added with the interprocedural rules — charge-once accounting, gate
coherence across helper calls, taint that flows through return values —
need to see *every* linted file at once.  :class:`ProjectIndex` is that
view: every function definition in the linted tree, what it charges
(``Stats`` fields, the simulated clock), which feature-slot parameters
it dereferences, and which other indexed functions it calls.

Call resolution is deliberately nominal, matching the engine's style
rather than attempting type inference:

* ``self.meth(...)`` resolves through the enclosing class, then its
  (indexed) bases;
* ``<attr>.meth(...)`` resolves through :data:`DEFAULT_ATTR_TYPES`, the
  engine's fixed attribute-name -> class bindings (``ctx`` is always an
  :class:`~repro.algebra.context.EvalContext`, ``iosys`` an
  :class:`~repro.sim.iosys.AsyncIOSystem`, ...);
* ``fn(...)`` resolves to a module-level function of the same module or
  an explicit ``from repro... import fn``;
* ``ClassName(...)`` resolves to ``ClassName.__init__``.

Anything else (stdlib calls, dynamic dispatch the engine does not use on
charge paths) resolves to nothing and contributes no call edge — the
analysis errs toward missing edges, never toward inventing them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.analysis.guards import GuardIndex, terminal_name, walk_scope

if TYPE_CHECKING:
    from repro.analysis.config import ReplintConfig
    from repro.analysis.core import SourceFile

#: The engine's attribute-name -> class-name bindings.  These names are
#: wired once in :class:`~repro.exec.environment.ExecutionEnvironment`
#: and used consistently everywhere, which is what makes nominal call
#: resolution sound for the charge paths.
DEFAULT_ATTR_TYPES: dict[str, str] = {
    "iosys": "AsyncIOSystem",
    "disk": "DiskDevice",
    "buffer": "BufferManager",
    "clock": "SimClock",
    "ctx": "EvalContext",
    "stats": "Stats",
    "tracer": "Tracer",
    "wal": "WriteAheadLog",
    "env": "ExecutionEnvironment",
}

_CLOCK_FIELDS = frozenset({"now", "cpu_time", "io_wait"})
_CLOCK_METHODS = frozenset({"work", "wait_until"})


@dataclass(slots=True)
class CallSite:
    """One call expression inside an indexed function."""

    node: ast.Call
    callee: str | None  #: resolved qualname, None when external/unresolved
    text: str  #: source text of the callee expression (diagnostics)


@dataclass(slots=True)
class FunctionInfo:
    """Everything the interprocedural rules need about one function."""

    qualname: str  #: ``<relpath>::<Class>.<name>`` / ``<relpath>::<name>``
    name: str
    cls: str | None
    src: "SourceFile"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: direct ``stats.<field> += ...`` sites, by field name
    charges: dict[str, list[ast.AugAssign]] = field(default_factory=dict)
    #: direct simulated-clock charges (``clock.work(...)``,
    #: ``clock.now += ...``); presence means "this function moves time"
    clock_charges: list[ast.AST] = field(default_factory=list)
    #: resolved + unresolved call sites, in source order
    calls: list[CallSite] = field(default_factory=list)
    #: parameters named like feature slots that the body dereferences
    #: *without* a local ``is not None`` guard (the function therefore
    #: requires the argument non-None)
    feature_params_required: set[str] = field(default_factory=set)
    #: parameters named like feature slots, with optional annotation info:
    #: name -> True when the annotation (or a None default) admits None
    feature_params: dict[str, bool] = field(default_factory=dict)
    #: True when some ``return`` hands back an unordered set
    returns_unordered: bool = False


class ProjectIndex:
    """Call-graph + charge-summary index over one linted source tree."""

    __slots__ = (
        "functions",
        "sources",
        "by_path",
        "_classes",
        "_bases",
        "_module_functions",
        "_imports",
        "_reachable_memo",
    )

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.sources: list["SourceFile"] = []
        self.by_path: dict[str, "SourceFile"] = {}
        #: class name -> {method name -> qualname} (project-wide)
        self._classes: dict[str, dict[str, str]] = {}
        #: class name -> base class names (only indexed bases matter)
        self._bases: dict[str, list[str]] = {}
        #: relpath -> {function name -> qualname}
        self._module_functions: dict[str, dict[str, str]] = {}
        #: relpath -> {imported local name -> qualname}
        self._imports: dict[str, dict[str, str]] = {}
        self._reachable_memo: dict[str, frozenset[str]] = {}

    # ------------------------------------------------------------- building

    @classmethod
    def build(
        cls, sources: Iterable["SourceFile"], config: "ReplintConfig"
    ) -> "ProjectIndex":
        index = cls()
        for src in sources:
            index.sources.append(src)
            index.by_path[str(src.path)] = src
        # pass 1: declarations (classes, functions, imports)
        for src in index.sources:
            index._collect_declarations(src)
        # pass 2: per-function bodies (charges, call sites)
        for src in index.sources:
            index._collect_bodies(src, config)
        return index

    def _collect_declarations(self, src: "SourceFile") -> None:
        module_functions: dict[str, str] = {}
        imports: dict[str, str] = {}
        for node in src.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                module_functions[node.name] = f"{src.relpath}::{node.name}"
            elif isinstance(node, ast.ClassDef):
                methods = self._classes.setdefault(node.name, {})
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods[item.name] = f"{src.relpath}::{node.name}.{item.name}"
                self._bases[node.name] = [
                    base_name
                    for base in node.bases
                    if (base_name := terminal_name(base)) is not None
                ]
        # imported callables: `from repro.x import fn` binds a local name
        # we can resolve later once every module is declared
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    imports[alias.asname or alias.name] = alias.name
        self._module_functions[src.relpath] = module_functions
        self._imports[src.relpath] = imports

    def _collect_bodies(self, src: "SourceFile", config: "ReplintConfig") -> None:
        for class_name, node in _iter_functions(src.tree):
            qualname = (
                f"{src.relpath}::{class_name}.{node.name}"
                if class_name
                else f"{src.relpath}::{node.name}"
            )
            info = FunctionInfo(
                qualname=qualname, name=node.name, cls=class_name, src=src, node=node
            )
            self._scan_body(info, src, config)
            self.functions[qualname] = info

    def _scan_body(
        self, info: FunctionInfo, src: "SourceFile", config: "ReplintConfig"
    ) -> None:
        node = info.node
        stats_fields = config.stats_fields
        set_locals: set[str] = set()
        for sub in walk_scope(node):
            if isinstance(sub, ast.AugAssign) and isinstance(sub.op, ast.Add):
                target = sub.target
                if isinstance(target, ast.Attribute):
                    base_name = terminal_name(target.value)
                    if target.attr in stats_fields and base_name == "stats":
                        if not (
                            isinstance(sub.value, ast.Constant) and sub.value.value == 0
                        ):
                            info.charges.setdefault(target.attr, []).append(sub)
                    elif target.attr in _CLOCK_FIELDS and base_name == "clock":
                        info.clock_charges.append(sub)
            elif isinstance(sub, ast.Call):
                func = sub.func
                if isinstance(func, ast.Attribute):
                    base_name = terminal_name(func.value)
                    if func.attr in _CLOCK_METHODS and base_name == "clock":
                        info.clock_charges.append(sub)
                callee = self._resolve_call(sub, info, src)
                info.calls.append(
                    CallSite(node=sub, callee=callee, text=_callee_text(func))
                )
            elif isinstance(sub, ast.Assign):
                if _is_set_expr(sub.value):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            set_locals.add(target.id)
            elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                annotation = ast.unparse(sub.annotation)
                if annotation.startswith(("set", "Set[", "frozenset", "FrozenSet[")):
                    set_locals.add(sub.target.id)
        for sub in walk_scope(node):
            if isinstance(sub, ast.Return) and sub.value is not None:
                value = sub.value
                if _is_set_expr(value) or (
                    isinstance(value, ast.Name) and value.id in set_locals
                ):
                    info.returns_unordered = True
        self._scan_feature_params(info, config)

    def _scan_feature_params(
        self, info: FunctionInfo, config: "ReplintConfig"
    ) -> None:
        args = info.node.args
        named = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        defaults: dict[str, ast.expr] = {}
        positional = [*args.posonlyargs, *args.args]
        for arg, default in zip(
            positional[len(positional) - len(args.defaults):], args.defaults
        ):
            defaults[arg.arg] = default
        for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
            if kw_default is not None:
                defaults[arg.arg] = kw_default
        feature_args = [a for a in named if a.arg in config.feature_names]
        if not feature_args:
            return
        guards: GuardIndex | None = None
        for arg in feature_args:
            annotation = arg.annotation
            default = defaults.get(arg.arg)
            admits_none = (
                annotation is None
                or "None" in ast.unparse(annotation)
                or (isinstance(default, ast.Constant) and default.value is None)
            )
            info.feature_params[arg.arg] = admits_none
            if admits_none:
                continue
            # a non-optional feature parameter: does the body dereference
            # it unguarded?  (it does, in every engine helper of this
            # shape — the point is the *callers* must prove non-None)
            for sub in walk_scope(info.node):
                base: ast.expr | None = None
                if isinstance(sub, (ast.Attribute, ast.Subscript)):
                    base = sub.value
                if (
                    base is not None
                    and isinstance(base, ast.Name)
                    and base.id == arg.arg
                ):
                    if guards is None:
                        guards = GuardIndex(info.node)
                    if not guards.is_guarded(sub, arg.arg):
                        info.feature_params_required.add(arg.arg)
                        break

    # ----------------------------------------------------------- resolution

    def _resolve_call(
        self, call: ast.Call, info: FunctionInfo, src: "SourceFile"
    ) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            module_functions = self._module_functions.get(src.relpath, {})
            if name in module_functions:
                return module_functions[name]
            imported = self._imports.get(src.relpath, {}).get(name)
            if imported is not None:
                if imported in self._classes:
                    return self._classes[imported].get("__init__")
                for functions in self._module_functions.values():
                    if imported in functions:
                        # prefer an exact module-level function of that name
                        return functions[imported]
            if name in self._classes:
                return self._classes[name].get("__init__")
            return None
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name) and value.id == "self" and info.cls:
                resolved = self._resolve_method(info.cls, func.attr)
                if resolved is not None:
                    return resolved
            if isinstance(value, ast.Name) and value.id in self._classes:
                return self._classes[value.id].get(func.attr)
            base_name = terminal_name(value)
            class_name = DEFAULT_ATTR_TYPES.get(base_name or "")
            if class_name is not None:
                return self._classes.get(class_name, {}).get(func.attr)
        return None

    def _resolve_method(self, class_name: str, method: str) -> str | None:
        seen: set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            resolved = self._classes.get(current, {}).get(method)
            if resolved is not None:
                return resolved
            queue.extend(self._bases.get(current, ()))
        return None

    # ------------------------------------------------------------- queries

    def reachable(self, qualname: str) -> frozenset[str]:
        """Functions reachable from ``qualname`` via resolved calls.

        Excludes ``qualname`` itself unless a true cycle re-enters it —
        a function that (transitively) calls itself charges once *per
        activation*, which is not a double charge.
        """
        memo = self._reachable_memo.get(qualname)
        if memo is not None:
            return memo
        seen: set[str] = set()
        queue: list[str] = [
            site.callee
            for site in self.functions[qualname].calls
            if site.callee is not None and site.callee != qualname
        ]
        while queue:
            current = queue.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.functions.get(current)
            if info is None:
                continue
            for site in info.calls:
                if site.callee is not None and site.callee not in seen:
                    queue.append(site.callee)
        result = frozenset(seen)
        self._reachable_memo[qualname] = result
        return result

    def transitive_charges(self, qualname: str) -> dict[str, str]:
        """``Stats`` fields charged by callees of ``qualname``.

        Returns field -> the reachable function that charges it (one
        witness per field, for diagnostics).
        """
        charged: dict[str, str] = {}
        for callee in sorted(self.reachable(qualname)):
            info = self.functions.get(callee)
            if info is None:
                continue
            for field_name in info.charges:
                charged.setdefault(field_name, callee)
        return charged

    def transitive_clock(self, qualname: str) -> bool:
        """True when some callee of ``qualname`` moves the simulated clock."""
        return any(
            self.functions[callee].clock_charges
            for callee in self.reachable(qualname)
            if callee in self.functions
        )

    def call_chain(self, start: str, target: str) -> list[str]:
        """A shortest resolved call chain ``start -> ... -> target``."""
        if start == target:
            return [start]
        parents: dict[str, str] = {}
        queue = [start]
        seen = {start}
        while queue:
            current = queue.pop(0)
            info = self.functions.get(current)
            if info is None:
                continue
            for site in info.calls:
                callee = site.callee
                if callee is None or callee in seen:
                    continue
                parents[callee] = current
                if callee == target:
                    chain = [target]
                    while chain[-1] != start:
                        chain.append(parents[chain[-1]])
                    chain.reverse()
                    return chain
                seen.add(callee)
                queue.append(callee)
        return [start, target]


def _iter_functions(
    tree: ast.Module,
) -> Iterable[tuple[str | None, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Top-level functions and methods (nested defs belong to their owner)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, item


def _callee_text(func: ast.expr) -> str:
    try:
        return ast.unparse(func)
    except Exception:  # pragma: no cover - unparse is total on expressions
        return "<call>"


def _is_set_expr(value: ast.expr) -> bool:
    if isinstance(value, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("set", "frozenset")
    )
