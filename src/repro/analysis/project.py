"""Interprocedural index for replint: module graph and call graph.

The per-file rules see one ``ast.Module`` at a time; an interprocedural
rule — taint that flows through return values — needs to see *every*
linted file at once.  :class:`ProjectIndex` is that view: every function
definition in the linted tree, whether it returns an unordered set, and
which other indexed functions it calls.

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

Anything else (stdlib calls, dynamic dispatch) resolves to nothing and
contributes no call edge — the analysis errs toward missing edges, never
toward inventing them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.analysis.core import SourceFile

#: The engine's attribute-name -> class-name bindings.  These names are
#: wired once in :class:`~repro.exec.environment.ExecutionEnvironment`
#: and used consistently everywhere, which is what makes nominal call
#: resolution sound.
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
    #: resolved + unresolved call sites, in source order
    calls: list[CallSite] = field(default_factory=list)
    #: True when some ``return`` hands back an unordered set
    returns_unordered: bool = False


class ProjectIndex:
    """Call-graph index over one linted source tree."""

    __slots__ = (
        "functions",
        "sources",
        "by_path",
        "_classes",
        "_bases",
        "_module_functions",
        "_imports",
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

    # ------------------------------------------------------------- building

    @classmethod
    def build(cls, sources: Iterable["SourceFile"]) -> "ProjectIndex":
        index = cls()
        for src in sources:
            index.sources.append(src)
            index.by_path[str(src.path)] = src
        # pass 1: declarations (classes, functions, imports)
        for src in index.sources:
            index._collect_declarations(src)
        # pass 2: per-function bodies (call sites, set returns)
        for src in index.sources:
            index._collect_bodies(src)
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

    def _collect_bodies(self, src: "SourceFile") -> None:
        for class_name, node in _iter_functions(src.tree):
            qualname = (
                f"{src.relpath}::{class_name}.{node.name}"
                if class_name
                else f"{src.relpath}::{node.name}"
            )
            info = FunctionInfo(
                qualname=qualname, name=node.name, cls=class_name, src=src, node=node
            )
            self._scan_body(info, src)
            self.functions[qualname] = info

    def _scan_body(self, info: FunctionInfo, src: "SourceFile") -> None:
        node = info.node
        set_locals: set[str] = set()
        for sub in walk_scope(node):
            if isinstance(sub, ast.Call):
                callee = self._resolve_call(sub, info, src)
                info.calls.append(
                    CallSite(node=sub, callee=callee, text=_callee_text(sub.func))
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


def terminal_name(node: ast.AST) -> str | None:
    """The final identifier of a name/attribute chain (``ctx.buffer`` -> ``buffer``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def walk_scope(scope: ast.AST) -> Iterable[ast.AST]:
    """Like :func:`ast.walk`, but do not descend into nested scopes: a
    nested function is indexed (or not) on its own, and its calls and
    returns are not its owner's."""
    stack: list[ast.AST] = [scope]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES) and child is not scope:
                continue
            stack.append(child)


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


#: set algebra keeps its left operand's type: ``set(a) - b`` is a set
_SET_OPERATORS = (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
_SET_METHODS = frozenset({"union", "difference", "intersection", "symmetric_difference"})


def _is_set_expr(value: ast.expr) -> bool:
    if isinstance(value, (ast.Set, ast.SetComp)):
        return True
    if isinstance(value, ast.BinOp):
        return isinstance(value.op, _SET_OPERATORS) and _is_set_expr(value.left)
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Name):
        return func.id in ("set", "frozenset")
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _SET_METHODS
        and _is_set_expr(func.value)
    )
