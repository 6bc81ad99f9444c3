"""Shared None-guard analysis for optional feature slots.

The engine's zero-overhead discipline is syntactically narrow on
purpose: an optional subsystem (``tracer``, ``synopsis``, ``faults``) is
bound to an attribute or local, and every use sits behind one of a small
set of guard shapes::

    if tracer is not None:
        tracer.event(...)               # guarded body

    if x.synopsis is not None and x.synopsis.can_extend(...):  # and-chain
        ...

    ok = tracer is None or tracer.enabled    # or-chain (left bails)

    if synopsis is None:
        return                          # early bail, rest of block guarded
    synopsis.rows()

    x = feature.f() if feature is not None else None   # conditional expr

    if (t := self.tracer) is not None:   # walrus guard: proves t AND
        t.event(...)                     # self.tracer in the body

    while (frame := buffer.victim()) is not None:      # while-condition
        frame.page ...                   # guard holds for the loop body

This module recognises exactly those shapes.  It is deliberately not a
general data-flow analysis: a use the engine's idiom cannot prove
guarded should be rewritten into one of the blessed shapes (or
suppressed with a justification), which keeps the hot-path style
uniform — the property the ablation benchmarks rely on.
"""

from __future__ import annotations

import ast
from typing import Iterable


def expr_key(node: ast.AST) -> str | None:
    """A stable textual key for a guardable expression (``ctx.tracer``)."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        try:
            return ast.unparse(node)
        except Exception:  # pragma: no cover - unparse is total on these
            return None
    return None


def terminal_name(node: ast.AST) -> str | None:
    """The final identifier of a name/attribute chain (``ctx.tracer`` -> ``tracer``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def guard_keys(node: ast.expr) -> set[str]:
    """Every key a guard on ``node`` proves at once.

    A plain name or attribute proves itself; a walrus binding
    ``(t := self.tracer)`` proves both the freshly bound name and the
    source expression (they hold the same object at the test).
    """
    keys: set[str] = set()
    if isinstance(node, ast.NamedExpr):
        target_key = expr_key(node.target)
        if target_key is not None:
            keys.add(target_key)
        keys |= guard_keys(node.value)
    else:
        key = expr_key(node)
        if key is not None:
            keys.add(key)
    return keys


def nonnull_when_true(test: ast.expr) -> set[str]:
    """Keys proven non-None when ``test`` evaluates truthy."""
    keys: set[str] = set()
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        is_none_literal = (
            isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        )
        if is_none_literal and isinstance(test.ops[0], ast.IsNot):
            keys |= guard_keys(test.left)
    elif isinstance(test, (ast.Name, ast.Attribute, ast.NamedExpr)):
        # `if tracer:` / `if (t := self.tracer):` — truthiness implies non-None
        keys |= guard_keys(test)
    elif isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        for value in test.values:
            keys |= nonnull_when_true(value)
    elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        keys |= nonnull_when_false(test.operand)
    return keys


def nonnull_when_false(test: ast.expr) -> set[str]:
    """Keys proven non-None when ``test`` evaluates falsy."""
    keys: set[str] = set()
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        is_none_literal = (
            isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        )
        if is_none_literal and isinstance(test.ops[0], ast.Is):
            keys |= guard_keys(test.left)
    elif isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        for value in test.values:
            keys |= nonnull_when_false(value)
    elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        keys |= nonnull_when_true(test.operand)
    return keys


def _terminal_block(body: list[ast.stmt]) -> bool:
    """True when the block cannot fall through to the following statement."""
    if not body:
        return False
    return isinstance(body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.Module, ast.ClassDef)


class GuardIndex:
    """Parent links over one function (or module) body, with guard queries."""

    __slots__ = ("root", "_parents")

    def __init__(self, root: ast.AST) -> None:
        self.root = root
        self._parents: dict[int, ast.AST] = {}
        for parent in ast.walk(root):
            for child in ast.iter_child_nodes(parent):
                # nested scopes get their own GuardIndex; don't cross them
                if parent is not root and isinstance(parent, _SCOPE_NODES):
                    continue
                self._parents[id(child)] = parent

    def is_guarded(self, use: ast.AST, key: str) -> bool:
        """Is ``use`` provably inside a non-None guard for ``key``?"""
        node: ast.AST = use
        while True:
            parent = self._parents.get(id(node))
            if parent is None or (parent is not self.root and isinstance(parent, _SCOPE_NODES)):
                break
            if self._guarded_by_parent(parent, node, key):
                return True
            if self._guarded_by_block(parent, node, key):
                return True
            node = parent
        return False

    # ------------------------------------------------------------ internals

    def _guarded_by_parent(self, parent: ast.AST, child: ast.AST, key: str) -> bool:
        if isinstance(parent, ast.If):
            if self._in(parent.body, child) and key in nonnull_when_true(parent.test):
                return True
            if self._in(parent.orelse, child) and key in nonnull_when_false(parent.test):
                return True
        elif isinstance(parent, (ast.While,)):
            if self._in(parent.body, child) and key in nonnull_when_true(parent.test):
                return True
        elif isinstance(parent, ast.IfExp):
            if child is parent.body and key in nonnull_when_true(parent.test):
                return True
            if child is parent.orelse and key in nonnull_when_false(parent.test):
                return True
        elif isinstance(parent, ast.BoolOp):
            try:
                index = parent.values.index(child)  # type: ignore[arg-type]
            except ValueError:
                return False
            earlier = parent.values[:index]
            if isinstance(parent.op, ast.And):
                return any(key in nonnull_when_true(v) for v in earlier)
            return any(key in nonnull_when_false(v) for v in earlier)
        return False

    def _guarded_by_block(self, parent: ast.AST, child: ast.AST, key: str) -> bool:
        """Early-bail guards: prior siblings in the same statement list."""
        if not isinstance(child, ast.stmt):
            return False
        for field_name in ("body", "orelse", "finalbody"):
            block = getattr(parent, field_name, None)
            if not isinstance(block, list) or child not in block:
                continue
            for stmt in block[: block.index(child)]:
                if (
                    isinstance(stmt, ast.If)
                    and key in nonnull_when_false(stmt.test)
                    and _terminal_block(stmt.body)
                    and not stmt.orelse
                ):
                    return True
                if isinstance(stmt, ast.Assert) and key in nonnull_when_true(stmt.test):
                    return True
            return False
        return False

    @staticmethod
    def _in(block: list[ast.stmt], node: ast.AST) -> bool:
        return isinstance(node, ast.stmt) and node in block


def iter_scopes(tree: ast.Module) -> Iterable[ast.AST]:
    """The module plus every function definition (each analysed separately)."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def walk_scope(scope: ast.AST) -> Iterable[ast.AST]:
    """Like :func:`ast.walk`, but do not descend into nested scopes.

    Each function is analysed on its own by :func:`iter_scopes`; a
    module- or function-level pass that leaked into nested functions
    would re-check their bodies against the wrong guard context.
    """
    stack: list[ast.AST] = [scope]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES) and child is not scope:
                continue
            stack.append(child)


def tracked_feature_names(
    scope: ast.AST, feature_names: frozenset[str]
) -> set[str]:
    """Local names in ``scope`` that hold an *optional* feature.

    A bare name is tracked when it is bound from an attribute chain
    ending in a feature name (``tracer = self.tracer``), from a
    conditional with a None arm, from ``None`` itself, or arrives as a
    parameter that is either annotated optional or defaulted to None.
    Names bound only from constructors or other non-optional expressions
    are left alone — ``synopsis = ClusterSynopsis.collect(...)`` is
    provably non-None and needs no guard.
    """
    tracked: set[str] = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        defaults: dict[str, ast.expr] = {}
        positional = [*args.posonlyargs, *args.args]
        for arg, default in zip(positional[len(positional) - len(args.defaults):], args.defaults):
            defaults[arg.arg] = default
        for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
            if kw_default is not None:
                defaults[arg.arg] = kw_default
        for arg in all_args:
            if arg.arg not in feature_names:
                continue
            annotation = arg.annotation
            default = defaults.get(arg.arg)
            optional_annotation = annotation is not None and "None" in ast.unparse(annotation)
            optional_default = isinstance(default, ast.Constant) and default.value is None
            if annotation is None or optional_annotation or optional_default:
                tracked.add(arg.arg)
    for node in walk_scope(scope):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        elif isinstance(node, ast.NamedExpr):
            # walrus binding: `(tracer := self.tracer)` rebinds a local
            # from the optional slot exactly like a plain assignment
            targets, value = [node.target], node.value
        if value is None:
            continue
        for target in targets:
            if not isinstance(target, ast.Name) or target.id not in feature_names:
                continue
            if _optional_source(value, feature_names):
                tracked.add(target.id)
    return tracked


def _optional_source(value: ast.expr, feature_names: frozenset[str]) -> bool:
    if isinstance(value, ast.Constant) and value.value is None:
        return True
    if isinstance(value, ast.Attribute) and value.attr in feature_names:
        return True
    if isinstance(value, ast.IfExp):
        return any(
            isinstance(arm, ast.Constant) and arm.value is None
            for arm in (value.body, value.orelse)
        ) or _optional_source(value.body, feature_names) or _optional_source(
            value.orelse, feature_names
        )
    if isinstance(value, ast.BoolOp):
        return any(_optional_source(v, feature_names) for v in value.values)
    return False
