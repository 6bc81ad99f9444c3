"""Compilation of parsed queries into physical plans.

Three plan families, exactly the paper's evaluation matrix (Sec. 6.2):

* ``SIMPLE`` — Unnest-Map chain with final duplicate elimination
  (Sec. 5.1);
* ``XSCHEDULE`` — XSchedule -> XStep chain -> XAssembly, asynchronous I/O
  (Sec. 5.3);
* ``XSCAN`` — XScan -> XStep chain -> XAssembly, one sequential scan with
  speculation (Sec. 5.4);
* ``AUTO`` — picks XSCHEDULE or XSCAN with the cost model from
  :mod:`repro.xpath.estimate` (the paper's "future work" chooser).

An orthogonal logical rewrite (Sec. 2 "interoperable with logical
optimization") merges ``descendant-or-self::node()/child::X`` into
``descendant::X``; it can be disabled to exercise the ``//``-prefix
R-optimisation of Sec. 5.4.5.4 instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.axes import Axis
from repro.algebra.context import EvalContext, EvalOptions
from repro.algebra.base import Operator
from repro.algebra.misc import (
    ContextScan,
    DuplicateElimination,
    count_results,
    order_results,
    result_nodeids,
)
from repro.algebra.steps import CompiledNodeTest, CompiledStep
from repro.algebra.unnestmap import UnnestMap
from repro.algebra.xassembly import XAssembly
from repro.algebra.xschedule import XSchedule
from repro.algebra.xscan import XScan
from repro.errors import UnsupportedQueryError
from repro.model.tags import TagDictionary
from repro.sim.disk import DiskGeometry
from repro.storage.nodeid import NodeID
from repro.storage.store import StoredDocument
from repro.algebra.steps import CompiledPredicate
from repro.xpath.ast import (
    BinaryOp,
    Comparison,
    CountCall,
    Expr,
    LocationPath,
    NumberLiteral,
    PathExpr,
    Step,
    StringLiteral,
    UnionExpr,
)
from repro.storage.pathsummary import PathPostings
from repro.xpath.estimate import IOCostPrediction, predict_io_costs
from repro.xpath.parser import parse_query
from repro.xpath.rewrite import rewrite_path


def _is_node_set(node: object) -> bool:
    return isinstance(node, CompiledPathPlan) or (
        isinstance(node, tuple) and node and node[0] == "union"
    )


class PlanKind(enum.Enum):
    SIMPLE = "simple"
    XSCHEDULE = "xschedule"
    XSCAN = "xscan"
    #: all of the query's paths share a single sequential scan (the
    #: multi-path extension from the paper's outlook)
    XSCAN_SHARED = "xscan-shared"
    AUTO = "auto"

    @classmethod
    def coerce(cls, plan: "PlanKind | str") -> "PlanKind":
        """``plan`` as a member; an unknown name is the caller's typed error."""
        try:
            return cls(plan)
        except ValueError:
            names = ", ".join(repr(kind.value) for kind in cls)
            raise UnsupportedQueryError(
                f"unknown plan {plan!r}: expected one of {names}"
            ) from None


# -------------------------------------------------------------- step binding


def _compile_steps(
    path: LocationPath, tags: TagDictionary, allow_predicates: bool
) -> list[CompiledStep]:
    steps = []
    for step in path.steps:
        tag_id = None
        if step.test.kind == "name":
            assert step.test.name is not None
            tag_id = tags.lookup(step.test.name)
        test = CompiledNodeTest.compile(step.test.kind, step.axis, tag_id)
        predicates = []
        for predicate in step.predicates:
            if not allow_predicates:
                raise UnsupportedQueryError(
                    "nested predicates produce path instances with more than "
                    "two incomplete ends; only the SIMPLE plan evaluates them"
                )
            predicates.append(_compile_predicate(predicate, tags))
        steps.append(CompiledStep(step.axis, test, predicates))
    return steps


def _compile_predicate(expr: Expr, tags: TagDictionary) -> CompiledPredicate:
    if isinstance(expr, PathExpr):
        if expr.path.absolute:
            raise UnsupportedQueryError("absolute paths in predicates are not supported")
        return CompiledPredicate(_compile_steps(expr.path, tags, allow_predicates=True))
    if isinstance(expr, Comparison):
        left, right = expr.left, expr.right
        if isinstance(right, PathExpr) and isinstance(left, (StringLiteral, NumberLiteral)):
            left, right = right, left
        if not isinstance(left, PathExpr) or not isinstance(
            right, (StringLiteral, NumberLiteral)
        ):
            raise UnsupportedQueryError(
                "predicates support comparisons between a relative path and a literal"
            )
        if left.path.absolute:
            raise UnsupportedQueryError("absolute paths in predicates are not supported")
        literal = (
            right.value
            if isinstance(right, StringLiteral)
            else format(right.value, "g")
        )
        return CompiledPredicate(
            _compile_steps(left.path, tags, allow_predicates=True),
            op=expr.op,
            literal=literal,
        )
    raise UnsupportedQueryError(f"unsupported predicate {expr}")


def _rewrite_descendant(steps: list[CompiledStep]) -> list[CompiledStep]:
    """Merge ``descendant-or-self::node()`` into the following step."""
    out: list[CompiledStep] = []
    i = 0
    merged_axis = {
        Axis.CHILD: Axis.DESCENDANT,
        Axis.DESCENDANT: Axis.DESCENDANT,
        Axis.DESCENDANT_OR_SELF: Axis.DESCENDANT_OR_SELF,
        Axis.SELF: Axis.DESCENDANT_OR_SELF,
    }
    while i < len(steps):
        step = steps[i]
        is_dos_node = (
            step.axis is Axis.DESCENDANT_OR_SELF
            and step.test.is_node_test
            and not step.predicates
        )
        if is_dos_node and i + 1 < len(steps) and steps[i + 1].axis in merged_axis:
            nxt = steps[i + 1]
            out.append(CompiledStep(merged_axis[nxt.axis], nxt.test, nxt.predicates))
            i += 2
        else:
            out.append(step)
            i += 1
    return out


# ------------------------------------------------------------ AUTO resolution


@dataclass(frozen=True)
class AutoChoice:
    """One AUTO resolution, recorded on the compiled query.

    The session's plan cache uses these to revalidate a cached AUTO plan
    against the live feedback store: if resolving ``steps`` today would
    pick a different family than ``choice``, the cached plan is stale
    and the query recompiles (compilation is off the simulated clock, so
    replanning is free in simulated time).
    """

    steps: tuple[CompiledStep, ...]
    choice: str  #: resolved family ("xscan" / "xschedule")
    source: str  #: "estimator", "measured" or "explore"


def resolve_auto(
    document: StoredDocument,
    steps: list[CompiledStep],
    geometry: DiskGeometry,
    options: EvalOptions,
    advisor: object | None = None,
) -> tuple[str, str, IOCostPrediction | None]:
    """Resolve one AUTO path: ``(choice, source, prediction)``.

    The estimator predicts both families' costs (priced with the
    advisor's fitted :class:`~repro.sim.costmodel.ChooserCostModel` when
    one exists); the advisor — a
    :class:`~repro.exec.calibration.CalibrationStore`, or ``None`` when
    calibration is off — may then override the pick with a measured
    outcome or an exploration run.
    """
    model = advisor.model if advisor is not None else None
    prediction = predict_io_costs(
        document,
        steps,
        geometry,
        use_synopsis=options.synopsis,
        queue_depth=options.k_min_queue,
        model=model,
        use_pathsummary=options.pathsummary,
    )
    choice = "xschedule" if prediction is None else prediction.choice
    source = "estimator"
    if advisor is not None:
        advice = advisor.advise(document.name, steps, prediction)
        if advice is not None:
            choice, source = advice
    return choice, source, prediction


# ---------------------------------------------------------------- path plans


@dataclass(eq=False)  # compared and hashed by identity: plans key result maps
class CompiledPathPlan:
    """A location path bound to a document, ready to instantiate."""

    steps: list[CompiledStep]
    kind: PlanKind  #: resolved (never AUTO)
    document: StoredDocument
    descendant_root_opt: bool
    #: the path summary proved the result empty at compile time: the
    #: plan executes as a constant-empty result (zero pages requested)
    refuted: bool = False
    #: per-step cluster postings from the rewrite pass (None when the
    #: summary is absent or ``EvalOptions.pathsummary`` is off)
    postings: PathPostings | None = None

    def build(self, ctx: EvalContext) -> Operator:
        """Instantiate the operator tree for one execution."""
        contexts: list[NodeID] = [self.document.root]
        source: Operator = ContextScan(ctx, contexts)
        if self.kind is PlanKind.SIMPLE:
            top = source
            for index, step in enumerate(self.steps, start=1):
                top = UnnestMap(ctx, top, index, step)
            return DuplicateElimination(ctx, top)
        if self.kind is PlanKind.XSCHEDULE:
            schedule = XSchedule(
                ctx,
                source,
                self.steps,
                document=self.document,
                postings=self.postings,
            )
            return XAssembly(
                ctx,
                schedule,
                len(self.steps),
                schedule=schedule,
                steps=self.steps,
                document=self.document,
            )
        if self.kind is PlanKind.XSCAN:
            scan = XScan(
                ctx, source, self.steps, self.document, postings=self.postings
            )
            return XAssembly(
                ctx,
                scan,
                len(self.steps),
                descendant_root_opt=self.descendant_root_opt,
                steps=self.steps,
                document=self.document,
            )
        raise UnsupportedQueryError(f"unresolved plan kind {self.kind}")

    def _run(self, ctx: EvalContext, drain: Callable[[Operator], Any], empty: Any) -> Any:
        """``drain`` one execution of the plan (``empty`` when refuted)."""
        if self.refuted:
            ctx.stats.paths_refuted += 1
            return empty
        # idempotent: a no-op when CompiledQuery.execute armed it already
        armed = ctx.arm_budget(ctx.options.budget)
        top = self.build(ctx)
        try:
            return drain(top)
        finally:
            if armed:
                ctx.disarm_budget()
            ctx.release()
            ctx.fallback = False

    def run_count(self, ctx: EvalContext) -> int:
        return self._run(ctx, lambda top: count_results(top, ctx), 0)

    def run_nodes(self, ctx: EvalContext) -> list[NodeID]:
        """The path's result nodes, unordered."""
        return self._run(ctx, result_nodeids, [])


# ------------------------------------------------------------- query plans


@dataclass
class CompiledQuery:
    """An expression with path plans at the leaves."""

    expr: object  #: mirrored AST with CompiledPathPlan leaves
    query: str
    plan_kinds: list[PlanKind]
    #: the leaf paths in evaluation order, each with whether the
    #: expression counts it (a ``count(path)``) or takes its node set
    leaves: list[tuple[CompiledPathPlan, bool]]
    shared_scan: bool = False  #: evaluate all paths in one physical scan
    #: AUTO resolutions made during compilation (empty for forced plans);
    #: the session plan cache revalidates these against the feedback store
    auto_choices: list[AutoChoice] = field(default_factory=list)

    def execute(self, ctx: EvalContext) -> tuple[float | None, list[NodeID] | None]:
        """Run the query; returns ``(value, nodes)`` (one of them None).

        Arms the execution budget from ``ctx.options`` for the whole
        query, so multi-path expressions (unions, arithmetic) share one
        allowance instead of getting a fresh one per path.
        """
        armed = ctx.arm_budget(ctx.options.budget)
        try:
            if self.shared_scan:
                return self.resolve_with_results(ctx, shared_scan_results(ctx, [self]))
            return self.evaluate(
                ctx, lambda plan: plan.run_nodes(ctx), lambda plan: plan.run_count(ctx)
            )
        finally:
            if armed:
                ctx.disarm_budget()

    def evaluate(
        self,
        ctx: EvalContext,
        nodes_of: Callable[[CompiledPathPlan], list[NodeID]],
        count_of: Callable[[CompiledPathPlan], float] | None = None,
    ) -> tuple[float | None, list[NodeID] | None]:
        """The one walk over the expression tree: count, union, count of
        a union, arithmetic, comparison, document order.

        Every way of running a query ends here; they differ in how a leaf
        path's node set (``nodes_of``, unordered) or cardinality
        (``count_of``) is obtained.  With ``count_of`` the leaves are
        plans being run: a counted path is drained by its own plan, which
        pays one ``set_op`` per tuple, and a union pays one per member it
        merges.  Without, they are finished result sets (a shared
        scan's): merging them is free and a count pays one ``set_op``.
        """

        def nodes(node: object) -> list[NodeID]:
            if isinstance(node, CompiledPathPlan):
                return nodes_of(node)
            merged: set[NodeID] = set()
            for plan in node[1]:  # type: ignore[index]
                merged.update(nodes_of(plan))
                if count_of is not None:
                    ctx.charge_set_op()
            return list(merged)

        def value(node: object) -> float:
            if isinstance(node, float):
                return node
            op, left, right = node  # type: ignore[misc]
            if op == "count":
                if count_of is None:
                    ctx.charge_set_op()
                elif isinstance(left, CompiledPathPlan):
                    return float(count_of(left))
                return float(len(nodes(left)))
            lv = value(left)
            rv = value(right)
            if op in ("=", "!="):
                return float(lv == rv if op == "=" else lv != rv)
            return lv + rv if op == "+" else lv - rv

        if _is_node_set(self.expr):
            return None, order_results(ctx, nodes(self.expr))
        return value(self.expr), None

    # ----------------------------------------------------------- explain

    def explain(self) -> str:
        """Human-readable rendering of the physical plan."""
        lines: list[str] = [f"query: {self.query}"]
        if self.shared_scan:
            lines.append("shared sequential scan over all paths")

        def walk(node: object, indent: int) -> None:
            pad = "  " * indent
            if isinstance(node, float):
                lines.append(f"{pad}const {node}")
                return
            if isinstance(node, CompiledPathPlan):
                lines.append(f"{pad}path [{node.kind.value}]")
                self._explain_path(node, lines, indent + 1)
                return
            op, left, right = node  # type: ignore[misc]
            if op == "count":
                lines.append(f"{pad}count")
                walk(left, indent + 1)
            elif op == "union":
                lines.append(f"{pad}union")
                for plan in left:
                    walk(plan, indent + 1)
            else:
                lines.append(f"{pad}{op}")
                walk(left, indent + 1)
                walk(right, indent + 1)

        walk(self.expr, 1)
        return "\n".join(lines)

    @staticmethod
    def _explain_path(plan: "CompiledPathPlan", lines: list[str], indent: int) -> None:
        pad = "  " * indent
        if plan.refuted:
            lines.append(f"{pad}ConstEmpty (path refuted by the path summary)")
            return
        if plan.kind is PlanKind.SIMPLE:
            lines.append(f"{pad}DuplicateElimination")
            for index in range(len(plan.steps), 0, -1):
                step = plan.steps[index - 1]
                predicates = f" [{len(step.predicates)} predicates]" if step.predicates else ""
                lines.append(f"{pad}  UnnestMap({index}: {step.axis.value}){predicates}")
            lines.append(f"{pad}  ContextScan(root)")
            return
        opt = " +//-opt" if plan.descendant_root_opt else ""
        lines.append(f"{pad}XAssembly(|pi|={len(plan.steps)}{opt})")
        for index in range(len(plan.steps), 0, -1):
            step = plan.steps[index - 1]
            lines.append(f"{pad}  XStep({index}: {step.axis.value})")
        io_op = "XSchedule" if plan.kind is PlanKind.XSCHEDULE else "XScan"
        lines.append(f"{pad}  {io_op}")
        lines.append(f"{pad}    ContextScan(root)")

    # ------------------------------------------------------- shared scan

    def path_plans(self) -> list["CompiledPathPlan"]:
        """All location-path plans at the leaves, in evaluation order."""
        return [plan for plan, _ in self.leaves]

    def resolve_with_results(
        self, ctx: EvalContext, by_plan: dict[CompiledPathPlan, list[NodeID]]
    ) -> tuple[float | None, list[NodeID] | None]:
        """Finish evaluation given each leaf path's (unordered) node set,
        as :func:`shared_scan_results` returns them: one physical scan
        feeds every path of a query, or of a batch of queries."""
        return self.evaluate(ctx, by_plan.__getitem__)


def shared_scan_results(
    ctx: EvalContext, queries: Sequence[CompiledQuery]
) -> dict[CompiledPathPlan, list[NodeID]]:
    """One shared scan for every leaf path of ``queries`` (all over one
    document): the (unordered) node set of each, for
    :meth:`CompiledQuery.resolve_with_results`.

    A plan several queries hold is scanned once.  Refuted paths
    contribute constant-empty result sets and stay out of the physical
    scan; queries of only refuted paths never touch the store at all.
    """
    from repro.algebra.multiscan import shared_scan

    by_plan: dict[CompiledPathPlan, list[NodeID]] = {
        plan: [] for query in queries for plan in query.path_plans()
    }
    live = [plan for plan in by_plan if not plan.refuted]
    ctx.stats.paths_refuted += len(by_plan) - len(live)
    if live:
        by_plan.update(zip(live, shared_scan(ctx, live[0].document, live)))
    return by_plan


def compile_query(
    query: str | Expr,
    document: StoredDocument,
    tags: TagDictionary,
    plan: PlanKind | str = PlanKind.AUTO,
    options: EvalOptions | None = None,
    geometry: DiskGeometry | None = None,
    advisor: object | None = None,
    tracer: object | None = None,
) -> CompiledQuery:
    """Compile ``query`` against ``document`` into an executable plan.

    ``advisor`` (a :class:`~repro.exec.calibration.CalibrationStore`)
    lets AUTO consult measured outcomes; ``tracer`` records one
    ``plan-choice`` event per AUTO resolution.  Both are planning-time
    only — the compiled plan is the same object either way.
    """
    expr = parse_query(query) if isinstance(query, str) else query
    kind = PlanKind.coerce(plan)
    opts = options or EvalOptions()
    geo = geometry or DiskGeometry()
    kinds: list[PlanKind] = []
    auto_choices: list[AutoChoice] = []
    leaves: list[tuple[CompiledPathPlan, bool]] = []

    def leaf(path: LocationPath, counted: bool = False) -> CompiledPathPlan:
        plan = compile_path(path)
        leaves.append((plan, counted))
        return plan

    def compile_path(path: LocationPath) -> CompiledPathPlan:
        if not path.absolute:
            # relative queries evaluate from the document root context
            pass
        steps = _compile_steps(path, tags, allow_predicates=kind is PlanKind.SIMPLE)
        starts_with_dos_root = bool(
            path.absolute
            and steps
            and steps[0].axis is Axis.DESCENDANT_OR_SELF
            and steps[0].test.is_node_test
        )
        if opts.rewrite_descendant:
            steps = _rewrite_descendant(steps)
        postings = None
        summary = document.pathsummary if opts.pathsummary else None
        if summary is not None:
            # whole-query rewrite against the path summary: refute the
            # path outright, expand provable // steps into child chains,
            # and derive the operators' cluster postings.  Planning-time
            # only — no simulated time is charged
            outcome = rewrite_path(summary, steps)
            if tracer is not None and (outcome.refuted or outcome.expanded):
                tracer.rewrite_event(
                    str(path),
                    outcome.refuted,
                    outcome.expanded,
                    cardinality=outcome.evaluation.cardinality,
                )
            if outcome.refuted:
                # no plan choice to make: the result is a compile-time
                # constant.  AUTO paths skip resolution entirely (no
                # AutoChoice recorded — there is nothing to revalidate)
                resolved = (
                    PlanKind.XSCHEDULE if kind is PlanKind.AUTO else kind
                )
                kinds.append(resolved)
                path_kind = (
                    PlanKind.XSCAN
                    if resolved is PlanKind.XSCAN_SHARED
                    else resolved
                )
                return CompiledPathPlan(
                    outcome.steps, path_kind, document, False, refuted=True
                )
            steps = outcome.steps
            postings = outcome.postings
        resolved = kind
        if resolved is PlanKind.AUTO:
            choice, source, prediction = resolve_auto(document, steps, geo, opts, advisor)
            resolved = PlanKind(choice)
            auto_choices.append(AutoChoice(tuple(steps), choice, source))
            if tracer is not None:
                tracer.plan_choice_event(
                    choice,
                    source,
                    sequential_cost=(
                        prediction.sequential_cost if prediction is not None else None
                    ),
                    random_cost=(
                        prediction.random_cost if prediction is not None else None
                    ),
                    margin=prediction.margin if prediction is not None else None,
                )
        desc_root_opt = (
            opts.descendant_root_opt
            and resolved in (PlanKind.XSCAN, PlanKind.XSCAN_SHARED)
            and starts_with_dos_root
            and steps
            and steps[0].axis is Axis.DESCENDANT_OR_SELF
            and steps[0].test.is_node_test
            # the opt declares every step-1 junction proven, and those
            # junctions are consumed by the second step.  For downward and
            # upward axes every entry border is provably crossed (contexts
            # exist everywhere under //node()), but a sibling axis enters a
            # plain up-border as a *candidate* crossing — valid only if the
            # exiled subtree root actually has a preceding (resp. following)
            # sibling, which a first/last child does not.  Those junctions
            # need explicit proof, so the opt must stay off.
            and not (len(steps) > 1 and steps[1].axis.is_sibling)
        )
        kinds.append(resolved)
        path_kind = PlanKind.XSCAN if resolved is PlanKind.XSCAN_SHARED else resolved
        return CompiledPathPlan(
            steps, path_kind, document, bool(desc_root_opt), postings=postings
        )

    def walk(node: Expr) -> object:
        if isinstance(node, NumberLiteral):
            return node.value
        if isinstance(node, StringLiteral):
            raise UnsupportedQueryError(
                "string literals are only supported inside predicates"
            )
        if isinstance(node, PathExpr):
            return leaf(node.path)
        if isinstance(node, UnionExpr):
            return ("union", [leaf(p) for p in node.paths], None)
        if isinstance(node, CountCall):
            if isinstance(node.path, UnionExpr):
                return ("count", walk(node.path), None)
            return ("count", leaf(node.path, counted=True), None)
        if isinstance(node, (BinaryOp, Comparison)):
            left = walk(node.left)
            right = walk(node.right)
            if _is_node_set(left) or _is_node_set(right):
                raise UnsupportedQueryError(
                    "node-set operands are only supported inside count() and predicates"
                )
            return (node.op, left, right)
        raise UnsupportedQueryError(f"unsupported expression {node!r}")

    compiled = walk(expr)
    return CompiledQuery(
        expr=compiled,
        query=str(expr),
        plan_kinds=kinds,
        leaves=leaves,
        shared_scan=kind is PlanKind.XSCAN_SHARED,
        auto_choices=auto_choices,
    )
