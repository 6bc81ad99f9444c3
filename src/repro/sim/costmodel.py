"""CPU cost constants for the primitives of the evaluation engine.

The paper reports measured CPU seconds of a C++ runtime (Natix).  Our
runtime is a simulator, so CPU time is *modeled*: each physical primitive
executed by the engine is counted in ``Stats``, and each count is priced
at a constant.  The
constants below were calibrated so that the CPU/total breakdown of Table 3
lands in the same regime as the paper (CPU fractions of roughly 10-30% for
navigation-bound plans and 60-80% for the scan plan).

All values are in seconds.  Every constant prices one ``Stats`` counter
(:meth:`CostModel.price`), and the simulated clock's CPU seconds are
that price of the runtime's counters (:class:`~repro.sim.clock.SimClock`):
a primitive is charged by incrementing its counter, and by nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable

from repro.sim.clock import on_grid
from repro.sim.stats import Stats


@dataclass(frozen=True, slots=True)
class CostModel:
    """Per-primitive CPU costs of the engine.

    Attributes
    ----------
    swizzle:
        Translating a NodeID into a buffer-frame pointer.  Requires a
        buffer-manager hash table lookup with latch acquisition (Sec. 3.6),
        which is why it is an order of magnitude more expensive than an
        intra-cluster hop.
    unswizzle:
        Converting a pointer back into a NodeID.  Cheap (Sec. 3.6).
    intra_hop:
        Following one intra-cluster edge (slot-to-slot within a page).
    node_test:
        Evaluating a node test (tag-set membership) on one node.
    instance_op:
        Creating or copying one partial path instance tuple.
    set_op:
        One insert/lookup in the main-memory structures R, S of XAssembly
        or a duplicate-elimination hash table.
    queue_op:
        One insert/remove on XSchedule's queue Q.
    iterator_call:
        Overhead of one ``next()`` crossing between operators.
    page_register:
        Registering a page with the buffer after I/O completes (frame
        bookkeeping + record directory decoding), charged once per miss.
    io_submit:
        CPU cost of issuing one I/O request to the kernel/controller.

    Every constant must be a finite, non-negative number of seconds (a
    :class:`ValueError` naming it otherwise: the clock prices counters
    with it unchecked) and is snapped to the time grid at construction
    (:func:`~repro.sim.clock.on_grid`), so ``count * constant`` and any
    sum of them is exact.  Each constant prices one unit of one
    ``Stats`` counter (:data:`PRICED`): :meth:`price` of a run's
    counters is its simulated CPU seconds.
    """

    swizzle: float = 15.0e-6
    unswizzle: float = 0.5e-6
    intra_hop: float = 3.5e-6
    node_test: float = 1.2e-6
    instance_op: float = 4.0e-6
    set_op: float = 5.0e-6
    queue_op: float = 2.5e-6
    iterator_call: float = 2.0e-6
    page_register: float = 100e-6
    io_submit: float = 8e-6

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 <= value < math.inf:
                raise ValueError(
                    f"cost constant {f.name} must be a finite non-negative "
                    f"number of seconds, got {value!r}"
                )
            object.__setattr__(self, f.name, on_grid(value))

    def price(self, stats: Stats) -> float:
        """The CPU seconds ``stats`` paid for: count × constant, summed
        over the ten pairs of :data:`PRICED`.

        The one pricing function: :attr:`SimClock.cpu_time
        <repro.sim.clock.SimClock.cpu_time>` is this of the runtime's
        counters.  Exact below the clock's horizon, so it prices any
        slice of a run (a ``Stats.diff``) to the CPU seconds the slice
        spent, with ``==``.
        """
        return (
            stats.swizzles * self.swizzle
            + stats.unswizzles * self.unswizzle
            + stats.intra_hops * self.intra_hop
            + stats.node_tests * self.node_test
            + stats.instances_created * self.instance_op
            + stats.set_ops * self.set_op
            + stats.queue_ops * self.queue_op
            + stats.iterator_calls * self.iterator_call
            + stats.page_registers * self.page_register
            + stats.pages_requested * self.io_submit
        )

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy with every constant multiplied by ``factor``.

        Useful for sensitivity analysis (e.g. modeling a faster CPU).
        """
        return CostModel(
            swizzle=self.swizzle * factor,
            unswizzle=self.unswizzle * factor,
            intra_hop=self.intra_hop * factor,
            node_test=self.node_test * factor,
            instance_op=self.instance_op * factor,
            set_op=self.set_op * factor,
            queue_op=self.queue_op * factor,
            iterator_call=self.iterator_call * factor,
            page_register=self.page_register * factor,
            io_submit=self.io_submit * factor,
        )


#: constant -> the ``Stats`` counter it prices (the pairs :meth:`CostModel.price` sums)
PRICED: dict[str, str] = {
    "swizzle": "swizzles",
    "unswizzle": "unswizzles",
    "intra_hop": "intra_hops",
    "node_test": "node_tests",
    "instance_op": "instances_created",
    "set_op": "set_ops",
    "queue_op": "queue_ops",
    "iterator_call": "iterator_calls",
    "page_register": "page_registers",
    "io_submit": "pages_requested",
}

#: Default cost model used by :class:`repro.engine.Database` when none is given.
DEFAULT_COST_MODEL = CostModel()


# --------------------------------------------- chooser-side planning model


@dataclass(frozen=True, slots=True)
class ChooserCostModel:
    """Planning-time CPU constants for the AUTO chooser.

    The chooser's historical comparison is pure I/O (transfer vs. seek +
    rotation), but the simulator also charges CPU per primitive — a scan
    node-tests every record in the store while XSchedule only processes
    the path's candidates, so at high buffer hit rates the CPU term
    decides.  These four constants let the chooser price that in:

    * ``scan_cpu_per_node`` × document nodes + ``scan_overhead`` is
      added to the sequential side;
    * ``sched_cpu_per_node`` × estimated visited nodes +
      ``sched_overhead`` is added to the random side.

    The defaults are zero (pure-I/O comparison, the historical
    behaviour).  Real values come from :func:`fit_chooser_model`, which
    regresses them from *observed* simulated runs — closing the loop the
    querytorque dossier shows open-loop cost models lose.
    """

    scan_cpu_per_node: float = 0.0
    scan_overhead: float = 0.0
    sched_cpu_per_node: float = 0.0
    sched_overhead: float = 0.0

    def as_dict(self) -> dict[str, float]:
        """JSON-serialisable form (persisted in the validation artifact)."""
        return {
            "scan_cpu_per_node": self.scan_cpu_per_node,
            "scan_overhead": self.scan_overhead,
            "sched_cpu_per_node": self.sched_cpu_per_node,
            "sched_overhead": self.sched_overhead,
        }


@dataclass(frozen=True, slots=True)
class ChooserSample:
    """One observed run used to calibrate the chooser.

    ``io_cost`` is the chooser's *pure-I/O* prediction for the plan that
    ran; the fit explains the residual ``observed_total - io_cost`` as a
    linear function of ``work_nodes`` (document nodes for a scan,
    estimated visited nodes for a schedule).
    """

    plan: str  #: "xscan" or "xschedule"
    work_nodes: float
    io_cost: float
    observed_total: float


def _fit_line(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Closed-form least squares ``y ~ a*x + b`` with ``a`` clamped >= 0.

    A negative per-node CPU slope is physically meaningless (it would
    mean processing more nodes is free); the intercept may go negative —
    it then corrects a systematic overestimate in the I/O term.
    """
    n = len(points)
    if n == 0:
        return 0.0, 0.0
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    var = sum((x - mean_x) ** 2 for x, _ in points)
    if var <= 0.0:
        return 0.0, mean_y
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / var
    slope = max(0.0, slope)
    return slope, mean_y - slope * mean_x


def fit_chooser_model(samples: Iterable[ChooserSample]) -> ChooserCostModel:
    """Fit chooser CPU constants from observed runs by least squares.

    Each plan family is fitted independently: the residual of the
    observed simulated total over the predicted I/O cost is regressed
    against the family's work-node count.  Families without samples keep
    their zero defaults (the fit degrades gracefully to the pure-I/O
    comparison).
    """
    scan_points: list[tuple[float, float]] = []
    sched_points: list[tuple[float, float]] = []
    for sample in samples:
        point = (sample.work_nodes, sample.observed_total - sample.io_cost)
        if sample.plan == "xscan":
            scan_points.append(point)
        elif sample.plan == "xschedule":
            sched_points.append(point)
    scan_cpu, scan_overhead = _fit_line(scan_points)
    sched_cpu, sched_overhead = _fit_line(sched_points)
    return ChooserCostModel(
        scan_cpu_per_node=scan_cpu,
        scan_overhead=scan_overhead,
        sched_cpu_per_node=sched_cpu,
        sched_overhead=sched_overhead,
    )
