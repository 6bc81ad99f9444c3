"""Execution statistics.

A :class:`Stats` object accumulates the physical counters behind the
numbers reported in the paper's evaluation: pages read, seek activity,
buffer behaviour, swizzling, and primitive counts.  Timing (total / CPU /
I/O wait) is read off the :class:`repro.sim.clock.SimClock` and combined
with the counters into a :class:`repro.engine.Result` by the engine.

Every primitive that costs CPU time has a counter here, and a runtime's
clock reads its CPU seconds off them: ``clock.cpu_time`` *is*
``costs.price(stats)`` (:meth:`repro.sim.costmodel.CostModel.price`).
So incrementing a priced counter is how simulated time advances, and a
runtime's ``Stats`` only ever grow.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import add, attrgetter, sub


@dataclass(slots=True)
class Stats:
    """Mutable counter bundle for one query execution (or one component).

    All counters start at zero; operators and the storage layer increment
    them as side effects.  ``merge`` adds another bundle in, which the
    benchmarks use to aggregate across runs.  The increment of a priced
    counter is the charge itself, so any slice of a run (a ``diff``)
    prices to the CPU seconds it spent.
    """

    # I/O layer
    io_requests: int = 0
    #: logical page-read operations issued by the engine; fault-recovery
    #: retries of the same read do *not* recharge it (contrast
    #: ``pages_read``, which counts physical service attempts) — this is
    #: the dimension ``ExecutionBudget.max_pages`` meters, and the count
    #: ``io_submit`` is priced by
    pages_requested: int = 0
    pages_read: int = 0
    seeks: int = 0
    seek_distance: int = 0
    sequential_reads: int = 0
    async_requests: int = 0
    sync_requests: int = 0

    # fault injection and recovery (see repro.sim.faults)
    io_errors: int = 0  #: failed service attempts delivered to the I/O system
    retries: int = 0  #: resubmissions after an error or a timeout
    timeouts: int = 0  #: requests declared lost after the deadline
    lost_requests: int = 0  #: completions dropped by the fault plan
    slow_services: int = 0  #: latency-spiked service attempts
    backoff_wait: float = 0.0  #: simulated seconds of scheduled retry backoff
    slo_violations: int = 0  #: completions that blew the latency SLO
    sidelined_clusters: int = 0  #: clusters deprioritized after an SLO/IO event

    # buffer manager
    buffer_hits: int = 0
    buffer_misses: int = 0
    evictions: int = 0
    swizzles: int = 0
    unswizzles: int = 0
    #: frames registered after a read (``page_register``): misses, and
    #: asynchronous completions and early arrivals admitted
    page_registers: int = 0

    # navigation / algebra
    intra_hops: int = 0
    node_tests: int = 0
    instances_created: int = 0
    #: R/S probes and inserts, duplicate-hash operations and sort
    #: comparisons (``set_op``)
    set_ops: int = 0
    #: inserts/removes on XSchedule's queue Q, and XScan's context intake
    #: (``queue_op``)
    queue_ops: int = 0
    iterator_calls: int = 0  #: ``next()`` crossings between operators
    border_crossings_deferred: int = 0
    speculative_instances: int = 0
    merges: int = 0
    duplicates_suppressed: int = 0
    fallbacks: int = 0
    clusters_visited: int = 0
    synopsis_clusters_pruned: int = 0  #: clusters XScan skipped via the synopsis
    #: per-step extensions dropped via the synopsis: queue requests
    #: XSchedule declined to enqueue, and (page, step) speculation
    #: rounds XScan skipped on pages it still had to read
    synopsis_entries_pruned: int = 0
    #: whole location paths the path summary refuted at compile time
    #: (the plan ran as a constant-empty result: zero pages requested)
    paths_refuted: int = 0
    #: clusters skipped *only* thanks to the path-summary postings —
    #: counted on top of (never instead of) ``synopsis_clusters_pruned``,
    #: which keeps its synopsis-only semantics
    pathsummary_clusters_pruned: int = 0
    #: per-step extensions dropped only thanks to the postings (same
    #: attribution rule as ``pathsummary_clusters_pruned``)
    pathsummary_entries_pruned: int = 0

    def merge(self, other: "Stats") -> None:
        """Add every counter of ``other`` into this bundle."""
        get = _getter(self)
        type(self).__init__(self, *map(add, get(self), get(other)))  # stores every sum

    def snapshot(self) -> "Stats":
        """An independent copy of the current counter values."""
        return type(self)(*_getter(self)(self))

    def diff(self, earlier: "Stats") -> "Stats":
        """Counter-wise ``self - earlier`` (the activity since ``earlier``).

        Used by warm execution sessions to attribute per-run counters on a
        shared, long-lived runtime: snapshot before the run, diff after.
        """
        get = _getter(self)
        return type(self)(*map(sub, get(self), get(earlier)))

    def as_dict(self) -> dict[str, float]:
        """Return a plain ``{name: value}`` dictionary of all counters."""
        return dict(zip(_names(self), _getter(self)(self)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nonzero = {k: v for k, v in self.as_dict().items() if v}
        return f"Stats({nonzero})"


#: the counters' names in declaration order (``dataclasses.fields``
#: builds a tuple per call), and the C-level read of them all
FIELDS: tuple[str, ...] = tuple(f.name for f in fields(Stats))
_FIELDS_OF = attrgetter(*FIELDS)


def _names(stats: Stats) -> tuple[str, ...]:
    """:data:`FIELDS`, or the fields of a class extending :class:`Stats`."""
    return FIELDS if type(stats) is Stats else tuple(f.name for f in fields(stats))


def _getter(stats: Stats) -> attrgetter:
    return _FIELDS_OF if type(stats) is Stats else attrgetter(*_names(stats))
