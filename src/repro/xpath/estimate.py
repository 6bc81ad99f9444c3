"""Cardinality and I/O estimation for the AUTO plan chooser.

The paper's outlook calls for "a cost model to support the choice of the
I/O-performing operator".  This module provides one: a per-step
cardinality estimator over the schema statistics collected at import
(tag counts, parent-child and ancestor-descendant tag-pair counts), and
an I/O cost comparison between an XSchedule plan (random reads of the
pages the path actually visits) and an XScan plan (a sequential pass over
the whole document).

The estimator tracks the result multiset as a distribution over tags,
which is exact for paths over acyclic schemata like XMark's and a decent
approximation elsewhere.  Upward and sibling steps are estimated crudely
(whole-tag counts), which only makes AUTO conservative for such paths.

:func:`predict_io_costs` exposes the full prediction (both sides of the
comparison, the visited-page estimate and the decision margin) so the
validation harness (:mod:`repro.xpath.validate`) can score every decision
against the simulator, and so the session-level feedback store
(:mod:`repro.exec.calibration`) can tell a confident choice from a coin
flip; its :attr:`~IOCostPrediction.choice` is the pick.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.axes import Axis
from repro.algebra.steps import CompiledStep, UNKNOWN_TAG
from repro.model.tags import DOCUMENT_TAG
from repro.sim.disk import DiskGeometry
from repro.storage.pathsummary import PathPostings, PathSummary
from repro.storage.store import DocumentStatistics, StoredDocument
from repro.storage.synopsis import ClusterSynopsis


@dataclass(frozen=True)
class PathEstimate:
    """Estimated work of one location path."""

    result_cardinality: float  #: nodes in the final result
    visited_nodes: float  #: node candidates the step operators enumerate
    visited_fraction: float  #: visited_nodes / document nodes


def estimate_path(
    stats: DocumentStatistics,
    steps: list[CompiledStep],
    summary: PathSummary | None = None,
) -> PathEstimate:
    """Estimate result cardinality and nodes visited for ``steps``.

    With a path summary, the whole-path evaluation replaces the per-tag
    random walk outright when it is exact (downward axes, no
    predicates): the summary's per-path counts *are* the true result
    cardinality, and its swept-path counts the true candidates visited.
    Even when the walk still runs (upward/sibling axes, predicates), the
    summary changes absent-tag handling: a tag the document provably
    does not contain contributes cardinality 0 instead of the smoothing
    floors the statistics-only fallback needs to avoid rounding real but
    rare tags down to nothing.
    """
    if summary is not None:
        evaluation = summary.evaluate(steps)
        if evaluation.refuted:
            return PathEstimate(
                result_cardinality=0.0,
                visited_nodes=evaluation.visited,
                visited_fraction=min(
                    1.0, evaluation.visited / max(1, stats.n_nodes)
                ),
            )
        if evaluation.exact:
            assert evaluation.cardinality is not None
            return PathEstimate(
                result_cardinality=evaluation.cardinality,
                visited_nodes=max(1.0, evaluation.visited),
                visited_fraction=min(
                    1.0, max(1.0, evaluation.visited) / max(1, stats.n_nodes)
                ),
            )
    dist: dict[int, float] = {DOCUMENT_TAG: 1.0}
    visited = 1.0
    for step in steps:
        new: dict[int, float] = {}
        pairs = None
        if step.axis in (Axis.CHILD, Axis.ATTRIBUTE):
            pairs = stats.child_pairs
        elif step.axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
            pairs = stats.desc_pairs
        if pairs is not None:
            # enumeration of child candidates is intra-cluster (cheap);
            # only the *matching* children may sit in other clusters and
            # cost I/O.  Descendant steps sweep whole subtrees regardless.
            sweeping = step.axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF)
            for (source_tag, target_tag), pair_count in pairs.items():
                weight = dist.get(source_tag)
                if not weight:
                    continue
                total = stats.tag_counts.get(source_tag, 0)
                if total <= 0:
                    # a zero/absent source count with a live pair count
                    # means degenerate statistics.  With a path summary
                    # the document's structure is known exactly, so the
                    # absent tag contributes nothing; the statistics-only
                    # fallback instead clamps the divisor to 1 — a crude
                    # estimate, never a ZeroDivisionError
                    if summary is not None:
                        continue
                    total = 1
                reached = pair_count * (weight / total)
                if sweeping:
                    visited += reached
                if _test_allows(step, target_tag):
                    if not sweeping:
                        visited += reached
                    new[target_tag] = new.get(target_tag, 0.0) + reached
            if step.axis is Axis.DESCENDANT_OR_SELF:
                for tag, weight in dist.items():
                    # the step enumerates (and tests) every context node
                    # itself, not just its proper descendants
                    visited += weight
                    if _test_allows(step, tag):
                        new[tag] = new.get(tag, 0.0) + weight
        elif step.axis is Axis.SELF:
            for tag, weight in dist.items():
                if _test_allows(step, tag):
                    new[tag] = weight
        else:
            # upward / sibling steps: assume every node of an allowed tag
            # may qualify, capped by the current frontier size.  With a
            # path summary, a zero-count tag is *known* absent and gets
            # exactly 0 (no smoothing floor); the statistics-only
            # fallback keeps the `+ 1.0` floor so single-tag estimates
            # do not round real but rare tags down to nothing
            frontier = sum(dist.values())
            floor = 0.0 if summary is not None else 1.0
            for tag, count in stats.tag_counts.items():
                if count <= 0 and summary is not None:
                    continue
                if _test_allows(step, tag):
                    new[tag] = min(
                        float(count),
                        frontier * count / max(1, stats.n_nodes) + floor,
                    )
            # the per-tag floor keeps single-tag estimates from
            # rounding to zero, but on a wide tag dictionary the sum of
            # those floors can dwarf the incoming frontier; rescale so
            # the fallback never *amplifies* cardinality
            summed = sum(new.values())
            if summed > frontier > 0.0:
                scale = frontier / summed
                for tag in new:
                    new[tag] *= scale
            visited += frontier
        dist = new
        if not dist:
            break
    cardinality = sum(dist.values())
    return PathEstimate(
        result_cardinality=cardinality,
        visited_nodes=visited,
        visited_fraction=min(1.0, visited / max(1, stats.n_nodes)),
    )


def _test_allows(step: CompiledStep, tag: int) -> bool:
    if step.test.tag == UNKNOWN_TAG:
        return False
    return step.test.tag is None or step.test.tag == tag


# --------------------------------------------------------- I/O prediction


@dataclass(frozen=True, slots=True)
class IOCostPrediction:
    """Both sides of the XScan-vs-XSchedule cost comparison.

    ``sequential_io`` / ``random_io`` are the pure I/O terms; the
    ``*_cost`` fields add the CPU terms of a
    :class:`~repro.sim.costmodel.ChooserCostModel` when one was supplied
    (they equal the I/O terms otherwise) and are what the decision
    compares.
    """

    sequential_io: float  #: modeled cost of one sequential pass
    random_io: float  #: modeled cost of random reads of the visited pages
    sequential_cost: float  #: sequential_io + modeled scan CPU
    random_cost: float  #: random_io + modeled navigation CPU
    visited_pages: float  #: pages the XSchedule plan is expected to touch
    document_nodes: float  #: nodes the XScan plan processes (whole store)
    estimate: PathEstimate  #: the cardinality estimate behind the pages

    @property
    def choice(self) -> str:
        """The cheaper side; ties favour XSchedule (no speculative CPU)."""
        return "xscan" if self.sequential_cost < self.random_cost else "xschedule"

    @property
    def margin(self) -> float:
        """Absolute predicted gap between the two sides, in seconds."""
        return abs(self.sequential_cost - self.random_cost)

    @property
    def relative_margin(self) -> float:
        """Margin relative to the cheaper side (0 = dead heat).

        The feedback store treats a decision below its threshold as a
        coin flip worth exploring; anything above is trusted.
        """
        cheaper = min(self.sequential_cost, self.random_cost)
        if cheaper <= 0.0:
            return float("inf")
        return self.margin / cheaper

    def predicted(self, plan: str) -> float:
        """The compared (CPU-adjusted) cost of one plan family."""
        return self.sequential_cost if plan == "xscan" else self.random_cost

    def predicted_io(self, plan: str) -> float:
        """The pure-I/O term of one plan family (the fit's offset base)."""
        return self.sequential_io if plan == "xscan" else self.random_io

    def work_nodes(self, plan: str) -> float:
        """The node count the plan family's CPU term scales with."""
        return self.document_nodes if plan == "xscan" else self.estimate.visited_nodes


def predicted_random_unit(
    geometry: DiskGeometry, n_pages: int, visited_pages: float, queue_depth: int
) -> float:
    """Modeled service time of one random page read under queued I/O.

    XSchedule keeps up to ``queue_depth`` requests outstanding and the
    controller serves them shortest-seek-first, which turns a batch of
    ``b`` random targets spread over ``n_pages`` into an elevator sweep
    with an expected hop of ``n_pages / b`` — *not* the old fixed
    ``n_pages // 3`` average-random-seek guess, which overcharged every
    deep-queue plan (the validation harness audits this against the
    simulator's measured per-layout seek distances).  The rotational
    term mirrors the device's rotational-position optimisation exactly
    (:meth:`repro.sim.disk.DiskDevice._serve`).
    """
    batch = max(1.0, min(float(queue_depth), visited_pages))
    hop = max(1.0, n_pages / batch)
    rotational = geometry.rotational_latency
    if batch > 1.0:
        rotational *= max(0.7, 2.0 / (min(batch, 16.0) + 1.0))
    return geometry.seek_time(hop) + rotational + geometry.transfer_time


def predict_io_costs(
    document: StoredDocument,
    steps: list[CompiledStep],
    geometry: DiskGeometry,
    synopsis: ClusterSynopsis,
    summary: PathSummary | None,
    queue_depth: int = 100,
    model: object | None = None,
) -> IOCostPrediction | None:
    """Predict both plan families' costs for one location path, with the
    synopsis and path summary :meth:`~repro.algebra.context.EvalOptions.
    snapshots` selects.

    Returns ``None`` when the document carries no statistics (the
    chooser then defaults to XSchedule, matching the historical
    behaviour).  ``queue_depth`` is the plan's ``k_min_queue`` — the
    random-I/O unit cost depends on how deep the scheduler's queue runs.

    A synopsis with rows makes the visited-page estimate use the
    measured mean cluster occupancy instead of a uniform nodes-per-page
    guess, capped by the number of clusters that can actually hold a
    candidate for some step — the fix for skewed layouts where a tag
    concentrates in a few clusters but the uniform estimate spreads it
    evenly.  A path summary tightens both terms further: the cardinality
    estimate becomes exact for downward predicate-free paths, and the
    visited-page cap shrinks to the clusters actually posted for some
    step's candidate paths.
    """
    stats = document.statistics
    if stats is None:
        return None
    estimate = estimate_path(stats, steps, summary=summary)
    n_pages = document.n_pages
    if synopsis.n_clusters:
        nodes_per_page = synopsis.mean_occupancy()
        visited_pages = min(
            float(n_pages),
            float(synopsis.relevant_clusters(steps)),
            estimate.visited_nodes / nodes_per_page,
        )
        if summary is not None:
            # the operators' postings filter only engages alongside the
            # synopsis (transit residues live in its rows), so the pricing
            # cap does too.  It reads the evaluation estimate_path
            # memoised on the summary
            posted_pages = PathPostings.for_steps(summary, steps).relevant_pages()
            visited_pages = min(visited_pages, float(posted_pages))
    else:
        nodes_per_page = max(1.0, stats.n_nodes / max(1, n_pages))
        visited_pages = min(float(n_pages), estimate.visited_nodes / nodes_per_page)
    sequential_io = n_pages * geometry.transfer_time
    random_io = visited_pages * predicted_random_unit(
        geometry, n_pages, visited_pages, queue_depth
    )
    sequential_cost = sequential_io
    random_cost = random_io
    document_nodes = float(stats.n_nodes)
    if model is not None:
        sequential_cost += model.scan_cpu_per_node * document_nodes + model.scan_overhead
        random_cost += (
            model.sched_cpu_per_node * estimate.visited_nodes + model.sched_overhead
        )
    return IOCostPrediction(
        sequential_io=sequential_io,
        random_io=random_io,
        sequential_cost=sequential_cost,
        random_cost=random_cost,
        visited_pages=visited_pages,
        document_nodes=document_nodes,
        estimate=estimate,
    )
