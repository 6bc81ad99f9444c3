"""Per-cluster synopsis: tag bitsets, entry bitsets and occupancy.

A :class:`ClusterSynopsis` is a tiny structural summary of a stored
document, one row per cluster (page):

* ``tag_bits`` — bitset of the tag ids of the core records in the
  cluster (bit ``i`` set iff a record with tag id ``i`` lives there);
* ``entry_bits`` — bitset of the tags directly reachable when a
  *downward* navigation step resumes at one of the cluster's up-side
  entry borders (the local subtree root of a plain up border, or the
  core children on a continuation proxy's child list);
* ``flags`` — whether the cluster has down borders, up-side borders,
  and whether a downward resume can *transit* straight into another
  cluster (a border on a proxy child list);
* ``occupancy`` — the number of core records in the cluster.

The synopsis is planning metadata in the spirit of Arion et al.'s path
summaries: consulting it costs no simulated time, but it lets XScan skip
clusters that provably cannot contribute to a query, lets XSchedule drop
queue requests for clusters that cannot extend a resumed instance, and
gives the cost-based operator chooser real per-cluster occupancy instead
of a uniform nodes-per-page guess.

Every pruning predicate here is *conservative*: it may only answer
"cannot contribute" when the navigation semantics of
:mod:`repro.storage.nav` guarantee that resuming in the cluster yields
neither a matching candidate nor a transit into another cluster.  When
in doubt (sibling axes, unknown border shapes) the predicates answer
"might contribute" and the executor behaves exactly as without a
synopsis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Tuple

from repro.axes import Axis

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.algebra.steps import CompiledNodeTest, CompiledStep
    from repro.storage.page import Page
    from repro.storage.pathsummary import PathPostings

#: Sentinel tag id for a name absent from the document (mirrors
#: ``repro.algebra.steps.UNKNOWN_TAG`` without importing the algebra).
_UNKNOWN_TAG = -1

#: The cluster contains at least one down border (an edge into a child
#: cluster): upward resumes have a holder here, descendant sweeps can
#: transit onward.
HAS_DOWN = 1
#: The cluster contains at least one up-side border (plain up border or
#: continuation proxy): downward navigation can enter the cluster.
HAS_UPSIDE = 2
#: A downward resume at one of the cluster's entries can cross directly
#: into another cluster (a border record sits on a proxy child list, or
#: an entry's local record is itself a border).
CHILD_TRANSIT = 4

#: Bits of the two pseudo-tags (``#document`` = bit 0, ``#text`` = bit 1).
_DOCUMENT_BIT = 1
_TEXT_BIT = 2

#: Bits of a :meth:`ClusterSynopsis.scan_verdicts` entry: who proves that
#: a step cannot contribute from a cluster.
SYNOPSIS_REFUSES = 1
POSTINGS_REFUSE = 2

#: One synopsis row: (tag_bits, entry_bits, flags, occupancy).
Row = Tuple[int, int, int, int]


def _test_bits(bits: int, test: "CompiledNodeTest") -> bool:
    """Can *any* tag in ``bits`` satisfy ``test``?  Conservative: errs
    towards True for shapes the bitset cannot decide."""
    tag = test.tag
    if tag is not None:
        if tag == _UNKNOWN_TAG:
            return False
        return bool(bits >> tag & 1)
    kinds = test.kinds
    if not kinds:  # comment() — never stored
        return False
    if len(kinds) >= 3:  # node(): any record satisfies it
        return bits != 0
    if kinds == _TEXT_KINDS:  # text(): the #text pseudo-tag
        return bool(bits & _TEXT_BIT)
    # wildcard on the element or attribute axis: any named tag (id >= 2)
    return bits >> 2 != 0


#: ``frozenset({int(Kind.TEXT)})`` — spelled as a literal to keep this
#: module free of algebra imports.
_TEXT_KINDS: frozenset = frozenset({2})


class ClusterSynopsis:
    """Per-cluster structural summary of one stored document."""

    __slots__ = ("_rows", "_n_records")

    def __init__(self, rows: Dict[int, Row]) -> None:
        self._rows = rows
        self._n_records = sum(row[3] for row in rows.values())

    # -- construction --------------------------------------------------

    @staticmethod
    def collect(pages: Iterable["Page"]) -> "ClusterSynopsis":
        """Build a synopsis by scanning physical pages.

        Works on freshly imported pages (before adoption) and on the
        segment pages of a loaded store alike, so import and post-load
        recollection share one collector.
        """
        rows: Dict[int, Row] = {}
        for page in pages:
            rows[page.page_no] = ClusterSynopsis.collect_row(page)
        return ClusterSynopsis(rows)

    @staticmethod
    def collect_row(page: "Page") -> Row:
        """Scan one physical page into its synopsis row.

        The single-page unit of :meth:`collect`, exposed so crash
        recovery can repair the rows of just the pages an update run
        touched instead of recollecting the whole document.
        """
        tag_bits = 0
        entry_bits = 0
        flags = 0
        occupancy = 0
        records = page.records
        for record in records:
            if record is None:
                continue
            if not record.is_border:
                tag_bits |= 1 << record.tag
                occupancy += 1
                continue
            if record.down:
                flags |= HAS_DOWN
                continue
            flags |= HAS_UPSIDE
            if record.continuation:
                for child_slot in record.child_slots or ():
                    child = records[child_slot]
                    if child is None:
                        continue
                    if child.is_border:
                        flags |= CHILD_TRANSIT
                    else:
                        entry_bits |= 1 << child.tag
                continue
            local_slot = record.local_slot
            if local_slot < 0 or local_slot >= len(records):
                flags |= CHILD_TRANSIT  # unknown shape: stay conservative
                continue
            local = records[local_slot]
            if local is None:
                continue
            if local.is_border:
                flags |= CHILD_TRANSIT
            else:
                entry_bits |= 1 << local.tag
        return (tag_bits, entry_bits, flags, occupancy)

    def patched(self, fresh: Dict[int, Row]) -> "ClusterSynopsis":
        """A new synopsis with ``fresh`` rows replacing (or extending)
        this one's — the incremental-repair constructor."""
        rows = dict(self._rows)
        rows.update(fresh)
        return ClusterSynopsis(rows)

    # -- pruning predicates --------------------------------------------

    def can_contribute(self, page_no: int, step: "CompiledStep") -> bool:
        """Could a *speculative* resume of ``step`` in this cluster yield a
        matching candidate or transit into another cluster?

        Mirrors :func:`repro.storage.nav.speculative_entries` +
        :func:`~repro.storage.nav.iter_resume`: downward steps enter at
        up-side borders, upward steps at down borders, sibling steps at
        any border.  Answering False is a proof that XScan may skip the
        cluster for this step.
        """
        row = self._rows.get(page_no)
        if row is None:
            return True  # unknown cluster: never prune
        tag_bits, entry_bits, flags, _ = row
        axis = step.axis
        if axis is Axis.SELF:
            return False  # no speculative entries exist for self
        if axis is Axis.CHILD or axis is Axis.ATTRIBUTE:
            if not flags & HAS_UPSIDE:
                return False
            return bool(flags & CHILD_TRANSIT) or _test_bits(entry_bits, step.test)
        if axis is Axis.DESCENDANT or axis is Axis.DESCENDANT_OR_SELF:
            if not flags & HAS_UPSIDE:
                return False
            return bool(flags & (HAS_DOWN | CHILD_TRANSIT)) or _test_bits(
                tag_bits, step.test
            )
        if axis.is_upward:
            if not flags & HAS_DOWN:
                return False
            return bool(flags & HAS_UPSIDE) or _test_bits(tag_bits, step.test)
        # sibling axes: any border admits an entry; transits are too
        # varied to rule out, so only border-free clusters are pruned
        return bool(flags & (HAS_DOWN | HAS_UPSIDE))

    def prunable_for_scan(self, page_no: int, steps: Iterable["CompiledStep"]) -> bool:
        """True if *no* step of the path can contribute from this cluster:
        XScan may skip reading it (context clusters are the caller's
        responsibility)."""
        return all(self.scan_verdicts(page_no, steps))

    def scan_verdicts(
        self,
        page_no: int,
        steps: Iterable["CompiledStep"],
        postings: "PathPostings | None" = None,
    ) -> list[int]:
        """One pruning verdict per step, reached once per scan and read by
        both the skip-set pass and the speculation of the cluster: 0 when
        the step may contribute, else :data:`SYNOPSIS_REFUSES` (this
        synopsis proves it cannot) and/or :data:`POSTINGS_REFUSE` (the
        path's postings do; without postings, the synopsis speaks for
        them).  A cluster is prunable when one of the two refuses every
        step; a refused step is attributed to the synopsis first."""
        verdicts = []
        for index, step in enumerate(steps):
            ours = not self.can_contribute(page_no, step)
            theirs = (
                ours
                if postings is None
                else not postings.can_contribute(self, page_no, index)
            )
            verdicts.append(ours * SYNOPSIS_REFUSES | theirs * POSTINGS_REFUSE)
        return verdicts

    def can_extend(self, page_no: int, step: "CompiledStep") -> bool:
        """Could a *targeted* resume of ``step`` at a border junction in
        this cluster yield a candidate or transit onward?

        Used by XSchedule before enqueueing the cluster into Q.  The
        junction's border kind follows from the step axis (downward steps
        cross via down borders, so the target is an up-side entry here;
        upward steps target a down border), which is what makes the
        per-axis conditions sound.
        """
        row = self._rows.get(page_no)
        if row is None:
            return True
        tag_bits, entry_bits, flags, _ = row
        axis = step.axis
        if axis is Axis.CHILD or axis is Axis.ATTRIBUTE:
            return bool(flags & CHILD_TRANSIT) or _test_bits(entry_bits, step.test)
        if axis is Axis.DESCENDANT or axis is Axis.DESCENDANT_OR_SELF:
            return bool(flags & (HAS_DOWN | CHILD_TRANSIT)) or _test_bits(
                tag_bits, step.test
            )
        if axis.is_upward:
            return bool(flags & HAS_UPSIDE) or _test_bits(tag_bits, step.test)
        return True  # self / sibling axes: never prune a targeted resume

    def contribute_transit(self, page_no: int, axis: Axis) -> bool:
        """Could a *speculative* resume in this cluster transit into
        another cluster, regardless of node tests?

        The tag-free residue of :meth:`can_contribute`, consulted when a
        path-summary posting refines the candidate half of the verdict
        (:class:`repro.storage.pathsummary.PathPostings`): a cluster may
        only be dropped when the postings rule out a candidate *and*
        this residue rules out a transit.
        """
        row = self._rows.get(page_no)
        if row is None:
            return True  # unknown cluster: never prune
        flags = row[2]
        if axis is Axis.SELF:
            return False  # no speculative entries exist for self
        if axis is Axis.CHILD or axis is Axis.ATTRIBUTE:
            return bool(flags & HAS_UPSIDE) and bool(flags & CHILD_TRANSIT)
        if axis is Axis.DESCENDANT or axis is Axis.DESCENDANT_OR_SELF:
            return bool(flags & HAS_UPSIDE) and bool(flags & (HAS_DOWN | CHILD_TRANSIT))
        if axis.is_upward:
            return bool(flags & HAS_DOWN) and bool(flags & HAS_UPSIDE)
        # sibling axes: transits are too varied to rule out
        return bool(flags & (HAS_DOWN | HAS_UPSIDE))

    def extend_transit(self, page_no: int, axis: Axis) -> bool:
        """Could a *targeted* resume in this cluster transit onward,
        regardless of node tests?  The tag-free residue of
        :meth:`can_extend`, for the same postings refinement."""
        row = self._rows.get(page_no)
        if row is None:
            return True
        flags = row[2]
        if axis is Axis.CHILD or axis is Axis.ATTRIBUTE:
            return bool(flags & CHILD_TRANSIT)
        if axis is Axis.DESCENDANT or axis is Axis.DESCENDANT_OR_SELF:
            return bool(flags & (HAS_DOWN | CHILD_TRANSIT))
        if axis.is_upward:
            return bool(flags & HAS_UPSIDE)
        return True  # self / sibling axes: never prune a targeted resume

    # -- estimator accessors -------------------------------------------

    @property
    def n_clusters(self) -> int:
        return len(self._rows)

    @property
    def n_records(self) -> int:
        """Total core records across all clusters."""
        return self._n_records

    def occupancy(self, page_no: int) -> int:
        """Core records in one cluster (0 for unknown pages)."""
        row = self._rows.get(page_no)
        return row[3] if row is not None else 0

    def mean_occupancy(self) -> float:
        """Average core records per cluster (>= 1.0 for sane estimates)."""
        if not self._rows:
            return 1.0
        return max(1.0, self._n_records / len(self._rows))

    def clusters_with_tag(self, tag: int) -> int:
        """How many clusters contain a record with this tag id."""
        if tag < 0:
            return 0
        return sum(1 for row in self._rows.values() if row[0] >> tag & 1)

    def clusters_matching(self, test: "CompiledNodeTest") -> int:
        """How many clusters contain a record that could satisfy ``test``."""
        return sum(1 for row in self._rows.values() if _test_bits(row[0], test))

    def relevant_clusters(self, steps: Iterable["CompiledStep"]) -> int:
        """Upper-bound estimate of distinct clusters a navigational plan
        must touch: the context cluster plus, per step, every cluster that
        could hold a match for that step's node test."""
        total = 1
        for step in steps:
            total += self.clusters_matching(step.test)
        return min(total, max(1, len(self._rows)))

    # -- persistence ---------------------------------------------------

    def rows(self) -> Dict[int, Row]:
        """The raw per-page rows (page_no -> (tag_bits, entry_bits,
        flags, occupancy)); used by the persistence layer and tests."""
        return dict(self._rows)

    @staticmethod
    def from_rows(rows: Dict[int, Row]) -> "ClusterSynopsis":
        return ClusterSynopsis(dict(rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterSynopsis):
            return NotImplemented
        return self._rows == other._rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterSynopsis({len(self._rows)} clusters, "
            f"{self._n_records} records)"
        )


def cost_effective_skips(page_nos, prunable, geometry):
    """Which prunable pages are actually worth skipping in a sequential scan.

    Skipping a page in the middle of a streaming read is not free: the
    next read pays a seek plus rotational latency instead of bare
    transfer time, so an isolated prunable page costs *more* to skip
    than to read through (the classic skip-scan break-even).  A run of
    consecutive prunable pages is skipped only when the saved transfers
    outweigh the seek the gap creates.  A run at the tail of the scan is
    always skipped — nothing follows, so no seek is induced.

    ``page_nos`` is the scan order, ``prunable`` the per-position verdict
    from :meth:`ClusterSynopsis.prunable_for_scan`.  Returns the set of
    page numbers to drop.
    """
    skips: set = set()
    n = len(page_nos)
    i = 0
    while i < n:
        if not prunable[i]:
            i += 1
            continue
        j = i
        while j < n and prunable[j]:
            j += 1
        run = page_nos[i:j]
        if j == n:
            skips.update(run)  # tail run: the scan just ends earlier
        else:
            prev = page_nos[i - 1] if i > 0 else page_nos[0] - 1
            gap = page_nos[j] - prev
            # only a truly contiguous stretch would have streamed; a
            # pre-existing hole in the page numbering pays a seek anyway
            was_streaming = gap == j - i + 1
            saved = len(run) * geometry.transfer_time
            penalty = geometry.seek_time(gap) + geometry.rotational_latency
            if not was_streaming or saved > penalty:
                skips.update(run)
        i = j
    return skips
