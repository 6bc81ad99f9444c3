"""Document-level path summary: a DataGuide-style trie of root-to-node paths.

A :class:`PathSummary` records, for one stored document, every distinct
*root-to-node tag path* together with the exact number of nodes on that
path and a bitset of the clusters (pages) holding instances of it — the
structure Arion et al. ("Path Summaries and Path Partitioning in Modern
XML Databases") show is tiny, collected in one import pass, and able to
answer or refute whole location paths before any page is read.

A path key is ``(chain, kind)``:

* ``chain`` — the tag ids from the document root down to the node,
  inclusive on both ends (the root's chain is ``(DOCUMENT_TAG,)``);
* ``kind`` — the node kind (:class:`~repro.model.tree.Kind`) of the
  final component, distinguishing the element ``id`` from the attribute
  ``id`` under the same parent path.  Interior components are always
  document/element nodes (only those have children), so one trailing
  kind suffices.

Internally the summary is kept *per page* (``page_no -> {key: count}``),
mirroring :class:`~repro.storage.synopsis.ClusterSynopsis`'s row layout:
incremental repair after an update run recollects only the touched
pages' rows and re-aggregates — O(touched), not O(document) — and the
aggregate (global counts, per-path cluster postings, a child index for
trie walks) is rebuilt from the rows at construction.

Like the synopsis, the summary is planning metadata: consulting it costs
no simulated time.  :meth:`PathSummary.evaluate` propagates a whole
location path through the trie and yields per-step path sets (always a
superset of the true result paths, exact for downward-only paths without
predicates), which powers three distinct optimisations in
:mod:`repro.xpath.rewrite`:

* **refutation** — an empty path set at any step proves the whole query
  empty before a single page is requested;
* **expansion** — a ``descendant`` step whose matches all sit on one
  concrete suffix chain collapses into plain child steps;
* **pricing** — exact per-path cardinalities and cluster postings feed
  the AUTO chooser and the operators' pre-scan cluster filter
  (:class:`PathPostings`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Set, Tuple

from repro.axes import Axis
from repro.model.tree import Kind, LogicalTree
from repro.storage.nodeid import page_of, slot_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.algebra.steps import CompiledNodeTest, CompiledStep
    from repro.storage.page import Page, Segment
    from repro.storage.synopsis import ClusterSynopsis

#: Root-to-node tag chain plus the node kind of the final component.
PathKey = Tuple[Tuple[int, ...], int]
#: Per-page decomposition: page_no -> {path key -> core-record count}.
PageRows = Dict[int, Dict[PathKey, int]]

_KIND_DOCUMENT = int(Kind.DOCUMENT)
_KIND_ELEMENT = int(Kind.ELEMENT)
#: Kinds whose nodes can have children (interior trie positions).
_PARENT_KINDS = (_KIND_DOCUMENT, _KIND_ELEMENT)


class PathSummary:
    """Distinct root-to-node paths of one document, with counts and postings."""

    __slots__ = ("_pages", "_counts", "_postings", "_children", "_n_nodes")

    def __init__(self, pages: PageRows) -> None:
        self._pages = pages
        counts: Dict[PathKey, int] = {}
        postings: Dict[PathKey, int] = {}
        for page_no, row in pages.items():
            bit = 1 << page_no
            for key, count in row.items():
                counts[key] = counts.get(key, 0) + count
                postings[key] = postings.get(key, 0) | bit
        children: Dict[Tuple[int, ...], List[PathKey]] = {}
        for key in counts:
            children.setdefault(key[0][:-1], []).append(key)
        self._counts = counts
        self._postings = postings
        self._children = children
        self._n_nodes = sum(counts.values())

    # -- construction --------------------------------------------------

    @staticmethod
    def collect_from_tree(tree: LogicalTree, node_page: Sequence[int]) -> "PathSummary":
        """Build the summary from the logical tree at import time.

        ``node_page`` maps each logical node to the physical page it
        landed on (:attr:`~repro.storage.importer.ImportResult.node_page`),
        so this runs in the same import pass as the synopsis without
        touching the freshly written pages again.
        """
        pages: PageRows = {}
        tags_arr = tree.tag
        parent = tree.parent
        kinds = tree.kind
        # chains are interned so shared prefixes share one tuple
        interned: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        chains: List[Tuple[int, ...]] = [()] * len(tree)
        for node in range(len(tree)):
            p = parent[node]
            chain = (chains[p] if p >= 0 else ()) + (tags_arr[node],)
            chain = interned.setdefault(chain, chain)
            chains[node] = chain
            key = (chain, kinds[node])
            row = pages.setdefault(node_page[node], {})
            row[key] = row.get(key, 0) + 1
        return PathSummary(pages)

    @staticmethod
    def collect(segment: "Segment", page_nos: Iterable[int]) -> "PathSummary":
        """Build the summary by walking the physical records.

        The post-load / post-update counterpart of
        :meth:`collect_from_tree`; both produce identical summaries (the
        cross-version persistence tests assert this).
        """
        resolver = _ChainResolver(segment)
        pages: PageRows = {}
        for page_no in page_nos:
            pages[page_no] = PathSummary.collect_row(
                segment, segment.page(page_no), resolver
            )
        return PathSummary(pages)

    @staticmethod
    def collect_row(
        segment: "Segment", page: "Page", resolver: "_ChainResolver | None" = None
    ) -> Dict[PathKey, int]:
        """Collect one page's path row from its physical records.

        The single-page unit of :meth:`collect`, exposed so incremental
        repair can recollect just the touched pages.  Resolving a core
        record's root chain may read *other* pages (the parent chain
        crosses cluster borders upward), which is free — the summary is
        planning metadata, maintained off the simulated clock exactly
        like the synopsis.
        """
        if resolver is None:
            resolver = _ChainResolver(segment)
        row: Dict[PathKey, int] = {}
        page_no = page.page_no
        for slot, record in enumerate(page.records):
            if record is None or record.is_border:
                continue
            key = (resolver.chain_of(page_no, slot), int(record.kind))
            row[key] = row.get(key, 0) + 1
        return row

    def patched(self, fresh: PageRows) -> "PathSummary":
        """A new summary with ``fresh`` page rows replacing (or extending)
        this one's — the incremental-repair constructor.  Reads only the
        old and fresh rows of those pages: the derived tables are copied
        (one entry per distinct path) and adjusted by the difference.
        Equal to ``PathSummary(patched rows)``, child-key order aside
        (every consumer folds child keys into sets and integer sums).
        """
        new = PathSummary.__new__(PathSummary)
        new._pages = pages = dict(self._pages)
        new._counts = counts = dict(self._counts)
        new._postings = postings = dict(self._postings)
        new._children = children = dict(self._children)
        shrunk: Set[PathKey] = set()
        for page_no, row in fresh.items():
            bit = 1 << page_no
            for key, count in pages.get(page_no, {}).items():
                counts[key] -= count
                postings[key] &= ~bit
                shrunk.add(key)
            for key, count in row.items():
                if key not in counts:
                    counts[key] = postings[key] = 0
                    children[key[0][:-1]] = children.get(key[0][:-1], []) + [key]
                counts[key] += count
                postings[key] |= bit
            pages[page_no] = row
        for key in sorted(shrunk):
            if not counts[key]:
                del counts[key], postings[key]
                siblings = [k for k in children.pop(key[0][:-1]) if k != key]
                if siblings:
                    children[key[0][:-1]] = siblings
        new._n_nodes = sum(counts.values())
        return new

    # -- trie accessors ------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Total nodes across all paths (the document size)."""
        return self._n_nodes

    @property
    def n_paths(self) -> int:
        """Number of distinct path keys."""
        return len(self._counts)

    def path_counts(self) -> List[Tuple[PathKey, int]]:
        """Every path key with its exact node count, in sorted key order."""
        return sorted(self._counts.items())

    def count(self, key: PathKey) -> int:
        """Exact number of nodes with this path key (0 if absent)."""
        return self._counts.get(key, 0)

    def postings(self, key: PathKey) -> int:
        """Bitset of page numbers holding instances of this path key."""
        return self._postings.get(key, 0)

    def child_keys(self, chain: Tuple[int, ...]) -> Tuple[PathKey, ...]:
        """All path keys directly below ``chain`` in the trie."""
        return tuple(self._children.get(chain, ()))

    def root_key(self) -> PathKey:
        """The document root's path key."""
        for key in self._children.get((), ()):
            if key[1] == _KIND_DOCUMENT:
                return key
        # degenerate (empty) summary: synthesise the conventional root
        return ((0,), _KIND_DOCUMENT)

    # -- whole-path evaluation -----------------------------------------

    def evaluate(self, steps: Sequence["CompiledStep"]) -> "PathEvaluation":
        """Propagate a location path through the trie.

        Produces per-step path-key sets that are always a *superset* of
        the paths of the step's true matches (so an empty set refutes
        the query), and are exact — node-for-node countable — when every
        step so far uses a downward axis and carries no predicates.
        Predicates never extend a set, so refutation through them stays
        sound; they do clear the ``exact`` flag.  A predicate whose own
        relative path is refuted from every candidate refutes the whole
        query (an existence predicate over a provably empty set, or a
        comparison against an empty node-set, is false everywhere).
        """
        contexts: Set[PathKey] = {self.root_key()}
        step_sets: List[frozenset] = []
        exact = True
        refuted = False
        visited = 1.0
        for step in steps:
            result, swept = self._step_result(contexts, step)
            visited += swept
            if step.axis not in _EXACT_AXES:
                exact = False
            for predicate in step.predicates:
                exact = False
                if result and self._predicate_refuted(result, predicate):
                    result = set()
            step_sets.append(frozenset(result))
            contexts = result
            if not contexts:
                refuted = True
                break
        while len(step_sets) < len(steps):
            step_sets.append(frozenset())
        cardinality = (
            float(sum(self._counts.get(key, 0) for key in sorted(contexts)))
            if exact and not refuted
            else None
        )
        return PathEvaluation(
            refuted=refuted,
            exact=exact and not refuted,
            cardinality=0.0 if refuted else cardinality,
            visited=visited,
            step_sets=tuple(step_sets),
        )

    def _predicate_refuted(self, contexts: Set[PathKey], predicate: object) -> bool:
        """True if the predicate's relative path is empty from every context."""
        current: Set[PathKey] = set(contexts)
        for step in predicate.steps:  # type: ignore[attr-defined]
            current, _ = self._step_result(current, step)
            for nested in step.predicates:
                if current and self._predicate_refuted(current, nested):
                    current = set()
            if not current:
                return True
        return False

    def _step_result(
        self, contexts: Set[PathKey], step: "CompiledStep"
    ) -> Tuple[Set[PathKey], float]:
        """One step's result key set plus the nodes a sweep would visit."""
        axis = step.axis
        test = step.test
        out: Set[PathKey] = set()
        swept = 0.0
        counts = self._counts
        children = self._children
        if axis is Axis.SELF:
            for key in sorted(contexts):
                if _matches(test, key):
                    out.add(key)
        elif axis is Axis.CHILD or axis is Axis.ATTRIBUTE:
            for chain, kind in sorted(contexts):
                if kind not in _PARENT_KINDS:
                    continue
                for ckey in children.get(chain, ()):
                    if _matches(test, ckey):
                        out.add(ckey)
                        swept += counts.get(ckey, 0)
        elif axis is Axis.DESCENDANT or axis is Axis.DESCENDANT_OR_SELF:
            # every key strictly below some context chain, each key once
            expanded: Set[Tuple[int, ...]] = set()
            reach: Set[PathKey] = set()
            stack = [chain for chain, kind in sorted(contexts) if kind in _PARENT_KINDS]
            while stack:
                chain = stack.pop()
                if chain in expanded:
                    continue
                expanded.add(chain)
                for ckey in children.get(chain, ()):
                    reach.add(ckey)
                    cchain, ckind = ckey
                    if ckind in _PARENT_KINDS:
                        stack.append(cchain)
            if axis is Axis.DESCENDANT_OR_SELF:
                reach |= contexts  # the step enumerates the contexts too
            for key in sorted(reach):
                swept += counts.get(key, 0)
                if _matches(test, key):
                    out.add(key)
        elif axis is Axis.PARENT:
            for chain, _kind in sorted(contexts):
                if len(chain) > 1:
                    pkey = (chain[:-1], _parent_kind(chain))
                    if _matches(test, pkey):
                        out.add(pkey)
                        swept += 1.0
        elif axis is Axis.ANCESTOR or axis is Axis.ANCESTOR_OR_SELF:
            for key in sorted(contexts):
                chain, _kind = key
                if axis is Axis.ANCESTOR_OR_SELF and _matches(test, key):
                    out.add(key)
                for depth in range(1, len(chain)):
                    prefix = chain[:depth]
                    akey = (prefix, _parent_kind(chain[: depth + 1]))
                    swept += 1.0
                    if _matches(test, akey):
                        out.add(akey)
        else:  # sibling axes: all children of the parent chain (upper bound)
            for chain, _kind in sorted(contexts):
                if len(chain) <= 1:
                    continue
                for ckey in children.get(chain[:-1], ()):
                    swept += counts.get(ckey, 0)
                    if _matches(test, ckey):
                        out.add(ckey)
        return out, swept

    # -- persistence ---------------------------------------------------

    def page_rows(self) -> PageRows:
        """The raw per-page rows; used by the persistence layer and tests."""
        return {page_no: dict(row) for page_no, row in self._pages.items()}

    @staticmethod
    def from_page_rows(pages: PageRows) -> "PathSummary":
        return PathSummary({page_no: dict(row) for page_no, row in pages.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathSummary):
            return NotImplemented
        # the derived tables too: `patched` maintains them incrementally,
        # and equality with a full recollect is what proves it right
        return (
            (self._pages, self._counts, self._postings, self._n_nodes)
            == (other._pages, other._counts, other._postings, other._n_nodes)
            and {c: sorted(k) for c, k in self._children.items()}
            == {c: sorted(k) for c, k in other._children.items()}
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PathSummary({len(self._counts)} paths, {self._n_nodes} nodes, "
            f"{len(self._pages)} pages)"
        )


def _parent_kind(chain: Tuple[int, ...]) -> int:
    """Kind of the node *owning* the last component of ``chain``."""
    return _KIND_DOCUMENT if len(chain) <= 2 else _KIND_ELEMENT


def _matches(test: "CompiledNodeTest", key: PathKey) -> bool:
    chain, kind = key
    return test.matches(kind, chain[-1])


#: Axes whose path sets are exact (node-for-node countable): downward
#: navigation from the root reaches *every* node on a matching path.
_EXACT_AXES = frozenset(
    {Axis.SELF, Axis.CHILD, Axis.ATTRIBUTE, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF}
)


class PathEvaluation:
    """Result of :meth:`PathSummary.evaluate` for one location path."""

    __slots__ = ("refuted", "exact", "cardinality", "visited", "step_sets")

    def __init__(
        self,
        refuted: bool,
        exact: bool,
        cardinality: float | None,
        visited: float,
        step_sets: Tuple[frozenset, ...],
    ) -> None:
        #: the summary proves the result empty
        self.refuted = refuted
        #: cardinality/visited are exact counts, not upper bounds
        self.exact = exact
        #: exact result cardinality (None when not exact; 0.0 when refuted)
        self.cardinality = cardinality
        #: nodes a step-by-step evaluation enumerates (exact when ``exact``)
        self.visited = visited
        #: per-step path-key sets (supersets of the true result paths)
        self.step_sets = step_sets


class _ChainResolver:
    """Resolves core records to root-to-node tag chains by physical walk.

    Climbing a parent link that crosses a cluster border follows the up
    border to its companion down border in the parent cluster, whose
    local link names the holder there — either the parent core record or
    a continuation proxy whose own border must be crossed in turn (split
    child lists, see :func:`repro.storage.nav._resume_upward`).  Chains
    are memoised per ``(page_no, slot)`` so repairing several pages of
    one document shares the ancestor work.
    """

    __slots__ = ("_segment", "_memo", "_interned")

    def __init__(self, segment: "Segment") -> None:
        self._segment = segment
        self._memo: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._interned: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

    def chain_of(self, page_no: int, slot: int) -> Tuple[int, ...]:
        """Root-to-node tag chain of the core record at ``(page_no, slot)``."""
        memo = self._memo
        segment = self._segment
        trail: List[Tuple[Tuple[int, int], int]] = []
        chain: Tuple[int, ...] = ()
        while True:
            spot = (page_no, slot)
            cached = memo.get(spot)
            if cached is not None:
                chain = cached
                break
            record = segment.page(page_no).record(slot)
            trail.append((spot, record.tag))
            parent_slot = record.parent_slot
            if parent_slot < 0:
                break  # the stored document root
            entry = segment.page(page_no).record(parent_slot)
            slot = parent_slot
            while entry is not None and entry.is_border:
                # cross to the companion (down) border and follow its
                # local link; a border holder there is a continuation
                # proxy — cross again
                target = entry.target()
                page_no = page_of(target)
                down = segment.page(page_no).record(slot_of(target))
                slot = down.local_slot
                entry = segment.page(page_no).record(slot)
        interned = self._interned
        for spot, tag in reversed(trail):
            chain = chain + (tag,)
            chain = interned.setdefault(chain, chain)
            memo[spot] = chain
        return chain


# ----------------------------------------------------- operator-side filter


class PathPostings:
    """Per-step cluster postings of one compiled path, for pre-scan pruning.

    Built by the rewrite pass from a :class:`PathEvaluation`: bit ``p``
    of ``_bits[i]`` is set iff cluster ``p`` holds a node whose root
    path could be a match of step ``i``.  The operators combine this
    with the synopsis's *transit* verdicts: a cluster is only skipped
    when it provably holds no candidate for any step **and** no resume
    there can transit into another cluster — the same conservative
    contract :class:`~repro.storage.synopsis.ClusterSynopsis` obeys, so
    the filter composes with (and never double-counts against) synopsis
    pruning: the synopsis keeps its own verdicts and counters, the
    postings only add clusters the tag bitsets could not refute.
    """

    __slots__ = ("_axes", "_bits")

    def __init__(self, axes: Tuple[Axis, ...], bits: Tuple[int, ...]) -> None:
        self._axes = axes
        self._bits = bits

    @staticmethod
    def for_steps(
        summary: PathSummary,
        steps: Sequence["CompiledStep"],
        evaluation: PathEvaluation,
    ) -> "PathPostings":
        bits: List[int] = []
        for index in range(len(steps)):
            step_bits = 0
            if index < len(evaluation.step_sets):
                for key in evaluation.step_sets[index]:
                    step_bits |= summary.postings(key)
            bits.append(step_bits)
        return PathPostings(
            tuple(step.axis for step in steps), tuple(bits)
        )

    def holds_candidate(self, step_index: int, page_no: int) -> bool:
        """Does cluster ``page_no`` hold a possible match of this step?"""
        return bool(self._bits[step_index] >> page_no & 1)

    def can_contribute(
        self, synopsis: "ClusterSynopsis", page_no: int, step_index: int
    ) -> bool:
        """Refined :meth:`ClusterSynopsis.can_contribute`: a speculative
        resume needs a posted candidate or a transit possibility."""
        return self.holds_candidate(step_index, page_no) or synopsis.contribute_transit(
            page_no, self._axes[step_index]
        )

    def can_extend(
        self, synopsis: "ClusterSynopsis", page_no: int, step_index: int
    ) -> bool:
        """Refined :meth:`ClusterSynopsis.can_extend`: a targeted resume
        needs a posted candidate or a transit possibility."""
        return self.holds_candidate(step_index, page_no) or synopsis.extend_transit(
            page_no, self._axes[step_index]
        )

    def relevant_pages(self) -> int:
        """Distinct clusters posted for any step (the pricing cap)."""
        union = 0
        for bits in self._bits:
            union |= bits
        return union.bit_count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PathPostings({len(self._axes)} steps, {self.relevant_pages()} pages)"
