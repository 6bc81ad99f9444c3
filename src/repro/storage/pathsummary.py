"""Document-level path summary: a DataGuide-style trie of root-to-node paths.

A :class:`PathSummary` records, for one stored document, every distinct
*root-to-node tag path* with the exact number of nodes on it and a
bitset of the clusters (pages) holding instances of it — the structure
Arion et al. ("Path Summaries and Path Partitioning in Modern XML
Databases") show is tiny, collected in one import pass, and able to
answer or refute whole location paths before any page is read.

A path key is ``(chain, kind)``: the tag ids from the document root down
to the node, inclusive on both ends (the root's chain is
``(DOCUMENT_TAG,)``), and the node kind of the final component, which
tells the element ``id`` from the attribute ``id`` under one parent path
(interior components are always document/element nodes).

The summary is kept *per page* (``page_no -> {key: count}``), like
:class:`~repro.storage.synopsis.ClusterSynopsis`'s rows, so repair after
an update recollects only the touched pages.  From the rows it derives
an index over *path ids*: each key is interned to a dense int id, counts
and postings are lists indexed by id, and a set of keys is an int
bitset.  Each chain has a child bitset, a closure bitset (every key
strictly below it) and the node total of that closure; each node kind
and each tag has a mask.  A ``descendant`` step is then the contexts'
closures ANDed with the node test's masks.  :meth:`PathSummary.patched`
keeps the ids: a key seen before keeps its id, a new key takes the next
free one, and only that key's parent, O(depth) ancestors and masks
change.  So ids are in first-seen order, not key order; nothing depends
on it, as every reader folds a bitset into sets, ORs or integer sums,
and ``==`` compares the tables decoded to keys.

Consulting the summary costs no simulated time.  :meth:`PathSummary.
evaluate` yields per-step id bitsets (supersets of the true result
paths, exact for downward-only paths without predicates), memoised on
the summary, for three optimisations in :mod:`repro.xpath.rewrite`:
**refutation** (an empty set at any step proves the query empty),
**expansion** (a ``descendant`` step whose matches all sit on one suffix
chain becomes child steps) and **pricing** (exact cardinalities, and
the operators' pre-scan cluster filter :class:`PathPostings`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.axes import Axis
from repro.model.tree import Kind, LogicalTree
from repro.storage.nodeid import page_of, slot_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.algebra.steps import CompiledStep
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

#: How many path evaluations one summary keeps; one more drops them all.
EVALUATION_LIMIT = 256


class PathSummary:
    """Distinct root-to-node paths of one document, with counts and postings."""

    __slots__ = (
        "_pages", "_ids", "_keys", "_counts", "_postings", "_kids", "_below",
        "_totals", "_kinds", "_tags", "_n_nodes", "_memo",
    )

    def __init__(self, pages: PageRows) -> None:
        #: evaluations, born empty: steps' memo keys -> (evaluation, steps)
        self._memo: Dict[Tuple[int, ...], Tuple["PathEvaluation", tuple]] = {}
        self._pages = pages
        #: path key <-> dense id in the rows' first-seen order; count, postings by id
        self._keys: List[PathKey] = []
        self._ids: Dict[PathKey, int] = {}
        self._counts, self._postings = counts, postings = [], []
        for page_no, row in pages.items():
            bit = 1 << page_no
            for key, count in row.items():
                i = self._intern(key)
                counts[i] += count
                postings[i] |= bit
        self._n_nodes = sum(counts)
        #: chain -> ids one level below it / strictly below it / their nodes
        self._kids: Dict[Tuple[int, ...], int] = {}
        self._below: Dict[Tuple[int, ...], int] = {}
        self._totals: Dict[Tuple[int, ...], int] = {}
        #: kind / tag of the last component -> its keys' ids
        self._kinds: Dict[int, int] = {}
        self._tags: Dict[int, int] = {}
        for i, (chain, kind) in enumerate(self._keys):
            if not counts[i]:
                continue
            bit = 1 << i
            self._kids[chain[:-1]] = self._kids.get(chain[:-1], 0) | bit
            for depth in range(1, len(chain)):
                prefix = chain[:depth]
                self._below[prefix] = self._below.get(prefix, 0) | bit
                self._totals[prefix] = self._totals.get(prefix, 0) + counts[i]
            self._kinds[kind] = self._kinds.get(kind, 0) | bit
            self._tags[chain[-1]] = self._tags.get(chain[-1], 0) | bit

    def _intern(self, key: PathKey) -> int:
        """``key``'s id; a key never seen takes the next free one."""
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self._keys)
            self._keys.append(key)
            self._counts.append(0)
            self._postings.append(0)
        return i

    # -- construction --------------------------------------------------

    @staticmethod
    def collect_from_tree(tree: LogicalTree, node_page: Sequence[int]) -> "PathSummary":
        """Build the summary from the logical tree at import time.

        ``node_page`` maps each logical node to the physical page it
        landed on (:attr:`~repro.storage.importer.ImportResult.node_page`),
        so this runs in the same import pass as the synopsis without
        touching the freshly written pages again.  A node's key follows
        from its parent's, its tag and kind: no chain is hashed per node.
        """
        tags_arr = tree.tag
        parent = tree.parent
        kinds = tree.kind
        keys: List[PathKey] = []
        #: (parent's key's index in keys, tag, kind) -> the key's index
        links: Dict[Tuple[int, int, int], int] = {}
        id_of = [0] * len(tree)
        rows: Dict[int, Dict[int, int]] = {}
        for node in range(len(tree)):
            up = id_of[parent[node]] if parent[node] >= 0 else -1
            link = (up, tags_arr[node], kinds[node])
            i = links.get(link)
            if i is None:
                chain = (keys[up][0] if up >= 0 else ()) + (tags_arr[node],)
                i = links[link] = len(keys)
                keys.append((chain, kinds[node]))
            id_of[node] = i
            row = rows.setdefault(node_page[node], {})
            row[i] = row.get(i, 0) + 1
        pages = {
            page_no: {keys[i]: count for i, count in row.items()}
            for page_no, row in rows.items()
        }
        return PathSummary(pages)

    @staticmethod
    def collect(segment: "Segment", page_nos: Iterable[int]) -> "PathSummary":
        """Build the summary by walking the physical records.

        The post-load / post-update counterpart of
        :meth:`collect_from_tree`; both produce identical summaries
        (``test_tree_collection_equals_physical_collection`` asserts this).
        """
        resolver = _ChainResolver(segment)
        collect = PathSummary.collect_row
        return PathSummary({p: collect(segment, segment.page(p), resolver) for p in page_nos})

    @staticmethod
    def collect_row(
        segment: "Segment", page: "Page", resolver: "_ChainResolver | None" = None
    ) -> Dict[PathKey, int]:
        """Collect one page's path row from its physical records, the unit
        of :meth:`collect` that incremental repair calls for the touched
        pages.  Resolving a root chain may read *other* pages (the parent
        chain crosses cluster borders upward), which is free: the summary
        is maintained off the simulated clock, like the synopsis.
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
        this one's — the incremental-repair constructor — or this one,
        memo and all, when every fresh row equals the page's old row.
        Reads only those pages' rows: the tables are copied and adjusted
        by each key's change of count (:meth:`_recount`), and no
        surviving key changes its id.  Equal to ``PathSummary(patched
        rows)``, whose ids may differ.
        """
        pages = self._pages
        if all(pages.get(page_no) == row for page_no, row in fresh.items()):
            return self
        new = PathSummary.__new__(PathSummary)
        new._memo = {}
        new._pages = pages = dict(pages)
        new._ids, new._keys = dict(self._ids), list(self._keys)
        new._counts, new._postings = list(self._counts), list(self._postings)
        postings = new._postings
        new._kids, new._below, new._totals = dict(self._kids), dict(self._below), dict(self._totals)
        new._kinds, new._tags = dict(self._kinds), dict(self._tags)
        change: Dict[int, int] = {}
        for page_no, row in fresh.items():
            bit = 1 << page_no
            for key, count in pages.get(page_no, {}).items():
                i = new._ids[key]
                change[i] = change.get(i, 0) - count
                postings[i] &= ~bit
            for key, count in row.items():
                i = new._intern(key)
                change[i] = change.get(i, 0) + count
                postings[i] |= bit
            pages[page_no] = row
        for i, delta in change.items():
            if delta:
                new._recount(i, delta)
        new._n_nodes = self._n_nodes + sum(change.values())
        return new

    def _recount(self, i: int, delta: int) -> None:
        """Add ``delta`` to id ``i``'s count and to its ancestors' totals;
        a key whose count leaves or reaches 0 flips its bit in its
        parent's child bitset, its ancestors' closures and its kind and
        tag masks.  Every other chain's tables stay as they are."""
        was = self._counts[i]
        self._counts[i] = now = was + delta
        chain, kind = self._keys[i]
        for depth in range(1, len(chain)):
            _put(self._totals, chain[:depth], self._totals.get(chain[:depth], 0) + delta)
        if was and now:
            return
        tables = [(self._kids, chain[:-1]), (self._kinds, kind), (self._tags, chain[-1])]
        tables += [(self._below, chain[:depth]) for depth in range(1, len(chain))]
        for table, at in tables:  # the key appears or vanishes
            _put(table, at, table.get(at, 0) ^ 1 << i)

    # -- trie accessors ------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Total nodes across all paths (the document size)."""
        return self._n_nodes

    @property
    def n_paths(self) -> int:
        """Number of distinct path keys."""
        return sum(bits.bit_count() for bits in self._kinds.values())

    def path_counts(self) -> List[Tuple[PathKey, int]]:
        """Every path key with its exact node count, in sorted key order."""
        return sorted((key, n) for key, n in zip(self._keys, self._counts) if n)

    def count(self, key: PathKey) -> int:
        """Exact number of nodes with this path key (0 if absent)."""
        i = self._ids.get(key)
        return 0 if i is None else self._counts[i]

    def postings(self, key: PathKey) -> int:
        """Bitset of page numbers holding instances of this path key."""
        i = self._ids.get(key)
        return 0 if i is None else self._postings[i]

    def posted(self, ids: int) -> int:
        """Bitset of page numbers holding an instance of some key of ``ids``."""
        postings = self._postings
        bits = 0
        for i in _bits(ids):
            bits |= postings[i]
        return bits

    def keys_of(self, ids: int) -> Iterator[PathKey]:
        """The path keys of an id bitset (an evaluation's step set)."""
        keys = self._keys
        return (keys[i] for i in _bits(ids))

    def child_keys(self, chain: Tuple[int, ...]) -> Tuple[PathKey, ...]:
        """All path keys directly below ``chain`` in the trie."""
        return tuple(self.keys_of(self._kids.get(chain, 0)))

    def root_key(self) -> PathKey:
        """The document root's path key."""
        # degenerate (empty) summary: synthesise the conventional root
        return next(self.keys_of(self._kinds.get(_KIND_DOCUMENT, 0)), ((0,), _KIND_DOCUMENT))

    # -- whole-path evaluation -----------------------------------------

    def evaluate(self, steps: Sequence["CompiledStep"]) -> "PathEvaluation":
        """:meth:`_evaluate`, memoised on the summary under the steps'
        ``memo_key`` tuple (the key :meth:`~repro.storage.store.
        StoredDocument.path_id` interns), so rewrite, estimator and
        postings share one evaluation per (summary, path).  A summary is
        never edited in place (``patched`` builds a new one, born with an
        empty memo, unless no row changed), so no entry can go stale.  At
        most :data:`EVALUATION_LIMIT` are kept: one more drops them all.
        A path with step predicates, which the key does not capture, is
        evaluated afresh.
        """
        if any(step.predicates for step in steps):
            return self._evaluate(steps)
        key = tuple(step.memo_key for step in steps)
        hit = self._memo.get(key)
        if hit is None:
            if len(self._memo) >= EVALUATION_LIMIT:
                self._memo.clear()
            hit = self._memo[key] = (self._evaluate(steps), tuple(steps))
        return hit[0]

    def _evaluate(self, steps: Sequence["CompiledStep"]) -> "PathEvaluation":
        """Propagate a location path through the trie.

        Per-step id bitsets are always a *superset* of the paths of the
        step's true matches (so an empty set refutes the query), and
        exact when every step so far is downward and predicate-free.
        Predicates never extend a set but clear ``exact``; one whose
        relative path is refuted from every candidate refutes the query
        (an existence test or comparison over an empty node-set is false).
        """
        contexts = self._kinds.get(_KIND_DOCUMENT, 0)
        step_sets: List[int] = []
        exact, refuted = True, False
        visited = 1.0
        for step in steps:
            result, swept = self._step_result(contexts, step)
            visited += swept
            if step.axis not in _EXACT_AXES:
                exact = False
            for predicate in step.predicates:
                exact = False
                if result and self._predicate_refuted(result, predicate):
                    result = 0
            step_sets.append(result)
            contexts = result
            if not contexts:
                refuted = True
                break
        step_sets += [0] * (len(steps) - len(step_sets))
        cardinality = float(sum(self._counts[i] for i in _bits(contexts))) if exact else None
        return PathEvaluation(
            refuted, exact and not refuted, 0.0 if refuted else cardinality, visited,
            tuple(step_sets), tuple(self.posted(ids) for ids in step_sets),
        )

    def _predicate_refuted(self, contexts: int, predicate: object) -> bool:
        """True if the predicate's relative path is empty from every context."""
        current = contexts
        for step in predicate.steps:  # type: ignore[attr-defined]
            current, _ = self._step_result(current, step)
            for nested in step.predicates:
                if current and self._predicate_refuted(current, nested):
                    current = 0
            if not current:
                return True
        return False

    def _step_result(self, contexts: int, step: "CompiledStep") -> Tuple[int, int]:
        """One step's result id bitset plus the nodes a sweep would visit."""
        axis = step.axis
        test = step.test
        mask = 0
        for kind, bits in self._kinds.items():
            if kind in test.kinds:
                mask |= bits
        if test.tag is not None:
            mask &= self._tags.get(test.tag, 0)
        if axis is Axis.SELF:
            return contexts & mask, 0
        keys = self._keys
        counts = self._counts
        kinds = self._kinds
        parents = contexts & (kinds.get(_KIND_DOCUMENT, 0) | kinds.get(_KIND_ELEMENT, 0))
        reach = swept = 0
        if axis is Axis.CHILD or axis is Axis.ATTRIBUTE:
            for i in _bits(parents):
                reach |= self._kids.get(keys[i][0], 0)
            reach &= mask
            return reach, sum(counts[i] for i in _bits(reach))
        if axis is Axis.DESCENDANT or axis is Axis.DESCENDANT_OR_SELF:
            for i in _bits(parents):
                reach |= self._below.get(keys[i][0], 0)
            # the contexts below no other context own disjoint subtrees
            # that cover the reach, so their totals sum it
            for i in _bits(parents & ~reach):
                swept += self._totals.get(keys[i][0], 0)
            if axis is Axis.DESCENDANT_OR_SELF:
                # the step enumerates the contexts too
                swept += sum(counts[i] for i in _bits(contexts & ~reach))
                reach |= contexts
            return reach & mask, swept
        ids = self._ids
        for i in _bits(contexts):
            chain = keys[i][0]
            if axis is Axis.PARENT:
                up = ids.get((chain[:-1], _parent_kind(chain)), -1)
                if up >= 0 and mask >> up & 1:
                    reach |= 1 << up
                    swept += 1
            elif axis is Axis.ANCESTOR or axis is Axis.ANCESTOR_OR_SELF:
                swept += len(chain) - 1
                for depth in range(1, len(chain)):
                    up = ids.get((chain[:depth], _parent_kind(chain[: depth + 1])), -1)
                    reach |= 1 << up if up >= 0 else 0
            elif len(chain) > 1:  # sibling axes: all children of the parent chain (upper bound)
                siblings = self._kids.get(chain[:-1], 0)
                reach |= siblings
                swept += sum(counts[j] for j in _bits(siblings))
        if axis is Axis.ANCESTOR_OR_SELF:
            reach |= contexts
        return reach & mask, swept

    # -- persistence ---------------------------------------------------

    def page_rows(self) -> PageRows:
        """The raw per-page rows; used by the persistence layer and tests."""
        return {page_no: dict(row) for page_no, row in self._pages.items()}

    @staticmethod
    def from_page_rows(pages: PageRows) -> "PathSummary":
        return PathSummary({page_no: dict(row) for page_no, row in pages.items()})

    def _by_key(self) -> tuple:
        """Every table with its ids decoded to keys: what ``==`` compares."""
        decode = lambda table: {at: frozenset(self.keys_of(ids)) for at, ids in table.items()}
        live = {k: (n, p) for k, n, p in zip(self._keys, self._counts, self._postings) if n}
        return (
            self._pages, self._n_nodes, live, self._totals,
            decode(self._kids), decode(self._below), decode(self._kinds), decode(self._tags),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathSummary):
            return NotImplemented
        # the derived tables too: `patched` maintains them incrementally,
        # and equality with a full recollect is what proves it right
        return self._by_key() == other._by_key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PathSummary({self.n_paths} paths, {self._n_nodes} nodes, {len(self._pages)} pages)"


def _bits(ids: int) -> Iterator[int]:
    """The positions of ``ids``' set bits, low to high."""
    while ids:
        low = ids & -ids
        yield low.bit_length() - 1
        ids ^= low


def _put(table: Dict, at: object, value: int) -> None:
    """``table[at] = value``, or no entry for a value of 0."""
    if value:
        table[at] = value
    else:
        table.pop(at, None)


def _parent_kind(chain: Tuple[int, ...]) -> int:
    """Kind of the node *owning* the last component of ``chain``."""
    return _KIND_DOCUMENT if len(chain) <= 2 else _KIND_ELEMENT


#: Axes whose path sets are exact (node-for-node countable): downward
#: navigation from the root reaches *every* node on a matching path.
_EXACT_AXES = frozenset(
    {Axis.SELF, Axis.CHILD, Axis.ATTRIBUTE, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF}
)


@dataclass(frozen=True, slots=True)
class PathEvaluation:
    """Result of :meth:`PathSummary.evaluate` for one location path; a
    value, so a memoised one is shared by every consumer."""

    #: the summary proves the result empty
    refuted: bool
    #: cardinality/visited are exact counts, not upper bounds
    exact: bool
    #: exact result cardinality (None when not exact; 0.0 when refuted)
    cardinality: float | None
    #: nodes a step-by-step evaluation enumerates (exact when ``exact``)
    visited: float
    #: per-step bitsets over the summary's path ids (supersets of the
    #: true result paths; :meth:`PathSummary.keys_of` decodes one)
    step_sets: Tuple[int, ...]
    #: per-step bitsets of the clusters posted for those ids
    postings: Tuple[int, ...]


class _ChainResolver:
    """Resolves core records to root-to-node tag chains by physical walk.

    Climbing a parent link that crosses a cluster border follows the up
    border to its companion down border in the parent cluster, whose
    local link names the holder there — either the parent core record or
    a continuation proxy whose own border must be crossed in turn (split
    child lists, see
    :meth:`repro.storage.colview.ColumnView.resume_candidates`).  Chains
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

    Built by the rewrite pass from the summary's (memoised)
    :class:`PathEvaluation` of the path: bit ``p`` of ``_bits[i]`` is
    set iff cluster ``p`` holds a node whose root path could match step
    ``i``.  The operators skip a cluster only when it holds no candidate
    for any step **and** the synopsis's *transit* verdicts say no resume
    there can cross into another cluster, so the filter composes with
    (and never double-counts against) synopsis pruning.
    """

    __slots__ = ("_axes", "_bits")

    def __init__(self, axes: Tuple[Axis, ...], bits: Tuple[int, ...]) -> None:
        self._axes = axes
        self._bits = bits

    @staticmethod
    def for_steps(summary: PathSummary, steps: Sequence["CompiledStep"]) -> "PathPostings":
        return PathPostings(tuple(step.axis for step in steps), summary.evaluate(steps).postings)

    @staticmethod
    def uniform(steps: Sequence["CompiledStep"], page_nos: Iterable[int]) -> "PathPostings":
        """Every step posted on the pages ``page_nos``: on all of the
        document's with the path summary switched off (they refuse
        nothing, so the synopsis's own masks decide alone), on none for a
        refuted path."""
        bits = sum(1 << page_no for page_no in page_nos)
        return PathPostings(tuple(step.axis for step in steps), (bits,) * len(steps))

    def holds_candidate(self, step_index: int, page_no: int) -> bool:
        """Does cluster ``page_no`` hold a possible match of this step?"""
        return bool(self._bits[step_index] >> page_no & 1)

    def can_contribute(self, synopsis: "ClusterSynopsis", page_no: int, step_index: int) -> bool:
        """Refined :meth:`ClusterSynopsis.can_contribute`: a speculative
        resume needs a posted candidate or a transit possibility."""
        posted = self.holds_candidate(step_index, page_no)
        return posted or synopsis.contribute_transit(page_no, self._axes[step_index])

    def can_extend(self, synopsis: "ClusterSynopsis", page_no: int, step_index: int) -> bool:
        """Refined :meth:`ClusterSynopsis.can_extend`: a targeted resume
        needs a posted candidate or a transit possibility."""
        posted = self.holds_candidate(step_index, page_no)
        return posted or synopsis.extend_transit(page_no, self._axes[step_index])

    def refusals(self, synopsis: "ClusterSynopsis", step_index: int) -> Tuple[int, int]:
        """:meth:`can_contribute` / :meth:`can_extend` as the bitsets of
        the clusters they answer False for (see
        :meth:`ClusterSynopsis.refusals`): the synopsis's memoised transit
        refusals minus the clusters posted for the step."""
        contribute, extend = synopsis.transit_refusals(self._axes[step_index])
        posted = self._bits[step_index]
        return contribute & ~posted, extend & ~posted

    def relevant_pages(self) -> int:
        """Distinct clusters posted for any step (the pricing cap)."""
        union = 0
        for bits in self._bits:
            union |= bits
        return union.bit_count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PathPostings({len(self._axes)} steps, {self.relevant_pages()} pages)"
