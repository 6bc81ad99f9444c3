"""Document store: segments, stored documents, and structural validation.

A :class:`DocumentStore` owns one :class:`~repro.storage.page.Segment`
(the on-disk image) and any number of imported documents.  It also
provides :func:`export_tree`, which reconstructs the logical tree from the
physical records — used by the round-trip tests and doubling as the
document-export feature the paper's outlook section mentions.

:class:`DocumentStatistics` is derived from the document's path summary:
there is no statistics sweep of its own over tree or records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StorageError, StoreCorruptError
from repro.model.builder import TreeBuilder
from repro.model.tags import TagDictionary
from repro.model.tree import Kind, LogicalTree
from repro.storage.importer import ImportOptions, ImportResult, import_tree
from repro.storage.nodeid import NodeID, make_nodeid, page_of, slot_of
from repro.storage.page import Segment
from repro.storage.pathsummary import PathSummary
from repro.storage.record import BorderRecord, CoreRecord
from repro.storage.synopsis import ClusterSynopsis


@dataclass
class DocumentStatistics:
    """Schema-level statistics, derived from the document's path summary.

    Used by the AUTO plan chooser (the cost model the paper's outlook
    section calls for) to estimate how much of the document a path visits.

    ``child_pairs[(p, c)]`` counts parent-child tag pairs;
    ``desc_pairs[(a, d)]`` counts ancestor-descendant tag pairs (exact).
    """

    n_nodes: int
    n_elements: int
    tag_counts: dict[int, int]
    child_pairs: dict[tuple[int, int], int]
    desc_pairs: dict[tuple[int, int], int]

    @staticmethod
    def from_summary(summary: PathSummary) -> "DocumentStatistics":
        """Every statistic is a sum over root-to-node paths, and the
        summary holds each path with its exact count and final kind.
        Paths are taken in sorted order, so the dictionaries — and with
        them the order of the estimator's float sums — are reproducible.
        """
        tag_counts: dict[int, int] = {}
        child_pairs: dict[tuple[int, int], int] = {}
        desc_pairs: dict[tuple[int, int], int] = {}
        n_elements = 0
        for (chain, kind), count in summary.path_counts():
            tag = chain[-1]
            tag_counts[tag] = tag_counts.get(tag, 0) + count
            if kind == Kind.ELEMENT:
                n_elements += count
            if len(chain) > 1:
                pair = (chain[-2], tag)
                child_pairs[pair] = child_pairs.get(pair, 0) + count
            for ancestor_tag in chain[:-1]:
                dpair = (ancestor_tag, tag)
                desc_pairs[dpair] = desc_pairs.get(dpair, 0) + count
        return DocumentStatistics(
            n_nodes=summary.n_nodes,
            n_elements=n_elements,
            tag_counts=tag_counts,
            child_pairs=child_pairs,
            desc_pairs=desc_pairs,
        )

    @staticmethod
    def collect(tree: LogicalTree) -> "DocumentStatistics":
        """Statistics of a logical tree that is not stored anywhere."""
        return DocumentStatistics.from_summary(
            PathSummary.collect_from_tree(tree, [0] * len(tree))
        )


@dataclass
class StoredDocument:
    """Catalog entry for one imported document."""

    name: str
    root: NodeID
    page_nos: list[int]  #: physical pages of this document, ascending
    n_nodes: int
    n_border_pairs: int
    n_continuations: int
    import_result: ImportResult = field(repr=False)
    statistics: DocumentStatistics | None = field(default=None, repr=False)
    #: Per-cluster structural summary; None disables synopsis pruning
    #: (structural updates invalidate it until recollected).
    synopsis: ClusterSynopsis | None = field(default=None, repr=False)
    #: Document-level path summary (root-to-node path trie with counts
    #: and cluster postings); None disables the whole-query rewrite pass
    #: until recollected or repaired.
    pathsummary: PathSummary | None = field(default=None, repr=False)
    #: location paths run over this document, interned (:meth:`path_id`)
    path_ids: dict[tuple, int] = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_pages(self) -> int:
        return len(self.page_nos)

    def path_id(self, steps) -> int:
        """A small integer naming the location path ``steps`` (compiled
        steps, told apart by axis and node test) among the paths run over
        this document.  A plan interns its path once per execution and
        per-cluster memos are kept under the integer, so nothing hashes
        the frozen node tests per cluster."""
        key = tuple((step.axis, step.test) for step in steps)
        return self.path_ids.setdefault(key, len(self.path_ids))


class DocumentStore:
    """A segment plus the documents imported into it."""

    def __init__(self, page_size: int = 8192, tags: TagDictionary | None = None) -> None:
        self.segment = Segment(page_size)
        self.tags = tags if tags is not None else TagDictionary()
        self.documents: dict[str, StoredDocument] = {}
        #: LSN of the last update operation folded into the on-disk
        #: checkpoint image (0 = no logged updates).  Maintained by the
        #: durability layer (:mod:`repro.storage.wal`); persisted in the
        #: store-file header so recovery knows which WAL entries are
        #: already part of the image and must not be replayed twice.
        self.checkpoint_lsn = 0
        #: deterministic kill switch for crash testing
        #: (:class:`repro.sim.faults.CrashInjector`); update operations
        #: announce their mid-flight steps through it.  None outside
        #: kill-and-recover runs.
        self.crash = None

    def import_document(
        self,
        tree: LogicalTree,
        name: str,
        options: ImportOptions | None = None,
    ) -> StoredDocument:
        """Cluster ``tree`` onto fresh pages of the segment."""
        if name in self.documents:
            raise StorageError(f"document {name!r} already exists")
        if tree.tags is not self.tags:
            raise StorageError("document tree must share the store's tag dictionary")
        opts = options or ImportOptions(page_size=self.segment.page_size)
        if opts.page_size != self.segment.page_size:
            raise StorageError(
                f"import page size {opts.page_size} differs from segment "
                f"page size {self.segment.page_size}"
            )
        result = import_tree(tree, opts, first_page_no=self.segment.n_pages)
        for page in result.pages:
            self.segment.adopt(page)
        summary = PathSummary.collect_from_tree(tree, result.node_page)
        doc = StoredDocument(
            name=name,
            root=result.root,
            page_nos=result.page_nos,
            n_nodes=len(tree),
            n_border_pairs=result.n_border_pairs,
            n_continuations=result.n_continuations,
            import_result=result,
            statistics=DocumentStatistics.from_summary(summary),
            synopsis=ClusterSynopsis.collect(result.pages),
            pathsummary=summary,
        )
        self.documents[name] = doc
        return doc

    def document(self, name: str) -> StoredDocument:
        try:
            return self.documents[name]
        except KeyError:
            raise StorageError(f"no such document: {name!r}") from None


def recollect_statistics(store: DocumentStore, doc: StoredDocument) -> DocumentStatistics:
    """Rebuild schema statistics of the stored document.

    Structural updates invalidate the import-time statistics snapshot
    (the AUTO plan chooser then runs statistics-free); this restores
    them without re-importing, from the document's path summary — read
    off the physical pages, and not kept, when an update dropped it too.
    """
    summary = doc.pathsummary
    if summary is None:
        summary = PathSummary.collect(store.segment, doc.page_nos)
    statistics = DocumentStatistics.from_summary(summary)
    doc.statistics = statistics
    doc.n_nodes = statistics.n_nodes
    return statistics


def recollect_synopsis(store: DocumentStore, doc: StoredDocument) -> ClusterSynopsis:
    """Rebuild the per-cluster synopsis from the physical pages.

    Used after loading a store whose format predates the synopsis and
    after structural updates (which invalidate the import-time synopsis
    the same way they invalidate statistics).
    """
    synopsis = ClusterSynopsis.collect(
        store.segment.page(page_no) for page_no in doc.page_nos
    )
    doc.synopsis = synopsis
    return synopsis


def repair_synopsis(
    store: DocumentStore,
    doc: StoredDocument,
    base: ClusterSynopsis | None,
    touched_page_nos,
) -> ClusterSynopsis:
    """Rebuild the synopsis from ``base`` by recollecting only touched pages.

    ``base`` is the synopsis as it stood *before* the updates being
    repaired over (update operations null out ``doc.synopsis``, so the
    caller — the WAL manager — snapshots it first).  Rows for pages in
    ``touched_page_nos`` that belong to ``doc`` are recollected from the
    physical records; all other rows are kept.  Falls back to a full
    :func:`recollect_synopsis` when there is no base to patch.

    The result must be indistinguishable from a full recollect — the
    equivalence the ablation benchmark asserts — it is just O(touched)
    instead of O(document).
    """
    if base is None:
        return recollect_synopsis(store, doc)
    mine = set(doc.page_nos)
    fresh = {
        page_no: ClusterSynopsis.collect_row(store.segment.page(page_no))
        for page_no in sorted(touched_page_nos)
        if page_no in mine
    }
    synopsis = base.patched(fresh) if fresh else base
    doc.synopsis = synopsis
    return synopsis


def recollect_pathsummary(store: DocumentStore, doc: StoredDocument) -> PathSummary:
    """Rebuild the path summary from the physical pages.

    Used after loading a store whose format predates the summary (v1-v3)
    and as the fallback when incremental repair has no base to patch.
    Produces a summary identical to the import-time collection — the
    cross-version persistence tests assert the equivalence.
    """
    summary = PathSummary.collect(store.segment, doc.page_nos)
    doc.pathsummary = summary
    return summary


def repair_pathsummary(
    store: DocumentStore,
    doc: StoredDocument,
    base: PathSummary | None,
    touched_page_nos,
) -> PathSummary:
    """Rebuild the path summary from ``base`` by recollecting touched pages.

    The path-summary twin of :func:`repair_synopsis`, driven by the same
    ``Page.version`` change tracking: rows for pages the update run
    touched are recollected from the physical records (resolving root
    chains may read ancestor pages, which is free — planning metadata is
    maintained off the simulated clock) and patched over the base.
    Structural updates only change paths of nodes on pages they touch
    (inserted/deleted/relocated records), so O(touched) rows suffice;
    the result must be indistinguishable from a full recollect.
    """
    if base is None:
        return recollect_pathsummary(store, doc)
    mine = set(doc.page_nos)
    resolver = None
    fresh = {}
    for page_no in sorted(touched_page_nos):
        if page_no not in mine:
            continue
        if resolver is None:
            from repro.storage.pathsummary import _ChainResolver

            resolver = _ChainResolver(store.segment)
        fresh[page_no] = PathSummary.collect_row(
            store.segment, store.segment.page(page_no), resolver
        )
    summary = base.patched(fresh) if fresh else base
    doc.pathsummary = summary
    return summary


def check_document(store: DocumentStore, doc: StoredDocument) -> None:
    """Validate physical invariants of a stored document.

    Checks: border pairs are mutual (``target(target(x)) == x``), with
    opposite directions; every child link resolves; every core record's
    parent link resolves; continuation proxies carry child lists.
    Raises :class:`StorageError` on the first violation.
    """
    segment = store.segment
    for page_no in doc.page_nos:
        page = segment.page(page_no)
        for slot, record in enumerate(page.records):
            if record is None:
                continue  # tombstone left by a relocation (updates)
            if isinstance(record, BorderRecord):
                companion_id = record.target()
                companion_page = segment.page(page_of(companion_id))
                companion = companion_page.record(slot_of(companion_id))
                if not isinstance(companion, BorderRecord):
                    raise StorageError(f"border companion is not a border at {companion_id}")
                if companion.target() != make_nodeid(page_no, slot):
                    raise StorageError(f"border pair not mutual at page {page_no} slot {slot}")
                if companion.down == record.down:
                    raise StorageError(f"border pair direction clash at page {page_no} slot {slot}")
                if companion.continuation != record.continuation:
                    raise StorageError(f"border pair kind clash at page {page_no} slot {slot}")
                if not record.down and record.continuation and record.child_slots is None:
                    raise StorageError(f"continuation proxy without child list at {page_no}.{slot}")
                if record.local_slot >= 0:
                    local = page.record(record.local_slot)
                    if isinstance(local, BorderRecord):
                        # a downward border may hang off a continuation
                        # proxy (split child list); anything else is corrupt
                        holder_ok = record.down and local.continuation and not local.down
                        if not holder_ok:
                            raise StorageError(
                                f"bad border local link at {page_no}.{slot}"
                            )
                for child_slot in record.child_slots or ():
                    page.record(child_slot)
            else:
                if record.parent_slot >= 0:
                    page.record(record.parent_slot)
                for child_slot in record.child_slots:
                    page.record(child_slot)


def export_tree(store: DocumentStore, doc: StoredDocument) -> LogicalTree:
    """Rebuild the logical tree of ``doc`` from its physical records.

    Walks the clustered representation depth-first, transparently crossing
    border pairs and continuation proxies.  Round-tripping
    ``export_tree(import_document(tree))`` must reproduce ``tree`` — the
    central storage-correctness property in the test suite.
    """
    segment = store.segment
    builder = TreeBuilder(store.tags)

    def resolve(page_no: int, slot: int) -> tuple[int, int, CoreRecord]:
        """Follow border indirections down to a core record."""
        record = segment.page(page_no).record(slot)
        while isinstance(record, BorderRecord):
            if not record.down and record.local_slot >= 0:
                # upward border inside the child cluster: its local core node
                slot = record.local_slot
            else:
                target = record.target()
                page_no, slot = page_of(target), slot_of(target)
            record = segment.page(page_no).record(slot)
        return page_no, slot, record

    def child_entries(page_no: int, record: CoreRecord | BorderRecord) -> list[tuple[int, int]]:
        """Expand a child-slot list, inlining continuation proxies."""
        out: list[tuple[int, int]] = []
        slots = record.child_slots or ()
        for slot in slots:
            entry = segment.page(page_no).record(slot)
            if isinstance(entry, BorderRecord) and entry.continuation and entry.down:
                target = entry.target()
                proxy_page = page_of(target)
                proxy = segment.page(proxy_page).record(slot_of(target))
                if not isinstance(proxy, BorderRecord):
                    raise StoreCorruptError(
                        f"continuation companion {target!r} does not point at "
                        "a border record"
                    )
                out.extend(child_entries(proxy_page, proxy))
            else:
                out.append((page_no, slot))
        return out

    def emit(page_no: int, slot: int) -> None:
        page_no, slot, record = resolve(page_no, slot)
        kind = record.kind
        if kind == Kind.TEXT:
            builder.text(record.value or "")
            return
        if kind == Kind.ATTRIBUTE:
            builder.attribute(store.tags.name_of(record.tag), record.value or "")
            return
        if kind == Kind.ELEMENT:
            builder.start_element(store.tags.name_of(record.tag))
        for child_page, child_slot in child_entries(page_no, record):
            emit(child_page, child_slot)
        if kind == Kind.ELEMENT:
            builder.end_element()

    root_page, root_slot = page_of(doc.root), slot_of(doc.root)
    root_record = segment.page(root_page).record(root_slot)
    if not isinstance(root_record, CoreRecord) or root_record.kind != Kind.DOCUMENT:
        raise StoreCorruptError(
            f"document root {doc.root!r} is not a DOCUMENT core record"
        )
    for child_page, child_slot in child_entries(root_page, root_record):
        emit(child_page, child_slot)
    return builder.finish()
