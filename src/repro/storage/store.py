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

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import StorageError, StoreCorruptError
from repro.model.builder import TreeBuilder
from repro.model.tags import TagDictionary
from repro.model.tree import Kind, LogicalTree
from repro.storage.importer import ImportOptions, ImportResult, import_tree
from repro.storage.nodeid import NodeID, make_nodeid, page_of, slot_of
from repro.storage.page import Segment
from repro.storage.pathsummary import PathSummary, _ChainResolver
from repro.storage.record import BorderRecord, CoreRecord
from repro.storage.synopsis import ClusterSynopsis

#: How many location paths one document keeps interned; one more drops
#: them all (:meth:`StoredDocument.path_id`).
PATH_ID_LIMIT = 256


@contextmanager
def collector_paused():
    """Run the body with CPython's cyclic garbage collector disabled, and
    enable it again afterwards if it was enabled before (also when the
    body raises).

    For the two bulk builders, :meth:`DocumentStore.import_document` and
    :func:`repro.storage.persist.load_store`.  Each allocates a few
    tracked objects per node (a record, its child-slot list, an ORDPATH
    and its components), and that count alone sets off hundreds of
    collections per document, full passes among them, while the builders
    make no reference cycles: every one of those collections frees
    nothing (``gc.callbacks`` report 0 collected).  Pausing the collector
    only postpones collection, so nothing is lost; the program's own
    structures leave no cyclic garbage behind either (a finished query
    and a dropped store are freed by reference counting), so the pause
    defers nothing else.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


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
    #: Per-cluster structural summary, kept exact by every update
    #: (:mod:`repro.storage.update` repairs it over the touched pages).
    synopsis: ClusterSynopsis = field(repr=False)
    #: Document-level path summary (root-to-node path trie with counts
    #: and cluster postings), kept exact the same way.
    pathsummary: PathSummary = field(repr=False)
    #: AUTO's schema statistics; None after a structural update until
    #: :func:`recollect_statistics`.
    statistics: DocumentStatistics | None = field(default=None, repr=False)
    #: location paths run over this document, interned (:meth:`path_id`)
    path_ids: dict[tuple, int] = field(default_factory=dict, repr=False, compare=False)
    #: the id the next path interned gets
    next_path_id: int = field(default=0, repr=False, compare=False)

    @property
    def n_pages(self) -> int:
        return len(self.page_nos)

    def path_id(self, steps) -> int:
        """A small integer naming the location path ``steps`` (compiled
        steps, told apart by axis and node test) among the paths run over
        this document.  A plan interns its path once per execution and
        per-cluster memos are kept under the integer, so nothing hashes
        the frozen node tests per cluster.

        At most :data:`PATH_ID_LIMIT` paths are kept: one more drops them
        all.  Ids come off a running counter and are never reused, so a
        memo kept under a dropped path's id never answers for another
        path; a path interned again gets a new id."""
        key = tuple(step.memo_key for step in steps)
        found = self.path_ids.get(key)
        if found is None:
            if len(self.path_ids) >= PATH_ID_LIMIT:
                self.path_ids.clear()
            found = self.path_ids[key] = self.next_path_id
            self.next_path_id += 1
        return found


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
        with collector_paused():
            result = import_tree(tree, opts, first_page_no=self.segment.n_pages)
            for page in result.pages:
                self.segment.adopt(page)
            summary = PathSummary.collect_from_tree(tree, result.node_page)
            synopsis = ClusterSynopsis.collect(result.pages)
        doc = StoredDocument(
            name=name,
            root=result.root,
            page_nos=result.page_nos,
            n_nodes=len(tree),
            n_border_pairs=result.n_border_pairs,
            n_continuations=result.n_continuations,
            import_result=result,
            statistics=DocumentStatistics.from_summary(summary),
            synopsis=synopsis,
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
    them without re-importing, from the document's path summary.
    """
    statistics = DocumentStatistics.from_summary(doc.pathsummary)
    doc.statistics = statistics
    doc.n_nodes = statistics.n_nodes
    return statistics


def repair_synopsis(store: DocumentStore, doc: StoredDocument, touched_page_nos) -> None:
    """Patch ``doc.synopsis`` by recollecting only the touched pages.

    Rows for pages in ``touched_page_nos`` (ascending) that belong to
    ``doc`` are recollected from the physical records; all other rows
    are kept.  The result must be indistinguishable from a full
    :meth:`ClusterSynopsis.collect` — the equivalence the mutation
    sanitizer checks — it is just O(touched) instead of O(document).
    """
    old, mine = doc.synopsis, set(doc.page_nos)
    fresh = {
        page_no: ClusterSynopsis.collect_row(store.segment.page(page_no))
        for page_no in touched_page_nos
        if page_no in mine
    }
    if fresh:
        doc.synopsis = old.patched(fresh)


def repair_pathsummary(store: DocumentStore, doc: StoredDocument, touched_page_nos) -> None:
    """Patch ``doc.pathsummary`` by recollecting only the touched pages.

    The path-summary twin of :func:`repair_synopsis`: rows for pages the
    update touched are recollected from the physical records (resolving
    root chains may read ancestor pages, which is free — planning
    metadata is maintained off the simulated clock) and patched over the
    old summary.  Structural updates only change paths of nodes on pages
    they touch (inserted/deleted/relocated records), so O(touched) rows
    suffice; the result must be indistinguishable from a full
    :meth:`PathSummary.collect`.
    """
    old, mine = doc.pathsummary, set(doc.page_nos)
    touched = [page_no for page_no in touched_page_nos if page_no in mine]
    if touched:
        resolver = _ChainResolver(store.segment)
        doc.pathsummary = old.patched({
            page_no: PathSummary.collect_row(
                store.segment, store.segment.page(page_no), resolver
            )
            for page_no in touched
        })


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
