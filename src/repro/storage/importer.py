"""Subtree clustering: mapping a logical tree onto pages (paper Sec. 3.2-3.4).

The importer re-encodes a :class:`~repro.model.tree.LogicalTree` as
records on slotted pages, following the Natix storage design the paper
builds on [9]:

* connected subtrees are packed onto a page while they fit;
* a subtree that does not fit next to its parent is *exiled* to another
  page, materialising a pair of border records (one on each side of the
  crossing edge);
* a subtree larger than a page is placed partially: its root record goes
  first and each child is placed by the same rules recursively;
* child lists that outgrow their page are split with *continuation*
  border pairs (Natix proxy nodes), so no record ever exceeds a page.

Placement policy: by default exiled subtrees go to the *best-fitting*
partially-filled page (space-efficient import — the paper's introduction
notes that "a document import algorithm might regroup nodes to avoid
wasting space").  This regrouping is precisely what makes naive
navigation pay random I/O.  A ``sequential`` policy (strict document-order
fill) and a ``fragmentation`` knob (random page transpositions emulating
incremental updates) are available for ablations.

Every core record receives its ORDPATH label during import, so document
order can be re-established after cost-based reordering (paper Sec. 5.5).
"""

from __future__ import annotations

import enum
import random
from array import array
from dataclasses import dataclass

from repro.errors import StorageError, StoreCorruptError
from repro.model.tree import KINDS, NIL, Kind, LogicalTree
from repro.storage.nodeid import NodeID, make_nodeid
from repro.storage.ordpath import OrdPath
from repro.storage.page import PAGE_HEADER, SLOT_ENTRY, Page
from repro.storage.record import (
    BORDER_RECORD_SIZE,
    CHILD_LINK_SIZE,
    CORE_RECORD_HEADER,
    BorderRecord,
    CoreRecord,
    ordpath_stored_size,
)

#: Worst case cost of handling one child locally: a child link in the
#: holder plus an exile border record plus its slot entry.
_CHILD_WORST = CHILD_LINK_SIZE + BORDER_RECORD_SIZE + SLOT_ENTRY
#: Space reserved per open holder so a continuation border always fits.
_CONT_RESERVE = CHILD_LINK_SIZE + BORDER_RECORD_SIZE + SLOT_ENTRY
#: Pages with less free space than this leave the best-fit pool.
_MIN_OPEN = 48
#: Granularity of the best-fit pool's free-space buckets.
_BUCKET = 256


class ClusterPolicy(enum.Enum):
    """How exiled subtrees choose their page."""

    BEST_FIT = "best_fit"  #: space-efficient regrouping (default, Natix-like)
    SEQUENTIAL = "sequential"  #: strict document-order fill (scan-friendly)


@dataclass(frozen=True)
class ImportOptions:
    """Knobs of the physical import."""

    page_size: int = 8192
    policy: ClusterPolicy = ClusterPolicy.BEST_FIT
    #: Fraction of pages displaced by random transpositions after import,
    #: modeling fragmentation from incremental updates.  0.0 = layout in
    #: cluster-creation (roughly document) order; 1.0 = fully shuffled.
    fragmentation: float = 0.0
    seed: int = 0


@dataclass
class ImportResult:
    """Outcome of one document import."""

    pages: list[Page]  #: pages in physical (page-number) order
    root: NodeID  #: NodeID of the stored document root record
    page_nos: list[int]  #: physical page numbers, ascending
    n_border_pairs: int
    n_continuations: int
    #: physical location of every logical node: parallel arrays indexed by
    #: logical node id.
    node_page: array
    node_slot: array

    def nodeid_of(self, logical_node: int) -> NodeID:
        """NodeID of a logical node (testing / context-node helper)."""
        return make_nodeid(self.node_page[logical_node], self.node_slot[logical_node])


class _OpenCluster:
    """A page being filled, with reservation accounting."""

    __slots__ = ("index", "page", "reserved")

    def __init__(self, index: int, page: Page) -> None:
        self.index = index
        self.page = page
        self.reserved = 0

    def effective_free(self) -> int:
        return self.page.free_bytes() - self.reserved


class _Importer:
    def __init__(self, tree: LogicalTree, options: ImportOptions, first_page_no: int) -> None:
        self.tree = tree
        self.opts = options
        self.first_page_no = first_page_no
        self.clusters: list[_OpenCluster] = []
        self.pairs: list[tuple[int, int, int, int]] = []  # (ci, si, cj, sj)
        self.n_continuations = 0
        n = len(tree)
        self.node_page = array("i", [0] * n)
        self.node_slot = array("i", [0] * n)
        self._pool: dict[int, list[int]] = {}
        self._seq_current: int | None = None
        self._sizes = self._compute_packed_sizes()

    # ------------------------------------------------------------ size model

    def _compute_packed_sizes(self) -> array:
        """Exact all-intra byte cost of each subtree (record + slot costs)."""
        tree = self.tree
        n = len(tree)
        depth = array("i", bytes(4 * n))
        parent = tree.parent
        for node in range(1, n):
            depth[node] = depth[parent[node]] + 1
        # a record's bytes without its value and child links, by depth
        base = [
            SLOT_ENTRY + CORE_RECORD_HEADER + ordpath_stored_size(d + 1)
            for d in range(max(depth) + 1)
        ]
        sizes = array("q", [base[d] for d in depth])
        for node, value in tree.values.items():
            sizes[node] += len(value)
        # children are appended after parents (document order), so a reverse
        # sweep accumulates subtree sizes bottom-up without recursion
        for node in range(n - 1, 0, -1):
            sizes[parent[node]] += sizes[node] + CHILD_LINK_SIZE
        self._depth = depth
        return sizes

    def _record_base_size(self, node: int) -> int:
        value = self.tree.values.get(node)
        return (
            CORE_RECORD_HEADER
            + ordpath_stored_size(self._depth[node] + 1)
            + (len(value) if value is not None else 0)
        )

    # ------------------------------------------------------------- clusters

    def _new_cluster(self) -> _OpenCluster:
        cluster = _OpenCluster(len(self.clusters), Page(len(self.clusters), self.opts.page_size))
        self.clusters.append(cluster)
        return cluster

    def _pool_insert(self, cluster: _OpenCluster) -> None:
        if self.opts.policy is ClusterPolicy.SEQUENTIAL:
            self._seq_current = cluster.index
            return
        free = cluster.effective_free()
        if free >= _MIN_OPEN:
            self._pool.setdefault(free // _BUCKET, []).append(cluster.index)

    def _choose_target(self, need: int) -> _OpenCluster:
        """A cluster with at least ``need`` effective free bytes."""
        if self.opts.policy is ClusterPolicy.SEQUENTIAL:
            if self._seq_current is not None:
                cluster = self.clusters[self._seq_current]
                if cluster.effective_free() >= need:
                    return cluster
            cluster = self._new_cluster()
            self._seq_current = cluster.index
            return cluster
        # best fit: scan free-space buckets from the smallest sufficient one
        start = need // _BUCKET
        if self._pool:
            for bucket in sorted(b for b in self._pool if b >= start):
                entries = self._pool[bucket]
                while entries:
                    index = entries.pop()
                    cluster = self.clusters[index]
                    free = cluster.effective_free()
                    if free // _BUCKET != bucket:
                        # stale entry: free space changed since insertion
                        if free >= _MIN_OPEN:
                            self._pool.setdefault(free // _BUCKET, []).append(index)
                        continue
                    if free >= need:
                        return cluster
                    entries.append(index)
                    break
                if not entries:
                    del self._pool[bucket]
        return self._new_cluster()

    # ------------------------------------------------------------- placement

    def run(self) -> ImportResult:
        tree = self.tree
        root_ord = OrdPath.root()
        cluster = self._new_cluster()
        record = CoreRecord(Kind.DOCUMENT, tree.tag_of(0), root_ord, parent_slot=-1)
        slot = cluster.page.add(record)
        self.node_page[0] = cluster.index
        self.node_slot[0] = slot
        self._place_children(0, cluster, record, slot, root_ord)
        self._pool_insert(cluster)
        return self._finalize()

    def _place_children(
        self,
        parent_node: int,
        cluster: _OpenCluster,
        holder: CoreRecord | BorderRecord,
        holder_slot: int,
        parent_ord: OrdPath,
    ) -> None:
        """Place all children of ``parent_node``; ``holder`` receives links."""
        tree = self.tree
        cur = cluster
        cur.reserved += _CONT_RESERVE
        index = 0
        for child in tree.children(parent_node):
            child_ord = parent_ord.child(index)
            index += 1
            if cur.effective_free() < _CHILD_WORST:
                cur, holder, holder_slot = self._continue_child_list(cur, holder, holder_slot)
            if cur.effective_free() >= CHILD_LINK_SIZE + self._sizes[child]:
                slot = self._place_whole(child, cur, child_ord, holder_slot)
                self._append_link(cur, holder, slot)
            else:
                self._exile(child, cur, holder, holder_slot, child_ord)
        cur.reserved -= _CONT_RESERVE
        if cur is not cluster:
            self._pool_insert(cur)

    def _append_link(self, cluster: _OpenCluster, holder, slot: int) -> None:
        if isinstance(holder, CoreRecord):
            holder.child_slots.append(slot)
        else:
            if holder.child_slots is None:
                raise StoreCorruptError(
                    "continuation proxy lost its child list during import"
                )
            holder.child_slots.append(slot)
        cluster.page.grow(CHILD_LINK_SIZE)

    def _continue_child_list(
        self, cur: _OpenCluster, holder, holder_slot: int
    ) -> tuple[_OpenCluster, BorderRecord, int]:
        """Split the open child list with a continuation border pair."""
        need = (
            BORDER_RECORD_SIZE  # proxy record
            + SLOT_ENTRY
            + _CONT_RESERVE
            + _CHILD_WORST
        )
        target = self._choose_target(need)
        if target is cur:  # pragma: no cover - sequential policy corner
            target = self._new_cluster()
        proxy = BorderRecord(None, -1, down=False, continuation=True, child_slots=[])
        proxy_slot = target.page.add(proxy)
        down = BorderRecord(None, holder_slot, down=True, continuation=True)
        down_slot = cur.page.add(down)
        self._append_link(cur, holder, down_slot)
        self.pairs.append((cur.index, down_slot, target.index, proxy_slot))
        self.n_continuations += 1
        cur.reserved -= _CONT_RESERVE
        self._pool_insert(cur)
        target.reserved += _CONT_RESERVE
        return target, proxy, proxy_slot

    def _exile(
        self,
        node: int,
        cur: _OpenCluster,
        holder,
        holder_slot: int,
        ord_label: OrdPath,
    ) -> None:
        """Place ``node``'s subtree in another cluster, linked via borders."""
        down = BorderRecord(None, holder_slot, down=True)
        down_slot = cur.page.add(down)
        self._append_link(cur, holder, down_slot)

        whole_need = BORDER_RECORD_SIZE + SLOT_ENTRY + self._sizes[node]
        if whole_need <= self.opts.page_size - PAGE_HEADER:
            target = self._choose_target(whole_need)
            up = BorderRecord(None, -1, down=False)
            up_slot = target.page.add(up)
            root_slot = self._place_whole(node, target, ord_label, up_slot)
            up.local_slot = root_slot
            self.pairs.append((cur.index, down_slot, target.index, up_slot))
            if target is not cur:
                self._pool_insert(target)
            return

        # subtree larger than a page: place the root record alone, then
        # handle its children by the standard rules.  Attribute children
        # are budgeted with the record so they always stay co-located
        # with their owner (the export fragmentation logic relies on it).
        # (attributes precede their owner's other children)
        kinds, next_sibling = self.tree.kind, self.tree.next_sibling
        attribute_bytes = 0
        child = self.tree.first_child[node]
        while child != NIL and kinds[child] == Kind.ATTRIBUTE:
            attribute_bytes += self._sizes[child] + CHILD_LINK_SIZE
            child = next_sibling[child]
        partial_need = (
            BORDER_RECORD_SIZE
            + SLOT_ENTRY
            + self._record_base_size(node)
            + SLOT_ENTRY
            + attribute_bytes
            + _CONT_RESERVE
            + _CHILD_WORST
        )
        if partial_need > self.opts.page_size - PAGE_HEADER:
            raise StorageError(
                f"record of {self._record_base_size(node)} bytes (node {node}) "
                f"cannot be stored on pages of {self.opts.page_size} bytes; "
                "increase the page size or shorten the node's value"
            )
        target = self._choose_target(partial_need)
        up = BorderRecord(None, -1, down=False)
        up_slot = target.page.add(up)
        record = CoreRecord(
            self.tree.kind_of(node),
            self.tree.tag_of(node),
            ord_label,
            parent_slot=up_slot,
            value=self.tree.values.get(node),
        )
        root_slot = target.page.add(record)
        up.local_slot = root_slot
        self.node_page[node] = target.index
        self.node_slot[node] = root_slot
        self.pairs.append((cur.index, down_slot, target.index, up_slot))
        self._place_children(node, target, record, root_slot, ord_label)
        self._pool_insert(target)

    def _place_whole(
        self, node: int, cluster: _OpenCluster, ord_label: OrdPath, parent_slot: int
    ) -> int:
        """Place the complete subtree of ``node`` into ``cluster``.

        The caller has verified that the exact packed size fits.  One
        iterative preorder pass over ``first_child``/``next_sibling`` (so
        arbitrarily deep trees import without recursion) appends the
        records to ``page.records``; the page then books the subtree's
        exact bytes, ``self._sizes[node]`` from the same byte model
        ``CoreRecord.size`` prices, and its 2n - 1 mutations (n records,
        n - 1 child links) at once, with one overflow check.  Pages are
        fresh during an import, so there is no tombstone slot to reuse and
        slots follow preorder.  ``Page.add``/``CoreRecord.size`` still
        serve the records placed one at a time (borders, a partial
        subtree's root, continuations, updates).  The layouts are pinned by
        ``tests/storage/test_importer.py::test_layouts_are_pinned`` and by
        CI's ``cmp`` of saved store images against the merge base's.
        """
        tree = self.tree
        kinds, tags, value_of = tree.kind, tree.tag, tree.values.get
        first_child, next_sibling = tree.first_child, tree.next_sibling
        node_page, node_slot, index = self.node_page, self.node_slot, cluster.index
        # a child's label is its parent's, checked, plus an odd ordinal:
        # valid without OrdPath.__init__'s checks
        new_label = OrdPath.__new__
        page = cluster.page
        records = page.records
        nbytes = self._sizes[node]
        if page.used_bytes + nbytes > page.capacity:
            raise StorageError(
                f"page {page.page_no} overflow: {nbytes} bytes requested, "
                f"{page.free_bytes()} free"
            )
        slot = len(records)
        root = CoreRecord(KINDS[kinds[node]], tags[node], ord_label, parent_slot, value_of(node))
        records.append(root)
        node_page[node] = index
        node_slot[node] = slot
        # (next child, its holder, the holder's slot and label components,
        # the child's ordinal) for the root and each open node with children
        stack = [(first_child[node], root, slot, ord_label.components, 1)]
        while stack:
            child, holder, holder_slot, prefix, ordinal = stack.pop()
            while child != NIL:
                label = new_label(OrdPath)
                label.components = components = prefix + (ordinal,)
                s = len(records)
                record = CoreRecord(
                    KINDS[kinds[child]], tags[child], label, holder_slot, value_of(child)
                )
                records.append(record)
                holder.child_slots.append(s)
                node_page[child] = index
                node_slot[child] = s
                grandchild = first_child[child]
                if grandchild == NIL:
                    child = next_sibling[child]
                    ordinal += 2
                else:
                    stack.append((next_sibling[child], holder, holder_slot, prefix, ordinal + 2))
                    holder, holder_slot, prefix = record, s, components
                    child, ordinal = grandchild, 1
        page.used_bytes += nbytes
        page.version += 2 * (len(records) - slot) - 2
        page.invalidate_colview()  # the last of the 2n - 1 mutations
        return slot

    # ------------------------------------------------------------- finalize

    def _finalize(self) -> ImportResult:
        n_clusters = len(self.clusters)
        physical = list(range(n_clusters))
        if self.opts.fragmentation > 0.0:
            rng = random.Random(self.opts.seed)
            if self.opts.fragmentation >= 1.0:
                rng.shuffle(physical)
            else:
                swaps = int(self.opts.fragmentation * n_clusters)
                for _ in range(swaps):
                    i = rng.randrange(n_clusters)
                    j = rng.randrange(n_clusters)
                    physical[i], physical[j] = physical[j], physical[i]
        # physical[temp] = physical index within this document; add base offset
        page_no = [self.first_page_no + physical[t] for t in range(n_clusters)]
        for temp, cluster in enumerate(self.clusters):
            cluster.page.page_no = page_no[temp]
        for ci, si, cj, sj in self.pairs:
            a = self.clusters[ci].page.record(si)
            b = self.clusters[cj].page.record(sj)
            if not isinstance(a, BorderRecord) or not isinstance(b, BorderRecord):
                raise StoreCorruptError(
                    f"border pair ({ci},{si})<->({cj},{sj}) does not join two "
                    "border records"
                )
            a.companion = make_nodeid(page_no[cj], sj)
            b.companion = make_nodeid(page_no[ci], si)
        for node in range(len(self.tree)):
            self.node_page[node] = page_no[self.node_page[node]]
        pages = sorted((c.page for c in self.clusters), key=lambda p: p.page_no)
        root = make_nodeid(self.node_page[0], self.node_slot[0])
        return ImportResult(
            pages=pages,
            root=root,
            page_nos=[p.page_no for p in pages],
            n_border_pairs=len(self.pairs),
            n_continuations=self.n_continuations,
            node_page=self.node_page,
            node_slot=self.node_slot,
        )


def import_tree(
    tree: LogicalTree,
    options: ImportOptions | None = None,
    first_page_no: int = 0,
) -> ImportResult:
    """Cluster ``tree`` onto pages; see module docstring for the policy."""
    opts = options or ImportOptions()
    min_capacity = PAGE_HEADER + BORDER_RECORD_SIZE + 2 * SLOT_ENTRY + _CONT_RESERVE + _CHILD_WORST + 128
    if opts.page_size < min_capacity:
        raise StorageError(
            f"page size {opts.page_size} too small for import (need >= {min_capacity})"
        )
    return _Importer(tree, opts, first_page_no).run()
