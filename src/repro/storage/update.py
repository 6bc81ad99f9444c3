"""In-place document updates (paper Sec. 2 and 3.3).

A central argument of the paper is that scan-optimised storage formats
"are not easily updated, as they use preorder numbers to identify nodes,
or require the nodes to be stored in a particular order", while the
clustered tree store works with any physical placement.  This module
demonstrates that claim: nodes can be inserted at arbitrary positions and
subtrees deleted *without relabeling or moving existing records*:

* order labels come from ORDPATH careting (:func:`label_between`), so
  document order stays consistent forever;
* a new node goes onto its parent's page if there is room, otherwise
  onto any page with free space, linked through a fresh border pair —
  exactly the fragmentation process the evaluation's layout models;
* deletions tombstone records in place (slots are never reused, so
  existing NodeIDs stay valid).

Updates run directly against the segment: maintenance cost modeling is
out of scope (the paper measures queries only), but the *consequences*
of updates — fragmented layouts — are what the benchmarks simulate.
"""

from __future__ import annotations

import os

from repro.errors import StorageError, StoreCorruptError
from repro.model.tree import Kind
from repro.sim.faults import CRASH_UPDATE_APPLY
from repro.storage.nodeid import NodeID, make_nodeid, page_of, slot_of
from repro.storage.ordpath import OrdPath, label_between
from repro.storage.page import Page, Segment
from repro.storage.record import BorderRecord, CoreRecord
from repro.storage.store import DocumentStore, StoredDocument


def _san_colviews(store: DocumentStore, page_nos) -> None:
    """Mutation-sanitizer hook (:mod:`repro.analysis.sanitize`): after a
    successful update, any cached columnar view of the touched pages must
    match one rebuilt from the records.  One environment-dict lookup when
    ``REPRO_SAN`` is unset."""
    if os.environ.get("REPRO_SAN"):
        from repro.analysis import sanitize

        if "mutation" in sanitize.modes():
            from repro.analysis.sanitize.mutation import check_colviews

            check_colviews(store.segment, page_nos)


def _crash_check(store: DocumentStore) -> None:
    """Announce a mid-operation step to the crash injector, if one is
    armed (kill-and-recover testing: the process "dies" with the
    operation partially applied)."""
    crash = store.crash
    if crash is not None:
        crash.check(CRASH_UPDATE_APPLY)


def _patch_companion(page: Page, border: BorderRecord, companion: NodeID) -> None:
    """Point ``border``, a record of ``page``, at ``companion``.

    The path kernel memoises junction NodeIDs — companions — with the
    page's columnar view (its run tapes), so a companion write is a
    mutation of the page *holding the border*, wherever the record that
    moved lives: the view is dropped here, after the patch.
    """
    border.companion = companion
    page.invalidate_colview()


def _resolve_core(segment: Segment, nid: NodeID) -> tuple[Page, int, CoreRecord]:
    page = segment.page(page_of(nid))
    record = page.record(slot_of(nid))
    if not isinstance(record, CoreRecord):
        raise StorageError(f"NodeID {nid} does not reference a core record")
    return page, slot_of(nid), record


def _entry_ordpath(segment: Segment, page: Page, slot: int) -> OrdPath:
    """ORDPATH of a child-list entry, following borders to the core node."""
    record = page.record(slot)
    while isinstance(record, BorderRecord):
        if record.continuation and not record.down and record.child_slots:
            # proxy: the first entry of the chunk carries the position
            return _entry_ordpath(segment, page, record.child_slots[0])
        if not record.down and record.local_slot >= 0:
            record = page.record(record.local_slot)
            continue
        target = record.target()
        page = segment.page(page_of(target))
        record = page.record(slot_of(target))
    return record.ordpath


def _chunks_of(segment: Segment, page: Page, record: CoreRecord) -> list[tuple[Page, object]]:
    """The chunks of a (possibly continuation-split) child list.

    Returns ``(page, holder)`` pairs; the holder is the core record for
    the first chunk and the continuation proxy for later ones.
    """
    chunks: list[tuple[Page, object]] = [(page, record)]
    current_page, holder = page, record
    while True:
        slots = holder.child_slots
        if not slots:
            return chunks
        last = current_page.record(slots[-1])
        if isinstance(last, BorderRecord) and last.continuation and last.down:
            target = last.target()
            current_page = segment.page(page_of(target))
            holder = current_page.record(slot_of(target))
            chunks.append((current_page, holder))
        else:
            return chunks


def _logical_entries(segment: Segment, chunks) -> list[tuple[Page, object, int, int]]:
    """Flatten chunked child slots to (page, holder, list-index, slot),
    excluding the trailing continuation borders themselves."""
    out = []
    for page, holder in chunks:
        for index, slot in enumerate(holder.child_slots or ()):
            entry = page.record(slot)
            if isinstance(entry, BorderRecord) and entry.continuation and entry.down:
                continue
            out.append((page, holder, index, slot))
    return out


def _relocate_closure(
    segment: Segment, doc: StoredDocument, page: Page, slot: int, closure: list[int]
) -> int:
    """Move the page-local subtree rooted at ``slot`` to another page.

    The vacated root slot is reused for the downward border of a fresh
    border pair, so the parent's child link stays valid while net bytes
    are freed (the whole closure leaves, one border record arrives).
    Returns the old->new NodeID mapping of the relocated records.
    """
    closure_bytes = sum(page.record(s).size() for s in closure)
    parent_slot = page.record(slot).parent_slot
    slack = min(256, page.capacity // 4)
    need = closure_bytes + 16 + 4 * (len(closure) + 1)
    target_page = _find_space(segment, min(page.capacity - 48, need + slack))
    if target_page is page:
        # it has free space, this page does not — picking the source again
        # would loop forever
        raise StorageError(
            f"relocation chose the full source page {page.page_no} as its target"
        )
    up = BorderRecord(None, -1, down=False)
    up_slot = target_page.add(up)
    root_new = _move_closure(segment, page, target_page, closure, up_slot)
    up.local_slot = root_new
    _patch_companion(target_page, up, make_nodeid(page.page_no, slot))
    down = BorderRecord(
        make_nodeid(target_page.page_no, up_slot), parent_slot, down=True
    )
    # reclaim the root's exact slot for the downward border: the parent's
    # child link keeps pointing at it
    page.free_slots.remove(slot)
    page.records[slot] = down
    page.invalidate_colview()  # direct records[] write bypasses Page.add
    page.used_bytes += down.size()
    if target_page.page_no not in doc.page_nos:
        doc.page_nos.append(target_page.page_no)
        doc.page_nos.sort()
    return _nid_mapping(page, target_page, _move_closure.last_mapping)  # type: ignore[attr-defined]


def _make_room(
    segment: Segment,
    doc: StoredDocument,
    page: Page,
    need: int,
    holder=None,
    holder_slot: int = -1,
) -> dict[NodeID, NodeID]:
    """Free at least ``need`` bytes on ``page``.

    Relocates page-local subtrees (or whole cluster-local trees together
    with their entry border) to other pages; if nothing is relocatable,
    splits ``holder``'s child list with a continuation pair.  Returns a
    mapping of relocated NodeIDs so callers can chase nodes they hold —
    including the very parent an insert is targeting.
    """
    moved: dict[NodeID, NodeID] = {}
    while not page.fits(need):
        # (avoids-holder, net gain, root slot or None-for-cluster, closure)
        best: tuple[bool, int, int | None, list[int]] | None = None
        for slot, record in enumerate(page.records):
            if not isinstance(record, CoreRecord):
                continue
            if record.kind == Kind.DOCUMENT or record.parent_slot < 0:
                continue
            parent = page.record(record.parent_slot)
            closure = _local_closure(page, slot, limit=16)
            if closure is None:
                continue
            size = sum(page.record(s).size() for s in closure)
            if isinstance(parent, BorderRecord) and not parent.continuation:
                # cluster root: relocate together with its up-border; the
                # remote companion is re-patched, nothing stays behind
                gain = size + parent.size()
                batch = gain
                candidate_slots = [record.parent_slot] + closure
                root_slot: int | None = None
            else:
                gain = size - 12  # a down border stays in the child list
                batch = size + 16  # plus a fresh up-border on the target
                candidate_slots = closure
                root_slot = slot
            if gain <= 4:
                continue
            if batch + 4 * (len(closure) + 2) + 64 > page.capacity - 32:
                # the batch must land on a fresh page *with slack left*,
                # or relocations chase the insert target page to page
                continue
            avoids_holder = holder_slot not in candidate_slots
            candidate = (avoids_holder, gain, root_slot, candidate_slots)
            if best is None or (avoids_holder, gain) > (best[0], best[1]):
                best = candidate
        if best is not None:
            _, _, root_slot, closure = best
            if root_slot is None:
                moved.update(_relocate_cluster(segment, doc, page, closure))
            else:
                moved.update(_relocate_closure(segment, doc, page, root_slot, closure))
            continue
        if holder is None:
            raise StorageError(
                f"page {page.page_no} is full and holds no relocatable records"
            )
        _split_child_list(segment, doc, page, holder, holder_slot)
        holder = None  # a second split of the same holder cannot help
    return moved


def _relocate_cluster(segment: Segment, doc: StoredDocument, page: Page, closure: list[int]) -> None:
    """Move a whole cluster-local subtree INCLUDING its entry up-border.

    The remote downward border's companion is re-patched by
    :func:`_move_closure`, so nothing remains on the source page.
    ``closure[0]`` must be the up-border, ``closure[1]`` its core root.
    """
    total = sum(page.record(s).size() for s in closure)
    slack = min(256, page.capacity // 4)
    need = total + 4 * (len(closure) + 1)
    target = _find_space(segment, min(page.capacity - 48, need + slack))
    _move_closure(segment, page, target, closure, parent_new_slot=-1)
    if target.page_no not in doc.page_nos:
        doc.page_nos.append(target.page_no)
        doc.page_nos.sort()
    return _nid_mapping(page, target, _move_closure.last_mapping)  # type: ignore[attr-defined]


def _split_child_list(segment: Segment, doc: StoredDocument, page: Page, holder, holder_slot: int) -> None:
    """Move a tail run of ``holder``'s child entries into a new proxy chunk.

    Movable entries are border records and childless core records; they
    are re-created on the proxy's page and their home-page slots are
    tombstoned, freeing both the records and their child links.  One
    continuation border replaces the whole run.
    """
    usable = page.capacity - 48  # fresh-page budget (header + slot slack)
    slack = min(160, max(40, usable // 4))  # headroom kept on the target
    slots = holder.child_slots
    run: list[tuple[int, list[int]]] = []  # (list index, local closure slots)
    moved_bytes = 0
    for index in range(len(slots) - 1, -1, -1):
        closure = _local_closure(page, slots[index], limit=8)
        if closure is None:
            break
        closure_bytes = sum(page.record(s).size() for s in closure) + 4
        projected = 16 + moved_bytes + closure_bytes + 8 * (len(run) + 1) + slack
        if projected > usable:
            break  # the batch must fit a fresh page with headroom left
        run.append((index, closure))
        moved_bytes += closure_bytes
        if len(run) >= 8:
            break
    # the continuation border costs 12 + 4 (slot) + 4 (link)
    if not run or moved_bytes < 24 + 16:
        raise StorageError(
            f"page {page.page_no} is full and its child list has no movable tail"
        )
    run.reverse()  # document order
    first_index = run[0][0]

    proxy = BorderRecord(None, -1, down=False, continuation=True, child_slots=[])
    target = _find_space(segment, min(usable, proxy.size() + moved_bytes + 8 * len(run) + slack))
    proxy_slot = target.add(proxy)

    for _, closure in run:
        root_new = _move_closure(segment, page, target, closure, proxy_slot)
        proxy.child_slots.append(root_new)
        target.grow(4)

    del holder.child_slots[first_index:]
    page.invalidate_colview()  # holder child list truncated in place
    page.used_bytes -= 4 * len(run)
    cont = BorderRecord(
        make_nodeid(target.page_no, proxy_slot), holder_slot, down=True, continuation=True
    )
    cont_slot = page.add(cont)
    holder.child_slots.append(cont_slot)
    page.grow(4)
    # (also what drops target's view after the proxy child links appended in place)
    _patch_companion(target, proxy, make_nodeid(page.page_no, cont_slot))
    if target.page_no not in doc.page_nos:
        doc.page_nos.append(target.page_no)
        doc.page_nos.sort()


def _local_closure(page: Page, slot: int, limit: int) -> list[int] | None:
    """Slots of the page-local subtree rooted at ``slot``, preorder.

    Border records are their own closure (their remote side moves by
    companion re-patching).  Returns None if the closure exceeds
    ``limit`` records — such an entry is too big to relocate cheaply.
    """
    out: list[int] = []
    stack = [slot]
    while stack:
        current = stack.pop()
        out.append(current)
        if len(out) > limit:
            return None
        record = page.record(current)
        if isinstance(record, CoreRecord):
            stack.extend(reversed(record.child_slots))
    return out


def _move_closure(
    segment: Segment, page: Page, target: Page, closure: list[int], parent_new_slot: int
) -> int:
    """Clone a local closure onto ``target``; tombstone the old slots.

    Returns the new slot of the closure's root.  Internal parent/child
    links are remapped; companions of moved border records are re-patched.
    The full old-slot -> new-slot mapping is left in
    ``_move_closure.last_mapping`` for callers that must chase NodeIDs.
    """
    mapping: dict[int, int] = {}
    for old_slot in closure:
        record = page.record(old_slot)
        if isinstance(record, BorderRecord):
            clone: object = BorderRecord(
                record.companion,
                -1,  # local link fixed below
                down=record.down,
                continuation=record.continuation,
                child_slots=list(record.child_slots) if record.child_slots else None,
            )
        else:
            clone = CoreRecord(
                record.kind, record.tag, record.ordpath, parent_slot=-1, value=record.value
            )
            clone.child_slots = list(record.child_slots)
        mapping[old_slot] = target.add(clone)
    root_old = closure[0]
    for old_slot in closure:
        record = page.record(old_slot)
        clone = target.record(mapping[old_slot])
        if isinstance(record, BorderRecord):
            if record.local_slot >= 0 and record.local_slot in mapping:
                clone.local_slot = mapping[record.local_slot]
            elif old_slot == root_old:
                # a border entry's local link is its parent: now the proxy
                clone.local_slot = parent_new_slot
            else:
                clone.local_slot = -1
            if clone.child_slots:
                clone.child_slots = [mapping[s] for s in clone.child_slots]
            # the remote side of a moved border: re-patched where it lives
            companion_id = record.target()
            remote = segment.page(page_of(companion_id))
            _patch_companion(
                remote,
                remote.record(slot_of(companion_id)),
                make_nodeid(target.page_no, mapping[old_slot]),
            )
        else:
            clone.parent_slot = (
                parent_new_slot if old_slot == root_old else mapping[record.parent_slot]
            )
            clone.child_slots = [mapping[s] for s in record.child_slots]
        page.tombstone(old_slot)
    # the clones' links were patched after target.add() placed them
    target.invalidate_colview()
    _move_closure.last_mapping = mapping  # type: ignore[attr-defined]
    return mapping[root_old]


def _nid_mapping(page: Page, target: Page, mapping: dict[int, int]) -> dict[NodeID, NodeID]:
    """Translate a slot mapping into a NodeID mapping for callers that
    hold NodeIDs across a relocation."""
    return {
        make_nodeid(page.page_no, old): make_nodeid(target.page_no, new)
        for old, new in mapping.items()
    }


def _find_space(segment: Segment, need: int) -> Page:
    """A page with at least ``need`` free bytes; allocates a new one if
    nothing fits (scanning backwards: recent pages are likelier open).

    ``need`` must fit on a fresh page — callers size their relocation
    batches accordingly.
    """
    for page_no in range(segment.n_pages - 1, max(-1, segment.n_pages - 64), -1):
        page = segment.page(page_no)
        if page.fits(need):
            return page
    fresh = segment.allocate()
    if not fresh.fits(need):
        raise StorageError(
            f"relocation batch of {need} bytes exceeds the page capacity"
        )
    return fresh


def insert_node(
    store: DocumentStore,
    doc: StoredDocument,
    parent: NodeID,
    position: int,
    tag_name: str,
    kind: Kind = Kind.ELEMENT,
    value: str | None = None,
    _retries: int = 0,
) -> NodeID:
    """Insert a new node as the ``position``-th child of ``parent``.

    Returns the new node's NodeID.  ``position`` counts logical children
    (attributes included, continuations transparent); ``position`` may
    equal the child count to append.

    NodeIDs of *other* nodes are stable across inserts except for records
    the space manager relocates (leaves moved off a full page, tail runs
    of split child lists); callers should treat structural updates as
    invalidating previously obtained NodeIDs, as with any RID-based store.
    """
    if kind == Kind.DOCUMENT:
        raise StorageError("cannot insert a document node")
    segment = store.segment
    parent_page, parent_slot, parent_record = _resolve_core(segment, parent)
    chunks = _chunks_of(segment, parent_page, parent_record)
    entries = _logical_entries(segment, chunks)
    if not 0 <= position <= len(entries):
        raise StorageError(
            f"insert position {position} out of range 0..{len(entries)}"
        )
    # invalidate *before* the first mutation, not after the last: an
    # operation that fails (or a process that dies) midway must not
    # leave an import-time synopsis describing pages it already changed
    # — a stale row can understate a page's content and make pruning
    # skip real results
    _invalidate_statistics(doc)

    left = (
        _entry_ordpath(segment, entries[position - 1][0], entries[position - 1][3])
        if position > 0
        else None
    )
    right = (
        _entry_ordpath(segment, entries[position][0], entries[position][3])
        if position < len(entries)
        else None
    )
    if left is None and right is None:
        ordpath = parent_record.ordpath.child(0)
    else:
        ordpath = label_between(left, right)

    # where (in which chunk, at which list index) does the link go?
    if position < len(entries):
        home_page, holder, list_index, _ = entries[position]
    elif entries:
        home_page, holder, list_index, _ = entries[-1]
        list_index += 1
    else:
        home_page, holder, list_index = chunks[0][0], chunks[0][1], 0
    holder_slot = (
        parent_slot
        if holder is parent_record
        else home_page.records.index(holder)
    )

    tag = store.tags.intern(tag_name)
    record = CoreRecord(kind, tag, ordpath, parent_slot=holder_slot, value=value)
    link_cost = 4  # CHILD_LINK_SIZE
    if home_page.fits(record.size() + link_cost):
        slot = home_page.add(record)
        _crash_check(store)  # record placed but not yet linked
        home_page.grow(link_cost)
        holder.child_slots.insert(list_index, slot)
        home_page.invalidate_colview()  # holder child list grown in place
        new_nid = make_nodeid(home_page.page_no, slot)
    elif kind == Kind.ATTRIBUTE:
        # attributes must stay co-located with their owner (exports and
        # the attribute axis rely on it): free room instead of exiling
        if _retries >= 16:
            raise StorageError(
                f"unable to co-locate attribute on page {home_page.page_no}"
            )
        moved = _make_room(
            segment, doc, home_page, record.size() + link_cost, holder, holder_slot
        )
        return insert_node(
            store, doc, moved.get(parent, parent), position, tag_name, kind, value,
            _retries + 1,
        )
    else:
        # exile through a fresh border pair
        down = BorderRecord(None, holder_slot, down=True)
        if not home_page.fits(down.size() + link_cost):
            if _retries >= 16:
                raise StorageError(
                    f"unable to free space on page {home_page.page_no} after "
                    f"{_retries} attempts"
                )  # each retry makes progress (entries leave the full page)
            moved = _make_room(
                segment, doc, home_page, down.size() + link_cost, holder, holder_slot
            )
            # the holder's child list may have been restructured (and the
            # parent itself relocated): redo everything from scratch
            return insert_node(
                store, doc, moved.get(parent, parent), position, tag_name, kind, value,
                _retries + 1,
            )
        target_page = _find_space(segment, record.size() + 16 + 8)
        up = BorderRecord(None, -1, down=False)
        up_slot = target_page.add(up)
        _crash_check(store)  # half-created border pair
        record.parent_slot = up_slot
        slot = target_page.add(record)
        up.local_slot = slot
        down_slot = home_page.add(down)
        home_page.grow(link_cost)
        holder.child_slots.insert(list_index, down_slot)
        # (each drops its page's view after the last patch in place: the
        # holder's child list grown, up.local_slot set after the add)
        _patch_companion(home_page, down, make_nodeid(target_page.page_no, up_slot))
        _patch_companion(target_page, up, make_nodeid(home_page.page_no, down_slot))
        if target_page.page_no not in doc.page_nos:
            doc.page_nos.append(target_page.page_no)
            doc.page_nos.sort()
        new_nid = make_nodeid(target_page.page_no, slot)

    doc.n_nodes += 1
    _san_colviews(store, doc.page_nos)
    return new_nid


def delete_subtree(store: DocumentStore, doc: StoredDocument, nid: NodeID) -> int:
    """Delete the node at ``nid`` and its whole subtree.

    Records become unreachable (their parent link entry is removed); slots
    are left in place so other NodeIDs remain stable.  Returns the number
    of core nodes removed.
    """
    segment = store.segment
    page, slot, record = _resolve_core(segment, nid)
    if record.kind == Kind.DOCUMENT:
        raise StorageError("cannot delete the document root")
    # invalidated before the first mutation (see insert_node): a
    # partially tombstoned subtree must not coexist with a synopsis that
    # still describes the pre-delete pages
    _invalidate_statistics(doc)

    # detach from the parent's child list (parent may be across a border)
    parent_page, holder, entry_slot = page, None, slot
    parent_entry = page.record(record.parent_slot)
    extra_garbage: list[tuple[Page, int]] = []
    if isinstance(parent_entry, BorderRecord) and not parent_entry.continuation:
        # this node is a cluster root: unlink the downward border in the
        # parent's cluster and reclaim the now-dangling border pair
        target = parent_entry.target()
        parent_page = segment.page(page_of(target))
        down = parent_page.record(slot_of(target))
        if not isinstance(down, BorderRecord):
            raise StoreCorruptError(
                f"border companion {target!r} does not point at a border record"
            )
        holder = parent_page.record(down.local_slot)
        entry_slot = slot_of(target)
        extra_garbage.append((page, record.parent_slot))
        extra_garbage.append((parent_page, entry_slot))
    else:
        holder = parent_entry
    try:
        holder.child_slots.remove(entry_slot)
    except ValueError:
        raise StorageError(f"corrupt child list while deleting {nid}") from None
    parent_page.invalidate_colview()  # holder child list shrunk in place
    parent_page.used_bytes -= 4  # the removed child link

    # walk the subtree, crossing downward borders and continuation
    # chunks; tombstone every record and reclaim its bytes
    removed = 0
    stack = [(page, slot)]
    while stack:
        _crash_check(store)  # one occurrence per partially deleted record
        current_page, current_slot = stack.pop()
        current = current_page.record(current_slot)
        if current is None:
            continue
        if isinstance(current, BorderRecord):
            if current.down:
                target = current.target()
                stack.append((segment.page(page_of(target)), slot_of(target)))
            elif current.continuation:
                # proxy chunk: its members are subtree content
                for child_slot in current.child_slots or ():
                    stack.append((current_page, child_slot))
            elif current.local_slot >= 0:
                stack.append((current_page, current.local_slot))
            current_page.tombstone(current_slot)
            continue
        removed += 1
        for child_slot in current.child_slots:
            stack.append((current_page, child_slot))
        current_page.tombstone(current_slot)
    for garbage_page, garbage_slot in extra_garbage:
        if garbage_page.record(garbage_slot) is not None:
            garbage_page.tombstone(garbage_slot)
    doc.n_nodes -= removed
    _san_colviews(store, doc.page_nos)
    return removed


def update_value(store: DocumentStore, nid: NodeID, value: str) -> None:
    """Replace the value of a text or attribute node in place."""
    segment = store.segment
    page, _, record = _resolve_core(segment, nid)
    if record.kind not in (Kind.TEXT, Kind.ATTRIBUTE):
        raise StorageError("update_value only applies to text and attribute nodes")
    old = len(record.value or "")
    new = len(value)
    if new > old and not page.fits(new - old - 4):  # grow within the page
        raise StorageError(
            f"value growth of {new - old} bytes does not fit on page {page.page_no}"
        )
    if new > old:
        page.grow(new - old)
    else:
        page.used_bytes -= old - new
        page.version += 1  # grow() bumps it on the other branch
    _crash_check(store)  # bytes re-accounted, value not yet replaced
    record.value = value
    _san_colviews(store, [page.page_no])


def _invalidate_statistics(doc: StoredDocument) -> None:
    """Schema statistics, cluster synopsis and path summary are
    import-time snapshots; drop all three on structural update.

    Called *before* an operation's first mutation, so even a failed or
    interrupted update leaves no stale snapshot behind.  The AUTO plan
    chooser then degrades to its statistics-free default and synopsis/
    path-summary pruning disables itself until the document is
    re-imported, the snapshots recollected, or — under WAL management
    (:mod:`repro.storage.wal`) — the synopsis and path summary repaired
    incrementally right after the operation.
    """
    doc.statistics = None
    doc.synopsis = None
    doc.pathsummary = None
