"""Cost-accounted document export (paper Sec. 7 outlook).

"We also want to investigate how our method can be used to speed up
document export, where our 'path instance' becomes the textual
representation of a whole document (or subtree)."

Two exporters, mirroring the query-side plan split:

* :func:`export_navigate` — depth-first traversal in document order,
  crossing borders eagerly: the Simple method's access pattern (random
  I/O per crossing, revisits when the buffer thrashes).
* :func:`export_scan` — one sequential pass in *physical* order.  Each
  cluster is serialised into text fragments with *holes* at its downward
  borders (the textual analogue of right-incomplete path instances);
  fragments are keyed by their entry border (left-incomplete analogue)
  and stitched together at the end.  Every page is read exactly once, at
  streaming cost, regardless of layout.

Both charge the same simulated costs as query evaluation (swizzles,
I/O, per-node serialisation work), so they can be benchmarked against
each other.
"""

from __future__ import annotations

from repro.algebra.context import EvalContext
from repro.algebra.xscan import scan_pages
from repro.errors import StorageError, StoreCorruptError
from repro.model.tree import Kind
from repro.storage.nodeid import NodeID, make_nodeid, page_of, slot_of
from repro.storage.record import BorderRecord, CoreRecord
from repro.storage.store import StoredDocument
from repro.xml.escape import escape_attribute, escape_text

#: marker prefix for fragment holes (resolved during stitching)
_HOLE = "\x00"


def _serialize_local(
    ctx: EvalContext, page, entry_slot: int, out: list[str], holes: list[NodeID]
) -> None:
    """Serialise the page-local subtree under ``entry_slot`` into ``out``.

    Downward borders become holes: a marker is emitted and the border's
    target NodeID recorded in ``holes``.
    """
    stack: list[object] = [("node", entry_slot)]
    while stack:
        action = stack.pop()
        if action[0] == "close":
            ctx.charge_instance()
            out.append(f"</{action[1]}>")
            continue
        slot = action[1]
        record = page.record(slot)
        ctx.charge_hop()
        if isinstance(record, BorderRecord):
            # a hole to be filled by the fragment behind this border
            out.append(_HOLE)
            holes.append(record.target())
            continue
        if not isinstance(record, CoreRecord):
            raise StoreCorruptError(
                f"tombstone in a live subtree at page {page.page_no} slot {slot}"
            )
        ctx.charge_instance()
        if record.kind == Kind.TEXT:
            out.append(escape_text(record.value or ""))
            continue
        if record.kind == Kind.ATTRIBUTE:
            # attributes are emitted with their owner's start tag below;
            # the importer and the update layer guarantee co-location, so
            # a standalone attribute entry is a corruption
            raise StorageError(
                f"exiled attribute record on page {page.page_no} slot {slot}"
            )
        children = list(record.child_slots)
        attributes: list[int] = []
        content: list[int] = []
        for child_slot in children:
            child = page.record(child_slot)
            if isinstance(child, CoreRecord) and child.kind == Kind.ATTRIBUTE:
                attributes.append(child_slot)
            else:
                content.append(child_slot)
        if record.kind == Kind.DOCUMENT:
            for child_slot in reversed(content):
                stack.append(("node", child_slot))
            continue
        tag = _tag_name(ctx, record)
        out.append(f"<{tag}")
        for attribute_slot in attributes:
            attribute = page.record(attribute_slot)
            ctx.charge_hop()
            ctx.charge_instance()
            out.append(
                f' {_tag_name(ctx, attribute)}="{escape_attribute(attribute.value or "")}"'
            )
        if not content:
            out.append("/>")
            continue
        out.append(">")
        stack.append(("close", tag))
        for child_slot in reversed(content):
            stack.append(("node", child_slot))


def _tag_name(ctx: EvalContext, record: CoreRecord) -> str:
    return ctx.tags.name_of(record.tag)  # type: ignore[attr-defined]


def export_scan(ctx: EvalContext, document: StoredDocument) -> str:
    """Export via one sequential scan with fragment stitching."""
    fragments: dict[NodeID, tuple[list[str], list[NodeID]]] = {}
    root_key = document.root
    # every page, skipping none: the scan's page loop without its planning
    for frame in scan_pages(ctx, document.page_nos):
        page = frame.page
        page_no = page.page_no
        for slot, record in enumerate(page.records):
            entry_key: NodeID | None = None
            entry_slot = slot
            if isinstance(record, BorderRecord):
                if record.down or (record.continuation and record.child_slots is None):
                    continue
                # an upward border (or proxy): a fragment entry point
                entry_key = make_nodeid(page_no, slot)
                if record.continuation:
                    # proxy: serialise each member in order
                    out: list[str] = []
                    holes: list[NodeID] = []
                    for member in record.child_slots or ():
                        _serialize_local(ctx, page, member, out, holes)
                    fragments[entry_key] = (out, holes)
                    continue
                entry_slot = record.local_slot
            elif isinstance(record, CoreRecord) and record.kind == Kind.DOCUMENT:
                entry_key = root_key
            if entry_key is None:
                continue
            out = []
            holes = []
            _serialize_local(ctx, page, entry_slot, out, holes)
            fragments[entry_key] = (out, holes)
    ctx.release()
    return _stitch(ctx, fragments, root_key)


def _stitch(
    ctx: EvalContext,
    fragments: dict[NodeID, tuple[list[str], list[NodeID]]],
    root_key: NodeID,
) -> str:
    """Resolve fragment holes from the root down (iteratively)."""
    result: list[str] = []
    if root_key not in fragments:
        raise StorageError("export: document root fragment missing")
    stack: list[tuple[list[str], list[NodeID], int, int]] = []
    out, holes = fragments[root_key]
    position = hole_index = 0
    while True:
        if position >= len(out):
            if not stack:
                return "".join(result)
            out, holes, position, hole_index = stack.pop()
            continue
        piece = out[position]
        position += 1
        if piece != _HOLE:
            result.append(piece)
            continue
        ctx.charge_set_op()
        key = holes[hole_index]
        hole_index += 1
        try:
            child_out, child_holes = fragments[key]
        except KeyError:
            raise StorageError(f"export: missing fragment for border {key}") from None
        stack.append((out, holes, position, hole_index))
        out, holes, position, hole_index = child_out, child_holes, 0, 0


def export_navigate(ctx: EvalContext, document: StoredDocument) -> str:
    """Export by logical-order traversal with eager border crossing."""
    out: list[str] = []
    root = document.root

    def emit_entry(page_no: int, slot: int) -> None:
        frame = ctx.buffer.fix(page_no)
        page = frame.page
        local: list[str] = []
        holes: list[NodeID] = []
        _serialize_local(ctx, page, slot, local, holes)
        ctx.buffer.unfix(frame)
        hole_index = 0
        for piece in local:
            if piece != _HOLE:
                out.append(piece)
                continue
            target = holes[hole_index]
            hole_index += 1
            emit_border(target)

    def emit_border(target: NodeID) -> None:
        frame = ctx.buffer.fix(page_of(target))
        record = frame.page.record(slot_of(target))
        if not isinstance(record, BorderRecord):
            raise StoreCorruptError(
                f"border companion {target!r} does not point at a border record"
            )
        if record.continuation:
            members = list(record.child_slots or ())
            ctx.buffer.unfix(frame)
            for member in members:
                emit_entry(page_of(target), member)
        else:
            local_slot = record.local_slot
            ctx.buffer.unfix(frame)
            emit_entry(page_of(target), local_slot)

    emit_entry(page_of(root), slot_of(root))
    return "".join(out)
