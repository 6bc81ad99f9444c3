"""Binary persistence for document stores.

Serialises a :class:`~repro.storage.store.DocumentStore` — tag
dictionary, pages with their records, and the document catalog — to a
compact binary file and back.  The format is a custom struct-based
layout (no pickle: the on-disk image must be stable, inspectable, and
safe to load).

Format (all integers little-endian)::

    header:   magic "RPRO" | u16 version (4) | u32 page_size
              | u64 checkpoint_lsn | u32 body_crc32 | u64 body_len
    body:     tags | pages | catalog                     (crc32-covered)
    tags:     u32 count | count x (u16 len | utf-8 bytes)
    pages:    u32 count | count x page
    page:     u32 page_no | u32 used_bytes | u32 n_slots | n_slots x record
    record:   u8 kind_tag:
                0 tombstone
                1 core: u8 kind | u32 tag | i32 parent | ordpath
                        | u32 n_children | children | value?
                2 border: u64 companion+1 (0 = unpatched) | i32 local
                        | u8 flags (1=down, 2=continuation)
                        | u32 n_children+1 (0 = no list) | children
    ordpath:  u16 n_components | n_components x i32
    value:    u8 present | (u32 len | utf-8 bytes)?
    catalog:  u32 count | count x document
    document: str name | u64 root | u32 n_pages | page_nos
              | u64 n_nodes | u32 borders | u32 continuations
              | synopsis | pathsummary
    synopsis: u8 present (1) | u32 n_rows | n_rows x row
    row:      u32 page_no | bitset tag_bits | bitset entry_bits
              | u8 flags | u32 occupancy
    bitset:   u16 n_bytes | n_bytes little-endian bytes
    pathsummary: u8 present (1) | u32 n_pages | n_pages x pagerow
    pagerow:  u32 page_no | u32 n_paths | n_paths x path
    path:     u16 chain_len | chain_len x u32 tag | u8 kind | u32 count

Version 4 is the only format; an image of any other version raises
:class:`~repro.errors.StorageError`.  The header carries the checkpoint
LSN (see :mod:`repro.storage.wal`), a CRC32 over the body, and the body
length — so a torn or bit-rotted checkpoint is *detected* at load time
(:class:`~repro.errors.StoreCorruptError`) instead of silently parsed;
short reads at any offset, and a body length past the file's end, raise
the same typed error with offset context, never a bare
:class:`struct.error` or :class:`MemoryError`.  The synopsis and the path
summary are stored as their per-page rows (the summary's counts and
cluster postings are re-aggregated at load).  The writer always marks
both present, and a block marked otherwise is corrupt.
:func:`save_store` is atomic: the image is written to ``path + ".tmp"``,
fsynced, then installed with :func:`os.replace`, so a crash mid-save
leaves the previous checkpoint intact.  The WAL's checkpoint installs
its image with :func:`save_checkpoint`, which is as atomic but frees no
disk blocks: it stages the image in a spare file the WAL keeps beside
the store (the image the previous checkpoint replaced, overwritten in
place) and keeps the image it replaces, linked under a second name
until it is renamed into the spare.  The price is one more image on
disk.  The body is serialised in one pass, with precompiled structs
shared with the reader.

Statistics and import results are not persisted; use
:func:`repro.storage.store.recollect_statistics` after loading if the
AUTO plan chooser should have them (:meth:`repro.engine.Database.load`
does).
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from typing import TYPE_CHECKING, BinaryIO

from repro.errors import StorageError, StoreCorruptError
from repro.model.tree import KINDS
from repro.sim.faults import (
    CRASH_CHECKPOINT_RENAME,
    CRASH_CHECKPOINT_TEMP,
    CRASH_PAGE_WRITE,
)
from repro.storage.nodeid import NodeID
from repro.storage.ordpath import OrdPath
from repro.storage.page import Page
from repro.storage.record import BorderRecord, CoreRecord
from repro.storage.pathsummary import PathSummary
from repro.storage.store import DocumentStore, StoredDocument, collector_paused
from repro.storage.synopsis import ClusterSynopsis

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.faults import CrashInjector

_MAGIC = b"RPRO"
_VERSION = 4

#: header tail after ``magic | u16 version | u32 page_size``:
#: ``u64 checkpoint_lsn | u32 body_crc32 | u64 body_len``.
_HEADER_SUMS = struct.Struct("<QIQ")


def _read_exact(inp: BinaryIO, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes of the file header or body, or raise a
    typed corruption error with offset context (the body itself is parsed
    by :func:`_read_body`)."""
    data = inp.read(n)
    if len(data) != n:
        offset = inp.tell() - len(data)
        raise StoreCorruptError(
            f"truncated store data: wanted {n} byte(s) of {what} at "
            f"offset {offset}, got {len(data)}"
        )
    return data


# ------------------------------------------------------------------ formats
#
# One struct per fixed run of fields, shared by the writer and the reader.

#: after the magic: ``u16 version | u32 page_size``
_HEADER_HEAD = struct.Struct("<HI")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
#: a core record after its tag byte: ``u8 kind | u32 tag | i32 parent |
#: u16 n_components``
_CORE_HEAD = struct.Struct("<BIiH")
#: a border record after its tag byte: ``u64 companion+1 | i32 local |
#: u8 flags | u32 n_children+1``
_BORDER_HEAD = struct.Struct("<QiBI")
_PAGE_HEAD = struct.Struct("<III")
_DOC_HEAD = struct.Struct("<QI")
_DOC_COUNTS = struct.Struct("<QII")
_ROW_TAIL = struct.Struct("<BI")
_SUMMARY_PAGE = struct.Struct("<II")
#: a present value's head: ``u8 1 | u32 len``
_VALUE_HEAD = struct.Struct("<BI")
#: ``<nI`` and ``<ni`` for the lengths most lists have; longer ones are
#: compiled when met (:func:`_ints`)
_PRECOMPILED = 64
_U32S = tuple(struct.Struct(f"<{n}I") for n in range(_PRECOMPILED))
_I32S = tuple(struct.Struct(f"<{n}i") for n in range(_PRECOMPILED))
#: the writer packs a record's tag byte with its fixed fields (``B`` +
#: ``_BORDER_HEAD``; ``B`` + ``_CORE_HEAD`` + the n ORDPATH components),
#: and a child list with its count (``u32 n | n x u32``); the structs for
#: the lengths met are compiled on first use (:func:`_core_record`,
#: :func:`_counted`)
_BORDER_RECORD = struct.Struct(f"<B{_BORDER_HEAD.format[1:]}")
_CORE_RECORDS: dict[int, struct.Struct] = {}
_COUNTED_U32S: dict[int, struct.Struct] = {}


def _ints(n: int, signed: bool = False) -> struct.Struct:
    """The struct of ``n`` little-endian 32-bit integers."""
    if n < _PRECOMPILED:
        return (_I32S if signed else _U32S)[n]
    return struct.Struct(f"<{n}{'i' if signed else 'I'}")


# ----------------------------------------------------------------- writing
#
# The body is serialised in one pass into one buffer: the header ahead of
# it carries the body's CRC32 and length, so the image is written to its
# file once the body is whole (:func:`_write_image`).


def _write_str(out: BinaryIO, text: str) -> None:
    data = text.encode("utf-8")
    out.write(_U16.pack(len(data)))
    out.write(data)


def _write_bitset(out: BinaryIO, bits: int) -> None:
    data = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    out.write(_U16.pack(len(data)))
    out.write(data)


def _write_synopsis(out: BinaryIO, snapshot: ClusterSynopsis) -> None:
    out.write(b"\x01")
    rows = snapshot.rows()
    out.write(_U32.pack(len(rows)))
    for page_no in sorted(rows):
        tag_bits, entry_bits, flags, occupancy = rows[page_no]
        out.write(_U32.pack(page_no))
        _write_bitset(out, tag_bits)
        _write_bitset(out, entry_bits)
        out.write(_ROW_TAIL.pack(flags, occupancy))


def _write_pathsummary(out: BinaryIO, summary: PathSummary) -> None:
    out.write(b"\x01")
    pages = summary.page_rows()
    out.write(_U32.pack(len(pages)))
    for page_no in sorted(pages):
        rows = pages[page_no]
        out.write(_SUMMARY_PAGE.pack(page_no, len(rows)))
        for chain, kind in sorted(rows):
            out.write(_U16.pack(len(chain)))
            out.write(_ints(len(chain)).pack(*chain))
            out.write(_ROW_TAIL.pack(kind, rows[(chain, kind)]))


def _write_records(out: BinaryIO, records: list) -> None:
    """One page's records.  A core record is one pack for its fixed
    fields and ORDPATH, one for its child list and one or two for its
    value."""
    write = out.write
    core_record, counted = _CORE_RECORDS.get, _COUNTED_U32S.get
    for record in records:
        if record is None:
            write(b"\x00")
        elif isinstance(record, CoreRecord):
            components = record.ordpath.components
            n = len(components)
            fixed = core_record(n) or _core_record(n)
            write(fixed.pack(1, record.kind, record.tag, record.parent_slot, n, *components))
            children = record.child_slots
            n = len(children)
            write((counted(n) or _counted(n)).pack(n, *children))
            value = record.value
            if value is None:
                write(b"\x00")
            else:
                data = value.encode("utf-8")
                write(_VALUE_HEAD.pack(1, len(data)))
                write(data)
        elif isinstance(record, BorderRecord):
            companion = 0 if record.companion is None else record.companion + 1
            flags = (1 if record.down else 0) | (2 if record.continuation else 0)
            children = record.child_slots
            if children is None:
                write(_BORDER_RECORD.pack(2, companion, record.local_slot, flags, 0))
            else:
                n = len(children)
                write(_BORDER_RECORD.pack(2, companion, record.local_slot, flags, n + 1))
                write(_ints(n).pack(*children))
        else:
            raise StoreCorruptError(
                f"unserialisable record type {type(record).__name__} in segment"
            )


def _core_record(n: int) -> struct.Struct:
    packer = _CORE_RECORDS[n] = struct.Struct(f"<B{_CORE_HEAD.format[1:]}{n}i")
    return packer


def _counted(n: int) -> struct.Struct:
    packer = _COUNTED_U32S[n] = struct.Struct(f"<I{n}I")
    return packer


def _write_body(store: DocumentStore, out: BinaryIO) -> None:
    """Serialise tags, pages and catalog."""
    names = store.tags.names()
    out.write(_U32.pack(len(names)))
    for name in names:
        _write_str(out, name)
    out.write(_U32.pack(store.segment.n_pages))
    for page in store.segment.pages():
        records = page.records
        out.write(_PAGE_HEAD.pack(page.page_no, page.used_bytes, len(records)))
        _write_records(out, records)
    out.write(_U32.pack(len(store.documents)))
    for doc in store.documents.values():
        _write_str(out, doc.name)
        out.write(_DOC_HEAD.pack(doc.root, len(doc.page_nos)))
        out.write(_ints(len(doc.page_nos)).pack(*doc.page_nos))
        out.write(_DOC_COUNTS.pack(doc.n_nodes, doc.n_border_pairs, doc.n_continuations))
        _write_synopsis(out, doc.synopsis)
        _write_pathsummary(out, doc.pathsummary)


def _write_image(
    store: DocumentStore, out: BinaryIO, crash: "CrashInjector | None"
) -> None:
    """Write the whole image from the start of ``out``, cut the file to
    its length if it was longer, and fsync it.

    Without an injector the body goes out in one write; with one it goes
    in page-sized chunks through
    :meth:`~repro.sim.faults.CrashInjector.write`, each a ``page-write``
    crash point.
    """
    body_io = io.BytesIO()
    _write_body(store, body_io)
    body = body_io.getbuffer()
    page_size = store.segment.page_size
    out.write(
        _MAGIC
        + _HEADER_HEAD.pack(_VERSION, page_size)
        + _HEADER_SUMS.pack(store.checkpoint_lsn, zlib.crc32(body), len(body))
    )
    if crash is None:
        out.write(body)
    else:
        for start in range(0, len(body), page_size):
            crash.write(CRASH_PAGE_WRITE, out, body[start : start + page_size])
    if os.fstat(out.fileno()).st_size > out.tell():
        out.truncate()
    out.flush()
    os.fsync(out.fileno())


# ----------------------------------------------------------------- reading
#
# The body is parsed at offsets into one memoryview: each reader takes
# ``(buf, pos)`` and returns what it read with the offset after it.  A read
# past the end raises ``struct.error`` or IndexError, and a damaged item
# ValueError (an ORDPATH that ends in an even component, bytes that are
# not UTF-8); _read_body turns each into StoreCorruptError naming the item
# and the offset it starts at.


def _span(buf: memoryview, pos: int, n: int) -> memoryview:
    end = pos + n
    if end > len(buf):
        raise IndexError(f"{n} byte(s) wanted at offset {pos}, {len(buf) - pos} left")
    return buf[pos:end]


def _read_str(buf: memoryview, pos: int) -> tuple[str, int]:
    (length,) = _U16.unpack_from(buf, pos)
    pos += 2
    return str(_span(buf, pos, length), "utf-8"), pos + length


def _read_bitset(buf: memoryview, pos: int) -> tuple[int, int]:
    (length,) = _U16.unpack_from(buf, pos)
    pos += 2
    return int.from_bytes(_span(buf, pos, length), "little"), pos + length


def _read_present(buf: memoryview, pos: int, what: str) -> int:
    """The marker every snapshot block starts with, which is always 1."""
    if buf[pos] != 1:
        raise StoreCorruptError(
            f"corrupt store file: {what} {bytes(buf[pos : pos + 1])!r} at offset {pos}, "
            "expected b'\\x01'"
        )
    return pos + 1


def _read_synopsis(buf: memoryview, pos: int) -> tuple[ClusterSynopsis, int]:
    pos = _read_present(buf, pos, "synopsis marker")
    (n_rows,) = _U32.unpack_from(buf, pos)
    pos += 4
    rows: dict[int, tuple[int, int, int, int]] = {}
    for _ in range(n_rows):
        (page_no,) = _U32.unpack_from(buf, pos)
        tag_bits, pos = _read_bitset(buf, pos + 4)
        entry_bits, pos = _read_bitset(buf, pos)
        flags, occupancy = _ROW_TAIL.unpack_from(buf, pos)
        pos += _ROW_TAIL.size
        rows[page_no] = (tag_bits, entry_bits, flags, occupancy)
    return ClusterSynopsis.from_rows(rows), pos


def _read_pathsummary(buf: memoryview, pos: int) -> tuple[PathSummary, int]:
    pos = _read_present(buf, pos, "path summary marker")
    (n_pages,) = _U32.unpack_from(buf, pos)
    pos += 4
    pages: dict[int, dict[tuple[tuple[int, ...], int], int]] = {}
    for _ in range(n_pages):
        page_no, n_paths = _SUMMARY_PAGE.unpack_from(buf, pos)
        pos += _SUMMARY_PAGE.size
        rows: dict[tuple[tuple[int, ...], int], int] = {}
        for _ in range(n_paths):
            (chain_len,) = _U16.unpack_from(buf, pos)
            pos += 2
            chain = _ints(chain_len).unpack_from(buf, pos)
            pos += 4 * chain_len
            kind, count = _ROW_TAIL.unpack_from(buf, pos)
            pos += _ROW_TAIL.size
            rows[(chain, kind)] = count
        pages[page_no] = rows
    return PathSummary.from_page_rows(pages), pos


def _read_record(buf: memoryview, pos: int):
    """The record at ``pos`` and the offset after it: one unpack for a
    record's fixed fields and one per list, each a precompiled struct
    for the lists most records have (looked up here rather than through
    :func:`_ints`, which would be two more calls per record)."""
    marker = buf[pos]
    if marker == 1:
        kind, tag, parent_slot, n = _CORE_HEAD.unpack_from(buf, pos + 1)
        pos += 1 + _CORE_HEAD.size
        components = (_I32S[n] if n < _PRECOMPILED else _ints(n, True)).unpack_from(buf, pos)
        pos += 4 * n
        record = CoreRecord(KINDS[kind], tag, OrdPath(components), parent_slot)
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        if n:
            record.child_slots = list(
                (_U32S[n] if n < _PRECOMPILED else _ints(n)).unpack_from(buf, pos)
            )
            pos += 4 * n
        if not buf[pos]:
            return record, pos + 1
        (n,) = _U32.unpack_from(buf, pos + 1)
        start = pos + 5
        pos = start + n
        if pos > len(buf):
            raise IndexError(f"value of {n} byte(s) at offset {start} runs past the end")
        record.value = str(buf[start:pos], "utf-8")
        return record, pos
    if marker == 2:
        companion, local_slot, flags, n = _BORDER_HEAD.unpack_from(buf, pos + 1)
        pos += 1 + _BORDER_HEAD.size
        child_slots = None
        if n:
            n -= 1
            child_slots = list(_ints(n).unpack_from(buf, pos))
            pos += 4 * n
        record = BorderRecord(
            None if companion == 0 else NodeID(companion - 1),
            local_slot,
            down=bool(flags & 1),
            continuation=bool(flags & 2),
            child_slots=child_slots,
        )
        return record, pos
    if marker == 0:
        return None, pos + 1
    raise StoreCorruptError(
        f"corrupt store file: unknown record tag {bytes([marker])!r} at offset {pos}"
    )


def _read_body(body: bytes, page_size: int) -> DocumentStore:
    """Parse a serialised body into a fresh store.

    ``pos`` moves past an item only once it is read whole, so a body cut
    short (or damaged behind a matching checksum) raises
    :class:`StoreCorruptError` naming the item it cuts and its offset.
    """
    buf = memoryview(body)
    store = DocumentStore(page_size)
    pos, what = 0, "tag count"
    try:
        (n_tags,) = _U32.unpack_from(buf, pos)
        pos += 4
        what = "tag name"
        for index in range(n_tags):
            name, pos = _read_str(buf, pos)
            interned = store.tags.intern(name)
            if interned != index:
                raise StoreCorruptError(
                    f"corrupt store file: tag {name!r} maps to {interned}, expected {index}"
                )
        what = "page count"
        (n_pages,) = _U32.unpack_from(buf, pos)
        pos += 4
        for _ in range(n_pages):
            what = "page header"
            page_no, used_bytes, n_slots = _PAGE_HEAD.unpack_from(buf, pos)
            pos += _PAGE_HEAD.size
            what = f"record of page {page_no}"
            page = Page(page_no, page_size)
            records = page.records
            for slot in range(n_slots):
                record, pos = _read_record(buf, pos)
                records.append(record)
                if record is None:
                    # scanned ascending, so the rebuilt free list is already
                    # in the canonical (sorted) order Page maintains live
                    page.free_slots.append(slot)
            page.used_bytes = used_bytes
            store.segment.adopt(page)
        what = "document count"
        (n_documents,) = _U32.unpack_from(buf, pos)
        pos += 4
        for _ in range(n_documents):
            what = "document name"
            name, pos = _read_str(buf, pos)
            what = "document header"
            root, n_page_nos = _DOC_HEAD.unpack_from(buf, pos)
            pos += _DOC_HEAD.size
            what = "document page numbers"
            page_nos = list(_ints(n_page_nos).unpack_from(buf, pos))
            pos += 4 * n_page_nos
            what = "document counters"
            n_nodes, borders, continuations = _DOC_COUNTS.unpack_from(buf, pos)
            pos += _DOC_COUNTS.size
            what = "synopsis"
            synopsis, pos = _read_synopsis(buf, pos)
            what = "path summary"
            pathsummary, pos = _read_pathsummary(buf, pos)
            store.documents[name] = StoredDocument(
                name=name,
                root=NodeID(root),
                page_nos=page_nos,
                n_nodes=n_nodes,
                n_border_pairs=borders,
                n_continuations=continuations,
                import_result=None,  # type: ignore[arg-type]
                synopsis=synopsis,
                pathsummary=pathsummary,
            )
    except (struct.error, IndexError) as error:
        raise StoreCorruptError(
            f"truncated store data: {what} at offset {pos} of the "
            f"{len(buf)}-byte body ({error})"
        ) from None
    except ValueError as error:
        raise StoreCorruptError(
            f"damaged store data: {what} at offset {pos} of the "
            f"{len(buf)}-byte body ({error})"
        ) from None
    return store


def save_store(store: DocumentStore, path: str) -> None:
    """Atomically write the whole store (segment + catalog) to ``path``.

    The image is staged at ``path + ".tmp"``, fsynced, then installed
    over ``path`` with :func:`os.replace` — a crash at any point leaves
    either the old file or the new file, never a torn mix.  The header's
    CRC32 additionally catches a torn *temp* file that a later recovery
    might be pointed at.  The replace drops the old image's last link,
    which frees its blocks.  The WAL writes its images with
    :func:`save_checkpoint` instead, which keeps the image it replaces
    as its next staging file, at the cost of one more image on disk.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as out:
        _write_image(store, out, None)
    os.replace(tmp, path)


def save_checkpoint(
    store: DocumentStore,
    path: str,
    spare: str,
    *,
    crash: "CrashInjector | None" = None,
) -> None:
    """Atomically write the store to ``path`` through the staging file
    ``spare``, and keep the image it replaces as the next ``spare``.

    Dropping the last link of a file frees its blocks, which on a
    filesystem that discards freed blocks costs tens of milliseconds
    however small the file; this install drops none:

    1. the image is written over ``spare`` in place (created if missing,
       cut only if it was longer) and fsynced;
    2. the image at ``path`` is linked as ``path + ".prev"``;
    3. ``spare`` replaces ``path``, and the old image keeps its second
       link;
    4. ``path + ".prev"`` is renamed to ``spare``.

    ``path`` names a complete, fsynced image at every instant, and
    :func:`load_store` never reads ``spare``.  A crash leaves at most
    ``path + ".prev"`` behind, which the next call settles first: a
    second link of ``path`` is dropped (which frees nothing), the only
    link of a replaced image becomes the spare.  Where the filesystem
    refuses the link (or ``path`` does not exist yet), step 3 drops the
    old image as :func:`save_store` does and the next call stages into a
    new spare.

    ``crash`` is the deterministic kill switch for recovery tests: body
    chunks (one simulated page each) are routed through
    :meth:`~repro.sim.faults.CrashInjector.write` (``page-write``), and
    ``checkpoint-temp`` is announced after step 2 and
    ``checkpoint-rename`` after step 3, so a
    :class:`~repro.sim.faults.CrashPoint` can die at any stage.
    """
    previous = path + ".prev"
    _settle_previous(path, previous, spare)
    try:
        out = open(spare, "r+b")
    except FileNotFoundError:
        out = open(spare, "wb")
    with out:
        _write_image(store, out, crash)
    try:
        os.link(path, previous)
        linked = True
    except OSError:
        linked = False
    if crash is not None:
        crash.check(CRASH_CHECKPOINT_TEMP)
    os.replace(spare, path)
    if crash is not None:
        crash.check(CRASH_CHECKPOINT_RENAME)
    if linked:
        os.replace(previous, spare)


def _settle_previous(path: str, previous: str, spare: str) -> None:
    """Drop or adopt the ``previous`` name an interrupted
    :func:`save_checkpoint` left behind."""
    try:
        left = os.stat(previous)
    except FileNotFoundError:
        return
    try:
        second_link = os.path.samestat(left, os.stat(path))
    except FileNotFoundError:
        second_link = False
    if second_link:
        os.remove(previous)
    else:
        os.replace(previous, spare)


def load_store(path: str) -> DocumentStore:
    """Load a store previously written by :func:`save_store`.

    Raises :class:`StorageError` for files that are not store images at
    all, and :class:`StoreCorruptError` (with offset context) for store
    files that are truncated, torn, or fail the body checksum.
    """
    with open(path, "rb") as inp:
        if inp.read(4) != _MAGIC:
            raise StorageError(f"{path} is not a repro store file")
        version, page_size = _HEADER_HEAD.unpack(
            _read_exact(inp, _HEADER_HEAD.size, "store header")
        )
        if version != _VERSION:
            raise StorageError(f"unsupported store version {version}")
        checkpoint_lsn, body_crc, body_len = _HEADER_SUMS.unpack(
            _read_exact(inp, _HEADER_SUMS.size, "store header checksum block")
        )
        # checked before read() allocates body_len bytes
        left = os.fstat(inp.fileno()).st_size - inp.tell()
        if body_len > left:
            field_at = inp.tell() - 8  # body_len is the header's last u64
            raise StoreCorruptError(
                f"store body length {body_len} at offset {field_at} "
                f"exceeds the {left} byte(s) that follow the header"
            )
        body = _read_exact(inp, body_len, "store body")
        if zlib.crc32(body) != body_crc:
            raise StoreCorruptError(
                f"store body checksum mismatch in {path}: the checkpoint "
                "image is torn or damaged"
            )
        with collector_paused():
            store = _read_body(body, page_size)
        store.checkpoint_lsn = checkpoint_lsn
        return store
