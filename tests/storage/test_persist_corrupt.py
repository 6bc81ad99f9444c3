"""Corruption regression tests for the binary store format.

The load path must never leak a bare ``struct.error`` (or worse, a
``UnicodeDecodeError``) for a truncated or damaged file: every byte
shortfall surfaces as a typed :class:`~repro.errors.StoreCorruptError`
with offset context, and non-store files raise
:class:`~repro.errors.StorageError`.
"""

import io
import os
import struct
import zlib

import pytest

from repro.errors import StorageError, StoreCorruptError
from repro.storage import persist
from repro.storage.persist import load_store, save_store

from tests.conftest import small_database


#: ``magic | version | page_size`` then ``lsn | crc | body length``
_HEAD = 4 + 6
_SUMS = struct.Struct("<QIQ")


def written(tmp_path, name, data) -> str:
    """``data`` in a new file ``name`` under ``tmp_path``."""
    target = str(tmp_path / name)
    with open(target, "xb") as out:
        out.write(data)
    return target


def grown(tmp_path, data, cuts, restamp=False):
    """Yield, for each cut in ascending order, the path of one file that
    holds ``data[:cut]`` — or, with ``restamp``, the image with its body
    cut at ``cut`` behind a header re-stamped to match, so that the
    checksum passes and the cut lands inside the body read helpers.
    The file only grows and its header is re-stamped in place, so a
    sweep frees no block and leaves one file behind, where a file per
    cut (or a truncation per cut) frees blocks at every cut."""
    start = _HEAD + _SUMS.size if restamp else 0
    target = written(tmp_path, "cut.rpro", data[:start])
    lsn, body, crc, done = _SUMS.unpack_from(data, _HEAD)[0], data[start:], 0, 0
    fd = os.open(target, os.O_WRONLY)
    try:
        for cut in sorted(cuts):
            os.pwrite(fd, body[done:cut], start + done)
            crc, done = zlib.crc32(body[done:cut], crc), cut
            if restamp:
                os.pwrite(fd, _SUMS.pack(lsn, crc, cut), _HEAD)
            yield target
    finally:
        os.close(fd)


def flipped(tmp_path, data, offsets, mask):
    """Yield, for each offset, the path of one copy of ``data`` with the
    byte there xor-ed with ``mask``; the byte is restored before the next."""
    target = written(tmp_path, "rot.rpro", data)
    fd = os.open(target, os.O_WRONLY)
    try:
        for offset in offsets:
            os.pwrite(fd, bytes([data[offset] ^ mask]), offset)
            yield target
            os.pwrite(fd, data[offset : offset + 1], offset)
    finally:
        os.close(fd)


@pytest.fixture
def saved(tmp_path):
    db, _ = small_database(seed=91, n_top=25)
    path = str(tmp_path / "store.rpro")
    save_store(db.store, path)
    return db, path, open(path, "rb").read()


def test_truncation_at_every_boundary(saved, tmp_path):
    """Sweep truncation points across the whole file: header, checksum
    block, and (via the re-stamped variant below) every body section."""
    _, path, data = saved
    # every header byte, then a stride through the body
    cuts = list(range(len(data) - 1, 0, -max(1, len(data) // 200)))
    cuts.extend(range(min(64, len(data))))
    for target in grown(tmp_path, data, cuts):
        with pytest.raises((StoreCorruptError, StorageError)) as err:
            load_store(target)
        # offset context or a typed message, never a raw struct error
        assert "store" in str(err.value)


def test_truncation_inside_body_sections(saved, tmp_path):
    """A body cut behind a matching checksum: every read helper's
    shortfall must raise the typed error."""
    _, _, data = saved
    body_len = len(data) - _HEAD - _SUMS.size
    cuts = range(body_len - 1, -1, -max(1, body_len // 300))
    for target in grown(tmp_path, data, cuts, restamp=True):
        with pytest.raises(StoreCorruptError):
            load_store(target)


def test_truncation_error_reports_offset(saved, tmp_path):
    _, path, data = saved
    target = str(tmp_path / "cut.rpro")
    open(target, "wb").write(data[: len(data) // 2])
    with pytest.raises(StoreCorruptError, match=r"offset"):
        load_store(target)


def test_body_checksum_detects_bit_rot(saved, tmp_path):
    _, path, data = saved
    corrupt = bytearray(data)
    corrupt[len(data) // 2] ^= 0x01
    target = str(tmp_path / "rot.rpro")
    open(target, "wb").write(bytes(corrupt))
    with pytest.raises(StoreCorruptError, match="checksum mismatch"):
        load_store(target)


def test_header_corruption_detected(saved, tmp_path):
    _, path, data = saved
    # damage the recorded body length: the read shortfall must be typed
    corrupt = bytearray(data)
    length_at = 4 + 6 + 8 + 4  # magic | version+page_size | lsn | crc
    corrupt[length_at : length_at + 8] = struct.pack("<Q", len(data) * 2)
    target = str(tmp_path / "len.rpro")
    open(target, "wb").write(bytes(corrupt))
    with pytest.raises(StoreCorruptError):
        load_store(target)


def test_not_a_store_file(tmp_path):
    target = str(tmp_path / "nope.rpro")
    open(target, "wb").write(b"<?xml version='1.0'?><root/>")
    with pytest.raises(StorageError):
        load_store(target)


def test_unsupported_version(saved, tmp_path):
    """Version 4 is the only format: older headers and future ones are
    one unsupported-version error."""
    _, path, data = saved
    target = str(tmp_path / "other.rpro")
    for version in (1, 2, 3, 99):
        corrupt = bytearray(data)
        corrupt[4:6] = struct.pack("<H", version)
        open(target, "wb").write(bytes(corrupt))
        with pytest.raises(StorageError, match=f"unsupported store version {version}"):
            load_store(target)


def test_empty_file(tmp_path):
    target = str(tmp_path / "empty.rpro")
    open(target, "wb").close()
    with pytest.raises(StorageError):
        load_store(target)


def _blocks(store):
    """Per document, the serialised synopsis and path-summary blocks."""
    out = []
    for doc in store.documents.values():
        synopsis, summary = io.BytesIO(), io.BytesIO()
        persist._write_synopsis(synopsis, doc.synopsis)
        persist._write_pathsummary(summary, doc.pathsummary)
        out.append((synopsis.getvalue(), summary.getvalue()))
    return out


def test_v4_body_is_v3_body_plus_path_summaries(saved):
    """Each document's entry ends in its synopsis block followed by its
    path-summary block (page rows only, postings re-aggregated at load):
    the v3 layout plus one summary block per document."""
    db, _, data = saved
    ((synopsis, summary),) = _blocks(db.store)  # one document
    assert summary[:1] == b"\x01" and len(summary) > 5
    assert data.endswith(synopsis + summary)


@pytest.mark.parametrize("marker", [b"\x00", b"\x02"], ids=["absent", "unknown"])
def test_a_snapshot_block_marked_otherwise_is_refused(saved, tmp_path, marker):
    """Every writer marks both snapshot blocks present (``\\x01``): an
    image whose synopsis or path-summary block starts with any other
    marker, behind a checksum that passes, is corrupt, and the error
    names the block and its offset."""
    db, _, data = saved
    ((synopsis, summary),) = _blocks(db.store)
    body = data[_HEAD + _SUMS.size :]
    lsn = _SUMS.unpack_from(data, _HEAD)[0]
    for what, at in (
        ("synopsis", len(body) - len(synopsis + summary)),
        ("path summary", len(body) - len(summary)),
    ):
        marked = body[:at] + marker + body[at + 1 :]
        image = data[:_HEAD] + _SUMS.pack(lsn, zlib.crc32(marked), len(marked)) + marked
        target = written(tmp_path, f"{what}-{marker.hex()}.rpro", image)
        with pytest.raises(StoreCorruptError, match=f"{what} marker .* at offset {at},"):
            load_store(target)


def _summary_boundaries(summary):
    """Offsets, within one path-summary block, where a block starts: the
    marker, the page count and each page row."""
    rows = summary.page_rows()
    offsets = [0, 1, 5]
    for page_no in sorted(rows):
        offsets.append(offsets[-1] + 8 + sum(2 + 4 * len(chain) + 5 for chain, _ in rows[page_no]))
    return offsets[:-1]


def test_v4_path_summary_block_truncation_and_bit_rot(tmp_path):
    """Sweep damage through the trailing path-summary block: cut behind
    a re-stamped checksum at every block boundary (and one byte past
    it) plus a stride, every cut must surface as a typed error; with the
    checksum in place, bit-rot in the summary bytes must be caught."""
    db, _ = small_database(seed=91, n_top=6)  # few pages: one load per cut
    path = str(tmp_path / "store.rpro")
    save_store(db.store, path)
    data = open(path, "rb").read()
    ((_, summary),) = _blocks(db.store)
    body_len = len(data) - _HEAD - _SUMS.size
    start = body_len - len(summary)
    cuts = {start + b + d for b in _summary_boundaries(db.document("d").pathsummary) for d in (0, 1)}
    cuts.update(range(start, body_len, max(1, len(summary) // 64)))
    for target in grown(tmp_path, data, [c for c in cuts if c < body_len], restamp=True):
        with pytest.raises(StoreCorruptError):
            load_store(target)
    # bit-rot anywhere in the summary region trips the body checksum
    offsets = range(len(data) - len(summary), len(data), max(1, len(summary) // 128))
    for target in flipped(tmp_path, data, offsets, 0x40):
        with pytest.raises(StoreCorruptError, match="checksum"):
            load_store(target)


def test_checkpoint_lsn_round_trips(saved, tmp_path):
    db, _, _ = saved
    db.store.checkpoint_lsn = 41
    path = str(tmp_path / "lsn.rpro")
    save_store(db.store, path)
    assert load_store(path).checkpoint_lsn == 41


def test_save_leaves_no_temp_file(saved, tmp_path):
    import os

    db, _, _ = saved
    path = str(tmp_path / "clean.rpro")
    save_store(db.store, path)
    assert not os.path.exists(path + ".tmp")


def stamped(data, body):
    """The image with ``body`` in place of its own, the header's CRC and
    length re-stamped to match, so the damage reaches the body parser."""
    lsn = _SUMS.unpack_from(data, _HEAD)[0]
    return data[:_HEAD] + _SUMS.pack(lsn, zlib.crc32(body), len(body)) + body


def _first_record(store):
    """The body offset of the first page's first record: the tag block,
    the page count and the page header come before it."""
    tags = 4 + sum(2 + len(name.encode("utf-8")) for name in store.tags.names())
    return tags + 4 + persist._PAGE_HEAD.size


def test_an_even_last_ordpath_component_is_damage(saved, tmp_path):
    """An ORDPATH ends in an odd component; one that ends in an even one
    behind a matching checksum is a damaged record, not a bare
    ValueError, and the error names the record and its offset."""
    db, _, data = saved
    body = bytearray(data[_HEAD + _SUMS.size :])
    at = _first_record(db.store)
    assert body[at] == 1  # a core record
    n = persist._CORE_HEAD.unpack_from(body, at + 1)[-1]
    last = at + 1 + persist._CORE_HEAD.size + 4 * (n - 1)
    struct.pack_into("<i", body, last, 2)
    target = written(tmp_path, "even.rpro", stamped(data, bytes(body)))
    with pytest.raises(StoreCorruptError, match=rf"damaged .*record of page \d+ at offset {at} "):
        load_store(target)


def test_bytes_that_are_not_utf8_are_damage(saved, tmp_path):
    """A tag name that does not decode, behind a matching checksum, is
    a damaged item, not a bare UnicodeDecodeError."""
    db, _, data = saved
    body = bytearray(data[_HEAD + _SUMS.size :])
    at = 4
    for name in db.store.tags.names():
        if name:
            break
        at += 2
    body[at + 2] = 0xFF  # never a valid UTF-8 byte
    target = written(tmp_path, "utf8.rpro", stamped(data, bytes(body)))
    with pytest.raises(StoreCorruptError, match=f"damaged .*tag name at offset {at} "):
        load_store(target)
