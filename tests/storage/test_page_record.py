"""Tests for records, slotted pages and segments."""

import pytest

from repro.errors import StorageError
from repro.model.tree import Kind
from repro.storage.nodeid import make_nodeid
from repro.storage.ordpath import OrdPath
from repro.storage.page import PAGE_HEADER, SLOT_ENTRY, Page, Segment
from repro.storage.record import BORDER_RECORD_SIZE, BorderRecord, CoreRecord


def core(value=None) -> CoreRecord:
    return CoreRecord(Kind.ELEMENT, 5, OrdPath((1, 3)), parent_slot=0, value=value)


def test_core_record_size_grows_with_children_and_value():
    record = core()
    base = record.size()
    record.child_slots.append(1)
    assert record.size() == base + 4
    with_value = core(value="x" * 10)
    assert with_value.size() == base + 10


def test_border_record_size():
    plain = BorderRecord(None, 0, down=True)
    assert plain.size() == BORDER_RECORD_SIZE
    proxy = BorderRecord(None, -1, down=False, continuation=True, child_slots=[1, 2])
    assert proxy.size() == BORDER_RECORD_SIZE + 8


def test_border_target_requires_backpatch():
    border = BorderRecord(None, 0, down=True)
    with pytest.raises(ValueError):
        border.target()
    border.companion = make_nodeid(3, 4)
    assert border.target() == make_nodeid(3, 4)


def test_page_add_and_fetch():
    page = Page(0, 512)
    slot = page.add(core())
    assert slot == 0
    assert page.record(0).tag == 5
    assert page.used_bytes > PAGE_HEADER


def test_page_overflow_rejected():
    page = Page(0, 96)
    page.add(core())
    with pytest.raises(StorageError):
        for _ in range(10):
            page.add(core())


def test_page_grow_accounting():
    page = Page(0, 512)
    page.add(core())
    free = page.free_bytes()
    page.grow(8)
    assert page.free_bytes() == free - 8
    with pytest.raises(StorageError):
        page.grow(10_000)


def test_page_bad_slot():
    page = Page(0, 512)
    with pytest.raises(StorageError):
        page.record(3)


def test_segment_allocate_and_adopt():
    segment = Segment(512)
    p0 = segment.allocate()
    assert p0.page_no == 0
    external = Page(1, 512)
    segment.adopt(external)
    assert segment.page(1) is external
    assert segment.n_pages == 2


def test_segment_adopt_out_of_order_rejected():
    segment = Segment(512)
    with pytest.raises(StorageError):
        segment.adopt(Page(5, 512))


def test_segment_rejects_tiny_pages():
    with pytest.raises(StorageError):
        Segment(PAGE_HEADER)


def test_segment_missing_page():
    segment = Segment(512)
    with pytest.raises(StorageError):
        segment.page(0)
