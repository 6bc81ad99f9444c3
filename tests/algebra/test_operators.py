"""Unit tests for individual physical operators."""

import random

import pytest

from repro.algebra.base import Operator
from repro.algebra.misc import (
    ContextScan,
    DuplicateElimination,
    count_results,
    order_results,
    result_nodeids,
)
from repro.errors import PlanError
from repro.storage.ordpath import OrdPath

from tests.paper_tree import build_paper_tree


@pytest.fixture()
def paper():
    return build_paper_tree()


class ListSource(Operator):
    """Test helper: replay a fixed list of instances."""

    def __init__(self, ctx, items):
        super().__init__(ctx)
        self.items = items

    def _produce(self):
        yield from self.items


def test_context_scan_emits_trivial_instances(paper):
    """Each trivial instance travels as its context NodeID, charged as
    one instance."""
    ctx = paper.db.make_context()
    scan = ContextScan(ctx, [paper.nodes["d1"], paper.nodes["a2"]])
    scan.open()
    assert scan.next() == paper.nodes["d1"]
    assert scan.next() == paper.nodes["a2"]
    assert scan.next() is None
    scan.close()
    assert ctx.stats.instances_created == 2


def test_next_before_open_raises(paper):
    ctx = paper.db.make_context()
    scan = ContextScan(ctx, [])
    with pytest.raises(PlanError):
        scan.next()


def test_duplicate_elimination(paper):
    ctx = paper.db.make_context()
    nid = paper.nodes["a3"]
    other = paper.nodes["c4"]
    dedup = DuplicateElimination(ctx, ListSource(ctx, [nid, other, nid]))
    assert result_nodeids(dedup) == [nid, other]
    assert ctx.stats.duplicates_suppressed == 1
    assert ctx.stats.set_ops == 3


def test_count_results(paper):
    ctx = paper.db.make_context()
    items = [(1, 0, 0, None, False, 1, False), (1, 0, 0, None, False, 2, False)]
    assert count_results(ListSource(ctx, items), ctx) == 2


def test_order_results_uses_ordpaths(paper):
    ctx = paper.db.make_context()
    # c4 comes after a3 in document order regardless of input order
    ordered = order_results(ctx, [paper.nodes["c4"], paper.nodes["a3"]])
    assert ordered == [paper.nodes["a3"], paper.nodes["c4"]]
    # ordering pays swizzles (buffer fixes)
    assert ctx.stats.swizzles >= 2


def test_order_results_compares_label_components(paper, monkeypatch):
    """Every element of the paper tree, shuffled, comes back in document
    order without a single ``OrdPath.__lt__``, charged as before: one
    ``set_op`` per label fetched plus ``n * bit_length(n)`` for the sort."""
    want = [paper.nodes[name] for name in ("d1", "a2", "a3", "c2", "c3", "c4", "d4", "b2")]
    nids = list(want)
    random.Random(5).shuffle(nids)

    def refused(self, other):
        raise AssertionError("labels compared as OrdPath objects")

    monkeypatch.setattr(OrdPath, "__lt__", refused)
    ctx = paper.db.make_context()
    assert order_results(ctx, nids) == want
    n = len(nids)
    assert ctx.stats.set_ops == n + n * n.bit_length()


def test_operator_iterator_protocol(paper):
    ctx = paper.db.make_context()
    items = [(0, 0, 0, None, False, paper.nodes["d1"], False)]
    source = ListSource(ctx, items)
    source.open()
    drained = list(source)
    assert len(drained) == 1
    source.close()
    # closing twice is harmless
    source.close()


def test_iterator_call_costs_charged(paper):
    ctx = paper.db.make_context()
    source = ListSource(ctx, [(0, 0, 0, None, False, 0, False)] * 10)
    cpu_before = ctx.clock.cpu_time
    count_results(source, ctx)
    assert ctx.clock.cpu_time > cpu_before
