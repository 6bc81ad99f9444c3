"""Tests for Stats and CostModel."""

import dataclasses

import pytest

from repro.sim.clock import TICK
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.stats import Stats


def test_stats_start_zero():
    stats = Stats()
    assert all(v == 0 for v in stats.as_dict().values())


def test_stats_merge_adds_counters():
    a = Stats()
    b = Stats()
    a.pages_read = 3
    b.pages_read = 4
    b.seeks = 2
    a.merge(b)
    assert a.pages_read == 7
    assert a.seeks == 2
    assert b.pages_read == 4  # merge does not mutate the source


def test_stats_reset():
    stats = Stats()
    stats.swizzles = 10
    stats.reset()
    assert stats.swizzles == 0


def test_cost_model_scaled():
    base = CostModel()
    doubled = base.scaled(2.0)
    assert doubled.swizzle == pytest.approx(base.swizzle * 2)
    assert doubled.intra_hop == pytest.approx(base.intra_hop * 2)
    assert doubled.page_register == pytest.approx(base.page_register * 2)


def test_cost_model_lives_on_the_time_grid():
    """Every constant is a whole number of ticks — also after scaling by
    an awkward factor — and snapping again changes nothing."""
    for model in (CostModel(), CostModel().scaled(0.37), CostModel(intra_hop=1e-7 / 3)):
        values = dataclasses.asdict(model)
        assert all((value / TICK).is_integer() for value in values.values()), values
        assert CostModel(**values) == model
    assert CostModel().scaled(0.37).node_test == pytest.approx(0.37 * 1.2e-6, rel=1e-4)


def test_cost_model_swizzle_asymmetry():
    """Swizzling must be much more expensive than unswizzling (Sec. 3.6)."""
    costs = DEFAULT_COST_MODEL
    assert costs.swizzle > 10 * costs.unswizzle


def test_cost_model_frozen():
    with pytest.raises(Exception):
        DEFAULT_COST_MODEL.swizzle = 0.0  # type: ignore[misc]
