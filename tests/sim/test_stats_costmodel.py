"""Tests for Stats and CostModel."""

import dataclasses
import math

import pytest

from repro.sim.clock import TICK
from repro.sim.costmodel import PRICED, CostModel, DEFAULT_COST_MODEL
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


def test_price_is_every_constant_times_its_counter():
    """Each of the ten constants prices one distinct ``Stats`` counter,
    and the sum is exact: the identity ``cpu_time == price(stats)`` can
    be asserted with ``==``."""
    costs = CostModel()
    assert set(PRICED) == {f.name for f in dataclasses.fields(CostModel)}
    assert len(set(PRICED.values())) == len(PRICED)
    stats = Stats()
    for i, counter in enumerate(PRICED.values()):
        setattr(stats, counter, 1000 + i)
    want = 0.0
    for i, constant in enumerate(PRICED):
        want += (1000 + i) * getattr(costs, constant)
    assert costs.price(stats) == want
    assert (costs.price(stats) / TICK).is_integer()
    assert costs.price(Stats()) == 0.0


def test_cost_model_swizzle_asymmetry():
    """Swizzling must be much more expensive than unswizzling (Sec. 3.6)."""
    costs = DEFAULT_COST_MODEL
    assert costs.swizzle > 10 * costs.unswizzle


def test_cost_model_frozen():
    with pytest.raises(Exception):
        DEFAULT_COST_MODEL.swizzle = 0.0  # type: ignore[misc]


@pytest.mark.parametrize("value", [-3.5e-6, -TICK, math.inf, -math.inf, math.nan])
def test_cost_model_rejects_a_bad_constant_by_name(value):
    """A negative or non-finite constant is refused where it is made, not
    mid-query by whichever clock sum it first breaks."""
    with pytest.raises(ValueError, match="intra_hop"):
        CostModel(intra_hop=value)
    with pytest.raises(ValueError, match="set_op"):
        CostModel(set_op=value)


def test_cost_model_rejects_a_negative_scale():
    with pytest.raises(ValueError, match="swizzle"):
        CostModel().scaled(-1)
    assert CostModel().scaled(0) == CostModel(**{name: 0.0 for name in PRICED})
