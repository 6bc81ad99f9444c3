"""Tests for the simulated clock: the books priced, plus the disk waits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClockHorizonError
from repro.sim.clock import HORIZON, TICK, SimClock, on_grid
from repro.sim.costmodel import PRICED, CostModel
from repro.sim.stats import Stats

#: a cost model whose iterator call is a quarter second: whole seconds of
#: CPU are a whole number of calls
QUARTER = CostModel(iterator_call=0.25)


def quarter_clock() -> SimClock:
    return SimClock(Stats(), QUARTER)


def test_initial_state():
    clock = SimClock(Stats(), CostModel())
    assert clock.now == 0.0
    assert clock.cpu_time == 0.0
    assert clock.io_wait == 0.0


def test_wait_until_future_accounts_io_wait():
    clock = quarter_clock()
    clock.stats.iterator_calls += 4  # a second of CPU
    clock.wait_until(3.0)
    assert clock.now == 3.0
    assert clock.io_wait == 2.0
    assert clock.cpu_time == 1.0


def test_wait_until_past_is_noop():
    clock = quarter_clock()
    clock.stats.iterator_calls += 8
    clock.wait_until(1.0)
    assert clock.now == 2.0
    assert clock.io_wait == 0.0


def test_cpu_time_is_derived_from_two_sums():
    """The clock stores ``io_wait`` alone; ``cpu_time`` is the counters
    priced and ``now`` their sum, both read only."""
    stats, costs = Stats(), CostModel()
    clock = SimClock(stats, costs)
    assert SimClock.__slots__ == ("stats", "costs", "io_wait")
    stats.swizzles += 3
    stats.pages_requested += 1
    clock.wait_until(on_grid(1.1))
    assert clock.cpu_time == costs.price(stats) == 3 * costs.swizzle + costs.io_submit
    assert clock.now == on_grid(1.1)
    with pytest.raises(AttributeError):
        clock.cpu_time = 0.0
    with pytest.raises(AttributeError):
        clock.now = 0.0


def test_total_is_cpu_plus_wait():
    """Exact, not approximate: durations on the time grid add without rounding."""
    stats, costs = Stats(), CostModel()
    clock = SimClock(stats, costs)
    stats.intra_hops += 5
    clock.wait_until(on_grid(1.1))
    stats.node_tests += 7
    clock.wait_until(on_grid(2.7))
    assert clock.now == clock.cpu_time + clock.io_wait == on_grid(2.7)


@settings(max_examples=200, deadline=None)
@given(
    factor=st.floats(min_value=0.0, max_value=100.0),
    moves=st.lists(
        st.one_of(
            st.tuples(st.sampled_from(sorted(PRICED.values())), st.integers(0, 1000)),
            st.tuples(st.just("wait"), st.floats(min_value=-1.0, max_value=1.0)),
        ),
        max_size=30,
    ),
)
def test_now_is_the_books_priced_after_any_posts_and_waits(factor, moves):
    """Under random counter posts and disk waits, ``now`` is
    ``io_wait + costs.price(stats)`` with ``==``, monotone and on the
    grid, a wait into the future lands on its time exactly, and ``now``
    cannot be assigned."""
    stats, costs = Stats(), CostModel().scaled(factor)
    clock = SimClock(stats, costs)
    last = clock.now
    for move, arg in moves:
        if move == "wait":
            t = last + on_grid(arg)  # negative: a wait into the past
            clock.wait_until(t)
            assert clock.now == max(t, last)
        else:
            setattr(stats, move, getattr(stats, move) + arg)
        now = clock.now
        assert now == clock.io_wait + costs.price(stats)
        assert now >= last
        assert (now / TICK).is_integer()
        last = now
    with pytest.raises(AttributeError):
        clock.now = last + 1.0


def test_on_grid_snaps_to_the_nearest_tick_and_is_idempotent():
    for seconds in (0.0, 3.5e-6, 0.1, 0.0034, 1e-12, 123.456):
        snapped = on_grid(seconds)
        assert (snapped / TICK).is_integer()
        assert abs(snapped - seconds) <= TICK / 2
        assert on_grid(snapped) == snapped


def test_sums_of_on_grid_durations_do_not_depend_on_order():
    durations = [on_grid(d) for d in (3.5e-6, 1.2e-6, 4.0e-6, 0.0123, 15e-6)] * 2000
    forward = sum(durations, 0.0)
    backward = sum(reversed(durations), 0.0)
    grouped = sum(d * durations.count(d) for d in set(durations))
    assert forward == backward == grouped


def test_checkpoint_refuses_a_clock_past_the_horizon():
    clock = quarter_clock()
    clock.stats.iterator_calls += 4 * (int(HORIZON) - 1)
    clock.checkpoint()
    clock.stats.iterator_calls += 4
    with pytest.raises(ClockHorizonError) as err:
        clock.checkpoint()
    assert err.value.sim_time == HORIZON


def test_checkpoint_and_since():
    clock = quarter_clock()
    clock.stats.iterator_calls += 4
    mark = clock.checkpoint()
    assert mark == (1.0, 1.0, 0.0)
    clock.stats.iterator_calls += 2
    clock.wait_until(2.5)
    assert clock.since(mark) == (1.5, 0.5, 1.0)
