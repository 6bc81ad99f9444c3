"""Tests for the simulated clock."""

import pytest

from repro.errors import ClockHorizonError
from repro.sim.clock import HORIZON, TICK, SimClock, on_grid


def test_initial_state():
    clock = SimClock()
    assert clock.now == 0.0
    assert clock.cpu_time == 0.0
    assert clock.io_wait == 0.0


def test_work_accumulates_cpu():
    clock = SimClock()
    clock.work(0.5)
    clock.work(0.25)
    assert clock.now == pytest.approx(0.75)
    assert clock.cpu_time == pytest.approx(0.75)
    assert clock.io_wait == 0.0


def test_negative_work_rejected():
    clock = SimClock()
    with pytest.raises(ValueError):
        clock.work(-1.0)


def test_wait_until_future_accounts_io_wait():
    clock = SimClock()
    clock.work(1.0)
    clock.wait_until(3.0)
    assert clock.now == pytest.approx(3.0)
    assert clock.io_wait == pytest.approx(2.0)
    assert clock.cpu_time == pytest.approx(1.0)


def test_wait_until_past_is_noop():
    clock = SimClock()
    clock.work(2.0)
    clock.wait_until(1.0)
    assert clock.now == pytest.approx(2.0)
    assert clock.io_wait == 0.0


def test_total_is_cpu_plus_wait():
    """Exact, not approximate: durations on the time grid add without rounding."""
    clock = SimClock()
    clock.work(on_grid(0.2))
    clock.wait_until(on_grid(1.1))
    clock.work(on_grid(0.3))
    clock.wait_until(on_grid(2.7))
    assert clock.now == clock.cpu_time + clock.io_wait


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
    clock = SimClock()
    clock.work(HORIZON - 1.0)
    clock.checkpoint()
    clock.work(1.0)
    with pytest.raises(ClockHorizonError) as err:
        clock.checkpoint()
    assert err.value.sim_time == HORIZON


def test_checkpoint_and_since():
    clock = SimClock()
    clock.work(1.0)
    mark = clock.checkpoint()
    clock.work(0.5)
    clock.wait_until(2.5)
    total, cpu, wait = clock.since(mark)
    assert total == pytest.approx(1.5)
    assert cpu == pytest.approx(0.5)
    assert wait == pytest.approx(1.0)
