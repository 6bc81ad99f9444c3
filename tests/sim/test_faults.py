"""Tests for deterministic fault injection and I/O-layer recovery."""

import pytest

from repro.errors import PageReadError, ReproError, RequestLostError
from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel
from repro.sim.disk import DiskDevice
from repro.sim.faults import (
    PROFILES,
    FaultPlan,
    FaultProfile,
    Outcome,
    RetryPolicy,
    fault_profile,
)
from repro.sim.iosys import AsyncIOSystem
from repro.sim.stats import Stats


def make_iosys(profile: FaultProfile | None = None, retry: RetryPolicy | None = None):
    clock = SimClock(Stats(), CostModel())
    plan = FaultPlan(profile) if profile is not None else None
    disk = DiskDevice(stats=clock.stats, faults=plan)
    return AsyncIOSystem(disk, clock, retry=retry), clock, disk


# ------------------------------------------------------------- fault plans


def test_plan_is_deterministic():
    profile = PROFILES["mixed"]
    a, b = FaultPlan(profile), FaultPlan(profile)
    for page in (3, 17, 3, 99, 17, 3):
        assert a.service(page) == b.service(page)


def test_plan_decisions_are_order_independent():
    """A page's fault sequence ignores what happened to other pages."""
    profile = FaultProfile(seed=5, error_rate=0.5, error_burst=10, slow_rate=0.3)
    interleaved = FaultPlan(profile)
    seq_a = [interleaved.service(p) for p in (1, 2, 1, 2, 1, 2)]
    isolated = FaultPlan(profile)
    only_1 = [isolated.service(1) for _ in range(3)]
    only_2 = [isolated.service(2) for _ in range(3)]
    assert seq_a[0::2] == only_1
    assert seq_a[1::2] == only_2


def test_error_burst_is_capped():
    plan = FaultPlan(FaultProfile(error_rate=1.0, error_burst=2))
    outcomes = [plan.service(7).outcome for _ in range(3)]
    assert outcomes == [Outcome.ERROR, Outcome.ERROR, Outcome.OK]


def test_dead_pages_ignore_burst_cap():
    plan = FaultPlan(FaultProfile(dead_pages=frozenset({5})))
    assert all(plan.service(5).outcome is Outcome.ERROR for _ in range(8))
    assert plan.service(6).outcome is Outcome.OK


def test_dead_services_bound_recovery():
    plan = FaultPlan(FaultProfile(dead_pages=frozenset({5}), dead_services=3))
    outcomes = [plan.service(5).outcome for _ in range(4)]
    assert outcomes == [Outcome.ERROR] * 3 + [Outcome.OK]


def test_profile_validation():
    with pytest.raises(ReproError):
        FaultProfile(error_rate=1.5)
    with pytest.raises(ReproError):
        FaultProfile(lost_rate=-0.1)
    with pytest.raises(ReproError):
        FaultProfile(slow_rate=0.1, slow_factor=0.5)


def test_profile_registry_and_spec():
    assert not PROFILES["none"].active
    assert all(PROFILES[name].active for name in PROFILES if name != "none")
    assert fault_profile("mixed").seed == PROFILES["mixed"].seed
    assert fault_profile("mixed:7").seed == 7
    with pytest.raises(ReproError):
        fault_profile("no-such-profile")
    with pytest.raises(ReproError):
        fault_profile("mixed:not-a-seed")


def test_retry_policy_validation_and_delay():
    with pytest.raises(ReproError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ReproError):
        RetryPolicy(request_timeout=0.0)
    policy = RetryPolicy(backoff_base=0.002, backoff_factor=2.0, backoff_cap=0.05, jitter=0.25)
    previous = 0.0
    for attempt in range(1, 6):
        delay = policy.delay(42, attempt)
        base = min(0.05, 0.002 * 2.0 ** (attempt - 1))
        assert base <= delay <= base * 1.25
        assert delay == policy.delay(42, attempt)  # deterministic jitter
        assert delay >= previous * 0.5  # grows modulo jitter/cap
        previous = delay


# --------------------------------------------------------- disk injection


def test_disk_applies_slow_factor():
    fast, _, _ = make_iosys()
    fast.read_sync(100)
    slow, clock, disk = make_iosys(FaultProfile(slow_rate=1.0, slow_factor=20.0))
    slow.read_sync(100)
    assert disk.stats.slow_services == 1
    assert clock.now > 10 * fast.clock.now


def test_disk_drops_lost_completions():
    profile = FaultProfile(lost_rate=1.0, lost_burst=2)
    iosys, _, disk = make_iosys(profile)
    iosys.read_sync(10)
    assert disk.stats.lost_requests == 2


# ------------------------------------------------------------ recovery


def test_sync_read_retries_transient_errors():
    profile = FaultProfile(error_rate=1.0, error_burst=2)
    iosys, clock, _ = make_iosys(profile)
    iosys.read_sync(10)  # must not raise: burst cap < retry cap
    stats = iosys.stats
    assert stats.io_errors == 2
    assert stats.retries == 2
    assert stats.backoff_wait > 0.0
    assert iosys.outstanding() == 0


def test_async_read_retries_transient_errors():
    profile = FaultProfile(error_rate=1.0, error_burst=2)
    iosys, _, _ = make_iosys(profile)
    iosys.request(10)
    assert iosys.get_completion() == 10
    assert iosys.stats.io_errors == 2
    assert iosys.stats.retries == 2


def test_retry_cap_escalates_to_page_read_error():
    iosys, _, _ = make_iosys(FaultProfile(dead_pages=frozenset({10})))
    with pytest.raises(PageReadError) as err:
        iosys.read_sync(10)
    assert err.value.page == 10
    assert err.value.attempts == 1 + iosys.retry.max_retries
    assert iosys.outstanding() == 0  # state cleaned up after escalation


def test_lost_requests_are_resubmitted():
    profile = FaultProfile(lost_rate=1.0, lost_burst=2)
    iosys, clock, _ = make_iosys(profile)
    iosys.read_sync(10)
    stats = iosys.stats
    assert stats.timeouts == 2
    assert stats.lost_requests == 2
    assert stats.retries == 2
    # each loss is only observable at its deadline
    assert clock.now > iosys.retry.request_timeout


def test_lost_request_escalates_at_retry_cap():
    profile = FaultProfile(lost_rate=1.0, lost_burst=100)
    iosys, _, _ = make_iosys(profile, retry=RetryPolicy(max_retries=3))
    iosys.request(10)
    with pytest.raises(RequestLostError) as err:
        iosys.get_completion()
    assert err.value.page == 10


def test_retry_preserves_end_to_end_latency():
    """last_latency spans the whole recovery chain, not just the last try."""
    profile = FaultProfile(error_rate=1.0, error_burst=3)
    iosys, _, _ = make_iosys(profile)
    iosys.read_sync(10)
    clean, _, _ = make_iosys()
    clean.read_sync(10)
    assert iosys.last_latency > clean.last_latency
