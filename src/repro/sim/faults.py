"""Deterministic fault injection for the simulated I/O stack.

The paper's robustness argument (Sec. 5.4.6, Sec. 6) is that a
navigation engine must stay *correct* and predictably cheap when the
physical layer misbehaves.  This module supplies the misbehaviour: a
:class:`FaultPlan` decides, per physical service attempt of a page, if
the read fails transiently, completes but loses its completion
notification, or suffers a latency spike.  The disk consults the plan per
service (``DiskDevice._serve``); everything above (retry, backoff,
resubmission, degradation) lives in :mod:`repro.sim.iosys` and the algebra.

Two properties make fault runs benchmarkable:

* **Determinism** — every decision is a pure function of
  ``(profile.seed, page, service_number)`` through a cryptographic hash,
  so the same seed reproduces byte-identical executions (and
  :class:`~repro.sim.stats.Stats` snapshots) regardless of platform.
* **Bounded bursts** — consecutive injected errors/losses per page are
  capped (``error_burst``/``lost_burst``), so any page is readable
  within a known number of attempts and a retry cap above the burst cap
  guarantees recovery.  Pages listed in ``dead_pages`` ignore the cap
  and fail their first ``dead_services`` attempts (or forever when
  ``None``) — the hook for hard-failure testing.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, replace
from typing import BinaryIO

from repro.errors import ReproError, SimulatedCrashError
from repro.sim.clock import on_grid


def _unit(seed: int, page: int, n: int, salt: str) -> float:
    """Deterministic uniform draw in [0, 1) from (seed, page, n, salt).

    Hash-based rather than a stateful RNG so a decision never depends on
    the order in which *other* pages were serviced — two runs that touch
    a page the same number of times see identical faults for it.
    """
    digest = hashlib.blake2b(
        f"{seed}:{page}:{n}:{salt}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


class Outcome(enum.Enum):
    """Physical outcome of one service attempt."""

    OK = "ok"  #: the read completed and was delivered
    ERROR = "error"  #: the read failed (media error); delivered as failed
    LOST = "lost"  #: serviced, but the completion notification vanished


@dataclass(frozen=True, slots=True)
class ServiceVerdict:
    """What the fault plan decided for one service attempt."""

    outcome: Outcome = Outcome.OK
    slow_factor: float = 1.0  #: service-duration multiplier (latency spike)


@dataclass(frozen=True, slots=True)
class FaultProfile:
    """Declarative description of a fault workload (hashable, reusable).

    Rates are per *service attempt*; bursts bound how many consecutive
    attempts on one page may be hit by the same fault class.
    """

    name: str = "custom"
    seed: int = 0
    error_rate: float = 0.0  #: probability of a transient read error
    error_burst: int = 2  #: max consecutive injected errors per page
    slow_rate: float = 0.0  #: probability of a latency spike
    slow_factor: float = 20.0  #: duration multiplier under a spike
    lost_rate: float = 0.0  #: probability the completion is lost
    lost_burst: int = 2  #: max consecutive losses per page
    dead_pages: frozenset[int] = frozenset()  #: pages that fail hard
    #: how many leading service attempts of a dead page fail;
    #: ``None`` = the page never recovers
    dead_services: int | None = None

    def __post_init__(self) -> None:
        for field_name in ("error_rate", "slow_rate", "lost_rate"):
            rate = getattr(self, field_name)
            if not 0.0 <= rate <= 1.0:
                raise ReproError(f"{field_name} must be in [0, 1], got {rate}")
        if self.slow_factor < 1.0:
            raise ReproError(f"slow_factor must be >= 1, got {self.slow_factor}")

    @property
    def active(self) -> bool:
        """True if this profile can inject anything at all."""
        return bool(
            self.error_rate or self.slow_rate or self.lost_rate or self.dead_pages
        )


class FaultPlan:
    """Per-execution fault state over one :class:`FaultProfile`.

    A fresh plan is instantiated per execution context (see
    :meth:`repro.exec.environment.ExecutionEnvironment.fresh_context`),
    so every cold run replays the same fault sequence for the same seed.
    """

    __slots__ = (
        "profile",
        "_services",
        "_error_run",
        "_lost_run",
        "injected_errors",
        "injected_losses",
        "injected_spikes",
    )

    def __init__(self, profile: FaultProfile) -> None:
        self.profile = profile
        self._services: dict[int, int] = {}  #: page -> physical attempts so far
        self._error_run: dict[int, int] = {}  #: page -> consecutive errors
        self._lost_run: dict[int, int] = {}
        self.injected_errors = 0
        self.injected_losses = 0
        self.injected_spikes = 0

    def service(self, page: int) -> ServiceVerdict:
        """Decide the fate of the next service attempt for ``page``."""
        p = self.profile
        n = self._services.get(page, 0) + 1
        self._services[page] = n
        if page in p.dead_pages and (p.dead_services is None or n <= p.dead_services):
            self.injected_errors += 1
            return ServiceVerdict(outcome=Outcome.ERROR)
        if (
            p.lost_rate
            and self._lost_run.get(page, 0) < p.lost_burst
            and _unit(p.seed, page, n, "lost") < p.lost_rate
        ):
            self._lost_run[page] = self._lost_run.get(page, 0) + 1
            self.injected_losses += 1
            return ServiceVerdict(outcome=Outcome.LOST)
        self._lost_run[page] = 0
        if (
            p.error_rate
            and self._error_run.get(page, 0) < p.error_burst
            and _unit(p.seed, page, n, "err") < p.error_rate
        ):
            self._error_run[page] = self._error_run.get(page, 0) + 1
            self.injected_errors += 1
            return ServiceVerdict(outcome=Outcome.ERROR)
        self._error_run[page] = 0
        if p.slow_rate and _unit(p.seed, page, n, "slow") < p.slow_rate:
            self.injected_spikes += 1
            return ServiceVerdict(slow_factor=p.slow_factor)
        return ServiceVerdict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan({self.profile.name!r}, errors={self.injected_errors}, "
            f"losses={self.injected_losses}, spikes={self.injected_spikes})"
        )


# --------------------------------------------------------------- crashes
#
# Where the fault profiles above model a *misbehaving but running*
# physical layer, a crash point models the process dying outright in the
# middle of a durability step.  The same determinism rules apply: a
# crash point is a pure function of (step, occurrence count), so a
# kill-and-recover sweep replays byte-identical crashes on every run.

#: Durability steps a :class:`CrashPoint` may target.  Write-shaped
#: steps (``wal-append``, ``page-write``) honour ``torn_fraction``:
#: that fraction of the payload reaches the file before the crash,
#: leaving a torn write for recovery to detect.
CRASH_WAL_APPEND = "wal-append"  #: appending one WAL entry
CRASH_PAGE_WRITE = "page-write"  #: writing one page-sized checkpoint chunk
#: staged image written + fsynced (a WAL checkpoint has also given the
#: image it replaces a second link: see persist.save_checkpoint)
CRASH_CHECKPOINT_TEMP = "checkpoint-temp"
CRASH_CHECKPOINT_RENAME = "checkpoint-rename"  #: staged image installed (post-rename)
#: log reset after a checkpoint: the epoch's bytes zeroed and fsynced,
#: the header not yet naming the new base LSN
CRASH_WAL_TRUNCATE = "wal-truncate"
CRASH_UPDATE_APPLY = "update-apply"  #: mid-flight inside a structural update

CRASH_STEPS = (
    CRASH_WAL_APPEND,
    CRASH_PAGE_WRITE,
    CRASH_CHECKPOINT_TEMP,
    CRASH_CHECKPOINT_RENAME,
    CRASH_WAL_TRUNCATE,
    CRASH_UPDATE_APPLY,
)


@dataclass(frozen=True, slots=True)
class CrashPoint:
    """Declarative crash: die at the ``at``-th occurrence of ``step``.

    ``torn_fraction`` only matters for write-shaped steps: it is the
    fraction of the payload that reaches the file before the process
    dies (0.0 = crash before any byte, 0.5 = a half-written torn entry).
    Values must stay below 1.0 — a fully written payload is not a crash
    *during* the write.
    """

    step: str
    at: int = 1
    torn_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.step not in CRASH_STEPS:
            known = ", ".join(CRASH_STEPS)
            raise ReproError(f"unknown crash step {self.step!r} (known: {known})")
        if self.at < 1:
            raise ReproError(f"crash occurrence must be >= 1, got {self.at}")
        if not 0.0 <= self.torn_fraction < 1.0:
            raise ReproError(
                f"torn_fraction must be in [0, 1), got {self.torn_fraction}"
            )


class CrashInjector:
    """Per-run occurrence counters over one :class:`CrashPoint`.

    The durability layer calls :meth:`check` at non-write steps and
    routes payload writes through :meth:`write`; when the configured
    occurrence is reached, :class:`~repro.errors.SimulatedCrashError`
    is raised (after tearing the in-flight write, if any).  ``tripped``
    records that the crash fired, so harnesses can assert the sweep
    actually covered the point it configured.
    """

    __slots__ = ("point", "tripped", "_counts")

    def __init__(self, point: CrashPoint) -> None:
        self.point = point
        self.tripped = False
        self._counts: dict[str, int] = {}

    def _hit(self, step: str) -> bool:
        n = self._counts.get(step, 0) + 1
        self._counts[step] = n
        return step == self.point.step and n == self.point.at

    def check(self, step: str) -> None:
        """Count one occurrence of ``step``; die if this is the one."""
        if self._hit(step):
            self.tripped = True
            raise SimulatedCrashError(step, self.point.at)

    def write(self, step: str, out: BinaryIO, data: bytes) -> None:
        """Write ``data`` to ``out``, tearing it at the crash occurrence.

        On the fatal occurrence only ``torn_fraction`` of the payload is
        written (and flushed, so it is really on disk) before the raise;
        on every other occurrence the payload is written whole.
        """
        if not self._hit(step):
            out.write(data)
            return
        self.tripped = True
        torn = int(len(data) * self.point.torn_fraction)
        if torn:
            out.write(data[:torn])
            out.flush()
        raise SimulatedCrashError(step, self.point.at)

    def occurrences(self, step: str) -> int:
        """How many times ``step`` has been counted so far."""
        return self._counts.get(step, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CrashInjector({self.point!r}, tripped={self.tripped})"


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How :class:`~repro.sim.iosys.AsyncIOSystem` recovers from faults.

    Attributes
    ----------
    max_retries:
        Retries per logical read operation beyond the first attempt.
        Must exceed the fault profile's burst caps for guaranteed
        recovery under transient profiles.
    backoff_base / backoff_factor / backoff_cap:
        Exponential backoff: retry ``i`` waits
        ``min(cap, base * factor**(i-1))`` (plus jitter) simulated
        seconds before resubmitting.
    jitter:
        Fractional deterministic jitter on each backoff delay, drawn
        from the same hash family as the fault decisions.
    request_timeout:
        Deadline after which an unanswered request is declared lost and
        resubmitted (Sec. "lost/stuck requests").
    """

    max_retries: int = 4
    backoff_base: float = 0.002
    backoff_factor: float = 2.0
    backoff_cap: float = 0.05
    jitter: float = 0.25
    request_timeout: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ReproError("backoff delays must be non-negative")
        if self.request_timeout <= 0:
            raise ReproError(
                f"request_timeout must be positive, got {self.request_timeout}"
            )

    def delay(self, page: int, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based) of ``page``."""
        base = min(
            self.backoff_cap, self.backoff_base * self.backoff_factor ** (attempt - 1)
        )
        return on_grid(base * (1.0 + self.jitter * _unit(0, page, attempt, "jitter")))


#: Shipped fault workloads.  All of them are *recoverable*: burst caps
#: stay below the default retry cap, so every plan returns correct
#: results under every profile (degraded, never wrong).
PROFILES: dict[str, FaultProfile] = {
    "none": FaultProfile(name="none"),
    "transient-errors": FaultProfile(name="transient-errors", seed=1, error_rate=0.08),
    "latency-spikes": FaultProfile(
        name="latency-spikes", seed=1, slow_rate=0.08, slow_factor=20.0
    ),
    "lost-requests": FaultProfile(name="lost-requests", seed=1, lost_rate=0.05),
    "mixed": FaultProfile(
        name="mixed", seed=1, error_rate=0.05, slow_rate=0.05, lost_rate=0.03
    ),
}


def fault_profile(spec: str) -> FaultProfile:
    """Resolve a profile spec ``name`` or ``name:seed`` from the registry."""
    name, _, seed_text = spec.partition(":")
    profile = PROFILES.get(name)
    if profile is None:
        known = ", ".join(sorted(PROFILES))
        raise ReproError(f"unknown fault profile {name!r} (known: {known})")
    if seed_text:
        try:
            profile = replace(profile, seed=int(seed_text))
        except ValueError:
            raise ReproError(f"bad fault profile seed {seed_text!r}") from None
    return profile
