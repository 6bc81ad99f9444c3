"""Measurement tools of the perf ledger: host-speed calibration, the timed
round loop, spans recorded from outside the program, and cProfile self time
grouped by layer.

Nothing here imports ``repro``: the tools only time calls the workloads
make through the public API.
"""

from __future__ import annotations

import cProfile
import json
import math
import pstats
import statistics
import time
from contextlib import contextmanager, nullcontext

#: source file (relative to ``src/repro/``) -> layer that owns its self time;
#: a directory prefix covers every file below it that has no entry of its own
LAYER_OF_FILE = {
    "xpath/": "xpath",
    "exec/": "exec",
    "engine.py": "engine",
    "algebra/xstep.py": "algebra.xstep",
    "algebra/xassembly.py": "algebra.xassembly",
    "algebra/xschedule.py": "algebra.xschedule",
    "algebra/xscan.py": "algebra.xscan",
    "algebra/multiscan.py": "algebra.xscan",
    "algebra/unnestmap.py": "algebra.unnestmap",
    "algebra/fullnav.py": "algebra.unnestmap",
    "algebra/context.py": "algebra.context",
    "algebra/": "algebra.base",
    "storage/buffer.py": "storage.buffer",
    "storage/colview.py": "storage.colview",
    "storage/synopsis.py": "storage.synopsis",
    "storage/pathsummary.py": "storage.synopsis",
    "storage/wal.py": "storage.wal",
    "storage/persist.py": "storage.wal",
    "storage/update.py": "storage.update",
    "storage/": "storage.other",
    "sim/disk.py": "sim.disk",
    "sim/iosys.py": "sim.iosys",
    "sim/faults.py": "sim.iosys",
    "sim/": "sim.clock",
    "obs/": "obs",
}

#: every layer a ``<layer>.host_self_share`` metric is reported for;
#: ``other`` is the ledger itself, the standard library and built-ins
SHARE_LAYERS = tuple(dict.fromkeys(LAYER_OF_FILE.values())) + ("other",)


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    """90th percentile; the maximum while fewer than ten samples exist."""
    if len(values) < 10:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=10)[8]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


#: host times are reported at the host speed at which :func:`calibration_ms`
#: reads this much: a round number near what the reference box (2 cores)
#: reads while it runs at full speed
CALIB_REFERENCE_MS = 1.6


class _Item:
    __slots__ = ("key", "weight", "tags")

    def __init__(self, key: int, weight: int, tags: tuple) -> None:
        self.key = key
        self.weight = weight
        self.tags = tags

    def score(self) -> int:
        return self.weight * len(self.tags) + (self.key & 7)


def _scored(items):
    for item in items:
        if item.weight % 3:
            yield item.key, item.score()


def calibration_ms() -> float:
    """Host milliseconds of a fixed piece of ordinary Python.

    The same code on the same interpreter executes the same bytecodes, so
    what it reads is the speed of the host at this moment, not of the
    program.  The reference box changes speed by 25% and more for seconds
    or minutes at a time, and not by the same amount for all code: a
    tight arithmetic loop slowed less than the engine did (scaled by one,
    12 s medians of one workload still ranged 14-21% over five minutes;
    scaled by this, 8-18% with quartiles 2-4% apart).  So the yardstick
    does what the engine does: objects with slots, method calls, a
    generator, dict and set traffic, string formatting, sorting, an
    exception.
    """
    start = time.perf_counter()
    items = [_Item(i * 7919 % 1009, i % 13, ("a", "b", "c")[: i % 4]) for i in range(2400)]
    table: dict[int, int] = {}
    for key, score in _scored(items):
        table[key] = table.get(key, 0) + score
    names = sorted(f"n{key:04d}" for key in table)
    seen = {name[:3] for name in names if name[-1] in "02468"}
    total = sum(table.values()) + len(seen) + len("".join(names[:50]))
    ranked = sorted(items, key=_Item.score)
    try:
        ranked[total % 7].missing
    except AttributeError:
        total += 1
    return (time.perf_counter() - start) * 1e3


class HostSpeed:
    """Converts host time to time at the reference host speed.

    ``factor()`` runs the calibration loop once; a duration measured
    between two calls is multiplied by the mean of their factors.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def factor(self) -> float:
        ms = calibration_ms()
        self.samples.append(ms)
        return CALIB_REFERENCE_MS / ms

    def timed(self, call) -> tuple[object, float, float]:
        """``(call(), host seconds, mean factor around the call)``."""
        before = self.factor()
        start = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - start
        return result, seconds, (before + self.factor()) / 2

    def seconds(self, call) -> float:
        """Seconds one ``call()`` takes at the reference host speed."""
        _, raw, factor = self.timed(call)
        return raw * factor

    def each_ms(self, call, count: int) -> list[float]:
        """Milliseconds of each of ``count`` calls, all scaled by the factor
        around the batch (the calls are too short to calibrate one by one)."""

        def batch() -> list[float]:
            out = []
            for _ in range(count):
                start = time.perf_counter()
                call()
                out.append((time.perf_counter() - start) * 1e3)
            return out

        samples, _, factor = self.timed(batch)
        return [ms * factor for ms in samples]


class Drifted(Exception):
    """The generated input, or a round's exact numbers, changed."""


class Tally:
    """Requests attempted and failed; every round must repeat the reference
    round's exact numbers."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def add(self, rnd) -> None:
        self.attempted += rnd.requests
        self.failed += rnd.failed
        exact = rnd.exact()
        if exact == self.reference:
            return
        # counters are integers and must be equal; a simulated time read off
        # a warm session's long-lived clock is a difference of two growing
        # floats, so it repeats to ~1e-11 rather than to the bit
        moved = sorted(
            key
            for key in exact.keys() | self.reference.keys()
            if not math.isclose(exact.get(key, 0), self.reference.get(key, 0), rel_tol=1e-9)
        )
        if moved:
            raise Drifted(f"a round did not repeat the warm-up round: {moved}")


class Timed:
    """Host time of a run of rounds, per round: as read off the clock, the
    host-speed factor, and their product (time at reference host speed)."""

    def __init__(self) -> None:
        self.raw_ms: list[float] = []
        self.factors: list[float] = []
        self.ms: list[float] = []


def timed_rounds(
    workload, spans, speed: HostSpeed | None, seconds: float, min_rounds: int, tally: Tally
):
    """Run rounds until ``seconds`` of host time have passed.

    The calibration loop runs between rounds, outside the timed region;
    each round is scaled by the mean of the factors before and after it.
    Without a ``speed`` the rounds are left as read (factor 1).
    """
    timed = Timed()
    begin = time.perf_counter()
    before = speed.factor() if speed else 1.0
    while True:
        spans.round_id = len(timed.raw_ms)
        start = time.perf_counter()
        rnd = workload.run_round(spans)
        end = time.perf_counter()
        after = speed.factor() if speed else 1.0
        factor = (before + after) / 2
        timed.raw_ms.append((end - start) * 1e3)
        timed.factors.append(factor)
        timed.ms.append((end - start) * 1e3 * factor)
        before = after
        tally.add(rnd)
        if end - begin >= seconds and len(timed.raw_ms) >= min_rounds:
            return timed


class Spans:
    """In-memory span recorder; ``write`` dumps JSONL when the run ends.

    A span is ``(name, start, end, parent, round, request)`` where
    ``parent`` is the index of the enclosing span or None: spans without
    a parent are the top-level pieces of a round.
    """

    decompose = True

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.round_id = 0
        self.request_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.rows)
        parent = self._stack[-1] if self._stack else None
        self.rows.append(())
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.rows[index] = (name, start, end, parent, self.round_id, self.request_id)

    def durations_ms(self, name: str, factors: list[float]) -> list[float]:
        """Every ``name`` span, scaled by the host-speed factor of its round."""
        return [(r[2] - r[1]) * 1e3 * factors[r[4]] for r in self.rows if r[0] == name]

    def top_level_ms_by_round(self, factors: list[float]) -> list[float]:
        """Sum of the parentless spans of each round, scaled likewise."""
        by_round = [0.0] * len(factors)
        for _, start, end, parent, round_id, _ in self.rows:
            if parent is None:
                by_round[round_id] += (end - start) * 1e3 * factors[round_id]
        return by_round

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "round", "request")
        with open(path, "w", encoding="utf-8") as out:
            for row in self.rows:
                out.write(json.dumps(dict(zip(keys, row))) + "\n")


class NoSpans:
    """The untraced stand-in: requests run through the session as a user
    would run them and nothing is recorded."""

    decompose = False
    round_id = 0
    request_id = 0

    def span(self, name: str):
        return nullcontext()


def layer_of(filename: str) -> str:
    marker = "/src/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return "other"
    relative = filename[at + len(marker):]
    if relative in LAYER_OF_FILE:
        return LAYER_OF_FILE[relative]
    return LAYER_OF_FILE.get(relative.split("/")[0] + "/", "other")


def profile_self_shares(run_rounds, speed: HostSpeed) -> tuple[dict[str, float], list[float]]:
    """Run ``run_rounds()`` under cProfile: self time share per layer, and
    the rounds' milliseconds at reference host speed.

    ``run_rounds`` returns :class:`Timed` rounds taken without a
    ``HostSpeed``: the profiler slows the calibration loop by half (it
    turns off the interpreter's specialised bytecode), so host speed is
    read once before and once after profiling instead of between rounds.
    """
    profiler = cProfile.Profile()
    before = speed.factor()
    profiler.enable()
    try:
        timed = run_rounds()
    finally:
        profiler.disable()
    factor = (before + speed.factor()) / 2
    self_time = dict.fromkeys(SHARE_LAYERS, 0.0)
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profiler).stats.items():
        self_time[layer_of(filename)] += tottime
    total = sum(self_time.values())
    shares = {layer: ratio(t, total) for layer, t in self_time.items()}
    return shares, [raw * factor for raw in timed.raw_ms]
