"""Derived metrics: a run's counters beside the rollups of its trace.

A :class:`TraceSummary` is the queryable face of a trace — the run's
counters, per-operator rollups, the cluster-access heatmap and the retry
histogram — detached from the tracer that produced it (summaries are
plain data, safe to keep on :class:`~repro.engine.Result`).

There is one book of account: ``counters`` is ``result.stats.as_dict()``
for the same execution slice, not a second tally, so the two cannot
disagree.  The rollups are the independent source — they are built from
events, and e.g. the heatmap total must equal ``pages_read``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TraceSummary:
    """One run's ``Stats`` slice plus the rollups of one tracer.

    ``counters`` is per slice (it *is* the result's ``Stats``
    attribution); the operator/cluster/retry rollups are cumulative over
    the tracer's lifetime, like the tracer's plan-cache and batch tallies.
    """

    counters: dict[str, float] = field(default_factory=dict)
    operators: dict[str, dict[str, float]] = field(default_factory=dict)
    cluster_reads: dict[int, int] = field(default_factory=dict)
    retry_histogram: dict[int, int] = field(default_factory=dict)
    plan_cache: dict[str, int] = field(default_factory=dict)
    batches: dict[str, int] = field(default_factory=dict)
    plan_choices: dict[str, int] = field(default_factory=dict)
    events_recorded: int = 0
    events_dropped: int = 0

    def hottest_clusters(self, n: int = 10) -> list[tuple[int, int]]:
        """The ``n`` most-serviced pages, hottest first."""
        ranked = sorted(self.cluster_reads.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nonzero = {k: v for k, v in self.counters.items() if v}
        return (
            f"TraceSummary({len(nonzero)} live counters, "
            f"{len(self.operators)} operators, {self.events_recorded} events)"
        )


def format_metrics(summary: TraceSummary) -> str:
    """Render a summary as the text report behind the CLI's ``--metrics``."""
    lines: list[str] = []
    lines.append("-- trace metrics " + "-" * 43)
    live = {k: v for k, v in sorted(summary.counters.items()) if v}
    if live:
        lines.append("counters:")
        for name, value in live.items():
            shown = f"{value:.6f}".rstrip("0").rstrip(".") if isinstance(value, float) else str(value)
            lines.append(f"  {name:28s} {shown}")
    if summary.operators:
        lines.append("operators (opens/calls/out, busy simulated-s):")
        for name, roll in sorted(summary.operators.items()):
            lines.append(
                f"  {name:28s} {int(roll['opens']):4d} / {int(roll['calls']):7d} "
                f"/ {int(roll['out']):7d}   {roll['busy']:.4f}s"
            )
    hottest = summary.hottest_clusters()
    if hottest:
        heat = "  ".join(f"{page}:{count}" for page, count in hottest)
        lines.append(f"hottest clusters (page:reads): {heat}")
    if summary.retry_histogram:
        hist = "  ".join(
            f"{attempt}:{count}"
            for attempt, count in sorted(summary.retry_histogram.items())
        )
        lines.append(f"retry histogram (attempt:count): {hist}")
    if any(summary.plan_cache.values()):
        lines.append(
            f"plan cache: {summary.plan_cache.get('hits', 0)} hits, "
            f"{summary.plan_cache.get('misses', 0)} misses"
        )
    if summary.batches.get("batches"):
        lines.append(
            f"batches: {summary.batches['batches']} "
            f"(scan-shared {summary.batches['scan_shared']}, "
            f"interleaved {summary.batches['interleaved']})"
        )
    lines.append(
        f"events: {summary.events_recorded} recorded, "
        f"{summary.events_dropped} dropped from ring"
    )
    return "\n".join(lines)
