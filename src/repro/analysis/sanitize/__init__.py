"""reprosan: runtime sanitizers for the engine's accounting invariants.

Static analysis (:mod:`repro.analysis`) proves invariant *shapes* —
gated state stays behind its gate, no hash order leaks through helpers.
The sanitizers prove the *values* at runtime: they re-derive them
from independent evidence while the engine runs and fail loudly on the
first disagreement.  Three sanitizers:

* **charge** — at every operator yield the simulated clock must be
  monotonic and on the time grid.  Catches a priced counter booked
  backwards, or a duration created off the grid, at the exact yield
  where it first shows.  (CPU seconds need no audit: the
  clock reads them off the counters.)
* **determinism** — double execution: every cold :meth:`Database.execute
  <repro.engine.Database.execute>` is re-run on a private shadow runtime
  and diffed — value, nodes, every counter, the clock, and the trace
  event stream tick for tick.
* **mutation** — coherence of incremental maintenance: after each update
  operation the incrementally repaired synopsis/path-summary snapshots
  are diffed against a full recollection, the synopsis's memoised
  cluster bitsets against a recompute from its rows, and cached columnar
  views against ones rebuilt from the records.

Enable with the ``REPRO_SAN`` environment variable: ``1``/``all`` for
everything, or a comma list (``REPRO_SAN=charge,mutation``).  Unset, the
sanitizers cost nothing: no shadow structures are allocated, the hooks
reduce to one ``is None`` (or one environment-dict lookup per
execute/update), and simulated results and timings are bit-identical.

``REPRO_SAN_REPORT=<path>`` additionally appends one JSON line per
failure to ``<path>`` before raising, which CI uploads as an artifact.
"""

from __future__ import annotations

import json
import os
from typing import Any, NoReturn

ALL_MODES = frozenset({"charge", "determinism", "mutation"})


class SanitizerError(AssertionError):
    """A runtime invariant policed by the sanitizers was violated.

    Derives from :class:`AssertionError` deliberately: nothing in the
    engine catches it (engine error handling is scoped to
    :class:`~repro.errors.ReproError`), so a violation always surfaces.
    """


def modes() -> frozenset[str]:
    """The sanitizer modes requested by ``REPRO_SAN`` (empty when off).

    Read per call rather than cached at import, so tests can flip the
    variable with ``monkeypatch.setenv`` without reloading modules.
    """
    raw = os.environ.get("REPRO_SAN", "").strip().lower()
    if not raw:
        return frozenset()
    if raw in ("1", "all", "on", "true"):
        return ALL_MODES
    requested = frozenset(part.strip() for part in raw.split(",") if part.strip())
    unknown = requested - ALL_MODES
    if unknown:
        raise SanitizerError(
            f"unknown REPRO_SAN mode(s): {', '.join(sorted(unknown))} "
            f"(valid: {', '.join(sorted(ALL_MODES))}, or 1/all)"
        )
    return requested


def enabled(mode: str) -> bool:
    return mode in modes()


def fail(sanitizer: str, message: str, details: dict[str, Any] | None = None) -> NoReturn:
    """Report one violation (to the artifact, if configured) and raise."""
    report = os.environ.get("REPRO_SAN_REPORT")
    if report:
        record: dict[str, Any] = {"sanitizer": sanitizer, "message": message}
        if details:
            record["details"] = details
        try:
            with open(report, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True, default=str))
                handle.write("\n")
        except OSError:
            pass  # the artifact is best-effort; the raise below is not
    raise SanitizerError(f"[reprosan:{sanitizer}] {message}")


def install(ctx: Any) -> None:
    """Attach the per-context sanitizers to a freshly built runtime.

    Called by :meth:`ExecutionEnvironment.fresh_context
    <repro.exec.environment.ExecutionEnvironment.fresh_context>` when
    ``REPRO_SAN`` requests any mode.  Only the charge sanitizer lives on
    the context (``ctx.san``, checked at every operator yield); the
    determinism and mutation sanitizers hook their own sites and consult
    :func:`enabled` there.
    """
    if "charge" in modes():
        from repro.analysis.sanitize.charge import ChargeSanitizer

        ctx.san = ChargeSanitizer(ctx)
