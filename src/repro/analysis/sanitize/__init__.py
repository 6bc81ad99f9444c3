"""reprosan: the runtime sanitizer for incremental maintenance.

Static analysis (:mod:`repro.analysis`) proves invariant *shapes* —
gated state stays behind its gate, no hash order leaks through helpers.
The sanitizer proves *values* at runtime: it re-derives them from
independent evidence while the engine runs and fails loudly on the
first disagreement.  One sanitizer is left:

* **mutation** — coherence of incremental maintenance: after each update
  operation the incrementally repaired synopsis/path-summary snapshots
  are diffed against a full recollection, the synopsis's memoised
  cluster bitsets against a recompute from its rows, and cached columnar
  views against ones rebuilt from the records.

The clock needs no sanitizer: it is monotone and on the time grid by
construction (:mod:`repro.sim.clock`), and the same inputs giving the
same books is what the golden draws check, twice per process under a
second hash seed (``python -m tests.golden --replay``).

``REPRO_SAN`` set to any non-empty value (``1``, ``mutation``) arms it.
Unset, the sanitizer costs nothing: its hook is one environment-dict
lookup per update, and simulated results and timings are bit-identical.

``REPRO_SAN_REPORT=<path>`` additionally appends one JSON line per
failure to ``<path>`` before raising, which CI uploads as an artifact.
"""

from __future__ import annotations

import json
import os
from typing import NoReturn


class SanitizerError(AssertionError):
    """A runtime invariant policed by the sanitizers was violated.

    Derives from :class:`AssertionError` deliberately: nothing in the
    engine catches it (engine error handling is scoped to
    :class:`~repro.errors.ReproError`), so a violation always surfaces.
    """


def fail(sanitizer: str, message: str) -> NoReturn:
    """Report one violation (to the artifact, if configured) and raise."""
    report = os.environ.get("REPRO_SAN_REPORT")
    if report:
        record = {"sanitizer": sanitizer, "message": message}
        try:
            with open(report, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")
        except OSError:
            pass  # the artifact is best-effort; the raise below is not
    raise SanitizerError(f"[reprosan:{sanitizer}] {message}")

