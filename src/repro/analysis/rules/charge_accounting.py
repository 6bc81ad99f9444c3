"""Rule ``charge-accounting``: every I/O path charges exactly once.

The budget/accounting contract (PR 3's double-charge incident, now a
lint error): a logical page request charges ``Stats.pages_requested``
and the simulated clock exactly once, however many layers the request
crosses — and the layered entry points (``AsyncIOSystem.request`` /
``read_sync``, ``BufferManager.fix``, ``DiskDevice.submit``) must keep
charging their contracted counters on *some* path, or the budget meter
silently under-counts.

Four interprocedural checks over the project call graph:

* **double charge** — a function that charges a *charge-once* field
  ``F`` directly must not also reach a callee that charges ``F``: the
  caller's increment plus the callee's is the PR 3 bug shape.  The
  check covers the physical I/O event counters only: each such event
  (a logical read, a disk submission, a buffer hit) has exactly one
  owning charge site.  CPU-work counters (``node_tests``, ``merges``,
  ``instances_created``...) are charged per occurrence at many sites by
  design — the kernels charge runs of them in one multiply while their
  fallback branches charge through the ``charge_*`` helpers — so they
  are exempt here; the totals the kernels book are pinned with ``==`` by
  the golden draws (``tests/golden.py``).
* **missed charge** (entry-point completeness) — the contracted entry
  points must charge their counter sets directly or transitively.
* **charge pairing** — a direct ``buffer_misses`` charge implies a
  reachable ``pages_requested`` charge (a miss that never requests the
  page is an accounting hole), and a direct ``pages_requested`` charge
  implies simulated-clock movement (a logical read is never free).
* **dead field** — every ``Stats`` field must be charged somewhere in
  the linted tree: a counter nothing increments is dead weight every
  result still faithfully reports as zero (usually a refactor left it
  behind).  Only fires when the linted tree actually contains charge
  sites (linting a lone file must not declare every field dead).
"""

from __future__ import annotations

import ast

from repro.analysis.config import ReplintConfig
from repro.analysis.core import Finding, ProjectRule
from repro.analysis.project import ProjectIndex

#: entry point qualname -> Stats fields it must charge on some path
ENTRY_REQUIREMENTS: dict[str, frozenset[str]] = {
    "sim/iosys.py::AsyncIOSystem.request": frozenset(
        {"async_requests", "pages_requested"}
    ),
    "sim/iosys.py::AsyncIOSystem.read_sync": frozenset({"sync_requests"}),
    "storage/buffer.py::BufferManager.fix": frozenset(
        {"swizzles", "pages_requested"}
    ),
    "sim/disk.py::DiskDevice.submit": frozenset({"io_requests"}),
}

#: direct charge of key implies a direct-or-transitive charge of value
FIELD_PAIRINGS: dict[str, str] = {
    "buffer_misses": "pages_requested",
}

#: fields whose direct charge implies the function moves simulated time
CLOCK_CHARGED_FIELDS: frozenset[str] = frozenset({"pages_requested"})

#: physical I/O event counters with exactly one owning charge per event
CHARGE_ONCE_FIELDS: frozenset[str] = frozenset(
    {
        "pages_requested",
        "pages_read",
        "io_requests",
        "sync_requests",
        "async_requests",
        "buffer_hits",
        "buffer_misses",
        "swizzles",
        "unswizzles",
        "evictions",
        "seeks",
        "seek_distance",
        "sequential_reads",
        "retries",
        "timeouts",
        "io_errors",
        "lost_requests",
    }
)


class ChargeAccountingRule(ProjectRule):
    id = "charge-accounting"
    description = (
        "I/O entry points charge Stats and the clock exactly once per logical event"
    )

    def check_project(
        self, index: ProjectIndex, config: ReplintConfig
    ) -> list[Finding]:
        findings: list[Finding] = []
        charged_anywhere: set[str] = set()
        for qualname in sorted(index.functions):
            info = index.functions[qualname]
            if not info.charges:
                continue
            charged_anywhere.update(info.charges)
            transitive = index.transitive_charges(qualname)
            for field_name in sorted(info.charges):
                if field_name not in CHARGE_ONCE_FIELDS:
                    continue
                witness = transitive.get(field_name)
                if witness is not None:
                    chain = " -> ".join(index.call_chain(qualname, witness))
                    for node in info.charges[field_name]:
                        findings.append(
                            self.finding(
                                info.src,
                                node,
                                f"stats.{field_name} is charged here and again "
                                f"by callee {witness!r} ({chain}): one logical "
                                "event must charge exactly once",
                            )
                        )
            for field_name, implied in FIELD_PAIRINGS.items():
                if field_name not in info.charges:
                    continue
                if implied in info.charges or implied in transitive:
                    continue
                findings.append(
                    self.finding(
                        info.src,
                        info.charges[field_name][0],
                        f"stats.{field_name} is charged but no path from here "
                        f"charges stats.{implied}; the paired accounting is "
                        "incomplete",
                    )
                )
            clock_fields = CLOCK_CHARGED_FIELDS & set(info.charges)
            if clock_fields and not info.clock_charges and not index.transitive_clock(
                qualname
            ):
                field_name = sorted(clock_fields)[0]
                findings.append(
                    self.finding(
                        info.src,
                        info.charges[field_name][0],
                        f"stats.{field_name} is charged but neither this "
                        "function nor any callee moves the simulated clock; a "
                        "logical read is never free",
                    )
                )
        for qualname, required in ENTRY_REQUIREMENTS.items():
            info = index.functions.get(qualname)
            if info is None:
                continue  # tree under lint does not contain the entry point
            charged = set(info.charges) | set(index.transitive_charges(qualname))
            missing = required - charged
            if missing:
                missing_list = ", ".join(sorted(missing))
                findings.append(
                    self.finding(
                        info.src,
                        info.node,
                        f"entry point {qualname.split('::')[1]} no longer "
                        f"charges {missing_list} on any path (missed charge)",
                    )
                )
        if charged_anywhere:
            findings.extend(self._dead_fields(index, config, charged_anywhere))
        return findings

    def _dead_fields(
        self, index: ProjectIndex, config: ReplintConfig, charged: set[str]
    ) -> list[Finding]:
        stats_src = next(
            (src for src in index.sources if src.relpath == "sim/stats.py"), None
        )
        if stats_src is None:
            return []
        findings: list[Finding] = []
        for node in ast.walk(stats_src.tree):
            if not isinstance(node, ast.ClassDef) or node.name != "Stats":
                continue
            for item in node.body:
                if (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and item.target.id in config.stats_fields
                    and item.target.id not in charged
                ):
                    findings.append(
                        self.finding(
                            stats_src,
                            item,
                            f"Stats.{item.target.id} is never charged anywhere "
                            "in the linted tree; remove the dead counter or "
                            "restore its charge site",
                        )
                    )
        return findings
