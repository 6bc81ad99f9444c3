"""Reading ledger runs: medians and quartiles over run sets, the row a run
leaves in ``ledger.jsonl``, and the comparison of two runs.

A run (``run.py --out``) is ``{"commit", "seed", "seconds", "attempted",
"failed", "sets": [{workload: {metric: value}}], "per_layer": {workload:
{metric: value}}}``; ``--repeat N`` makes N sets.
"""

from __future__ import annotations

import json
import math
import statistics

#: deterministic for a given commit and seed: any difference is a change
#: of the modelled physics, whatever the bound says
EXACT_END_TO_END = ("sim_total_s",)


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(median, first quartile, third quartile)``; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    median, q1, q3 = summary(values)
    return (q3 - q1) / median if median else 0.0


def column(run: dict, workload: str, metric: str) -> list[float]:
    return [row[workload][metric] for row in run["sets"]]


def print_run(run: dict, spec: dict) -> None:
    sets = len(run["sets"])
    print(f"\nend to end, seed {run['seed']}, {sets} run set(s): median [q1 .. q3]")
    for workload in run["per_layer"]:
        print(f"  {workload}")
        for metric in spec["end_to_end"]:
            median, q1, q3 = summary(column(run, workload, metric["name"]))
            print(
                f"    {metric['name']:20s} {median:14.4f} [{q1:.4f} .. {q3:.4f}] "
                f"{metric['unit']:6s} bound {metric['bound']:.2f} samples={sets}"
            )


def ledger_row(run: dict, spec: dict) -> dict:
    """One line of ``ledger.jsonl``: medians end to end, every per-layer
    number, and the host's calibration so rows from different machines
    can be told apart."""
    workloads = {}
    for workload, layers in run["per_layer"].items():
        workloads[workload] = {
            "end_to_end": {
                m["name"]: summary(column(run, workload, m["name"]))[0]
                for m in spec["end_to_end"]
            },
            "per_layer": layers,
        }
    return {
        "commit": run["commit"],
        "seed": run["seed"],
        "seconds": run["seconds"],
        "sets": len(run["sets"]),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "workloads": workloads,
    }


def verdict(a: list[float], b: list[float], metric: dict) -> tuple[str, float]:
    """``(verdict, worse_by)`` for one metric on one workload.

    ``worse_by`` is how much worse B's median is than A's as a share of
    A's (negative when better).  ``unresolved`` when the run-to-run spread
    of either side exceeds the bound, unless every run of B beats every
    run of A; ``better`` needs the medians to differ by more than A's own
    spread (by more than the bound when A is a single run).
    """
    sign = 1.0 if metric["better"] == "lower" else -1.0
    median_a, median_b = summary(a)[0], summary(b)[0]
    worse_by = sign * (median_b - median_a) / median_a if median_a else 0.0
    if metric["name"] in EXACT_END_TO_END:
        # equal to the last float digits of a warm session's growing clock
        if math.isclose(median_a, median_b, rel_tol=1e-9):
            return "same", 0.0
        return ("worse" if worse_by > 0 else "better"), worse_by
    clean_win = (
        max(sign * x for x in b) < min(sign * x for x in a) and len(a) > 1 and len(b) > 1
    )
    if clean_win:
        return "better", worse_by
    if max(spread(a), spread(b)) > metric["bound"]:
        return "unresolved", worse_by
    if worse_by > metric["bound"]:
        return "worse", worse_by
    if -worse_by > (spread(a) if len(a) > 1 else metric["bound"]):
        return "better", worse_by
    return "same", worse_by


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Print A against B; exit status 1 if any metric is ``worse``."""
    with open(path_a, encoding="utf-8") as inp:
        run_a = json.load(inp)
    with open(path_b, encoding="utf-8") as inp:
        run_b = json.load(inp)
    print(f"A = {path_a} ({run_a['commit']}, seed {run_a['seed']}, {len(run_a['sets'])} sets)")
    print(f"B = {path_b} ({run_b['commit']}, seed {run_b['seed']}, {len(run_b['sets'])} sets)")
    if (run_a["seed"], run_a["seconds"]) != (run_b["seed"], run_b["seconds"]):
        print("note: seeds or run lengths differ; exact numbers are not comparable")
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    worse = 0
    for workload in run_a["per_layer"]:
        print(f"\n{workload}")
        for metric in spec["end_to_end"]:
            a = column(run_a, workload, metric["name"])
            b = column(run_b, workload, metric["name"])
            word, worse_by = verdict(a, b, metric)
            worse += word == "worse"
            sign = 1.0 if metric["better"] == "lower" else -1.0
            print(
                f"  {metric['name']:20s} A {summary(a)[0]:12.4f}  B {summary(b)[0]:12.4f} "
                f"{metric['unit']:4s} B-A {sign * worse_by:+8.2%} of A ({metric['better']} is better, "
                f"bound {metric['bound']:.0%}, spread A {spread(a):.1%} B {spread(b):.1%})  {word}"
            )
        layers_a, layers_b = run_a["per_layer"][workload], run_b["per_layer"][workload]
        moved = [n for n in exact if layers_a.get(n) != layers_b.get(n)]
        for name in moved:
            print(f"  exact counter moved: {name}: A {layers_a.get(name)}  B {layers_b.get(name)}")
        if not moved:
            print(f"  all {len(exact)} exact counters identical")
    return 1 if worse else 0
