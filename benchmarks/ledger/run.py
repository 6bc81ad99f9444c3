#!/usr/bin/env python3
"""Perf ledger: one command, four workloads, two clocks, per-layer attribution.

One workload, as the benchmark driver runs it (the last line of standard
output is the JSON result)::

    python3 benchmarks/ledger/run.py --workload nav_cold --seed 1 --seconds 12 --trace 0

Every workload, untraced and traced, each in a fresh process::

    python3 benchmarks/ledger/run.py --seed 1 --out A.json [--repeat 3]
    python3 benchmarks/ledger/run.py --compare A.json B.json
    python3 benchmarks/ledger/run.py --smoke

See README.md beside this file for the workloads, the metrics and which
layer metric is expected to move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# the ledger's own modules, and the program of this checkout (not an installed one)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import probe  # noqa: E402
import report  # noqa: E402

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
FINGERPRINTS_PATH = os.path.join(HERE, "fingerprints.json")
SCRATCH_ROOT = os.path.join(ROOT, ".ledger_scratch")

SETUP_REPEATS = 3
WARMUP_ROUNDS = 5
#: a host whose calibration loop drifts by more than this between the start
#: and the end of a workload was doing something else: the run is marked noisy
NOISY_DRIFT = 0.10


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as inp:
        return json.load(inp)


def require_program() -> None:
    """The ledger is useless without the program it measures."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"ledger: no program to measure: {ROOT}/src/repro is missing")


# ------------------------------------------------------------ one workload


def load_fingerprints() -> dict:
    with open(FINGERPRINTS_PATH, encoding="utf-8") as inp:
        return json.load(inp)


def pin_fingerprint(workload) -> None:
    pinned = load_fingerprints()
    pinned[workload.name] = workload.fingerprint()
    with open(FINGERPRINTS_PATH, "w", encoding="utf-8") as out:
        json.dump(pinned, out, indent=1, sort_keys=True)
        out.write("\n")


def check_fingerprint(workload) -> None:
    found = workload.fingerprint()
    want = load_fingerprints()[workload.name]
    # the page count belongs to the program's storage format, not to the
    # input: it is recorded, and a change is shown, but only the logical
    # input and the request sequence decide whether this is the same workload
    moved = [k for k in ("nodes", "tags_sha", "requests_sha") if found[k] != want[k]]
    if moved:
        raise probe.Drifted(f"workload drifted: {moved} pinned {want}, generated {found}")
    if found["pages"] != want["pages"]:
        print(f"# note: {found['pages']} pages, {want['pages']} when the input was pinned")


def measure(cls, args, seconds: float, scratch: str):
    """Set up, warm up and measure one workload: ``(values, tally)`` with
    ``values`` as ``{metric: (value, samples)}``."""
    quick = args.smoke
    speed = probe.HostSpeed()
    setup_s, workload = [], None
    try:
        for index in range(1 if quick else SETUP_REPEATS):
            if workload is not None:
                workload.close()
                workload = None  # the previous store goes before the next is built
            directory = os.path.join(scratch, f"setup{index}")
            os.mkdir(directory)
            workload, raw, setup_factor = speed.timed(lambda: cls(args.seed, directory))
            setup_s.append(raw * setup_factor)
        check_fingerprint(workload)
        workload.build_oracle()

        off = probe.NoSpans()
        for _ in range(2 if quick else WARMUP_ROUNDS):
            rnd = workload.run_round(off)
        # The store, the logical tree and the oracle's answers are millions
        # of objects that cannot become garbage while the rounds run.  Left
        # in the oldest generation they are re-scanned by every full
        # collection, which adds ~70 ms to every second or third round of
        # scan_lowsel and makes the median round flip between two values.
        # Frozen, they are skipped; collection stays enabled and the
        # requests' own garbage is collected as usual.
        gc.collect()
        gc.freeze()
        tally = probe.Tally(rnd.exact())

        if args.trace:
            import traced

            spans = probe.Spans()
            values, checked, failed = traced.traced_run(
                workload, spans, speed, setup_factor, seconds, quick, tally, scratch
            )
            if args.trace_out:
                spans.write(args.trace_out)
        else:
            timed = probe.timed_rounds(workload, off, speed, seconds, 2, tally)
            requests = tally.attempted
            values = {
                "setup_s": (probe.p50(setup_s), len(setup_s)),
                "host_ops_per_s": (requests / (sum(timed.ms) / 1e3), requests),
                "host_round_ms_p50": (probe.p50(timed.ms), len(timed.ms)),
                "sim_total_s": (tally.reference["sim_total"], "exact"),
            }
            print(
                f"# as read off the host clock: {requests / (sum(timed.raw_ms) / 1e3):.3f} 1/s, "
                f"round p50 {probe.p50(timed.raw_ms):.3f} ms, "
                f"calibration loop p50 {probe.p50(speed.samples):.3f} ms "
                f"(reference {probe.CALIB_REFERENCE_MS} ms)"
            )
            checked, failed, _ = workload.finish(speed, 1)
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values["peak_rss_mb"] = (rss_kib / 1024, 1)
        tally.attempted += checked
        tally.failed += failed
    finally:
        if workload is not None:
            workload.close()

    # the loop's first readings were taken around the set-ups, its last
    # around the final rounds and checks
    drift = probe.p50(speed.samples[-5:]) / probe.p50(speed.samples[:5]) - 1.0
    if args.trace:
        values["host.calib_loop_ms"] = (probe.p50(speed.samples), len(speed.samples))
        values["host.calib_drift"] = (drift, 10)
    if abs(drift) > NOISY_DRIFT:
        print(f"# noisy: the calibration loop drifted {drift:+.1%} during this run")
    return values, tally


def run_workload(args, spec: dict) -> int:
    require_program()
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{cls.name}-", dir=SCRATCH_ROOT)
    seconds = 0.0 if args.smoke else args.seconds
    try:
        if args.pin:
            workload = cls(args.seed, scratch)
            pin_fingerprint(workload)
            workload.close()
            return 0
        values, tally = measure(cls, args, seconds, scratch)
    except probe.Drifted as error:
        sys.exit(f"ledger: {cls.name}: {error}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}
    unknown = sorted(set(values) - set(units))
    if unknown:
        sys.exit(f"ledger: {cls.name}: metrics not in BENCHMARK.json: {unknown}")
    for name in units:
        # a layer this workload never calls from outside reads 0
        values.setdefault(name, (0.0, "n/a"))
    print(f"# {cls.name} seed={args.seed} seconds={seconds} trace={args.trace}")
    for name, (value, samples) in values.items():
        print(f"# {name:48s} {value:16.6f} {units[name]:10s} samples={samples}")
    correct = tally.failed == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, (value, _) in values.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


# ------------------------------------------------------------ all workloads


def run_child(workload: str, args, trace: int) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    if trace and args.trace_out:
        command += ["--trace-out", f"{args.trace_out}.{workload}.jsonl"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"ledger: {workload} trace={trace} exited with {done.returncode} and no result")
    result = json.loads(lines[-1])
    result["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
    return result


def run_all(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    jobs = [(name, 1) for name in names]
    jobs += [(name, 0) for _ in range(args.repeat) for name in names]
    # one child at a time, so that nothing else competes for the two cores;
    # a smoke run times nothing worth keeping and may use both
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        results = list(pool.map(lambda job: run_child(job[0], args, job[1]), jobs))
    per_layer = {name: result["metrics"] for name, result in zip(names, results)}
    sets = [
        {name: result["metrics"] for name, result in zip(names, results[start : start + len(names)])}
        for start in range(len(names), len(results), len(names))
    ]
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    run = {
        "commit": args.commit,
        "seed": args.seed,
        "seconds": 0 if args.smoke else args.seconds,
        "attempted": attempted,
        "failed": failed,
        "sets": sets,
        "per_layer": per_layer,
    }
    report.print_run(run, spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(run, out, indent=1)
            out.write("\n")
    if args.append:
        with open(args.append, "a", encoding="utf-8") as out:
            out.write(json.dumps(report.ledger_row(run, spec)) + "\n")
    print(f"failed_share = {failed} / {attempted}")
    return 0 if failed == 0 else 1


def main(argv: list[str]) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the traced run's spans here as JSONL")
    parser.add_argument("--smoke", action="store_true", help="two rounds per workload")
    parser.add_argument("--pin", action="store_true", help="record the input fingerprint and stop")
    parser.add_argument("--repeat", type=int, default=1, help="untraced run sets (all workloads)")
    parser.add_argument("--out", help="write the run here as JSON (all workloads)")
    parser.add_argument("--append", help="append the run's ledger row to this JSONL file")
    parser.add_argument("--commit", default="unknown", help="what the ledger row calls this run")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return report.compare(*args.compare, spec)
    if args.workload:
        return run_workload(args, spec)
    require_program()
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
