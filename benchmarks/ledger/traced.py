"""The traced run: every per-layer metric of one workload.

``--seconds`` is divided between four kinds of rounds (``PHASES``); around
them the set-up layers and a few single calls are timed through their
public entry points.  Every host time is scaled to the reference host
speed (see ``probe.HostSpeed``), so phases that ran minutes apart on a
host that changes speed can be divided by one another.
"""

from __future__ import annotations

import gc
import os

from probe import NoSpans, Tally, p50, p90, profile_self_shares, ratio, timed_rounds
from repro import Database, Tracer
from repro.xml import parse_into
from workloads import BUFFER_PAGES, COUNTER_METRICS, DOC, PAGE_SIZE

#: plain rounds (the exact counters, and the round time the other phases are
#: compared with), rounds decomposed into spans, rounds under cProfile,
#: rounds with the program's ``Tracer`` attached
PHASES = {"plain": 0.35, "spans": 0.30, "profile": 0.20, "tracer": 0.15}
RECOVER_REPEATS = 5


def traced_run(workload, spans, speed, setup_factor, seconds, quick, tally: Tally, scratch):
    """``({metric: (value, samples)}, checks made after the rounds, checks failed)``."""
    off = NoSpans()
    db = workload.db
    nodes = workload.document.n_nodes
    repeats = 2 if quick else 5
    v: dict[str, tuple[float, object]] = {}

    # -- set-up layers, each through its public call
    v["xmark.generate_s"] = (workload.generate_s * setup_factor, 1)
    v["storage.importer.import_s"] = (workload.import_s * setup_factor, 1)
    v["storage.importer.nodes_per_s"] = (nodes / (workload.import_s * setup_factor), 1)
    v["storage.importer.pages"] = (workload.document.n_pages, "exact")
    image = os.path.join(scratch, "probe.rpro")
    v["storage.persist.save_s"] = (speed.seconds(lambda: db.save(image)), 1)
    v["storage.persist.load_s"] = (
        speed.seconds(lambda: Database.load(image, buffer_pages=BUFFER_PAGES)),
        1,
    )
    v["storage.persist.bytes_per_node"] = (os.path.getsize(image) / nodes, "exact")
    text, _ = db.export_xml(DOC)
    builder = Database(page_size=PAGE_SIZE).builder()
    v["xml.parse_s"] = (speed.seconds(lambda: parse_into(text, builder)), 1)
    del text, builder

    # -- plain rounds: exact counters, and the round time to compare with
    plain = timed_rounds(workload, off, speed, seconds * PHASES["plain"], 2, tally)
    plain_ms = p50(plain.ms)
    exact = tally.reference

    def stat(field: str) -> float:
        return exact[f"stats.{field}"]

    def count(name: str) -> float:
        return exact.get(f"counts.{name}", 0)

    for field, metric in COUNTER_METRICS.items():
        v[metric] = (stat(field), "exact")
    hits, misses = stat("buffer_hits"), stat("buffer_misses")
    cache_hits, cache_misses = count("cache_hits"), count("cache_misses")
    for metric, value in (
        ("sim.disk.sequential_share", ratio(stat("sequential_reads"), stat("pages_read"))),
        ("sim.clock.sim_cpu_s", exact["sim_cpu"]),
        ("sim.clock.sim_io_wait_s", exact["sim_io_wait"]),
        ("sim.clock.cpu_fraction", ratio(exact["sim_cpu"], exact["sim_total"])),
        ("storage.buffer.hit_rate", ratio(hits, hits + misses)),
        ("algebra.speculation_useful_ratio", ratio(stat("merges"), stat("speculative_instances"))),
        ("xpath.auto_simple", count("simple")),
        ("xpath.auto_xschedule", count("xschedule")),
        ("xpath.auto_xscan", count("xscan") + count("xscan-shared")),
        ("exec.session.plan_cache_hit_rate", ratio(cache_hits, cache_hits + cache_misses)),
        ("exec.session.compiles", count("compiles")),
        ("exec.session.replans", count("replans")),
        ("exec.batch.scan_shared", count("scan_shared")),
        ("exec.batch.interleaved", count("interleaved")),
    ):
        v[metric] = (value, "exact")
    v["engine.round_ms_p90"] = (p90(plain.ms), len(plain.ms))
    v["engine.round_samples"] = (len(plain.ms), len(plain.ms))
    v["host.raw_round_ms_p50"] = (p50(plain.raw_ms), len(plain.raw_ms))

    # -- the same rounds decomposed into spans at the public boundaries
    factors = timed_rounds(workload, spans, speed, seconds * PHASES["spans"], 2, tally).factors
    top_ms = spans.top_level_ms_by_round(factors)
    coverage = ratio(p50(top_ms), plain_ms)
    v["engine.span_coverage_ratio"] = (coverage, len(top_ms))
    if abs(coverage - 1.0) > 0.10:
        print(f"# note: top-level spans cover {coverage:.0%} of an untraced round")
    for metric, name in (
        ("algebra.execute_ms_p50", "CompiledQuery.execute"),
        ("engine.result_ms_p50", "Result.from_context"),
        ("exec.batch.run_batch_ms_p50", "run_batch"),
        ("storage.wal.append_ms_p50", "session.delete"),
    ):
        samples = spans.durations_ms(name, factors)
        v[metric] = (p50(samples), len(samples))
    execute_ms = spans.durations_ms("CompiledQuery.execute", factors)
    primitives = stat("intra_hops") + stat("node_tests") + stat("instances_created")
    v["algebra.host_us_per_prim"] = (
        ratio(sum(execute_ms) * 1e3, primitives * len(top_ms)),
        len(execute_ms),
    )
    v["xpath.compile_share"] = (
        ratio(sum(spans.durations_ms("session.prepare", factors)), sum(top_ms)),
        len(top_ms),
    )

    # -- single calls no round makes on its own
    compile_ms = [
        ms
        for query, plan in workload.query_plans()
        for ms in speed.each_ms(lambda: db.prepare(query, DOC, plan), repeats)
    ]
    v["xpath.compile_ms_p50"] = (p50(compile_ms), len(compile_ms))
    context_ms = speed.each_ms(db.make_context, 4 * repeats)
    v["exec.environment.fresh_context_ms_p50"] = (p50(context_ms), len(context_ms))
    v.update(workload.layer_probes(speed, repeats))

    # -- host self time by layer, from cProfile over the same rounds
    shares, profiled_ms = profile_self_shares(
        lambda: timed_rounds(workload, off, None, seconds * PHASES["profile"], 1, tally), speed
    )
    for layer, share in shares.items():
        v[f"{layer}.host_self_share"] = (share, len(profiled_ms))
    v["host.profile_overhead_ratio"] = (ratio(p50(profiled_ms), plain_ms), len(profiled_ms))

    checked, failed, at_end = workload.finish(speed, 1 if quick else RECOVER_REPEATS)
    v.update((metric, (value, "end")) for metric, value in at_end.items())

    # -- the program's own tracer: a second instance built with one attached
    tracer = Tracer()
    directory = os.path.join(scratch, "traced")
    os.mkdir(directory)
    twin = type(workload)(workload.seed, directory, tracer=tracer)
    try:
        twin.expected = workload.expected
        for _ in range(2):
            twin.run_round(off)
        gc.collect()
        gc.freeze()
        traced = timed_rounds(twin, off, speed, seconds * PHASES["tracer"], 2, tally)
    finally:
        twin.close()
    v["obs.trace_overhead_ratio"] = (ratio(p50(traced.ms), plain_ms), len(traced.ms))
    v["obs.events_recorded"] = (tracer.events_recorded, len(traced.ms) + 2)
    v["obs.events_dropped"] = (tracer.dropped, len(traced.ms) + 2)
    return v, checked, failed
