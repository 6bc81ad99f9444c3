"""Command-line interface: ``python -m repro``.

Run XPath queries against an XML file or a generated XMark document on
the simulated storage engine, comparing physical plans::

    python -m repro --xml doc.xml "count(//item)"
    python -m repro --xmark 0.1 --compare "count(/site/regions//item)"
    python -m repro --xmark 0.1 --explain --plan xscan "//keyword"

With ``--wal FILE`` the store becomes durable: updates are write-ahead
logged next to FILE and checkpointed into it.  After a crash,
``python -m repro recover FILE`` loads the last checkpoint, replays the
log's valid prefix and reports what was recovered::

    python -m repro --xmark 0.1 --wal store.bin "count(//item)"
    python -m repro recover store.bin "count(//item)"
"""

from __future__ import annotations

import argparse
import sys

from repro import (
    Database,
    EvalOptions,
    ExecutionBudget,
    ImportOptions,
    ReproError,
    Tracer,
    fault_profile,
    format_metrics,
)
from repro.xmark import generate_xmark

PLAN_CHOICES = ("auto", "simple", "xschedule", "xscan", "xscan-shared")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Cost-sensitive XPath evaluation on a simulated storage engine",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--xml", metavar="FILE", help="load an XML document from FILE")
    source.add_argument(
        "--xmark", metavar="SCALE", type=float, help="generate an XMark document"
    )
    source.add_argument(
        "--store", metavar="FILE", help="open a persisted store (see --save)"
    )
    parser.add_argument(
        "--save", metavar="FILE", help="persist the store to FILE after loading"
    )
    parser.add_argument(
        "--wal",
        metavar="FILE",
        default=None,
        help="make the store durable: checkpoint it to FILE and write-ahead "
        "log updates to FILE.wal (recover after a crash with "
        "'python -m repro recover FILE')",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint automatically after every N logged update "
        "operations (default: only on explicit checkpoint)",
    )
    parser.add_argument("queries", nargs="+", metavar="QUERY", help="XPath queries to run")
    parser.add_argument("--plan", choices=PLAN_CHOICES, default="auto")
    parser.add_argument(
        "--compare", action="store_true", help="run every plan and tabulate"
    )
    parser.add_argument("--explain", action="store_true", help="print the physical plan")
    parser.add_argument("--page-size", type=int, default=8192)
    parser.add_argument("--buffer-pages", type=int, default=256)
    parser.add_argument(
        "--fragmentation",
        type=float,
        default=1.0,
        help="physical layout dispersion, 0.0 (document order) to 1.0 (shuffled)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--show-nodes", type=int, default=5, metavar="N", help="print up to N result nodes"
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="run each query N times through one session (exercises the "
        "compiled-plan cache); prints per-run and aggregate timings",
    )
    parser.add_argument(
        "--warm",
        action="store_true",
        help="keep one runtime (buffer, clock, disk head) alive across runs "
        "instead of running each one cold",
    )
    parser.add_argument(
        "--faults",
        metavar="PROFILE[:SEED]",
        default=None,
        help="inject a fault workload into the simulated disk "
        "(none, transient-errors, latency-spikes, lost-requests, mixed); "
        "an optional :SEED reseeds the deterministic fault stream",
    )
    parser.add_argument(
        "--budget",
        metavar="SPEC",
        default=None,
        help="execution budget as comma-separated key=value pairs: "
        "seconds=<float>, pages=<int>, retries=<int>, mode=raise|partial "
        "(e.g. 'seconds=5,pages=2000,mode=partial')",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record execution traces and write them to FILE on exit "
        "(Chrome trace-viewer JSON; a .jsonl suffix selects JSON-lines "
        "events instead)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the per-query metrics rollup (operator table, cluster "
        "heatmap, retry histogram) derived from the tracer",
    )
    parser.add_argument(
        "--no-synopsis",
        action="store_true",
        help="disable cluster-synopsis pruning (XScan reads every page, "
        "XSchedule enqueues every crossing), reproducing the paper's "
        "unpruned I/O behaviour",
    )
    parser.add_argument(
        "--no-pathsummary",
        action="store_true",
        help="disable the path-summary index: no refutation of impossible "
        "paths, no //-to-child expansion, no per-path cluster postings — "
        "planning falls back to the tag-level synopsis and estimator",
    )
    parser.add_argument(
        "--latency-slo",
        type=float,
        default=None,
        metavar="SECONDS",
        help="completion-latency SLO; clusters whose reads exceed it are "
        "sidelined and reported in the degradation summary",
    )
    return parser


def parse_budget(spec: str) -> ExecutionBudget:
    """Parse a ``--budget`` spec like ``seconds=5,pages=2000,mode=partial``."""
    kwargs: dict = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not value:
            raise ReproError(f"bad budget entry {part!r} (expected key=value)")
        try:
            if key == "seconds":
                kwargs["max_seconds"] = float(value)
            elif key == "pages":
                kwargs["max_pages"] = int(value)
            elif key == "retries":
                kwargs["max_retries"] = int(value)
            elif key == "mode":
                kwargs["on_exceeded"] = value
            else:
                raise ReproError(
                    f"unknown budget key {key!r} "
                    "(known: seconds, pages, retries, mode)"
                )
        except ValueError:
            raise ReproError(f"bad budget value in {part!r}") from None
    return ExecutionBudget(**kwargs)


def eval_options_from(args: argparse.Namespace) -> EvalOptions | None:
    kwargs: dict = {}
    if args.budget:
        kwargs["budget"] = parse_budget(args.budget)
    if args.latency_slo is not None:
        kwargs["latency_slo"] = args.latency_slo
    if args.no_synopsis:
        kwargs["synopsis"] = False
    if args.no_pathsummary:
        kwargs["pathsummary"] = False
    return EvalOptions(**kwargs) if kwargs else None


def _attach_wal(db: Database, args: argparse.Namespace) -> None:
    if not args.wal:
        return
    wal = db.attach_wal(args.wal, checkpoint_every=args.checkpoint_every)
    every = (
        f", checkpoint every {args.checkpoint_every} ops"
        if args.checkpoint_every
        else ""
    )
    print(f"durable: checkpoint {args.wal}, log {wal.wal_path}{every}")


def load_database(args: argparse.Namespace, tracer: Tracer | None = None) -> Database:
    faults = fault_profile(args.faults) if args.faults else None
    options = eval_options_from(args)
    if faults is not None and faults.active:
        print(f"fault profile: {faults.name} (seed {faults.seed})")
    if args.store:
        db = Database.load(
            args.store,
            buffer_pages=args.buffer_pages,
            eval_options=options,
            faults=faults,
            tracer=tracer,
        )
        name = next(iter(db.store.documents))
        if name != "doc":
            db.store.documents["doc"] = db.store.documents[name]
        doc = db.document("doc")
        print(
            f"document: {doc.n_nodes} nodes on {doc.n_pages} pages "
            f"({doc.n_border_pairs} border pairs)"
        )
        _attach_wal(db, args)
        return db
    db = Database(
        page_size=args.page_size,
        buffer_pages=args.buffer_pages,
        eval_options=options,
        faults=faults,
        tracer=tracer,
    )
    import_options = ImportOptions(
        page_size=args.page_size, fragmentation=args.fragmentation, seed=args.seed
    )
    if args.xml:
        with open(args.xml, encoding="utf-8") as handle:
            db.load_xml(handle.read(), "doc", import_options)
    else:
        tree = generate_xmark(scale=args.xmark, tags=db.tags, seed=args.seed)
        db.add_tree(tree, "doc", import_options)
    if args.save:
        db.save(args.save)
        print(f"store saved to {args.save}")
    doc = db.document("doc")
    print(
        f"document: {doc.n_nodes} nodes on {doc.n_pages} pages "
        f"({doc.n_border_pairs} border pairs)"
    )
    _attach_wal(db, args)
    return db


def print_result(db: Database, plan: str, result, show_nodes: int) -> None:
    if result.value is not None:
        answer = f"value = {result.value:g}"
    else:
        answer = f"{len(result.nodes)} nodes"
    print(
        f"  {plan:<14s} {answer:<20s} total={result.total_time:9.4f}s "
        f"cpu={result.cpu_time:8.4f}s ({result.cpu_fraction * 100:4.1f}%) "
        f"pages={result.stats.pages_read:6d} seeks={result.stats.seeks:5d}"
    )
    stats = result.stats
    if stats.io_errors or stats.timeouts or stats.slow_services:
        print(
            f"      faults survived: errors={stats.io_errors} "
            f"timeouts={stats.timeouts} spikes={stats.slow_services} "
            f"retries={stats.retries} backoff={stats.backoff_wait:.4f}s"
        )
    if result.degraded:
        report = result.degradation
        flag = " — PARTIAL RESULT" if report.partial else ""
        print(
            f"      degraded: {', '.join(report.reasons)} "
            f"({len(report.events)} events){flag}"
        )
    if result.nodes is not None and show_nodes:
        for nid in result.nodes[:show_nodes]:
            kind, tag, value = db.node_info(nid)
            rendered = f"  <{tag}>" if kind == "ELEMENT" else f"  {kind.lower()}: {value!r}"
            print(f"      {rendered}")
        if len(result.nodes) > show_nodes:
            print(f"      ... and {len(result.nodes) - show_nodes} more")


def run_repeated(db, session, query: str, plan: str, args: argparse.Namespace) -> None:
    """Run one query ``--repeat`` times through the session; print each
    run and the session-level aggregate."""
    results = []
    for run in range(1, args.repeat + 1):
        compiles_before = session.compiles
        try:
            result = session.execute(query, doc="doc", plan=plan)
        except ReproError as error:
            print(f"  {plan:<14s} error: {error}")
            return
        results.append(result)
        cache = "compiled" if session.compiles > compiles_before else "plan cache hit"
        print(
            f"  {plan:<14s} run {run}/{args.repeat}  total={result.total_time:9.4f}s "
            f"cpu={result.cpu_time:8.4f}s io_wait={result.io_wait:8.4f}s "
            f"pages={result.stats.pages_read:6d} [{cache}]"
        )
    total = sum(r.total_time for r in results)
    print(
        f"  {'':<14s} aggregate: total={total:9.4f}s "
        f"mean={total / len(results):8.4f}s "
        f"({session.compiles} compiles, {session.cache_hits} cache hits, "
        f"{'warm' if args.warm else 'cold'} runs)"
    )
    if args.metrics and results[-1].trace_summary is not None:
        print(f"  metrics for run {len(results)}/{args.repeat}:")
        print(format_metrics(results[-1].trace_summary))


def build_recover_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro recover",
        description="Recover a durable store: load the last checkpoint, "
        "replay the write-ahead log's valid prefix, report what survived, "
        "and optionally run queries against the recovered document",
    )
    parser.add_argument("store", metavar="FILE", help="checkpoint store file")
    parser.add_argument(
        "queries", nargs="*", metavar="QUERY", help="XPath queries to run after recovery"
    )
    parser.add_argument(
        "--wal",
        metavar="FILE",
        default=None,
        help="write-ahead log path (default: the store path + '.wal')",
    )
    parser.add_argument("--plan", choices=PLAN_CHOICES, default="auto")
    parser.add_argument("--buffer-pages", type=int, default=256)
    parser.add_argument(
        "--checkpoint",
        action="store_true",
        help="checkpoint the recovered state back into the store file "
        "(folds the replayed tail in and truncates the log)",
    )
    parser.add_argument(
        "--show-nodes", type=int, default=5, metavar="N", help="print up to N result nodes"
    )
    return parser


def run_recover(argv: list[str]) -> int:
    args = build_recover_parser().parse_args(argv)
    try:
        db, report = Database.recover(
            args.store, buffer_pages=args.buffer_pages, wal_path=args.wal
        )
        print(
            f"recovered {args.store}: checkpoint LSN {report.checkpoint_lsn}, "
            f"last LSN {report.last_lsn} ({report.replayed} entries replayed, "
            f"{report.skipped} already checkpointed)"
        )
        if report.torn_tail:
            print("  torn log tail discarded (crash mid-append; entry was never acknowledged)")
        if report.touched_pages:
            pages = ", ".join(str(p) for p in report.touched_pages)
            print(f"  synopsis repaired for pages: {pages}")
        name = next(iter(db.store.documents))
        if name != "doc":
            db.store.documents["doc"] = db.store.documents[name]
        doc = db.document("doc")
        print(
            f"document: {doc.n_nodes} nodes on {doc.n_pages} pages "
            f"({doc.n_border_pairs} border pairs)"
        )
        if args.checkpoint:
            wal = db.attach_wal(args.store, wal_path=args.wal)
            wal.checkpoint()
            print(f"checkpointed recovered state to {args.store}")
        session = db.session()
        for query in args.queries:
            print(f"\n{query}")
            try:
                result = session.execute(query, doc="doc", plan=args.plan)
            except ReproError as error:
                print(f"  {args.plan:<14s} error: {error}")
                continue
            print_result(db, args.plan, result, args.show_nodes)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "recover":
        return run_recover(argv[1:])
    args = build_parser().parse_args(argv)
    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 1
    tracer = Tracer() if (args.trace or args.metrics) else None
    try:
        db = load_database(args, tracer=tracer)
        session = db.session(warm=args.warm)
        for query in args.queries:
            print(f"\n{query}")
            if args.explain:
                compiled = session.prepare(query, doc="doc", plan=args.plan)
                print(compiled.explain())
            plans = PLAN_CHOICES[1:] if args.compare else (args.plan,)
            for plan in plans:
                if args.repeat > 1:
                    run_repeated(db, session, query, plan, args)
                    continue
                try:
                    result = session.execute(query, doc="doc", plan=plan)
                except ReproError as error:
                    print(f"  {plan:<14s} error: {error}")
                    continue
                print_result(db, plan, result, args.show_nodes)
                if args.metrics and result.trace_summary is not None:
                    print(format_metrics(result.trace_summary))
        if tracer is not None and args.trace:
            if args.trace.endswith(".jsonl"):
                tracer.export_jsonl(args.trace)
            else:
                tracer.export_chrome(args.trace)
            print(
                f"\ntrace written to {args.trace} "
                f"({tracer.events_recorded} events, {tracer.dropped} dropped)"
            )
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
