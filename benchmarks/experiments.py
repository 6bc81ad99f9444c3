"""The paper's evaluation (Sec. 6) and its ablations: one spec, one runner.

    python benchmarks/experiments.py           # rewrite EXPERIMENTS.md
    python benchmarks/experiments.py --check   # regenerate, diff, evaluate every claim

Four parts, top to bottom: the spec (:data:`SPEC`, one :class:`Row` per
run: experiment, store recipe, query, plan, configuration), the runner
(:func:`run`: every store is built once, every row runs cold, as in the
paper's Sec. 6.1), the claims (:func:`claims`, every shape the prose
states and every assertion the experiments carry, each with its bound)
and the renderer (:func:`render`: the prose of EXPERIMENTS.md is the
template, the spans it marks are regenerated).  ``--check`` exits 1 when
the regenerated file differs from the checked-in one or a claim fails.
"""

from __future__ import annotations

import difflib
import hashlib
import math
import os
import re
import sys
import tempfile
from dataclasses import asdict, dataclass
from itertools import pairwise

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "src"))  # this checkout's engine, whatever is installed

from repro import (
    PROFILES,
    ClusterPolicy,
    ClusterSynopsis,
    Database,
    DiskGeometry,
    EvalOptions,
    ImportOptions,
    SchedulingPolicy,
    Tracer,
)
from repro.model.builder import TreeBuilder
from repro.sim.stats import Stats
from repro.storage.pathsummary import PathSummary
from repro.storage.update import insert_node
from repro.storage.wal import recover_store
from repro.xmark import Q6_PRIME, Q7, Q15, generate_xmark
from repro.xpath.validate import audit_seek_model, build_store, validate_many

OUT = os.path.join(ROOT, "EXPERIMENTS.md")
SEED = 1
DOC = "xmark"
#: the paper's nine XMark scaling factors
SCALES = (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
PLANS = ("simple", "xschedule", "xscan")
QUERIES = {
    "q6": Q6_PRIME,
    "q7": Q7,
    "q15": Q15,
    # absent from every XMark document: the path summary refutes its
    # second step
    "refuted": "/site/nowhere/child",
    "leaf": "count(//leaf)",
    "mail": "count(//mail)",
}
FIGURES = {"fig9": "q6", "fig10": "q7", "fig11": "q15"}
LABEL = {"q6": "Q6'", "q7": "Q7", "q15": "Q15"}
#: paper Table 3 (XMark sf 1): query -> plan -> (total s, CPU s)
PAPER_TABLE3 = {
    "q6": {"simple": (19.33, 4.36), "xschedule": (11.77, 3.84), "xscan": (13.07, 8.39)},
    "q7": {"simple": (114.20, 23.30), "xschedule": (72.41, 20.70), "xscan": (36.25, 22.54)},
    "q15": {"simple": (3.19, 0.26), "xschedule": (2.42, 0.30), "xscan": (19.79, 15.15)},
}
#: the configuration column: ``paper`` is the paper's, which predates
#: both pruning indexes; ``default`` is the engine's
CONFIGS = {
    "paper": {"synopsis": False, "pathsummary": False},
    "default": {},
    "nosynopsis": {"synopsis": False},
    "nosummary": {"pathsummary": False},
}
STATS = tuple(Stats().as_dict())
#: experiments whose swept value ``x`` is an ``EvalOptions`` field
SWEEPS = {
    "k": "k_min_queue",
    "readahead": "scan_readahead",
    "fallback": "memory_limit",
    "speculative": "speculative",
}


# ------------------------------------------------------------------ stores


@dataclass(frozen=True)
class Store:
    """How one database is built: an XMark document at ``scale`` (or the
    generated ``shape``) imported by ``policy`` with ``fragmentation``,
    on a disk of ``page_size`` pages served by ``disk``, behind
    ``buffer`` frames.  The defaults are the paper's setup at sf 0.5."""

    scale: float = 0.5
    buffer: int = 256
    page_size: int = 8192
    fragmentation: float = 1.0
    policy: ClusterPolicy = ClusterPolicy.BEST_FIT
    disk: SchedulingPolicy = SchedulingPolicy.SSTF
    shape: str = ""


LAYOUTS = {
    "seq_clean": Store(policy=ClusterPolicy.SEQUENTIAL, fragmentation=0.0),
    "bestfit_clean": Store(fragmentation=0.0),
    "bestfit_frag50": Store(fragmentation=0.5),
    "bestfit_frag100": Store(),
}


def shape_tree(tags, shape: str):
    """Beyond XMark: one container of 4000 small children (``wide``),
    40 chains 25 levels deep (``deep``) or fanout 4 to depth 5
    (``bushy``), the leaves tagged ``leaf``."""
    builder = TreeBuilder(tags)
    builder.start_element("root")

    def grow(level: int) -> None:
        builder.start_element("branch" if level else "leaf")
        for _ in range(4 if level else 0):
            grow(level - 1)
        builder.end_element()

    if shape == "wide":
        for i in range(4000):
            builder.start_element("leaf" if i % 3 == 0 else "filler")
            builder.text("v" * 10)
            builder.end_element()
    elif shape == "deep":
        for _ in range(40):
            for _ in range(25):
                builder.start_element("level")
            builder.start_element("leaf")
            builder.end_element()
            for _ in range(25):
                builder.end_element()
    else:
        for _ in range(4):
            grow(5)
    builder.end_element()
    return builder.finish()


def build(recipe: Store) -> Database:
    """A fresh database holding the recipe's document as ``xmark``."""
    db = Database(
        page_size=recipe.page_size,
        buffer_pages=recipe.buffer,
        geometry=DiskGeometry(page_size=recipe.page_size),
        disk_policy=recipe.disk,
    )
    if recipe.shape:
        tree = shape_tree(db.tags, recipe.shape)
    else:
        tree = generate_xmark(scale=recipe.scale, tags=db.tags, seed=SEED)
    layout = ImportOptions(
        page_size=recipe.page_size,
        policy=recipe.policy,
        fragmentation=recipe.fragmentation,
        seed=SEED,
    )
    db.add_tree(tree, DOC, layout)
    return db


# -------------------------------------------------------------------- spec


@dataclass(frozen=True)
class Row:
    """One run: ``kind`` says how (see :data:`KINDS`), ``x`` is the value
    the experiment varies (a scale, a layout, a ``k``, ...)."""

    exp: str
    query: str
    plan: str
    config: str
    x: object
    store: Store
    kind: str


def grid(exp, queries, plans, configs=("paper", "default"), xs=(None,), store=Store(),
         kind="query"):
    """Every configuration x value x query x plan; ``store`` is a recipe,
    or a function from the value to one."""
    return [
        Row(exp, q, p, c, x, store(x) if callable(store) else store, kind)
        for c in configs
        for x in xs
        for q in queries
        for p in plans
    ]


def disk(policy: str) -> Store:
    return Store(disk=SchedulingPolicy(policy))


def page_size(size: int) -> Store:
    """sf 0.25 pages of ``size`` bytes behind 2 MB of buffer."""
    return Store(0.25, buffer=256 * 8192 // size, page_size=size)


DEFAULT, FAULTY = ["default"], ("transient-errors", "latency-spikes", "lost-requests", "mixed")
SF01, SF025 = Store(0.1), Store(0.25)
ALL_PLANS = (*PLANS, "xscan-shared")

SPEC: list[Row] = [
    # Figures 9-11 (and Table 3, their sf 1 rows)
    *(row for fig, q in FIGURES.items() for row in grid(fig, [q], PLANS, xs=SCALES, store=Store)),
    *grid("fig11", ["q15"], PLANS, ["nosynopsis"], [1.0], Store(1.0)),
    # the paper's ablations, at sf 0.5 unless the row says otherwise
    *grid("k", ["q6"], ["xschedule"], xs=(1, 10, 100, 1000)),
    *grid("scheduler", ["q7"], ["xschedule"], xs=("fifo", "sstf", "clook"), store=disk),
    *grid("speculative", ["q7", "q15"], ["xschedule"], xs=(False, True)),
    *grid("fallback", ["q6"], ["xscan"], xs=(None, 10_000, 1_000, 100, 50)),
    *grid("buffer", ["q7"], ("simple", "xscan"), xs=(64, 256, 1024),
          store=lambda frames: Store(buffer=frames)),
    *grid("readahead", ["q7"], ["xscan"], xs=(0, 2, 8, 32)),
    *grid("layout", ["q6"], PLANS, xs=LAYOUTS, store=LAYOUTS.get),
    *grid("sharedscan", ["q7"], ("xschedule", "xscan", "xscan-shared")),
    *grid("concurrent", ["pair"], ["xschedule"], xs=["sstf"], kind="serial"),
    *grid("concurrent", ["pair"], ["xschedule"], xs=("sstf", "fifo"), store=disk,
          kind="concurrent"),
    *grid("export", ["doc"], ("scan", "navigate"), DEFAULT, store=SF025, kind="export"),
    *grid("pagesize", ("q6", "q15"), ["xschedule"], xs=(2048, 8192, 32768), store=page_size),
    *grid("shapes", ["leaf"], PLANS, xs=("wide", "deep", "bushy"),
          store=lambda name: Store(buffer=64, page_size=2048, shape=name)),
    # the pruning indexes, their gates and the hooks that must cost nothing
    *grid("synopsis", FIGURES.values(), ALL_PLANS, ("default", "nosynopsis"), store=SF01),
    *grid("synopsis", ["q15"], ["xscan"], ("default", "nosynopsis"), ["clustered"],
          Store(0.1, buffer=1000, fragmentation=0.0)),
    *grid("synopsis", ["q6"], ["xscan"], ["nosynopsis"], ["empty"], SF01, "empty"),
    *grid("pathsummary", FIGURES.values(), ALL_PLANS, ("default", "nosummary"), store=SF01),
    *grid("pathsummary", ["refuted"], (*ALL_PLANS, "auto"), DEFAULT, store=SF01),
    *grid("pathsummary", ["refuted"], ALL_PLANS, ["nosummary"], store=SF01),
    *grid("pathsummary", ["q6"], ["xscan"], ["nosummary"], ["empty"], SF01, "empty"),
    *(row for q in ("q7", "q15")
      for row in grid("pathsummary", [q], ["auto"], DEFAULT, ("first", "again"), SF01, "memo")),
    *grid("hooks", ["q6"], ["xschedule"], DEFAULT, store=SF025),
    *grid("hooks", ["q6"], ["xschedule"], DEFAULT, ["twin", "wal"], SF025, "twin"),
    *grid("hooks", ["batch"], ["auto"], DEFAULT, ["plain", "wal"], SF025, "batch"),
    *grid("faults", ["q6"], ["xschedule"], DEFAULT, FAULTY, SF025, "twin"),
    *grid("trace", ["q6"], ["xschedule"], DEFAULT, ["twin"], SF01, "twin"),
    *grid("trace", FIGURES.values(), ALL_PLANS, DEFAULT, ["traced"], SF01, "twin"),
    # updates: repair and pruning across updates
    *grid("repair", ["probe"], ["simple"], DEFAULT, store=SF01, kind="repair"),
    *grid("survive", ["mail"], ["xscan"], DEFAULT, store=Store(0.1, fragmentation=0.0),
          kind="survive"),
    # the AUTO chooser replayed and the seek model it prices
    *grid("chooser", ["grid"], ["auto"], DEFAULT, kind="chooser"),
    *grid("seek", FIGURES.values(), ["xschedule"], DEFAULT, (0.0, 1.0),
          lambda f: Store(0.1, fragmentation=f), "seek"),
]

#: the columns each experiment's table prints beside the row's fields
COLUMNS = {
    "k": ("total", "cpu"),
    "scheduler": ("total", "seeks", "seek_distance"),
    "speculative": ("total", "cpu", "pages_read", "clusters_visited", "speculative_instances"),
    "fallback": ("total", "fallbacks", "answer"),
    "buffer": ("total", "pages_read", "evictions"),
    "readahead": ("total", "cpu", "io_wait"),
    "layout": ("total", "seeks", "pages_read"),
    "sharedscan": ("total", "cpu", "pages_read"),
    "concurrent": ("total",),
    "export": ("total", "cpu", "pages_read", "seeks"),
    "pagesize": ("total", "doc_pages", "borders"),
    "shapes": ("total", "doc_pages", "answer"),
    "synopsis": ("total", "cpu", "pages_read", "synopsis_clusters_pruned", "doc_pages"),
    "pathsummary": ("total", "cpu", "pages_requested", "paths_refuted"),
    "hooks": ("total", "cpu", "io_wait"),
    "faults": ("total", "retries", "backoff_wait"),
    "trace": ("total", "events"),
    "repair": ("touched", "pages", "replayed"),
    "survive": ("before", "after", "kept"),
    "chooser": ("base_win", "cal_win", "base_regret", "cal_regret"),
    "seek": ("n_pages", "measured_mean_seek", "predicted_hop", "legacy_hop",
             "predicted_time_error", "legacy_time_error"),
}


# ------------------------------------------------------------------ runner


def options(row: Row) -> EvalOptions:
    swept = {SWEEPS[row.exp]: row.x} if row.exp in SWEEPS else {}
    return EvalOptions(**CONFIGS[row.config], **swept)


def measure(result, db=None) -> dict:
    """A result's numbers: times, its answer, every ``Stats`` counter."""
    answer = result.value if result.value is not None else result.nodes
    m = {
        "total": result.total_time,
        "cpu": result.cpu_time,
        "io_wait": result.io_wait,
        "answer": tuple(answer) if isinstance(answer, list) else answer,
        "summary": result.trace_summary is not None,
        **result.stats.as_dict(),
    }
    if db is not None:
        doc = db.document(DOC)
        m.update(doc_pages=doc.n_pages, borders=doc.n_border_pairs)
    return m


def exact(store) -> bool:
    """The document's synopsis is what a full recollect would build."""
    doc = store.document(DOC)
    return doc.synopsis == ClusterSynopsis.collect(store.segment.page(p) for p in doc.page_nos)


def run_query(row, stores, scratch, db=None):
    db = db or stores(row.store)
    result = db.execute(QUERIES[row.query], doc=DOC, plan=row.plan, options=options(row))
    return measure(result, db)


def run_twin(row, stores, scratch):
    """The query on a database over the same store, plus what ``x``
    installs: a fault profile, a tracer, a log, or nothing."""
    base = stores(row.store)
    tracer = Tracer() if row.x == "traced" else None
    db = base if row.x == "plain" else Database(
        page_size=base.store.segment.page_size,
        buffer_pages=base.buffer_pages,
        store=base.store,
        faults=PROFILES.get(row.x),
        tracer=tracer,
    )
    if row.x == "wal":
        db.attach_wal(os.path.join(scratch, f"{row.exp}-{row.query}.rpro"))
    if row.kind == "batch":
        outcome = db.run_batch(BATCH, doc=DOC)
        return {
            "total": outcome.total_time,
            "updates": outcome.updates,
            "answer": tuple(r.value for r in outcome.results),
        }
    m = run_query(row, stores, scratch, db)
    return {**m, "events": tracer.events_recorded if tracer else 0}


BATCH = [Q6_PRIME, Q15, "count(//keyword)"]


def run_empty(row, stores, scratch):
    """The query with its gate off and the gated snapshot (the
    experiment's: ``synopsis`` or ``pathsummary``) swapped for an empty
    one, which would refute or prune everything if it were read."""
    doc = stores(row.store).document(DOC)
    saved = getattr(doc, row.exp)
    if row.exp == "synopsis":
        doc.synopsis = ClusterSynopsis.from_rows({})
    else:
        doc.pathsummary = PathSummary.from_page_rows({})
    try:
        return run_query(row, stores, scratch)
    finally:
        setattr(doc, row.exp, saved)


def run_memo(row, stores, scratch):
    """AUTO on an equal path summary born with an empty memo (``first``),
    then again off that memo; ``memo_added`` counts the run's new entries."""
    doc = stores(row.store).document(DOC)
    if row.x == "first":
        doc.pathsummary = PathSummary.from_page_rows(doc.pathsummary.page_rows())
    held = len(doc.pathsummary._memo)
    m = run_query(row, stores, scratch)
    return {**m, "memo_added": len(doc.pathsummary._memo) - held}


def run_export(row, stores, scratch):
    text, result = stores(row.store).export_xml(doc=DOC, method=row.plan)
    m = measure(result)
    m.update(answer=hashlib.sha256(text.encode()).hexdigest(), site=text.startswith("<site>"))
    return m


PAIR = [(query, DOC, "xschedule") for query in (Q6_PRIME, "count(/site//annotation)")]


def run_pair(row, stores, scratch):
    db = stores(row.store)
    if row.kind == "serial":
        runs = (db.execute(q, doc=d, plan=p, options=options(row)) for q, d, p in PAIR)
        total = math.fsum(result.total_time for result in runs)
    else:
        total = db.run_batch(PAIR, options=options(row)).total_time
    return {"total": total}


def root(db):
    return db.execute("/site", doc=DOC, plan="simple").nodes[0]


def run_repair(row, stores, scratch):
    """Four logged inserts on a private store, then recovery: the
    repaired synopsis equals a recollect, before and after."""
    db = build(row.store)
    path = os.path.join(scratch, "repair.rpro")
    db.attach_wal(path)
    for i in range(4):
        db.wal.insert(DOC, root(db), 0, f"probe{i}")
    before = exact(db.store)
    store, report = recover_store(path)
    return {
        "touched": len(report.touched_pages),
        "pages": len(store.document(DOC).page_nos),
        "replayed": report.replayed,
        "exact_before": before,
        "exact_after": exact(store),
    }


def run_survive(row, stores, scratch):
    """Synopsis skips survive a logged insert, and a bare insert keeps as
    many (document-order layout: a dispersed one leaves nothing to prune)."""
    query = QUERIES[row.query]
    managed, bare = build(row.store), build(row.store)
    managed.attach_wal(os.path.join(scratch, "managed.rpro"))
    before = managed.execute(query, doc=DOC, plan=row.plan)
    managed.wal.insert(DOC, root(managed), 0, "probe")
    after = managed.execute(query, doc=DOC, plan=row.plan)
    insert_node(bare.store, bare.document(DOC), root(bare), 0, "probe")
    kept = bare.execute(query, doc=DOC, plan=row.plan)
    return {
        "before": before.stats.synopsis_clusters_pruned,
        "after": after.stats.synopsis_clusters_pruned,
        "kept": kept.stats.synopsis_clusters_pruned,
        "managed_exact": exact(managed.store),
        "bare_exact": exact(bare.store),
        "same": kept.value == after.value,
    }


def run_chooser(row, stores, scratch):
    """Every paper query at both layout extremes x a buffer sweep that
    crosses the buffer-to-document ratio of 1 at sf 0.1, replayed raw
    (baseline) and through a store fitted on the baseline's forced runs
    (calibrated); every AUTO decision scored against the simulator."""
    points = [
        (stores(Store(0.1, buffer=b, fragmentation=f)), QUERIES[q], {})
        for f in (0.0, 1.0)
        for b in (64, 256)
        for q in FIGURES.values()
    ]
    base = validate_many(points)
    fitted = build_store(base.decisions)
    cal = validate_many(points, advisor=fitted)
    base_q, cal_q = base.q_error_summary(), cal.q_error_summary()
    single = [d for d in cal.decisions if len(d.choices) == 1]
    return {
        "base_win": base.win_rate,
        "cal_win": cal.win_rate,
        "base_regret": base.total_regret,
        "cal_regret": cal.total_regret,
        "fitted": fitted.model is not None,
        **{f"base_q_{f}": base_q[f]["mean"] for f in ("xscan", "xschedule")},
        **{f"cal_q_{f}": cal_q[f]["mean"] for f in ("xscan", "xschedule")},
        "base_q_sum": math.fsum(v["mean"] for v in base_q.values()),
        "cal_q_sum": math.fsum(v["mean"] for v in cal_q.values()),
        "single_measured": all(d.choices[0][1] == "measured" for d in single),
        "single_win": all(d.win for d in single),
    }


def run_seek(row, stores, scratch):
    """The elevator-sweep seek model against the measured mean seek of
    an XSchedule run and the retired ``n_pages // 3`` guess."""
    return audit_seek_model(stores(row.store), QUERIES[row.query], meta={}).as_dict()


KINDS = {
    "query": run_query,
    "twin": run_twin,
    "batch": run_twin,
    "empty": run_empty,
    "memo": run_memo,
    "export": run_export,
    "serial": run_pair,
    "concurrent": run_pair,
    "repair": run_repair,
    "survive": run_survive,
    "chooser": run_chooser,
    "seek": run_seek,
}


class Record(dict):
    """One row's numbers and the row's own fields, read as attributes."""

    __getattr__ = dict.__getitem__


class Results(list):
    """``(row, numbers)`` pairs; calling it finds the one row that matches."""

    def each(self, exp, **where) -> list[Record]:
        return [
            Record(m, **asdict(row))
            for row, m in self
            if row.exp == exp and all(getattr(row, k) == v for k, v in where.items())
        ]

    def __call__(self, exp, x=..., plan=..., config=..., query=...) -> Record:
        where = dict(x=x, plan=plan, config=config, query=query)
        (hit,) = self.each(exp, **{k: v for k, v in where.items() if v is not ...})
        return hit

    def paper(self, exp, x=..., plan=..., query=...) -> Record:
        return self(exp, x, plan, "paper", query)

    def default(self, exp, x=..., plan=..., query=...) -> Record:
        return self(exp, x, plan, "default", query)


def run() -> Results:
    """Run every row of the spec cold, building each store once."""
    built: dict[Store, Database] = {}

    def stores(recipe: Store) -> Database:
        if recipe not in built:
            built[recipe] = build(recipe)
        return built[recipe]

    with tempfile.TemporaryDirectory() as scratch:
        return Results((row, KINDS[row.kind](row, stores, scratch)) for row in SPEC)


# ------------------------------------------------------------------ claims


def claims(r: Results):
    """Every claim as ``(id, what it says with its bound, holds)``: the
    shapes the prose states, in the paper's configuration, and every
    assertion the experiments carry, in the configuration it was made in
    (mostly the engine's defaults)."""
    p, d = r.paper, r.default

    def ordered(fig, *plans, config="paper", scales=SCALES):
        return all(
            a.total < b.total
            for s in scales
            for a, b in pairwise([r(fig, s, plan, config) for plan in plans])
        )

    def ratio(fig, s, a, b):
        return p(fig, s, a).total / p(fig, s, b).total

    def alike(a, b):
        return a.answer == b.answer and all(a[k] == b[k] for k in STATS)

    # Figures 9-11 in the paper's configuration: the prose's shapes
    sched9 = [ratio("fig9", s, "xschedule", "simple") for s in SCALES]
    scan9 = [ratio("fig9", s, "xscan", "simple") for s in SCALES]
    scan10 = [ratio("fig10", s, "xscan", "simple") for s in SCALES]
    scan11 = [ratio("fig11", s, "xscan", "simple") for s in SCALES]
    yield "fig9/order", "Q6': xschedule < xscan < simple at every scale", ordered(
        "fig9", "xschedule", "xscan", "simple")
    yield "fig9/sched-bracket", "Q6': sched/simp brackets the paper's 0.61", (
        min(sched9) <= 0.61 <= max(sched9))
    yield "fig9/scan-reaches", "Q6': scan/simp <= the paper's 0.68 at sf 2, > at sf 0.1", (
        scan9[-1] <= 0.68 < scan9[0])
    yield "fig10/order", "Q7: xscan < xschedule < simple at every scale", ordered(
        "fig10", "xscan", "xschedule", "simple")
    yield "fig10/scan-passes", "Q7: scan/simp > the paper's 0.32 at sf 0.1, <= at sf 1", (
        scan10[0] > 0.32 >= scan10[SCALES.index(1.0)])
    yield "fig10/scan-improves", "Q7: scan/simp falls at every step up in scale", all(
        a > b for a, b in pairwise(scan10))
    yield "fig10/factor-four", "Q7: simple/xscan peaks at 4 or more (paper: up to four)", (
        1 / min(scan10) >= 4)
    yield "fig11/order", "Q15: xschedule < simple < xscan at every scale", ordered(
        "fig11", "xschedule", "simple", "xscan")
    yield "fig11/scan-loses", "Q15: xscan > 2 x simple at every scale", min(scan11) > 2
    # Figures 9-11 in the engine's defaults, and the shape at sf 1
    for fig, q in FIGURES.items():
        yield f"{fig}/default/answers", f"{LABEL[q]}: every run answers", all(
            m.answer is not None and (q == "q15" or m.answer > 0)
            for m in r.each(fig, config="default"))
    at1 = {"config": "default", "scales": [1.0]}
    yield "fig9/default/sf1", "Q6' sf 1: xschedule < simple, xscan < simple", ordered(
        "fig9", "xschedule", "simple", **at1) and ordered("fig9", "xscan", "simple", **at1)
    yield "fig10/default/sf1-order", "Q7 sf 1: xscan < xschedule < simple", ordered(
        "fig10", "xscan", "xschedule", "simple", **at1)
    yield "fig10/default/sf1-factor", "Q7 sf 1: simple/xscan > 2.0", (
        d("fig10", 1.0, "simple").total > 2.0 * d("fig10", 1.0, "xscan").total)
    simple, sched, scan = (r("fig11", 1.0, plan, "nosynopsis").total for plan in PLANS)
    yield "fig11/nosynopsis/sf1", "Q15 sf 1, synopsis off: xschedule < simple < xscan / 2", (
        sched < simple and scan > 2 * simple)
    on, off = (r("synopsis", None, "xscan", c, "q15") for c in ("default", "nosynopsis"))
    yield "fig11/synopsis-prunes", "Q15 xscan sf 0.1: entries pruned > 0", (
        on.synopsis_entries_pruned > 0)
    yield "fig11/synopsis-faster", "Q15 xscan sf 0.1: total pruned < unpruned", on.total < off.total

    # Table 3: the sf 1 rows of the figures
    for config in ("default", "paper"):
        t3 = {(q, plan): r(f, 1.0, plan, config) for f, q in FIGURES.items() for plan in PLANS}
        yield f"table3/{config}/cpu", "total >= CPU > 0 for every query and plan", all(
            m.total >= m.cpu > 0 for m in t3.values())
        yield f"table3/{config}/parity", "xschedule's and simple's CPU within 1.6x", all(
            t3[q, "xschedule"].cpu < 1.6 * t3[q, "simple"].cpu
            and t3[q, "simple"].cpu < 1.6 * t3[q, "xschedule"].cpu for q in LABEL)
        yield f"table3/{config}/scan-cpu-bound", "xscan's CPU share > 0.5, every query", all(
            t3[q, "xscan"].cpu > 0.5 * t3[q, "xscan"].total for q in LABEL)
    share = {k: m.cpu / m.total for k, m in t3.items()}
    yield "table3/cpu-share-order", "CPU share simple < xschedule < xscan, every query", all(
        share[q, "simple"] < share[q, "xschedule"] < share[q, "xscan"] for q in LABEL)
    yield "table3/nav-io-bound", "simple's and xschedule's CPU share < 0.5, every query", all(
        share[q, plan] < 0.5 for q in LABEL for plan in PLANS[:2])

    # the paper's ablations: the experiments' assertions (defaults), the prose (paper)
    for exp in ("k", "readahead", "layout", "scheduler", "fallback", "sharedscan", "shapes"):
        yield f"{exp}/default/answers", "every run counts a value > 0", all(
            m.answer > 0 for m in r.each(exp, config="default"))
    low, high = d("k", 1).total, d("k", 1000).total
    yield "k/default/1-vs-1000", "k = 1 and k = 1000 within 25%", (
        abs(low - high) / min(low, high) < 0.25)
    for config in ("default", "paper"):
        small, large = (r("buffer", b, "simple", config).total for b in (64, 1024))
        yield f"buffer/{config}/simple", "simple with 1024 frames < with 64", large < small
    small, large = d("buffer", 64, "xscan").total, d("buffer", 1024, "xscan").total
    yield "buffer/default/xscan", "xscan with 64 and 1024 frames within 35%", (
        abs(small - large) / large < 0.35)
    serial, ahead = d("readahead", 0), d("readahead", 8)
    yield "readahead/default/answer", "window 8 answers as window 0", ahead.answer == serial.answer
    yield "readahead/default/io-wait", "window 8 waits less than 0", ahead.io_wait < serial.io_wait
    yield "readahead/default/total", "window 8 total < window 0", ahead.total < serial.total
    yield "readahead/two-pages", "window 2 total < window 0", (
        p("readahead", 2).total < p("readahead", 0).total)
    layouts = ("seq_clean", "bestfit_frag100")
    for config in ("default", "paper"):
        clean, frag = (r("layout", x, "simple", config).total for x in layouts)
        yield f"layout/{config}/simple", "simple fragmented > 1.5 x sequential", frag > 1.5 * clean
    clean, frag = (p("layout", x, "xscan").total for x in layouts)
    yield "layout/xscan-unmoved", "unpruned xscan: fragmented and sequential within 20%", (
        abs(frag - clean) / clean < 0.2)
    clean, frag = (d("layout", x, "xscan") for x in layouts)
    yield "layout/default/xscan-time", "pruned xscan: sequential <= fragmented", (
        clean.total <= frag.total)
    yield "layout/default/xscan-pages", "pruned xscan reads: sequential <= fragmented", (
        clean.pages_read <= frag.pages_read)
    yield "layout/default/same-answer", "simple and xscan answer alike on both layouts", len(
        {d("layout", x, plan).answer for x in layouts for plan in ("simple", "xscan")}) == 1
    fifo, sstf = d("scheduler", "fifo"), d("scheduler", "sstf")
    yield "scheduler/default/total", "SSTF total < FIFO", sstf.total < fifo.total
    yield "scheduler/default/seeks", "SSTF seek distance < FIFO", (
        sstf.seek_distance < fifo.seek_distance)
    yield "scheduler/reordering", "SSTF and C-LOOK totals < FIFO", max(
        p("scheduler", x).total for x in ("sstf", "clook")) < p("scheduler", "fifo").total
    plain, spec = (d("speculative", x, query="q7") for x in (False, True))
    yield "speculative/default/clusters", "Q7: speculating visits no more clusters", (
        spec.clusters_visited <= plain.clusters_visited)
    yield "speculative/default/answer", "Q7: speculating answers alike", spec.answer == plain.answer
    plain, spec = (p("speculative", x, query="q7") for x in (False, True))
    yield "speculative/clusters", "Q7: speculating visits fewer clusters", (
        spec.clusters_visited < plain.clusters_visited)
    plain, spec = (p("speculative", x, query="q15") for x in (False, True))
    yield "speculative/q15-loss", "Q15: speculating costs more", spec.total > plain.total
    unlimited, tiny = d("fallback", None), d("fallback", 50)
    yield "fallback/default/answer", "limit 50 answers as no limit", tiny.answer == unlimited.answer
    yield "fallback/default/trips", "limit 50 falls back once", tiny.fallbacks == 1
    yield "fallback/default/unlimited", "no limit never falls back", unlimited.fallbacks == 0
    yield "fallback/default/total", "limit 50 total > no limit", tiny.total > unlimited.total
    yield "fallback/answers", "every limit answers as no limit", len(
        {m.answer for m in r.each("fallback", config="paper")}) == 1
    totals = [p("fallback", x).total for x in (10_000, 1_000, 100, None)]
    yield "fallback/later-costs-more", "totals: limit 10000 > 1000 > 100 > none", all(
        a > b for a, b in pairwise(totals))
    separate, shared = (d("sharedscan", plan=plan) for plan in ("xscan", "xscan-shared"))
    yield "sharedscan/default/answer", "shared scan answers as three scans", (
        shared.answer == separate.answer)
    yield "sharedscan/default/pages", "shared scan reads < half the pages", (
        shared.pages_read < 0.5 * separate.pages_read)
    yield "sharedscan/default/total", "shared scan total < three scans", (
        shared.total < separate.total)
    for config in ("default", "paper"):
        (serial,), (together, fifo) = (
            r.each("concurrent", config=config, kind=kind) for kind in ("serial", "concurrent"))
        yield f"concurrent/{config}/sstf", "a concurrent pair under SSTF < the serial pair", (
            together.total < serial.total)
    yield "concurrent/fifo", "a concurrent pair under FIFO > the serial pair", (
        fifo.total > serial.total)
    scan, nav = d("export", plan="scan"), d("export", plan="navigate")
    yield "export/default/site", "both exports start with <site>", scan.site and nav.site
    yield "export/default/same", "scan and navigation export the same text", (
        scan.answer == nav.answer)
    yield "export/default/total", "scan export total < navigation export", scan.total < nav.total
    borders = [d("pagesize", ps, query="q6").borders for ps in (2048, 8192, 32768)]
    yield "pagesize/default/borders", "borders: 2K pages > 8K > 32K", (
        borders[0] > borders[1] > borders[2])
    shapes = ("wide", "deep", "bushy")
    yield "shapes/default/agree", "the plans agree on every shape", all(
        len({d("shapes", s, plan).answer for plan in PLANS}) == 1 for s in shapes)
    gain = {s: p("shapes", s, "xscan").total / p("shapes", s, "xschedule").total for s in shapes}
    yield "shapes/xscan-wins", "xscan < xschedule on every shape", max(gain.values()) < 1
    yield "shapes/bushy-narrows", "xscan/xschedule largest on bushy", (
        gain["bushy"] > max(gain["wide"], gain["deep"]))

    # the hooks: a twin database, a fault profile, a tracer or a log
    vanilla, twin = d("hooks", None), d("hooks", "twin")
    yield "faults/default/hook-answer", "no fault plan: answers as the plain database", (
        twin.answer == vanilla.answer)
    yield "faults/default/hook-total", "no fault plan: same total, to the tick", (
        twin.total == vanilla.total)
    for counter in ("io_errors", "timeouts", "slow_services"):
        yield f"faults/default/hook-{counter}", f"no fault plan: {counter} == 0", twin[counter] == 0
    faulty = r.each("faults")
    yield "faults/default/answers", "every profile answers as the clean disk", all(
        m.answer == vanilla.answer for m in faulty)
    yield "faults/default/fired", "every profile fires: errors + timeouts + spikes > 0", all(
        m.io_errors + m.timeouts + m.slow_services > 0 for m in faulty)
    logged = d("hooks", "wal", query="q6")
    for field in ("answer", "total", "cpu", "io_wait"):
        yield f"wal/default/{field}", f"a log attached: same {field}", (
            logged[field] == vanilla[field])
    plain, logged = (d("hooks", x, query="batch") for x in ("plain", "wal"))
    yield "wal/default/batch-total", "a query batch under a log: same makespan", (
        logged.total == plain.total)
    yield "wal/default/batch-updates", "a query batch under a log: 0 updates", logged.updates == 0
    yield "wal/default/batch-answers", "a query batch under a log: same answers", (
        logged.answer == plain.answer)
    base = {(m.query, m.plan): m for m in r.each("synopsis", config="default", x=None)}
    twin, vanilla = d("trace", "twin"), base["q6", "xschedule"]
    yield "trace/default/off-answer", "no tracer: same answer", twin.answer == vanilla.answer
    yield "trace/default/off-total", "no tracer: same total", twin.total == vanilla.total
    yield "trace/default/off-books", "no tracer: same counters", alike(twin, vanilla)
    yield "trace/default/off-summary", "no tracer: no trace summary", not twin.summary
    traced = [(m, base[m.query, m.plan]) for m in r.each("trace", x="traced")]
    yield "trace/default/on-answer", "a tracer: same answers, every query and plan", all(
        m.answer == b.answer for m, b in traced)
    yield "trace/default/on-total", "a tracer: same totals", all(
        m.total == b.total for m, b in traced)
    yield "trace/default/on-books", "a tracer: same counters", all(alike(m, b) for m, b in traced)
    yield "trace/default/on-summary", "a tracer: every result carries a trace summary", all(
        m.summary for m, _ in traced)
    yield "trace/default/on-events", "a tracer: every run records events", all(
        m.events > 0 for m, _ in traced)

    # the pruning indexes: invisible in the answers, visible only as gains
    for index, gate in (("synopsis", "nosynopsis"), ("pathsummary", "nosummary")):
        pairs = [(m, r(index, None, m.plan, gate, m.query))
                 for m in r.each(index, config="default", x=None) if m.query != "refuted"]
        read = "pages_read" if index == "synopsis" else "pages_requested"
        yield f"{index}/default/answer", "on and off: same answer, every query and plan", all(
            on.answer == off.answer for on, off in pairs)
        yield f"{index}/default/{read}", f"on: {read} <= off's, every query and plan", all(
            on[read] <= off[read] for on, off in pairs)
        for counter in (f"{index}_clusters_pruned", f"{index}_entries_pruned"):
            yield f"{index}/default/off-{counter}", f"off: {counter} == 0", all(
                off[counter] == 0 for _, off in pairs)
        navigating = [(on, off) for on, off in pairs if on.plan in ("xschedule", "xscan")]
        yield f"{index}/default/total", "on: total <= off's (xschedule, xscan)", all(
            on.total <= off.total for on, off in navigating)
        if index == "pathsummary":
            yield f"{index}/default/cpu", "on: CPU <= off's (xschedule, xscan)", all(
                on.cpu <= off.cpu for on, off in navigating)
        yield f"{index}/default/q15-cpu", "on: Q15 CPU <= off's (xschedule, xscan)", all(
            on.cpu <= off.cpu for on, off in navigating if on.query == "q15")
        flagged, bare = (r(index, x, "xscan", gate, "q6") for x in (None, "empty"))
        yield f"{index}/off-is-free", "off, an empty one in its place: same answer", (
            flagged.answer == bare.answer)
        yield f"{index}/off-is-free-total", "off, an empty one in its place: same total", (
            flagged.total == bare.total)
        yield f"{index}/off-is-free-books", "off, an empty one in its place: same counters", (
            alike(flagged, bare))
    pairs = [[d("pathsummary", x, "auto", q) for x in ("first", "again")] for q in ("q7", "q15")]
    yield "pathsummary/again", "AUTO cold walks, again walks nothing: same answer, counters", all(
        cold.memo_added > 0 and warm.memo_added == 0 and alike(cold, warm) for cold, warm in pairs)
    yield "pathsummary/default/off-paths_refuted", "off: paths_refuted == 0", all(
        m.paths_refuted == 0 for m in r.each("pathsummary", config="nosummary"))
    refuted = r.each("pathsummary", config="default", query="refuted")
    for field, want in (("answer", ()), ("paths_refuted", 1), ("pages_requested", 0),
                        ("clusters_visited", 0), ("total", 0.0)):
        yield f"pathsummary/refuted-{field}", f"refuted, every plan, AUTO: {field} == {want}", all(
            m[field] == want for m in refuted)
    unrefuted = {m.plan: m for m in r.each("pathsummary", config="nosummary", query="refuted")}
    yield "pathsummary/refuted-off-answer", "refuted, summary off: same empty answer", all(
        unrefuted[m.plan if m.plan != "auto" else "xscan"].answer == m.answer for m in refuted)
    yield "pathsummary/refuted-off-pages", "refuted, summary off: pages requested > 0", all(
        m.pages_requested > 0 for m in unrefuted.values())
    for q in ("q6", "q15"):
        m = d("synopsis", None, "xscan", q)
        yield f"synopsis/default/{q}-accounted", "xscan: pages read + pruned == pages", (
            m.pages_read + m.synopsis_clusters_pruned == m.doc_pages)
    on, off = d("synopsis", "clustered"), r("synopsis", "clustered", "xscan", "nosynopsis")
    yield "synopsis/clustered-answer", "Q15 xscan, document order: same nodes", (
        on.answer == off.answer)
    yield "synopsis/clustered-prunes", "Q15 xscan, document order: clusters pruned > 0", (
        on.synopsis_clusters_pruned > 0)
    yield "synopsis/clustered-pages", "Q15 xscan, document order: pages read < unpruned", (
        on.pages_read < off.pages_read)
    yield "synopsis/clustered-total", "Q15 xscan, document order: total < unpruned", (
        on.total < off.total)

    # updates: repair and pruning across updates
    m = d("repair")
    yield "repair/exact-before", "after logged inserts the synopsis is a recollect's", (
        m.exact_before)
    yield "repair/incremental", "recovery touches 0 < pages < all", 0 < m.touched < m.pages
    yield "repair/exact-after", "the recovered synopsis is a recollect's", m.exact_after
    m = d("survive")
    yield "survive/before", "count(//mail) xscan prunes clusters", m.before > 0
    yield "survive/after", "after a logged insert it still prunes", m.after > 0
    yield "survive/managed-exact", "the logged insert repaired the synopsis", m.managed_exact
    yield "survive/bare-exact", "a bare insert repaired the synopsis", m.bare_exact
    yield "survive/same-answer", "logged and bare: same answer", m.same
    yield "survive/same-pruning", "logged and bare: same clusters pruned", m.kept == m.after

    # the AUTO chooser replayed, calibration on; the seek model it prices
    m = d("chooser")
    yield "chooser/fitted", "the calibration fit ran", m.fitted
    yield "chooser/win-rate", "calibrated win rate >= baseline", m.cal_win >= m.base_win
    yield "chooser/regret", "calibrated regret <= baseline", m.cal_regret <= m.base_regret
    yield "chooser/strictly", "where the baseline loses, calibration wins more or regrets less", (
        m.base_win == 1.0 or m.cal_win > m.base_win or m.cal_regret < m.base_regret)
    yield "chooser/q-error", "calibrated mean Q-error <= baseline, per family", all(
        m[f"cal_q_{f}"] <= m[f"base_q_{f}"] * (1 + 1e-9) for f in ("xscan", "xschedule"))
    yield "chooser/q-error-sum", "calibrated Q-error summed over families < baseline", (
        m.cal_q_sum < m.base_q_sum)
    yield "chooser/floor", "calibrated win rate >= 0.75", m.cal_win >= 0.75
    yield "chooser/measured", "every single-path decision is measured", m.single_measured
    yield "chooser/measured-wins", "every single-path decision wins", m.single_win
    seeks = [m for m in r.each("seek") if m.measured_seeks]
    yield "seek/sane", "priced seek time within 2x of the measured, every point", all(
        m.predicted_time_error < 2.0 for m in seeks)
    yield "seek/measured", "some point measures seeks", bool(seeks)
    predicted, legacy = (
        math.fsum(m[f"{k}_time_error"] for m in seeks) for k in ("predicted", "legacy"))
    yield "seek/beats-legacy", "mean seek-time error <= the n_pages // 3 guess's", (
        predicted <= legacy * (1 + 1e-9))


# ---------------------------------------------------------------- renderer

#: a generated span of EXPERIMENTS.md: the prose around the spans is the
#: template, the text inside is regenerated from the results
MARKER = re.compile(r"(<!-- gen:([\w-]+) -->)(.*?)(<!-- /gen -->)", re.S)


def figure_table(r, fig, config) -> list[str]:
    lines = [
        "| scale | simple | xschedule | xscan | sched/simp | scan/simp |",
        "|------:|-------:|----------:|------:|-----------:|----------:|",
    ]
    for s in SCALES:
        simple, sched, scan = (r(fig, s, plan, config).total for plan in PLANS)
        lines.append(f"| {s:.2f} | {simple:.3f} | {sched:.3f} | {scan:.3f} | "
                     f"{sched / simple:.2f} | {scan / simple:.2f} |")
    return lines


def table3(r) -> list[str]:
    lines = [
        "| query | plan | total[s] | CPU[s] | CPU% | paper total | paper CPU | paper CPU% |",
        "|------:|-----------|--------:|-------:|-----:|------:|------:|----:|",
    ]
    for fig, q in FIGURES.items():
        for plan in PLANS:
            m, (total, cpu) = r(fig, 1.0, plan, "paper"), PAPER_TABLE3[q][plan]
            lines.append(f"| {LABEL[q]} | {plan} | {m.total:.3f} | {m.cpu:.3f} | "
                         f"{100 * m.cpu / m.total:.0f}% | {total:.2f} | {cpu:.2f} | "
                         f"{100 * cpu / total:.0f}% |")
    return lines


def cell(value) -> str:
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def measured_table(r, exp) -> list[str]:
    rows = r.each(exp)
    fields = ("config", "kind", "query", "plan", "x")
    keys = [k for k in fields if len({str(m[k]) for m in rows}) > 1]
    columns = [*keys, *COLUMNS[exp]]
    return [
        f"`{exp}`",
        "",
        "| " + " | ".join(columns) + " |",
        "|" + "---|" * len(columns),
        *("| " + " | ".join(cell(m.get(c)) for c in columns) + " |" for m in rows),
        "",
    ]


def values(r: Results) -> dict[str, str]:
    """The text of every generated span, by name."""
    p = r.paper

    def block(lines):
        return "\n" + "\n".join(lines) + "\n"

    def change(a, b, digits=2):
        return f"{a:.{digits}f} → {b:.{digits}f}"

    def peak(fig, a, b):
        return max(p(fig, s, a).total / p(fig, s, b).total for s in SCALES)

    losses = [p("fig11", s, "xscan").total / p("fig11", s, "simple").total for s in SCALES]
    cpu = [(p(f, 1.0, "simple").cpu, p(f, 1.0, "xschedule").cpu) for f in FIGURES]
    fifo, sstf, clook = (p("scheduler", x) for x in ("fifo", "sstf", "clook"))
    plain, spec = (p("speculative", x, query="q7") for x in (False, True))
    q15 = [p("speculative", x, query="q15").total for x in (False, True)]
    buffer = {(b, plan): p("buffer", b, plan).total
              for b in (64, 1024) for plan in ("simple", "xscan")}
    (serial,), (together, fifo_pair) = (
        r.each("concurrent", config="paper", kind=k) for k in ("serial", "concurrent"))
    scan, nav = r("export", plan="scan"), r("export", plan="navigate")
    layout = {plan: [p("layout", x, plan).total for x in ("seq_clean", "bestfit_frag100")]
              for plan in ("simple", "xscan")}
    shared, separate = (p("sharedscan", plan=plan) for plan in ("xscan-shared", "xscan"))
    small, large = (p("pagesize", ps, query="q6") for ps in (2048, 32768))
    default = [f"\n{LABEL[q]}\n\n" + "\n".join(figure_table(r, fig, "default"))
               for fig, q in FIGURES.items()]
    return {
        **{fig: block(figure_table(r, fig, "paper")) for fig in FIGURES},
        "table3": block(table3(r)),
        "peak10": f"{peak('fig10', 'simple', 'xscan'):.1f}",
        "sched-over-scan10": f"{peak('fig10', 'xschedule', 'xscan'):.1f}",
        "loss11": f"{min(losses):.1f}-{max(losses):.1f}",
        "parity": f"{max(max(a / b, b / a) for a, b in cpu):.2f}",
        "k": " / ".join(f"{p('k', k).total:.7f}" for k in (1, 10, 100, 1000)),
        "controller": f"FIFO {fifo.total:.2f} s vs SSTF {sstf.total:.2f} s vs C-LOOK "
                      f"{clook.total:.2f} s",
        "seek-drop": f"{fifo.seek_distance / sstf.seek_distance:.1f}",
        "speculative": f"cluster visits drop ({plain.clusters_visited} → "
                       f"{spec.clusters_visited} on Q7), pages read {plain.pages_read} → "
                       f"{spec.pages_read}, at {spec.cpu / plain.cpu:.1f}x CPU; Q7's total "
                       f"{change(plain.total, spec.total)} s, Q15's {change(*q15, 3)} s",
        "fallback": " / ".join(f"{p('fallback', x).total:.2f}" for x in (10_000, 1_000, 100, 50)),
        "fallback-none": f"{p('fallback', None).total:.2f}",
        "simple05": f"{p('fig9', 0.5, 'simple').total:.2f}",
        "buffer": f"Simple improves {buffer[64, 'simple'] / buffer[1024, 'simple']:.1f}x from 64 "
                  f"to 1024 pages; XScan {change(buffer[64, 'xscan'], buffer[1024, 'xscan'])} s",
        "readahead": change(p("readahead", 0).total, p("readahead", 2).total),
        "layout-simple": "{:.2f} s vs {:.2f} s".format(*layout["simple"]),
        "layout-xscan": change(*layout["xscan"], 3),
        "sharedscan": f"{shared.pages_read} pages / {shared.total:.2f} s vs "
                      f"{separate.pages_read} pages / {separate.total:.2f} s",
        "concurrent": f"{serial.total:.2f} s serial → {together.total:.2f} s concurrent under "
                      f"SSTF; {fifo_pair.total:.2f} s concurrent under FIFO",
        "export": f"scan export {scan.total:.2f} s / {scan.seeks} seeks vs navigation export "
                  f"{nav.total:.2f} s / {nav.seeks} seeks",
        "pagesize": f"borders per document drop {small.borders} → {large.borders}; "
                    f"Q6'/XSchedule improves {change(small.total, large.total)} s",
        "shapes": ", ".join(
            f"{s} {p('shapes', s, 'xscan').total / p('shapes', s, 'xschedule').total:.2f}"
            for s in ("wide", "deep", "bushy")),
        "defaults": block(default),
        "measured": block(line for exp in COLUMNS for line in measured_table(r, exp)),
    }


def render(r: Results, text: str) -> str:
    spans = values(r)
    return MARKER.sub(lambda m: m[1] + spans[m[2]] + m[4], text)


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print(__doc__, file=sys.stderr)
        return 2
    results = run()
    verdicts = list(claims(results))
    with open(OUT, encoding="utf-8") as handle:
        checked_in = handle.read()
    regenerated = render(results, checked_in)
    check = argv == ["--check"]
    stale = check and regenerated != checked_in
    if stale:
        sys.stdout.writelines(difflib.unified_diff(
            checked_in.splitlines(True), regenerated.splitlines(True),
            "EXPERIMENTS.md", "EXPERIMENTS.md (regenerated)"))
    elif not check:
        with open(OUT, "w", encoding="utf-8") as handle:
            handle.write(regenerated)
    failed = [(i, text) for i, text, ok in verdicts if not ok]
    for i, text in failed:
        print(f"claim failed: {i}: {text}")
    state = "stale" if stale else "current" if check else "written"
    print(f"{len(verdicts) - len(failed)} of {len(verdicts)} claims hold; EXPERIMENTS.md {state}")
    return 1 if failed or stale else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
