"""Golden draws: the pinned books of the navigation datapath.

Every line of ``golden_books.jsonl`` after its header is one *draw* — a
document, a query, a plan with its options, a fault profile, a budget
cut, a tracer — and the books the run came to: value, node count, the
hex ``total``/``cpu``/``io_wait`` times, every ``Stats`` field (in the
order the header names them), ``partial`` when a budget cut the result
and, for a traced draw, the per-operator ``(calls, out)`` roll-up.  A
draw that raises pins the error and the books at the raise instead.
Every run checked also prices the counters of its result's slice to
that slice's CPU seconds: ``cpu == costs.price(stats)`` with ``==``
(:meth:`repro.sim.costmodel.CostModel.price`); for the whole runtime
the clock makes it true by definition (``tests/sim/test_clock.py``).

The rows were generated while the record-at-a-time step chain (one
``XStep`` operator per step over ``storage/nav.py``) still existed, and
each was asserted ``==`` to that chain on every book: they are its books.
Every draw that returns a whole result is also checked against
:mod:`repro.xpath.reference`.

Draws are deterministic (one seeded ``random.Random``) and stratified:
the random-document family puts every ordered pair of the nine navigated
axes at the head of a path once, the way expressively distinct
navigations are told apart, then adds predicates under ``simple``; the
other families are the seams of the path kernel — XMark paper and
predicate queries, fault profiles and seeds, ``memory_limit`` trips,
``max_seconds`` cuts, tracers, entry runs, run tapes, delivery runs and
their tapes (warm, and across an update), the tape players' in-place
branches (``inplace``), the shared scan, full-tree
walks, latency-SLO sidelining, the paper's unpruned configurations
(``gates``: the synopsis, the path summary or both switched off), and
the plan- and fault-equivalence points of tier-1 (``equivalence``,
``fault-equivalence``: every plan's answer, also under faults and in
fallback, the reference evaluator's).

    PYTHONPATH=src python -m tests.golden            # check every row
    PYTHONPATH=src python -m tests.golden --only delivery/ warm/   # rows by key prefix
    PYTHONPATH=src python -m tests.golden --replay   # every row twice, keys reversed
    PYTHONPATH=src python -m tests.golden --write    # regenerate
    PYTHONPATH=src python -m tests.golden --compare OLD.jsonl

``--only PREFIX...`` checks only the rows whose keys start with one of
the prefixes and reports them as "N of M rows as pinned", M the rows
selected: a quick pass over the families a change touches, never a
substitute for the full check.

``--replay`` is the determinism check: it takes the rows in reverse key
order and runs each twice in one process, both runs equal to the row,
and a traced draw's two event streams equal tick for tick
(:func:`same_events`).  Run under another ``PYTHONHASHSEED`` than the
plain check, it shows the books depend on neither the hash seed, nor
the order the draws run in, nor how many runtimes the process built
before.

Only a declared physics change may move a value in the file.  A change
that only adds rows or columns regenerates it and shows, with
``--compare`` against the file before, that every earlier value stayed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import random
import sys
from contextlib import contextmanager

from repro import (
    PROFILES,
    Database,
    EvalOptions,
    ExecutionBudget,
    ImportOptions,
    Tracer,
)
from repro.algebra.base import Operator
from repro.algebra.context import EvalContext
from repro.algebra.fullnav import full_step
from repro.algebra.misc import ContextScan, order_results, result_nodeids
from repro.algebra.pathinstance import EntryRun
from repro.algebra.steps import CompiledNodeTest, CompiledStep
from repro.algebra.xassembly import XAssembly, build_tape
from repro.algebra.xschedule import XSchedule
from repro.axes import Axis
from repro.errors import ReproError
from repro.model.builder import TreeBuilder
from repro.sim.clock import TICK
from repro.sim.disk import SchedulingPolicy
from repro.sim.faults import FaultProfile
from repro.storage.nodeid import page_of, slot_of
from repro.storage.pathsummary import PathPostings
from repro.storage.store import export_tree
from repro.storage.update import delete_subtree, insert_node
from repro.xmark import PAPER_QUERIES, Q6_PRIME, Q7, Q15, generate_xmark
from repro.xpath.reference import evaluate_query
from tests.conftest import make_random_tree

GOLDEN = pathlib.Path(__file__).with_name("golden_books.jsonl")

#: the nine navigated axes (``attribute`` only ever ends a path)
AXES = [
    "child",
    "descendant",
    "descendant-or-self",
    "self",
    "parent",
    "ancestor",
    "ancestor-or-self",
    "following-sibling",
    "preceding-sibling",
]
TESTS = ["a", "b", "c", "nosuchtag", "*", "node()", "text()"]
PLANS = ["simple", "xschedule", "xscan", "xscan-shared"]
#: the plans whose kernel takes entry runs
SPECULATING = ["xscan", "xscan-shared", "xschedule"]
DEEP_PATH = "/descendant-or-self::node()/child::*/child::*/child::*"
PREDICATE_PATH = "/descendant::a[b/c][. != 'x']/child::*[.//text() = 'tt']"
#: existence, nested, two on one step, comparisons with a literal and
#: with the context node itself
PREDICATES = [
    "[b]",
    "[b/c]",
    "[b[c]/a]",
    "[a][.//c]",
    "[text() = 'ttt']",
    "[c != 'tt']",
    "[. != 'x']",
    "[@id = '7']",
    "[ancestor::a]",
    "[following-sibling::b[@id]]",
    "[nosuchtag]",
]
#: XSchedule's queue fill: the producer due after every delivery, often,
#: and (the default) rarely — it ends the kernel's delivery runs
K_MIN_QUEUE = [1, 3, 100]
MEMORY_LIMITS = [None, None, 0, 1, 3, 8, 30]
XMARK_PREDICATE_QUERIES = [
    "count(//item[location = 'United States']/name)",
    "count(/site/open_auctions/open_auction[bidder]/current)",
    "/site/people/person[profile/education][address]/name",
    "count(//item[mailbox/mail[from]]/name)",
]
#: downward, upward and sibling steps: entries through up-side borders,
#: down borders and every border
ENTRY_PATHS = [
    "/descendant-or-self::node()/child::*/child::*/child::*",
    "count(//a/b)+count(//b//c/*/a)",
    "//c/ancestor::a/b",
    "count(//b/following-sibling::a/c)",
]
#: a ``//`` prefix the rewrite cannot fold away: under a scan every entry
#: of its second step is implied reachable (``descendant_root_opt``)
IMPLIED = "/descendant-or-self::node()/parent::b/a/c"
TAPE_PATHS = ["/root/a/b/c", *ENTRY_PATHS[1:], ENTRY_PATHS[0], IMPLIED]
#: the counters added with the CPU identity, after the rows' digests
#: were taken: a digest covers the other fields, and a kind's
#: ``cpu_counters`` digest covers these
CPU_COUNTERS = ("page_registers", "set_ops", "queue_ops", "iterator_calls")
#: one fault profile per recovery mechanism
RECOVERED_BY = {
    "transient-errors": ("retries", "backoff_wait"),
    "latency-spikes": ("slow_services",),
    "lost-requests": ("timeouts", "retries"),
    "mixed": ("retries", "backoff_wait", "slow_services", "timeouts"),
}

#: documents, by spec: ``("random", seed, fragmentation, n_top, page
#: size, buffer pages)``, ``("exile", seed, fragmentation, None, page
#: size, buffer pages)`` (:func:`exile_tree`) or ``("xmark", scale, seed,
#: fragmentation, page size, buffer pages)``
ENTRY_DOC = ("random", 3, 0.7, 25, 512, 48)
PAPER_DOC = ("xmark", 0.05, 3, 1.0, 2048, 128)
DEAD_PAGE_DOC = ("xmark", 0.03, 3, 1.0, 2048, 96)
DEAD_PAGE_QUERIES = [
    "count(//item)",
    "count(/site/open_auctions/open_auction[bidder]/current)",
]
SHARED_DOC = ("random", 31, 0.5, 60, 512, 64)
WALK_DOC = ("random", 5, 1.0, 8, 256, 64)
TWICE_DOC = ("random", 3, 1.0, 25, 512, 64)


#: the gate settings of the ``gates`` family: what each switches off
GATES = {
    "no-synopsis": {"synopsis": False},
    "no-pathsummary": {"pathsummary": False},
    "unpruned": {"synopsis": False, "pathsummary": False},
}
GATE_PLANS = [*PLANS, "auto"]


#: the plan-equivalence points (the ``equivalence`` family): every axis,
#: a ``//`` prefix, attributes and text
EQUIVALENCE_PATHS = [
    "/root/a",
    "//b",
    "/root//c/d",
    "//a//b",
    "/root/a/b/c",
    "//e/text()",
    "//c/ancestor::a",
    "//d/parent::*",
    "//b/following-sibling::c",
    "//c/preceding-sibling::*",
    "//a/@id",
    "//b/descendant-or-self::d",
    "/root/*/*",
    "//a/..",
    "//*/self::d",
    "//b/ancestor-or-self::*",
]
#: the one fallback path (the first eight) that ``equivalence_doc(5)``'s summary refutes
REFUTED_PATH = "/root/a/b/c"
#: ``//`` prefixes the logical rewrite cannot fold into the next step (an
#: upward or attribute step follows): under a scan, the ones at the root
#: leave their step-1 junctions to the R-check shortcut (Sec. 5.4.5.4)
UNFOLDABLE = [
    "/descendant-or-self::node()/parent::b/a/c",
    "/descendant-or-self::node()/ancestor::a/b",
    "/descendant-or-self::node()/parent::*",
    "//@id",
    "/*//../a",
]
#: sibling steps after a ``//`` prefix, over ``EXILE_DOC``
EXILE_QUERIES = [
    "/descendant-or-self::node()/following-sibling::a",
    "/descendant-or-self::node()/preceding-sibling::b",
]
#: a layout that exiles several *first* children into their own clusters:
#: the regression trigger for the ``//``-prefix optimisation (XScan
#: speculates a sibling entry at every up-border, and an implicitly proven
#: step-1 junction would emit an exiled first child as a following-sibling
#: result though it has no preceding sibling at all)
EXILE_DOC = ("exile", 0, 0.0, None, 512, 48)
FAULTY_DOC = ("random", 11, 0.7, 40, 512, 48)
FAULTY_QUERIES = ("//a", "count(//b//c)", "/root/a/b")


def random_doc(seed: int, fragmentation: float) -> tuple:
    return ("random", seed, fragmentation, 25, 512, 48)


def equivalence_doc(seed: int, fragmentation: float = 0.5) -> tuple:
    return ("random", seed, fragmentation, 40, 512, 64)


def xmark_doc(fragmentation: float) -> tuple:
    return ("xmark", 0.01, 0, fragmentation, 2048, 64)


# ------------------------------------------------------------------ stores

_STORES: dict = {}


def store(doc) -> tuple:
    """``(store, logical tree)`` of a document spec, imported once."""
    doc = tuple(doc)
    if doc not in _STORES:
        _STORES[doc] = imported(doc)
    return _STORES[doc]


def imported(doc) -> tuple:
    """A private import of the document ``doc``: ``(store, logical tree)``."""
    page_size = doc[4]
    db = Database(page_size=page_size, buffer_pages=64)
    if doc[0] == "xmark":
        _, scale, seed, fragmentation, _, _ = doc
        tree = generate_xmark(scale=scale, tags=db.tags, seed=seed)
    elif doc[0] == "exile":
        _, seed, fragmentation, _, _, _ = doc
        tree = exile_tree(db.tags, seed)
    else:
        _, seed, fragmentation, n_top, _, _ = doc
        tree = make_random_tree(db.tags, seed=seed, n_top=n_top)
    db.add_tree(
        tree, "d", ImportOptions(page_size=page_size, fragmentation=fragmentation, seed=seed)
    )
    return db.store, tree


def exile_tree(tags, seed: int):
    """A random document of short texts under ``a``, ``b`` and ``c``
    elements at most six deep, 10 to 39 of them under the root."""
    rng = random.Random(seed)
    builder = TreeBuilder(tags)
    builder.start_element("root")

    def gen(depth):
        builder.start_element(rng.choice("abc"))
        for _ in range(rng.randrange(4) if depth < 5 else 0):
            if rng.random() < 0.25:
                builder.text("t" * rng.randrange(1, 10))
            else:
                gen(depth + 1)
        builder.end_element()

    for _ in range(rng.randrange(10, 40)):
        gen(0)
    builder.end_element()
    return builder.finish()


def database(doc, faults=None, tracer=None, shared=None, policy=None) -> Database:
    """A cold database over the document ``doc`` (or over the store
    ``shared``, a copy of it the caller holds), its disk controller on
    the scheduling ``policy`` named (None: SSTF)."""
    held = shared if shared is not None else store(doc)[0]
    return Database(
        page_size=doc[4],
        buffer_pages=doc[5],
        disk_policy=SchedulingPolicy(policy or "sstf"),
        store=held,
        faults=faults,
        tracer=tracer,
    )


# ------------------------------------------------------------------- draws


def draw(family, doc, query, plan, faults=None, traced=False, policy=None, **options) -> dict:
    out = {
        "family": family,
        "doc": list(doc),
        "query": query,
        "plan": plan,
        "options": options,
        "faults": faults,
        "traced": traced,
    }
    if policy is not None:
        # the disk controller's scheduling policy (absent: SSTF)
        out["disk_policy"] = policy
    return out


def eval_options(d: dict, **extra) -> EvalOptions:
    """The draw's options, ``extra`` laid over them."""
    options = dict(d["options"])
    budget = options.pop("budget", None)
    if budget is not None:
        budget = dict(budget)
        if "max_seconds" in budget:
            budget["max_seconds"] = float.fromhex(budget["max_seconds"])
        options["budget"] = ExecutionBudget(**budget)
    return EvalOptions(**{**options, **extra})


def fault_profile(d: dict) -> FaultProfile | None:
    faults = d["faults"]
    if faults is None:
        return None
    dead = frozenset(faults.get("dead_pages", ()))
    if "profile" not in faults:
        return FaultProfile(dead_pages=dead)
    return dataclasses.replace(PROFILES[faults["profile"]], seed=faults["seed"], dead_pages=dead)


class Outcome:
    """One run of a draw: the result or the error, and what ran it."""

    __slots__ = ("result", "error", "ctx", "tracer")

    def __init__(self, result, error, ctx, tracer) -> None:
        self.result = result
        self.error = error
        self.ctx = ctx
        self.tracer = tracer


def run(d: dict, tracer=None, shared=None, **extra) -> Outcome:
    """Execute the draw ``d`` cold (over the private store ``shared``
    when given).  ``tracer`` replaces the draw's own; ``extra`` options
    are laid over its options."""
    doc = d["doc"]
    if tracer is None and d["traced"]:
        tracer = Tracer()
    db = database(
        doc, faults=fault_profile(d), tracer=tracer, shared=shared, policy=d.get("disk_policy")
    )
    options = eval_options(d, **extra)
    ctx = db.env.fresh_context(options)
    try:
        result = db.execute(d["query"], doc="d", plan=d["plan"], options=options, context=ctx)
    except ReproError as err:
        return Outcome(None, err, ctx, tracer)
    return Outcome(result, None, ctx, tracer)


def books(outcome: Outcome) -> dict:
    """What a row pins of one run."""
    if outcome.error is not None:
        err = outcome.error
        clock = outcome.ctx.clock
        detail = getattr(err, "spent", None)
        detail = detail.hex() if isinstance(detail, float) else getattr(err, "page", None)
        return {
            "raised": [type(err).__name__, detail],
            "time": [clock.now.hex(), clock.cpu_time.hex(), clock.io_wait.hex()],
            "stats": outcome.ctx.stats.as_dict(),
        }
    result = outcome.result
    out = {
        "value": result.value,
        "n_nodes": None if result.nodes is None else len(result.nodes),
        "time": [result.total_time.hex(), result.cpu_time.hex(), result.io_wait.hex()],
        "stats": result.stats.as_dict(),
    }
    if result.partial:
        out["partial"] = True
    if outcome.tracer is not None:
        out["ops"] = {
            name: [roll["calls"], roll["out"]]
            for name, roll in sorted(result.trace_summary.operators.items())
        }
    return out


_REFERENCE: dict = {}


def reference(doc, query: str):
    """The reference evaluator's answer to ``query`` over the document
    ``doc``: a value, or its nodes' NodeIDs in the cached store.  Memoised,
    for a cached store's logical tree never changes."""
    key = (tuple(doc), query)
    if key not in _REFERENCE:
        held, tree = store(doc)
        want = evaluate_query(tree, query)
        if isinstance(want, list):
            want = list(map(held.documents["d"].import_result.nodeid_of, want))
        _REFERENCE[key] = want
    return _REFERENCE[key]


def check_reference(d: dict, outcome: Outcome) -> None:
    """A whole result is the reference evaluator's."""
    result = outcome.result
    if result is None or result.partial:
        return
    want = reference(d["doc"], d["query"])
    assert (result.nodes if isinstance(want, list) else result.value) == want, d


# ----------------------------------------------------------- other kinds
#
# Draws that are not one ``Database.execute``: a hand-built plan, a walk
# of the full-tree walker, queries between updates.  Each pins the
# sequence it observes (as a digest when it is long) and the books.


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:32]


def ctx_books(ctx) -> tuple:
    return ctx.clock.now.hex(), ctx.clock.cpu_time.hex(), ctx.stats.as_dict()


def digested(booked: tuple) -> tuple:
    """``ctx_books`` as the digests cover it: without the CPU counters."""
    now, cpu, stats = booked
    return now, cpu, {k: v for k, v in stats.items() if k not in CPU_COUNTERS}


def cpu_counters(stats: dict) -> list:
    return [stats[name] for name in CPU_COUNTERS]


#: the paths :func:`delivery_yields` runs, and whether XSchedule
#: speculates, by the mode a ``delivery`` key names (``delivery/<k>``:
#: the first)
DELIVERY_YIELDS = {
    "": ("/child::*/descendant::b", False),
    "speculative": ("/child::*/descendant::b", True),
    "speculative-up": ("/ancestor::a/b", True),
}


def delivery_yields(
    held, k_min_queue: int, mode: str = "", budget=None
) -> tuple[list, list, tuple]:
    """A path of :data:`DELIVERY_YIELDS` under XSchedule from every ``a``
    element at once — a producer that is due again and again while Q
    drains, and (speculating) crossings proved into clusters a context
    of theirs visited before: every result tuple with the clock and
    counters it is handed on at (and the CPU counters at each), and the
    books.  An ``ExecutionBudget`` given is armed on the run's context."""
    query, speculative = DELIVERY_YIELDS[mode]
    db = database(ENTRY_DOC, shared=held)
    contexts = db.execute("//a", doc="d", plan="simple").nodes
    options = EvalOptions(k_min_queue=k_min_queue, speculative=speculative)
    ((plan, _),) = db.prepare(query, "d", "xschedule", options).leaves
    ctx = db.make_context(options)
    ctx.arm_budget(budget)
    # postings of every page: the synopsis alone prunes
    postings = PathPostings.uniform(plan.steps, plan.document.page_nos)
    schedule = XSchedule(ctx, ContextScan(ctx, contexts), plan.steps, plan.document, postings)
    top = XAssembly(
        ctx, schedule, len(plan.steps), schedule=schedule, steps=plan.steps, document=plan.document
    )
    top.open()
    try:
        out = []
        cpu = []
        while (nid := top.next()) is not None:
            booked = ctx_books(ctx)
            now, _, stats = digested(booked)
            out.append((page_of(nid), slot_of(nid), now, stats))
            cpu.append(cpu_counters(booked[2]))
    finally:
        top.close()
        ctx.release()
    return out, cpu, ctx_books(ctx)


class SameRunTwice(Operator):
    """Pins one cluster and hands its step-0 entry run on twice."""

    def __init__(self, ctx, page_no, axis):
        super().__init__(ctx)
        self.page_no = page_no
        self.axis = axis

    def _produce(self):
        ctx = self.ctx
        ctx.set_current_frame(ctx.buffer.fix(self.page_no))
        slots = ctx.current_frame.page.colview().entry_slots(self.axis)
        for _ in range(2):
            yield EntryRun(0, self.page_no, slots)


def twice_setup(db):
    """The cluster whose ``/descendant::a/descendant::b`` entry run parks
    the most outcomes, the path's steps, and that count."""
    doc = db.document("d")
    steps = db.prepare("/descendant::a/descendant::b", "d", "xscan").leaves[0][0].steps
    page = max(
        map(db.store.segment.page, doc.page_nos),
        key=lambda p: build_tape(doc.path_ids, p.colview(), p.records, steps, 0).parked,
    )
    return page, steps, build_tape(doc.path_ids, page.colview(), page.records, steps, 0).parked


def drain_twice(db, page, steps, memory_limit) -> tuple:
    """The same entry run delivered twice to one kernel: the sizes of the
    S entries it holds at the end, and the books."""
    ctx = db.make_context(EvalOptions(memory_limit=memory_limit))
    top = XAssembly(
        ctx,
        SameRunTwice(ctx, page.page_no, Axis.DESCENDANT),
        2,
        steps=steps,
        document=db.document("d"),
    )
    top.open()
    try:
        while top.next() is not None:
            pass
        held = sorted(map(len, top._s.values()))
    finally:
        top.close()
        ctx.release()
    return held, ctx_books(ctx)


def walk_steps(db) -> list[CompiledStep]:
    """Every axis under a node, a name and a text test."""
    steps = []
    for axis in Axis:
        for kind, name in (("node", None), ("name", "b"), ("text", None)):
            tag = db.tags.lookup(name) if name else None
            steps.append(CompiledStep(axis, CompiledNodeTest.compile(kind, axis, tag)))
    return steps


def resumed_walks(db):
    """``full_step`` resumed at every entry border of every cluster (a
    fallback level on an instance from XSchedule's queue, or on a run's
    entry), for every step of :func:`walk_steps`: what each yields and
    charges."""
    for i, step in enumerate(walk_steps(db)):
        for page_no in db.document("d").page_nos:
            for entry in db.store.segment.page(page_no).colview().entry_slots(step.axis):
                ctx = db.make_context()
                got = list(full_step(ctx, step, page_no, entry, resumed=True))
                yield (i, page_no, entry), got, ctx


def closed_walks(db):
    """``/descendant::node()`` from the root, abandoned after every
    possible number of matches: what it yielded, the walk (still open)
    and its context."""
    root = db.document("d").root
    step = CompiledStep(Axis.DESCENDANT, CompiledNodeTest.compile("node", Axis.DESCENDANT, None))
    total = len(list(full_step(db.make_context(), step, page_of(root), slot_of(root))))
    for taken in range(1, total + 1):
        ctx = db.make_context()
        walk = full_step(ctx, step, page_of(root), slot_of(root), instances=True)
        got = [next(walk) for _ in range(taken)]
        yield got, walk, ctx


STORM_QUERIES = ("//a", "/root/*", "//b//c", "//e")


def update_storm() -> list:
    """Six rounds of a delete and an insert on a fragmented random
    document, the four queries after each: ``(round, query, nodes,
    total)`` — and every count is the reference evaluator's."""
    db = Database(page_size=512, buffer_pages=48)
    tree = make_random_tree(db.tags, seed=7, n_top=25)
    db.add_tree(tree, "d", ImportOptions(page_size=512, fragmentation=1.0, seed=7))
    doc = db.document("d")
    seen = []
    for round_no in range(6):
        victims = db.execute("//a", doc="d", plan="simple").nodes
        if victims:
            delete_subtree(db.store, doc, victims[round_no % len(victims)])
        roots = db.execute("/root", doc="d", plan="simple").nodes
        insert_node(db.store, doc, roots[0], 0, "a")
        logical = export_tree(db.store, doc)
        for query in STORM_QUERIES:
            result = db.execute(query, doc="d")
            assert len(result.nodes) == evaluate_query(logical, f"count({query})"), query
            seen.append([round_no, query, len(result.nodes), result.total_time.hex()])
    return seen


def update_then_query() -> list:
    """A delete and a slot-reusing insert between ``simple`` queries:
    ``(query, names, total)`` after the insert."""
    db = Database(page_size=512, buffer_pages=32)
    db.load_xml("<root><a>one</a><b/><c>two</c></root>", "d")
    doc = db.document("d")
    b = db.execute("/root/b", doc="d", plan="simple").nodes[0]
    delete_subtree(db.store, doc, b)
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    insert_node(db.store, doc, root, 2, "z")
    seen = []
    for query in ("/root/*", "/root/z", "//z"):
        result = db.execute(query, doc="d", plan="simple")
        names = [db.node_info(nid)[1] for nid in result.nodes]
        seen.append([query, names, result.total_time.hex()])
    return seen


#: the navigating plans a warm runtime runs twice (:func:`warm_twice`)
WARM_OPTIONS = {
    "xschedule-k100": {"k_min_queue": 100},
    "xschedule-k1": {"k_min_queue": 1},
    "xschedule-speculative": {"speculative": True},
}


def executed(result) -> list:
    """What an execution draw pins of one of several results."""
    times = [result.total_time.hex(), result.cpu_time.hex(), result.io_wait.hex()]
    return [result.value, None if result.nodes is None else len(result.nodes), times,
            result.stats.as_dict()]  # fmt: skip


def warm_twice(name: str) -> list:
    """Q6', Q7 and Q15 under ``xschedule`` twice over through one warm
    session, on a private import: the second round finds the buffer, the
    extension memos and the tapes the first left behind."""
    held, tree = imported(PAPER_DOC)
    db = database(PAPER_DOC, shared=held)
    session = db.session(warm=True, options=EvalOptions(**WARM_OPTIONS[name]))
    seen = []
    for _ in range(2):
        for query in (Q6_PRIME, Q7, Q15):
            result = session.execute(query, doc="d", plan="xschedule")
            want = evaluate_query(tree, query)
            if isinstance(want, list):
                ir = held.documents["d"].import_result
                assert result.nodes == [ir.nodeid_of(n) for n in want], query
            else:
                assert result.value == want, query
            seen.append(executed(result))
    return seen


DELIVERY_QUERIES = ("count(//a/b)", "//b/ancestor::a", "count(//a//c/following-sibling::*)")


def deliveries_across_updates() -> list:
    """``xschedule`` queries (``k_min_queue`` 1 and 100) on 256-byte pages
    between inserts that relocate records and re-patch the companions of
    borders on other pages: ``(round, query, k, books)``, every whole
    result the reference evaluator's."""
    rng = random.Random(2)

    def element(depth: int) -> str:
        tag = rng.choice("abc")
        inner = "".join(element(depth + 1) for _ in range(rng.randrange(4 - depth)))
        return f"<{tag}>{inner or rng.choice(['', 'tt'])}</{tag}>"

    db = Database(page_size=256, buffer_pages=32)
    xml = "<root>" + "".join(element(0) for _ in range(12)) + "</root>"
    db.load_xml(xml, "d", ImportOptions(page_size=256, fragmentation=1.0, seed=2))
    doc = db.document("d")
    seen = []
    for round_no in range(5):
        logical = export_tree(db.store, doc)
        for query in DELIVERY_QUERIES:
            want = evaluate_query(logical, query)
            for k in (1, 100):
                options = EvalOptions(k_min_queue=k)
                result = db.execute(query, doc="d", plan="xschedule", options=options)
                if isinstance(want, list):
                    assert len(result.nodes) == len(want), (round_no, query)
                else:
                    assert result.value == want, (round_no, query)
                seen.append([round_no, query, k, *executed(result)])
        for _ in range(3):
            parent = rng.choice(db.execute("//*", doc="d", plan="simple").nodes)
            insert_node(db.store, doc, parent, 0, rng.choice("abc"))
    return seen


#: a document the buffer holds whole (167 pages, 256 frames)
RESIDENT_DOC = ("random", 3, 1.0, 25, 512, 256)


def resident_deliveries() -> list:
    """``TAPE_PATHS`` under XSchedule from every ``a`` element
    (``k_min_queue`` 1 and 100, and speculating at 100), each on a fresh
    runtime whose buffer first fixes every page of the document: per
    leaf, the reads the run submitted, its results and the digest of its
    books, the counters a proof off a delivery tape books (duplicates,
    synopsis and postings refusals, proofs filed in Q) and the entries
    XSchedule parked with a delivered entry's left end under a key that
    no run of the target cluster parks in S."""
    held, _ = imported(RESIDENT_DOC)
    db = database(RESIDENT_DOC, shared=held)
    document = db.document("d")
    contexts = db.execute("//a", doc="d", plan="simple").nodes
    seen = []
    for query in TAPE_PATHS:
        for k, speculative in ((1, False), (100, False), (100, True)):
            options = EvalOptions(k_min_queue=k, speculative=speculative)
            for plan, _ in db.prepare(query, "d", "xschedule", options).leaves:
                ctx = db.make_context(options)
                for page_no in document.page_nos:
                    ctx.buffer.unfix(ctx.buffer.fix(page_no))
                assert all(map(ctx.buffer.is_resident, document.page_nos))
                before = ctx.stats.snapshot()
                schedule = XSchedule(
                    ctx, ContextScan(ctx, contexts), plan.steps, document, plan.postings
                )
                top = XAssembly(
                    ctx, schedule, len(plan.steps), schedule=schedule, steps=plan.steps,
                    document=document,
                )  # fmt: skip
                nodes = result_nodeids(top)
                stats = ctx.stats.diff(before)
                ctx.release()
                in_place = 0
                for s_r, _, n_l, _, target, _ in schedule._parked:
                    page = db.store.segment.page(page_of(target))
                    tape = build_tape(document.path_ids, page.colview(), page.records, plan.steps, s_r)
                    unparked = all(key != (s_r, target) for key, *_ in tape.walked)
                    in_place += n_l is not None and unparked
                seen.append({
                    "query": query, "k": k, "speculative": speculative,
                    "reads": stats.pages_requested, "nodes": [len(nodes), digest(sorted(nodes))],
                    "books": digest([ctx.clock.now.hex(), stats.as_dict()]),
                    "duplicates": stats.duplicates_suppressed,
                    "synopsis": stats.synopsis_entries_pruned,
                    "postings": stats.pathsummary_entries_pruned,
                    "filed": stats.queue_ops // 2 - len(contexts),
                    "parked_in_place": in_place,
                })  # fmt: skip
    return seen


class Runs(Operator):
    """Hands on the entry runs ``(page_no, step)`` of a path in turn,
    each cluster pinned as it is handed on."""

    def __init__(self, ctx, steps, runs):
        super().__init__(ctx)
        self.steps = steps
        self.runs = runs

    def _produce(self):
        ctx = self.ctx
        for page_no, step in self.runs:
            ctx.set_current_frame(ctx.buffer.fix(page_no))
            slots = ctx.current_frame.page.colview().entry_slots(self.steps[step].axis)
            yield EntryRun(step, page_no, slots)


def replayed_runs() -> dict:
    """Entry runs of a path with a ``//`` prefix (every step-1 key
    implied) handed to a scanning kernel in three orders, each on a fresh
    runtime with R and S empty: a step-1 run of ``IMPLIED`` alone
    (``implied``: its outcomes in all, and the merges and S size it
    leaves); a step-1 run of ``/descendant-or-self::node()/parent::b``
    twice (``duplicate``: its full-path outcomes, and the results); a run
    of a later step of ``IMPLIED`` that parks under a junction, then a
    step-1 run that proves it (``cascade``: the step-1 run's outcomes,
    and the merges) — each with the digest of its books."""
    held, _ = imported(TWICE_DOC)
    db = database(TWICE_DOC, shared=held)
    document = db.document("d")

    def walked(steps, page_no, step):
        page = db.store.segment.page(page_no)
        return build_tape(document.path_ids, page.colview(), page.records, steps, step).walked

    def outcomes(steps, runs, full=False):
        return sum(
            full is False or not paused
            for page_no, step in runs
            for _, found, _, _ in walked(steps, page_no, step)
            for _, _, paused in found
        )

    def drain(steps, runs):
        ctx = db.make_context()
        top = XAssembly(
            ctx, Runs(ctx, steps, runs), len(steps), descendant_root_opt=True, steps=steps,
            document=document,
        )  # fmt: skip
        top.open()
        try:
            results = 0
            while top.next() is not None:
                results += 1
            s_size = top._s_size
        finally:
            top.close()
            ctx.release()
        return {"results": results, "merges": ctx.stats.merges, "s_size": s_size,
                "books": digest(ctx_books(ctx))}  # fmt: skip

    ((plan, _),) = db.prepare(IMPLIED, "d", "xscan").leaves
    ((short, _),) = db.prepare("/descendant-or-self::node()/parent::b", "d", "xscan").leaves
    pages = document.page_nos
    implied = [(max(pages, key=lambda p: outcomes(plan.steps, [(p, 1)])), 1)]
    twice = 2 * [(max(pages, key=lambda p: outcomes(short.steps, [(p, 1)], full=True)), 1)]
    cascade = next(
        [(page_of(right), s_r), (page_no, 1)]
        for page_no in pages
        for _, found, _, _ in walked(plan.steps, page_no, 1)
        for s_r, right, paused in found
        if paused
        and s_r > 1
        and any(key == (s_r, right) for key, *_ in walked(plan.steps, page_of(right), s_r))
    )
    return {
        "implied": {"outcomes": outcomes(plan.steps, implied), **drain(plan.steps, implied)},
        "duplicate": {"full": outcomes(short.steps, twice, full=True), **drain(short.steps, twice)},
        "cascade": {"outcomes": outcomes(plan.steps, cascade[1:]), **drain(plan.steps, cascade)},
    }


def ordered_labels() -> dict:
    """The slice ``order_results`` books over the results of ``//b``
    under XSchedule on a runtime whose buffer holds fewer pages than the
    results span: hits on the pages still resident, misses on the others."""
    db = database(ENTRY_DOC)
    ctx = db.make_context()
    ((plan, _),) = db.prepare("//b", "d", "xschedule").leaves
    nodes = result_nodeids(plan.build(ctx))
    before = ctx.stats.snapshot()
    ordered = order_results(ctx, nodes)
    stats = ctx.stats.diff(before)
    ctx.release()
    return {
        "nodes": [len(ordered), digest(ordered)],
        "hits": stats.buffer_hits, "misses": stats.buffer_misses,
        "books": digest([ctx.clock.now.hex(), stats.as_dict()]),
    }  # fmt: skip


#: the one path and the two paths of one shared scan the ``scanmemo``
#: rows run over ``SCANMEMO_DOC``, and a ``memory_limit`` under which
#: S overflows inside a cluster with runs of it still to come, once the
#: ``scanmemo/ways`` insert is done (``tests/algebra/test_speculation_memo.py``)
SCANMEMO_QUERIES = (("xscan", "count(//a/b)", 150), ("xscan-shared", ENTRY_PATHS[1], 100))
SCANMEMO_DOC = random_doc(3, 0.7)


def scanned_five_ways() -> list:
    """One XScan path and one shared scan over one private import, in
    five ways one after the other, each run twice: pruned; the synopsis
    off; the path summary off; after an insert that patches the
    synopsis row of a scanned page (a step refused there before is no
    longer refused); under a ``memory_limit`` that trips inside a
    cluster.  Every run after the first finds what the runs before it
    left on the views (docs/algebra.md, "Run tapes"): ``(way, plan,
    books)`` per run, every value the reference evaluator's."""
    held, _ = imported(SCANMEMO_DOC)
    db = database(SCANMEMO_DOC, shared=held)
    doc = db.document("d")
    seen = []

    def scans(way, limited=False, **options):
        logical = export_tree(db.store, doc)
        for plan, query, limit in SCANMEMO_QUERIES:
            if limited:
                options["memory_limit"] = limit
            for _ in range(2):
                result = db.execute(query, doc="d", plan=plan, options=EvalOptions(**options))
                assert result.value == evaluate_query(logical, query), (way, plan)
                seen.append([way, plan, *executed(result)])

    scans("pruned")
    scans("no-synopsis", synopsis=False)
    scans("no-pathsummary", pathsummary=False)
    ((plan, _),) = db.prepare("count(//a/b)", "d", "xscan").leaves

    def refused(page_no):
        return [doc.synopsis.refusals(step)[0] >> page_no & 1 for step in plan.steps]

    # an ``a`` under an element on a page where the synopsis refuses the
    # step to ``a``: the insert patches that page's row, and no longer
    # refuses the step there
    # (one without an ``id``, which the new first child would follow)
    with_id = set(db.execute("//*[@id]", doc="d", plan="simple").nodes)
    elements = db.execute("//*", doc="d", plan="simple").nodes
    under = [nid for nid in elements if refused(page_of(nid))[0] and nid not in with_id]
    parent = under[len(under) // 2]
    before = refused(page_of(parent))
    insert_node(db.store, doc, parent, 0, "a")
    assert refused(page_of(parent)) != before
    scans("updated")
    scans("memory-limit", limited=True)
    return seen


def two_documents() -> list:
    """``SCANMEMO_QUERIES`` under every speculating plan over each of two
    documents in one store, the second's pages numbered 167 to 356 (a
    set of some of them, every fourth say, no longer iterates in
    ascending order): ``(document, plan, query, books)``, every value
    the reference evaluator's."""
    db = Database(page_size=512, buffer_pages=48)
    trees = {}
    for name, seed in (("one", 3), ("two", 5)):
        trees[name] = make_random_tree(db.tags, seed=seed, n_top=25)
        db.add_tree(trees[name], name, ImportOptions(page_size=512, fragmentation=0.7, seed=seed))
    assert max(db.document("one").page_nos) < 256 < max(db.document("two").page_nos)
    seen = []
    for plan in SPECULATING:
        for name, tree in trees.items():
            for _, query, _ in SCANMEMO_QUERIES:
                options = EvalOptions(speculative=True)
                result = db.execute(query, doc=name, plan=plan, options=options)
                assert result.value == evaluate_query(tree, query), (name, plan, query)
                seen.append([name, plan, query, *executed(result)])
    return seen


def other(key: str) -> dict:
    """The books of the draw ``key`` that is not one execution, as the
    golden file holds them."""
    kind, _, arg = key.partition("/")
    if kind == "delivery":
        mode, _, k_min_queue = arg.rpartition("/")
        out, cpu, booked = delivery_yields(store(ENTRY_DOC)[0], int(k_min_queue), mode)
        kept = {"yields": [len(out), digest(out)], "cpu_counters": digest(cpu), "books": booked}
    elif kind == "twice":
        db = database(TWICE_DOC, shared=imported(TWICE_DOC)[0])
        page, steps, parked = twice_setup(db)
        limit = None if arg == "unlimited" else parked + parked // 2
        held, booked = drain_twice(db, page, steps, limit)
        kept = {"held": held, "books": booked}
    elif kind == "walk":
        db = database(WALK_DOC)
        if arg == "resumed":
            seen = [(where, got, ctx_books(ctx)) for where, got, ctx in resumed_walks(db)]
        else:
            seen = []
            for got, walk, ctx in closed_walks(db):
                walk.close()
                seen.append((got, ctx_books(ctx)))
        kept = walks(seen)
    elif kind == "updates":
        if arg == "deliveries":
            kept = {"seen": deliveries_across_updates()}
        else:
            kept = {"seen": update_storm() if arg == "storm" else update_then_query()}
    elif kind == "warm":
        kept = {"seen": warm_twice(arg)}
    elif kind == "scanmemo":
        kept = {"seen": two_documents() if arg == "two-documents" else scanned_five_ways()}
    elif kind == "inplace":
        kept = {
            "deliveries": lambda: {"runs": resident_deliveries()},
            "replay": replayed_runs,
            "order": ordered_labels,
        }[arg]()
    else:
        raise KeyError(key)
    return json.loads(json.dumps(kept))


def walks(seen: list) -> dict:
    """How many walks and a digest of what each yielded and charged
    (each entry ends in its ``ctx_books``), and a digest of the CPU
    counters each charged."""
    cpu = [cpu_counters(entry[-1][2]) for entry in seen]
    seen = [(*entry[:-1], digested(entry[-1])) for entry in seen]
    return {"walks": [len(seen), digest(seen)], "cpu_counters": digest(cpu)}


OTHER_KEYS = [
    "delivery/1",
    "delivery/3",
    "delivery/100",
    *(f"delivery/{mode}/{k}" for mode in ("speculative", "speculative-up") for k in (1, 100)),
    "twice/unlimited",
    "twice/tight",
    "walk/resumed",
    "walk/closed",
    "updates/storm",
    "updates/fresh-columns",
    "updates/deliveries",
    *(f"warm/{name}" for name in WARM_OPTIONS),
    "inplace/deliveries",
    "inplace/replay",
    "inplace/order",
    "scanmemo/ways",
    "scanmemo/two-documents",
]


# ------------------------------------------------------------- generation


def _path(rng: random.Random, head: list[str]) -> str:
    steps = head + [rng.choice(AXES) for _ in range(rng.randrange(3))]
    return "/" + "/".join(f"{axis}::{rng.choice(TESTS)}" for axis in steps)


def _with_predicate(path: str, predicate: str, at: int) -> str:
    steps = path[1:].split("/")
    steps[at % len(steps)] += predicate
    return "/" + "/".join(steps)


def _knobs(rng: random.Random) -> dict:
    return {
        "speculative": rng.random() < 0.5,
        "memory_limit": rng.choice(MEMORY_LIMITS),
        "k_min_queue": rng.choice(K_MIN_QUEUE),
    }


def _seconds(limit: float, on_exceeded: str) -> dict:
    return {"budget": {"max_seconds": limit.hex(), "on_exceeded": on_exceeded}}


@contextmanager
def replayed_crossing_checks(delivery: bool):
    """Simulated instants of the budget checks the kernel makes for the
    crossing it replays between two entries of a run (:func:`in_run`)."""
    instants = []
    check_budget = EvalContext.check_budget

    def spy(self):
        kernel = sys._getframe(2)  # check_budget <- charge_call <- the kernel
        if kernel.f_code is XAssembly._produce.__code__ and in_run(kernel.f_locals, delivery):
            instants.append(self.clock.now)
        check_budget(self)

    EvalContext.check_budget = spy
    try:
        yield instants
    finally:
        EvalContext.check_budget = check_budget


def in_run(kernel_locals, delivery: bool) -> bool:
    """Is the kernel between two entries of a run, past the level
    crossings — of an entry run, or (``delivery``) of a delivery run: is
    the pull it is charging one that takes the next entry of the cluster
    XSchedule holds in place?"""
    if kernel_locals["top"] or kernel_locals["calls"]:
        return False
    if delivery:
        schedule = kernel_locals["schedule"]
        return (
            kernel_locals["entries"] is None
            and schedule is not None
            and schedule._current in schedule._q
            and (schedule._qcount >= schedule.k or schedule.exhausted)
        )
    return kernel_locals["entries"] is not None


def draws() -> dict:
    """Every execution draw, by key, in generation order."""
    rng = random.Random(29)
    out: dict = {}

    def add(key, family, doc, query, plan, faults=None, traced=False, policy=None, **options):
        assert key not in out, key
        out[key] = draw(family, doc, query, plan, faults, traced, policy, **options)

    def layout(rng):
        return random_doc(rng.randrange(8), rng.choice([0.0, 0.7, 1.0]))

    # the paper's queries at sf 0.05, speculating and navigating
    for name, query in (("Q7", Q7), ("Q15", Q15)):
        for plan in SPECULATING:
            add(f"{name}/{plan}", "paper", PAPER_DOC, query, plan, speculative=True)
    navigating = {
        "simple": ("simple", {}),
        "xschedule-k100": ("xschedule", {"k_min_queue": 100}),
        "xschedule-k1": ("xschedule", {"k_min_queue": 1}),
    }
    for name, query in (("Q6'", Q6_PRIME), ("Q7", Q7), ("Q15", Q15)):
        for row_name, (plan, options) in navigating.items():
            add(f"{name}/{row_name}", "paper", PAPER_DOC, query, plan, **options)

    # random documents: every ordered pair of axes heads a path once
    for i, pair in enumerate([a, b] for a in AXES for b in AXES):
        doc = layout(rng)
        query = _path(rng, pair)
        add(f"path/{i:03d}", "path", doc, query, rng.choice(PLANS), **_knobs(rng))
    for axis in AXES:
        doc = layout(rng)
        query = f"/{axis}::{rng.choice(TESTS)}"
        add(f"path/{axis}", "path", doc, query, rng.choice(PLANS), **_knobs(rng))
    for i, predicate in enumerate(PREDICATES * 2):
        doc = layout(rng)
        query = _with_predicate(_path(rng, [rng.choice(AXES)]), predicate, rng.randrange(4))
        add(f"predicate/{i:02d}", "path", doc, query, "simple", **_knobs(rng))

    # XMark sf 0.01: the paper queries under every plan, the predicate
    # queries under simple, three layouts
    for fragmentation in (0.0, 0.7, 1.0):
        doc = xmark_doc(fragmentation)
        for tag, _, query in PAPER_QUERIES:
            for plan in PLANS:
                add(f"xmark/{fragmentation}/{tag}/{plan}", "xmark", doc, query, plan)
        for i, query in enumerate(XMARK_PREDICATE_QUERIES):
            add(f"xmark/{fragmentation}/p{i}/simple", "xmark", doc, query, "simple")

    # fault profiles and seeds, every plan
    for i in range(30):
        faults = {"profile": rng.choice(list(RECOVERED_BY)), "seed": rng.randrange(26)}
        query = _path(rng, [rng.choice(AXES)])
        k_min_queue = rng.choice(K_MIN_QUEUE)
        plan = rng.choice(PLANS)
        add(f"faults/{i:02d}", "faults", ENTRY_DOC, query, plan, faults, k_min_queue=k_min_queue)
    for profile in RECOVERED_BY:
        for plan in PLANS:
            for seed in (1, 2, 3):
                faults = {"profile": profile, "seed": seed}
                add(f"grid/{profile}/{plan}/{seed}", "grid", ENTRY_DOC, DEEP_PATH, plan, faults)

    # traced: the roll-up per operator
    for i in range(20):
        doc = random_doc(rng.randrange(4), 1.0)
        plan = rng.choice(PLANS)
        query = _path(rng, [rng.choice(AXES)])
        if plan == "simple":
            query = _with_predicate(query, rng.choice(PREDICATES), rng.randrange(4))
        add(f"traced/{i:02d}", "traced", doc, query, plan, traced=True)

    # memory_limit trips under a stack of live extensions
    for plan, speculative in (("xscan", False), ("xschedule", True), ("xscan-shared", False)):
        for fragmentation in (0.7, 0.0, 1.0):
            doc = random_doc(3, fragmentation)
            for limit in (0, 1, 2, 3, 5, 8, 13):
                key = f"live/{plan}-{speculative}/{fragmentation}/{limit}"
                options = {"speculative": speculative, "memory_limit": limit}
                add(key, "live", doc, DEEP_PATH, plan, **options)

    # max_seconds cuts across the head of the run, where the plan runs
    for plan in ("xscan", "xschedule", "simple"):
        query = PREDICATE_PATH if plan == "simple" else DEEP_PATH
        add(f"cut/{plan}/whole", "cut", ENTRY_DOC, query, plan, speculative=True)
        total = run(out[f"cut/{plan}/whole"]).result.total_time
        for i in range(3, 60, 8):
            for mode in ("partial", "raise"):
                options = {"speculative": True, **_seconds(total * i / 400, mode)}
                add(f"cut/{plan}/{i}/{mode}", "cut", ENTRY_DOC, query, plan, **options)

    # the shared scan over two paths of different length
    add("shared/reopen", "shared", ENTRY_DOC, "count(//a/b)+count(//b//c/*/a)", "xscan-shared")
    query = "count(//a)+count(//b//c)"
    whole = run(draw("shared", SHARED_DOC, query, "xscan-shared"))
    for mode in ("partial", "raise"):
        cut = _seconds(whole.result.total_time / 3, mode)
        add(f"shared/cut/{mode}", "shared", SHARED_DOC, query, "xscan-shared", **cut)

    # entry runs: every producer, traced and not; cuts inside a run;
    # memory_limit trips with entries still to come
    for plan in SPECULATING:
        for i, query in enumerate(ENTRY_PATHS):
            for traced in (False, True):
                key = f"runs/{plan}/{i}" + ("/traced" if traced else "")
                add(key, "runs", ENTRY_DOC, query, plan, traced=traced, speculative=True)
    query = ENTRY_PATHS[0]
    for plan, speculative in [(plan, True) for plan in SPECULATING] + [("xschedule", False)]:
        config = plan if speculative else "xschedule-nonspeculative"
        armed = draw(
            "runs", ENTRY_DOC, query, plan,
            speculative=speculative, budget={"max_seconds": (1e9).hex()},
        )  # fmt: skip
        with replayed_crossing_checks(delivery=not speculative) as instants:
            run(armed)
        assert len(instants) > 100, config
        limits = [(f"even{i}", instants[-1] * i / 12) for i in (1, 4, 7, 10)]
        limits += [
            (f"aimed{j}", t - TICK / 2) for j, t in enumerate(instants[5 :: len(instants) // 7])
        ]
        for name, limit in limits:
            for mode in ("partial", "raise"):
                cut = _seconds(limit, mode)
                key = f"runs-cut/{config}/{name}/{mode}"
                add(key, "runs-cut", ENTRY_DOC, query, plan, speculative=speculative, **cut)
    for plan in SPECULATING:
        for limit in (0, 1, 2, 3, 5, 8, 13, 21):
            options = {"speculative": True, "memory_limit": limit}
            add(f"runs-memory/{plan}/{limit}", "runs-memory", ENTRY_DOC, query, plan, **options)

    # run tapes: the walks they replace, the room check under memory_limit
    for fragmentation, name in ((0.0, "contiguous"), (1.0, "fragmented")):
        doc = random_doc(3, fragmentation)
        for plan in SPECULATING:
            for i, path in enumerate(TAPE_PATHS):
                add(f"tapes/{name}/{plan}/{i}", "tapes", doc, path, plan, speculative=True)
            whole = run(draw("room", doc, query, plan, speculative=True))
            peak = max(1, whole.result.stats.speculative_instances // 8)
            for limit in sorted({1, 5, peak // 4, peak // 2, peak, 2 * peak, 10**9}):
                options = {"speculative": True, "memory_limit": limit}
                add(f"room/{name}/{plan}/{limit}", "room", doc, query, plan, **options)
    for x in "abc":
        for y in "ab":
            for z in "cd":
                path = f"count(//{x}/{y}/{z})"
                doc = random_doc(3, 1.0)
                add(f"bounded/{path}", "bounded", doc, path, "xscan", speculative=True)

    # a dead page across the first border of a full-tree walk
    for i, query in enumerate(DEAD_PAGE_QUERIES):
        tracer = Tracer()
        database(DEAD_PAGE_DOC, tracer=tracer).execute(query, doc="d", plan="simple")
        misses = [e.page for e in tracer.events if e.cat == "buffer" and e.name == "miss"]
        add(f"dead/{i}", "dead", DEAD_PAGE_DOC, query, "simple", {"dead_pages": [misses[1]]})

    # slow completions past the latency SLO: XSchedule sidelines their
    # clusters and drains them last
    for seed in (1, 2, 3):
        for slo in (0.01, 0.03):
            faults = {"profile": "latency-spikes", "seed": seed}
            options = {"latency_slo": slo}
            add(f"slo/{seed}/{slo}", "slo", ENTRY_DOC, DEEP_PATH, "xschedule", faults, **options)

    # the controller's other two policies under the navigating plans,
    # clean and with retries submitted for later than the head frees up
    for name, query in (("Q6'", Q6_PRIME), ("Q7", Q7), ("Q15", Q15)):
        for plan in ("simple", "xschedule"):
            for policy in ("fifo", "clook"):
                for faults in (None, {"profile": "mixed", "seed": 3}):
                    key = f"policy/{name}/{plan}/{policy}" + ("/mixed" if faults else "")
                    add(key, "policy", PAPER_DOC, query, plan, faults, policy=policy)

    # delivery tapes: XSchedule's deliveries from the cluster it holds,
    # left-complete — with and without speculation (a delivered proof
    # activates what S holds), the producer due after every delivery or
    # rarely
    for fragmentation, name in ((0.0, "contiguous"), (1.0, "fragmented")):
        doc = random_doc(3, fragmentation)
        for i, path in enumerate(TAPE_PATHS):
            for k in (1, 100):
                for speculative in (False, True):
                    key = f"deliveries/{name}/{i}/k{k}" + ("/speculative" if speculative else "")
                    options = {"speculative": speculative, "k_min_queue": k}
                    add(key, "deliveries", doc, path, "xschedule", **options)
    # a dead page among the clusters XSchedule requests, under the mixed
    # profile: the trip into fallback lands between two deliveries
    for name, query in (("Q6'", Q6_PRIME), ("Q7", Q7)):
        tracer = Tracer()
        database(PAPER_DOC, tracer=tracer).execute(query, doc="d", plan="xschedule")
        requested = [e.page for e in tracer.events if e.cat == "io" and e.name == "request"]
        for at in (3, 2):
            dead = requested[len(requested) // at]
            faults = {"profile": "mixed", "seed": 3, "dead_pages": [dead]}
            for k in (1, 100):
                key = f"deliveries/dead/{name}/1-in-{at}/k{k}"
                add(key, "deliveries", PAPER_DOC, query, "xschedule", faults, k_min_queue=k)

    # the paper's unpruned configurations: the synopsis, the path summary
    # or both switched off, under every plan and AUTO — the paper queries,
    # then random paths down from the root whose second steps go round the
    # axes (the family's own generator, so that no earlier draw moves)
    gates_rng = random.Random(37)
    seconds = iter(AXES * 7)
    for plan in GATE_PLANS:
        for gate, off in GATES.items():
            for name, query in (("Q6'", Q6_PRIME), ("Q7", Q7), ("Q15", Q15)):
                add(f"gates/{name}/{plan}/{gate}", "gates", PAPER_DOC, query, plan, **off)
            for i in range(4):
                head = [gates_rng.choice(AXES[1:3]), next(seconds)]
                query = _path(gates_rng, head)
                doc = layout(gates_rng)
                add(f"gates/path/{plan}/{gate}/{i}", "gates", doc, query, plan, **off)

    # plan equivalence: the plans on random layouts, speculating, in
    # fallback, with a one-entry queue, on a clean and a fragmented
    # layout; the ``//`` prefixes the rewrite cannot fold under every plan
    # and AUTO; sibling steps over a document that exiles first children
    paths = EQUIVALENCE_PATHS
    for seed in (0, 1, 2):
        for plan in PLANS[:3]:
            for query in paths:
                key = f"equivalence/{seed}/{plan}/{query}"
                add(key, "equivalence", equivalence_doc(seed), query, plan)
    for query in paths[:8]:
        key = f"equivalence/speculative/{query}"
        options = {"speculative": True, "k_min_queue": 4}
        add(key, "equivalence", equivalence_doc(4), query, "xschedule", **options)
        for plan in ("xschedule", "xscan"):
            options = {"speculative": True, "memory_limit": 2, "k_min_queue": 3}
            key = f"equivalence/fallback/{plan}/{query}"
            add(key, "equivalence", equivalence_doc(5), query, plan, **options)
            if query == REFUTED_PATH:
                # the summary refutes it before a page is read: the point
                # that enters fallback runs with the summary off
                key = f"equivalence/fallback-unrefuted/{plan}/{query}"
                doc = equivalence_doc(5)
                add(key, "equivalence", doc, query, plan, pathsummary=False, **options)
        for fragmentation in (0.0, 1.0):
            doc = equivalence_doc(8, fragmentation)
            add(f"equivalence/layout/{fragmentation}/{query}", "equivalence", doc, query, "xscan")
    for query in paths[:6]:
        key = f"equivalence/k1/{query}"
        add(key, "equivalence", equivalence_doc(7), query, "xschedule", k_min_queue=1)
    for plan in GATE_PLANS:
        for query in UNFOLDABLE:
            key = f"equivalence/unfoldable/{plan}/{query}"
            add(key, "equivalence", equivalence_doc(6), query, plan)
    for speculative in (False, True):
        for plan in PLANS[:3]:
            for query in EXILE_QUERIES:
                key = f"equivalence/exile/{speculative}/{plan}/{query}"
                options = {"speculative": speculative, "k_min_queue": 4}
                add(key, "equivalence", EXILE_DOC, query, plan, **options)

    # degraded, never wrong: every fault profile under every navigating
    # plan, speculating or not, each query, fault seeds and memory limits
    # (down to ones that force fallback) drawn
    faults_rng = random.Random(11)
    for profile in RECOVERED_BY:
        for plan in PLANS[:3]:
            for speculative in (False, True):
                for query in FAULTY_QUERIES:
                    faults = {"profile": profile, "seed": faults_rng.randrange(51)}
                    limit = faults_rng.choice([None, *range(9)])
                    key = f"fault-equivalence/{profile}/{plan}/{speculative}/{query}"
                    options = {"speculative": speculative, "memory_limit": limit}
                    add(key, "fault-equivalence", FAULTY_DOC, query, plan, faults, **options)
    return out


# ------------------------------------------------------------ the file


def write(rows: dict) -> None:
    fields = list(next(iter(rows.values()))["stats"])
    lines = [json.dumps({"stats": fields})]
    for key, row in rows.items():
        row = dict(row)
        if "stats" in row:
            row["stats"] = [row["stats"][name] for name in fields]
        lines.append(json.dumps({"key": key, **row}, separators=(",", ":"), sort_keys=True))
    GOLDEN.write_text("\n".join(lines) + "\n")


_PINNED: dict | None = None


def load(path: pathlib.Path) -> dict:
    """Every row of a golden file, by key, its ``stats`` as a dict."""
    lines = path.read_text().splitlines()
    fields = json.loads(lines[0])["stats"]
    out = {}
    for line in lines[1:]:
        row = json.loads(line)
        if "stats" in row:
            row["stats"] = dict(zip(fields, row["stats"]))
        out[row.pop("key")] = row
    return out


def pinned() -> dict:
    """Every row, by key, its ``stats`` (and a kind's books) as dicts."""
    global _PINNED
    if _PINNED is None:
        _PINNED = load(GOLDEN)
    return _PINNED


def moved(old, new, where: str = "") -> list[str]:
    """Where ``new`` does not carry a value of ``old`` unchanged (keys it
    adds to a dict, at any depth, are not moves)."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [m for k, v in old.items() for m in moved(v, new.get(k), f"{where}/{k}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [m for i, pair in enumerate(zip(old, new)) for m in moved(*pair, f"{where}[{i}]")]
    return [] if old == new else [where]


def compare(old_path: pathlib.Path) -> int:
    """Every row of an earlier golden file is in this one with every
    value it had: what a change that only adds rows or columns shows."""
    old = load(old_path)
    failed = 0
    for key, r in old.items():
        where = moved(r, pinned().get(key))
        if where:
            failed += 1
            print(f"MOVED {key}: {', '.join(where[:5])}")
    print(f"{len(old) - failed} of {len(old)} earlier rows carry every value unchanged")
    print(f"{len(pinned()) - len(old)} rows added")
    return 1 if failed else 0


def row(key: str) -> dict:
    return pinned()[key]


def rows(family: str) -> list[tuple[str, dict]]:
    """``(key, row)`` of every execution draw of ``family``."""
    return [(k, r) for k, r in pinned().items() if r.get("draw", {}).get("family") == family]


def pinned_books(r: dict) -> dict:
    return {k: v for k, v in r.items() if k != "draw"}


def check(key: str, **run_options) -> Outcome:
    """Run the pinned draw ``key`` (``run_options`` as :func:`run`): its
    books must be the row's, the CPU seconds of its result's slice that
    slice's counters priced, a whole result the reference evaluator's.
    Returns the run for the caller's structural checks."""
    r = row(key)
    outcome = run(r["draw"], **run_options)
    assert books(outcome) == pinned_books(r), key
    check_priced(key, outcome)
    check_reference(r["draw"], outcome)
    return outcome


def replay(key: str) -> None:
    """Check the pinned draw ``key`` twice in one process; a traced
    draw's two runs must also emit the same events."""
    first = check(key)
    second = check(key)
    if first.tracer is not None:
        same_events(first.tracer, second.tracer)


def same_events(first: Tracer, second: Tracer) -> None:
    """Two runs' trace event streams agree tick for tick: as many events,
    each the same on timestamp, category, name, page and duration."""
    a, b = list(first.events), list(second.events)
    assert first.events_recorded == second.events_recorded and len(a) == len(b), (
        f"trace event streams differ in length: "
        f"{first.events_recorded} vs {second.events_recorded}"
    )
    for index, (x, y) in enumerate(zip(a, b)):
        assert (x.ts, x.cat, x.name, x.page, x.dur) == (y.ts, y.cat, y.name, y.page, y.dur), (
            f"trace event {index} differs between runs: {x!r} vs {y!r}"
        )


def check_priced(key: str, outcome: Outcome) -> None:
    """The CPU identity for the result's slice: its CPU seconds are the
    counters it books priced (the runtime's hold by definition)."""
    result = outcome.result
    if result is not None:
        priced_result = outcome.ctx.costs.price(result.stats)
        assert result.cpu_time == priced_result, f"{key}: CPU identity broken for the result"


def generate() -> dict:
    rows_out: dict = {}
    for key, d in draws().items():
        outcome = run(d)
        check_priced(key, outcome)
        check_reference(d, outcome)
        rows_out[key] = {"draw": d, **books(outcome)}
    for key in OTHER_KEYS:
        rows_out[key] = other(key)
    return rows_out


def main(argv: list[str]) -> int:
    if "--compare" in argv:
        return compare(pathlib.Path(argv[argv.index("--compare") + 1]))
    if "--write" in argv:
        rows_out = generate()
        write(rows_out)
        print(f"wrote {len(rows_out)} rows to {GOLDEN}")
        return 0
    selected = pinned()
    if "--only" in argv:
        prefixes = tuple(a for a in argv[argv.index("--only") + 1 :] if a != "--replay")
        if not prefixes:
            print("--only takes one or more key prefixes")
            return 2
        selected = {key: r for key, r in selected.items() if key.startswith(prefixes)}
    keys = list(selected)
    runs = 1
    if "--replay" in argv:
        keys.sort(reverse=True)
        runs = 2
    failed = 0
    for key in keys:
        r = selected[key]
        try:
            if "draw" not in r:
                for _ in range(runs):
                    assert other(key) == r, key
            elif runs == 2:
                replay(key)
            else:
                check(key)
        except (AssertionError, ReproError) as err:
            failed += 1
            print(f"MOVED {key}" if type(err) is AssertionError else f"MOVED {key}: {err!r}")
    print(f"{len(selected) - failed} of {len(selected)} rows as pinned")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
