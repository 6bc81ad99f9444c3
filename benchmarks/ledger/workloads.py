"""The four pinned workloads of the perf ledger.

Every workload is XMark on 8 KiB pages behind a 256-page buffer with a
fully shuffled layout (``fragmentation=1.0``) and default ``EvalOptions``.
A *request* is one query or one update; a *round* is a pinned sequence of
requests, so every round of a workload does identical work.  One client,
closed loop: the next request is sent when the previous one has answered.

The query texts are pinned here rather than imported from ``repro.xmark``
so that an edit to the program's copy cannot silently change the workload.
Only ``repro``'s public API is used.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import statistics
import time
from collections import Counter

from repro import Database, ImportOptions, InsertOp, Result, SetValueOp, StorageError
from repro.sim.stats import Stats
from repro.storage.store import check_document
from repro.xmark import generate_xmark
from repro.xpath.reference import evaluate_query

PAGE_SIZE = 8192
BUFFER_PAGES = 256
DOC = "xmark"
#: XMark's xmlgen makes one document per scaling factor, and so does the
#: ledger: the generator's seed is pinned and ``--seed`` draws what differs
#: between deployments of one document, the physical page order the import
#: leaves (``ImportOptions.seed``) and the order requests arrive in.  Drawing
#: the document too moves the work of a round by up to 15% from seed to seed
#: (scan_lowsel: median round 214-248 ms over ten seeds, 221-234 ms with the
#: document pinned), which no bound tighter than 0.25 survives.
DOC_SEED = 1

Q6_PRIME = "count(/site/regions//item)"
Q7 = "count(/site//description)+count(/site//annotation)+count(/site//emailaddress)"
Q15 = (
    "/site/closed_auctions/closed_auction/annotation/description"
    "/parlist/listitem/parlist/listitem/text/emph/keyword/text()"
)

#: the 16 location paths of ``session_warm_auto`` in Zipf rank order: all
#: ten axes, count(), an attribute step, a predicate (predicates only
#: compile under the ``simple`` plan, so that one names its plan) and two
#: paths the path summary refutes at compile time
SESSION_PATHS = (
    ("/site/people/person/name", "auto"),
    ("count(/site/regions//item)", "auto"),
    ("count(/site/people/person/bidder)", "auto"),  # refuted
    ("count(/site/people/person/@id)", "auto"),
    ("/site/regions/europe/item/location", "auto"),
    ("count(//listitem/ancestor::item)", "auto"),
    ("//closed_auction/price/parent::closed_auction/date", "auto"),
    ("count(/site/open_auctions/open_auction[bidder]/current)", "simple"),
    ("/site/categories/category/name/following-sibling::description", "auto"),
    ("count(//bidder/preceding-sibling::initial)", "auto"),
    ("/site/closed_auctions/closed_auction/annotation/descendant::keyword", "auto"),
    ("count(/site/regions/asia/item/descendant-or-self::item)", "auto"),
    ("/site/people/person/profile/ancestor-or-self::person/emailaddress", "auto"),
    ("count(/site/regions/africa/item/self::item/name)", "auto"),
    ("/site/catgraph/edge/@from", "auto"),
    ("/site/regions/europe/item/annotation/author", "auto"),  # refuted
)
#: occurrences per rank in one 24-request round (Zipf s=1 over 16 ranks,
#: rounded so that every path runs at least once).  The counts are pinned
#: and the seed only draws the order: a draw of the counts themselves
#: would make rounds of different seeds differ in work by tens of percent.
SESSION_COUNTS = (5, 3, 2, 2) + (1,) * 12
SESSION_CACHE = 12

UPDATE_QUERIES = (
    "count(//keyword)",
    "count(//item)",
    "count(/site/ledger_probe)",
    "count(//listitem)",
)
PROBE_TAG = "ledger_probe"
CHECKPOINT_EVERY_ROUNDS = 50

#: ``Stats`` field -> per-layer metric that reports it
COUNTER_METRICS = {
    "pages_read": "sim.disk.pages_read",
    "seeks": "sim.disk.seeks",
    "seek_distance": "sim.disk.seek_distance",
    "sequential_reads": "sim.disk.sequential_reads",
    "io_requests": "sim.iosys.io_requests",
    "async_requests": "sim.iosys.async_requests",
    "sync_requests": "sim.iosys.sync_requests",
    "retries": "sim.iosys.retries",
    "buffer_hits": "storage.buffer.hits",
    "buffer_misses": "storage.buffer.misses",
    "evictions": "storage.buffer.evictions",
    "swizzles": "storage.buffer.swizzles",
    "synopsis_clusters_pruned": "storage.synopsis.clusters_pruned",
    "synopsis_entries_pruned": "storage.synopsis.entries_pruned",
    "pathsummary_clusters_pruned": "storage.pathsummary.clusters_pruned",
    "pathsummary_entries_pruned": "storage.pathsummary.entries_pruned",
    "paths_refuted": "storage.pathsummary.paths_refuted",
    "intra_hops": "algebra.intra_hops",
    "node_tests": "algebra.node_tests",
    "instances_created": "algebra.instances_created",
    "speculative_instances": "algebra.speculative_instances",
    "merges": "algebra.merges",
    "duplicates_suppressed": "algebra.duplicates_suppressed",
    "border_crossings_deferred": "algebra.border_crossings_deferred",
    "clusters_visited": "algebra.clusters_visited",
    "fallbacks": "algebra.fallbacks",
}


class Round:
    """What one round did: requests checked, and the numbers that must
    repeat exactly from round to round and from run to run."""

    def __init__(self) -> None:
        self.requests = 0
        self.failed = 0
        self.stats = Stats()
        self.sim_total = 0.0
        self.sim_cpu = 0.0
        self.sim_io_wait = 0.0
        #: plan families executed, plan-cache traffic, batch routing
        self.counts: Counter[str] = Counter()

    def add_timing(self, outcome) -> None:
        """Merge a ``Result``'s or ``BatchOutcome``'s clock and counters."""
        self.stats.merge(outcome.stats)
        self.sim_total += outcome.total_time
        self.sim_cpu += outcome.cpu_time
        self.sim_io_wait += outcome.io_wait

    def check(self, ok: bool) -> None:
        self.requests += 1
        self.failed += not ok

    def exact(self) -> dict[str, float]:
        """Everything that must be identical in every round of a workload."""
        out = {f"stats.{k}": v for k, v in self.stats.as_dict().items()}
        out.update({f"counts.{k}": v for k, v in sorted(self.counts.items())})
        out.update(
            sim_total=self.sim_total,
            sim_cpu=self.sim_cpu,
            sim_io_wait=self.sim_io_wait,
            requests=self.requests,
        )
        return out


def _session_traffic(session) -> Counter:
    return Counter(
        cache_hits=session.cache_hits,
        cache_misses=session.cache_misses,
        compiles=session.compiles,
        replans=session.replans,
    )


def _execute(session, query: str, plan: str, spans) -> Result:
    """One query through ``session``.

    Untraced, this is ``session.execute``.  Traced, the ledger makes the
    same public calls itself with a span around each, so the time between
    the layer boundaries is attributed without a timer inside ``repro``.
    """
    if not spans.decompose:
        return session.execute(query, doc=DOC, plan=plan)
    with spans.span("session.prepare"):
        compiled = session.prepare(query, DOC, plan)
    with spans.span("session.context"):
        ctx = session.context()
    mark = ctx.clock.checkpoint()
    before = ctx.stats.snapshot()
    with spans.span("CompiledQuery.execute"):
        value, nodes = compiled.execute(ctx)
    with spans.span("Result.from_context"):
        result = Result.from_context(
            ctx,
            mark,
            query=query,
            doc=DOC,
            plan_kinds=compiled.plan_kinds,
            value=value,
            nodes=nodes,
            stats=ctx.stats.diff(before),
        )
    with spans.span("session.observe_run"):
        session.observe_run(compiled, DOC, result.total_time)
    return result


class Workload:
    """Set-up shared by all workloads: generate, import, open a session."""

    name = ""
    why = ""
    scale = 0.0

    def __init__(self, seed: int, scratch: str, tracer=None) -> None:
        self.seed = seed
        self.scratch = scratch
        self.db = Database(page_size=PAGE_SIZE, buffer_pages=BUFFER_PAGES, tracer=tracer)
        start = time.perf_counter()
        self.tree = generate_xmark(scale=self.scale, tags=self.db.tags, seed=DOC_SEED)
        generated = time.perf_counter()
        self.document = self.db.add_tree(
            self.tree,
            DOC,
            ImportOptions(page_size=PAGE_SIZE, fragmentation=1.0, seed=seed),
        )
        self.generate_s = generated - start
        self.import_s = time.perf_counter() - generated
        self.sequence = self.pinned_sequence()
        self.expected: dict[str, object] = {}
        self.open()

    # ----------------------------------------------------------- per workload

    def pinned_sequence(self) -> list[tuple[str, str]]:
        """The ``(query, plan)`` requests of one round."""
        raise NotImplementedError

    def query_plans(self) -> list[tuple[str, str]]:
        """The distinct ``(query, plan)`` pairs the round compiles."""
        return list(dict.fromkeys(self.sequence))

    def open(self) -> None:
        """Whatever a user sets up after the import and before the first request."""

    def run_round(self, spans) -> Round:
        raise NotImplementedError

    def finish(self, speed, recover_repeats: int) -> tuple[int, int, dict[str, float]]:
        """Checks after the last round: ``(attempted, failed, metrics)``.
        ``speed`` is the ``probe.HostSpeed`` that scales host times."""
        return 0, 0, {}

    def layer_probes(self, speed, repeats: int) -> dict[str, tuple[float, int]]:
        """Traced runs only: ``{metric: (value, samples)}`` for layers that
        only this workload reaches."""
        return {}

    def close(self) -> None:
        """Release files; safe to call more than once."""

    # ----------------------------------------------------------------- oracle

    def build_oracle(self) -> None:
        """Answer every pinned query with the reference evaluator over the
        logical tree; node sets become NodeIDs through the import map."""
        nodeid_of = self.document.import_result.nodeid_of
        for query in dict.fromkeys(query for query, _ in self.query_plans()):
            answer = evaluate_query(self.tree, query)
            self.expected[query] = (
                answer if isinstance(answer, float) else [nodeid_of(n) for n in answer]
            )

    def agrees(self, query: str, result: Result) -> bool:
        want = self.expected[query]
        return result.value == want if isinstance(want, float) else result.nodes == want

    def fingerprint(self) -> dict[str, object]:
        """What identifies the generated input, whatever the seed: a later
        commit that changes any of it is measuring a different workload."""
        tree = self.tree
        histogram = Counter(
            (int(tree.kind_of(n)), tree.tag_name(n)) for n in range(len(tree))
        )
        lines = "\n".join(f"{k} {t} {c}" for (k, t), c in sorted(histogram.items()))
        return {
            "nodes": len(tree),
            "pages": self.document.n_pages,
            "tags_sha": hashlib.sha256(lines.encode()).hexdigest()[:16],
            "requests_sha": hashlib.sha256(repr(sorted(self.sequence)).encode()).hexdigest()[:16],
        }


class _ColdQueries(Workload):
    """Each request on a cold ``QuerySession``: fresh clock, empty buffer,
    empty plan cache — the paper's measurement discipline (Sec. 6.1)."""

    def run_round(self, spans) -> Round:
        rnd = Round()
        for index, (query, plan) in enumerate(self.sequence):
            spans.request_id = index
            with spans.span("request"):
                with spans.span("Database.session"):
                    session = self.db.session()
                result = _execute(session, query, plan, spans)
            rnd.add_timing(result)
            rnd.check(self.agrees(query, result))
            rnd.counts.update(_session_traffic(session))
            rnd.counts.update(kind.value for kind in result.plan_kinds)
        return rnd


class ScanLowsel(_ColdQueries):
    name = "scan_lowsel"
    why = (
        "Q7 and Q15 as sequential scans over a document larger than the buffer: "
        "simulated-CPU-bound, host time in XStep/XAssembly, almost none in buffer or disk model"
    )
    scale = 0.25

    def pinned_sequence(self):
        return [(Q7, "xscan"), (Q15, "xscan")]


class NavCold(_ColdQueries):
    name = "nav_cold"
    why = (
        "Q6', Q7, Q15 as simple and xschedule navigation, cold, document larger than the buffer: "
        "simulated-I/O-bound with evictions; a scan-kernel change must leave it unmoved"
    )
    scale = 0.25

    def pinned_sequence(self):
        return [(q, p) for q in (Q6_PRIME, Q7, Q15) for p in ("simple", "xschedule")]


class SessionWarmAuto(Workload):
    name = "session_warm_auto"
    why = (
        "24 short skewed requests over 16 paths through one warm session, document fits the buffer: "
        "zero disk after warm-up, so compile, plan cache and per-request fixed cost dominate"
    )
    scale = 0.1

    def pinned_sequence(self):
        sequence = [
            path for path, count in zip(SESSION_PATHS, SESSION_COUNTS) for _ in range(count)
        ]
        random.Random(self.seed).shuffle(sequence)
        return sequence

    def open(self) -> None:
        self.session = self.db.session(warm=True, cache_size=SESSION_CACHE)

    def run_round(self, spans) -> Round:
        rnd = Round()
        before = _session_traffic(self.session)
        for index, (query, plan) in enumerate(self.sequence):
            spans.request_id = index
            with spans.span("request"):
                result = _execute(self.session, query, plan, spans)
            rnd.add_timing(result)
            rnd.check(self.agrees(query, result))
            rnd.counts.update(kind.value for kind in result.plan_kinds)
        rnd.counts.update(_session_traffic(self.session) - before)
        return rnd


class UpdateRecover(Workload):
    name = "update_recover"
    why = (
        "queries beside logged updates on a private store, then crash recovery from the synced log prefix: "
        "update, WAL fsync, synopsis repair, shared-scan batch, checkpoint and replay"
    )
    scale = 0.1

    def pinned_sequence(self):
        qa, qb, qc, qd = UPDATE_QUERIES
        return [
            (qa, "auto"),
            ("set-value", "update"),
            (qb, "auto"),
            ("insert", "update"),
            (qc, "auto"),
            (qd, "auto"),
            ("delete", "update"),
        ]

    def query_plans(self):
        return [(query, "auto") for query in UPDATE_QUERIES]

    def open(self) -> None:
        self.store_path = os.path.join(self.scratch, "store.rpro")
        self.wal = self.db.attach_wal(self.store_path)
        self.session = self.db.session()
        self.site = self.db.execute("/site", doc=DOC, plan="simple").nodes[0]
        self.text = self.db.execute("//keyword/text()", doc=DOC, plan="simple").nodes[0]
        original = self.db.node_info(self.text)[2]
        # same length, so the record never moves and the round is net-neutral
        self.values = (original, "x" * len(original))
        self.rounds = 0
        self.wal_bytes = 0
        self.wal_updates = 0

    def run_round(self, spans) -> Round:
        rnd = Round()
        self.rounds += 1
        value = self.values[self.rounds % 2]
        qa, qb, qc, qd = UPDATE_QUERIES
        batch = [
            qa,
            SetValueOp(nid=self.text, value=value),
            qb,
            InsertOp(parent=self.site, position=0, tag_name=PROBE_TAG),
            qc,
            qd,
        ]
        log_size = os.path.getsize(self.wal.wal_path)
        before = _session_traffic(self.session)
        with spans.span("run_batch"):
            outcome = self.session.run_batch(batch, doc=DOC)
        results = outcome.results
        with spans.span("session.delete"):
            removed = self.session.delete(DOC, results[3].nodes[0])
        self.wal_bytes += os.path.getsize(self.wal.wal_path) - log_size
        self.wal_updates += 3
        rnd.add_timing(outcome)
        rnd.check(results[0].value == self.expected[qa])
        rnd.check(self.db.node_info(self.text)[2] == value)
        rnd.check(results[2].value == self.expected[qb])
        rnd.check(len(results[3].nodes) == 1)
        rnd.check(results[4].value == self.expected[qc] + 1)
        rnd.check(results[5].value == self.expected[qd])
        rnd.check(removed == 1)
        rnd.counts.update(_session_traffic(self.session) - before)
        rnd.counts.update(scan_shared=outcome.scan_shared, interleaved=outcome.interleaved)
        for result in results:
            rnd.counts.update(kind.value for kind in result.plan_kinds)
        if self.rounds % CHECKPOINT_EVERY_ROUNDS == 0:
            with spans.span("wal.checkpoint"):
                self.wal.checkpoint()
        return rnd

    def layer_probes(self, speed, repeats: int):
        """A checkpoint, and the same insert/delete pair on a twin store
        with no log attached: ``storage.update`` without ``storage.wal``."""
        twin = Database(page_size=PAGE_SIZE, buffer_pages=BUFFER_PAGES)
        twin.add_tree(
            generate_xmark(scale=self.scale, tags=twin.tags, seed=DOC_SEED),
            DOC,
            ImportOptions(page_size=PAGE_SIZE, fragmentation=1.0, seed=self.seed),
        )
        session = twin.session()

        def pair() -> None:
            session.delete(DOC, session.insert(DOC, self.site, 0, PROBE_TAG))

        pair_ms = speed.each_ms(pair, 4 * repeats)
        return {
            "storage.wal.checkpoint_s": (speed.seconds(self.wal.checkpoint), 1),
            "storage.update.apply_ms_p50": (statistics.median(pair_ms) / 2, len(pair_ms)),
        }

    def _answers(self, db: Database) -> list[float]:
        session = db.session()
        return [session.execute(q, doc=DOC).value for q in UPDATE_QUERIES]

    def _recovered_ok(self, db: Database, report, lsn: int, value: str) -> list[bool]:
        """One check per thing recovery must get right."""
        try:
            check_document(db.store, db.document(DOC))
            sound = True
        except StorageError:  # a violation is one failed check, not a crash
            sound = False
        live = self._answers(self.db)
        want = [self.expected[q] for q in UPDATE_QUERIES]
        return [
            report.last_lsn == lsn,
            sound,
            db.node_info(self.text)[2] == value,
            *(a == b == c for a, b, c in zip(self._answers(db), live, want)),
        ]

    def finish(self, speed, recover_repeats: int):
        """Crash without the unsynced tail, recover, compare with the live store.

        Killing the process would leave the operating system's cache
        intact, so the crash image is built here: the checkpoint file plus
        the log cut at its length when the last acknowledged update was
        synced.  An update made after that point, inside an open
        group-commit window, was never acknowledged and must be absent;
        every acknowledged one must be present.
        """
        wal = self.wal
        value = self.values[self.rounds % 2]
        crash_store = os.path.join(self.scratch, "crash.rpro")
        with wal.group_commit():
            synced_bytes = os.path.getsize(wal.wal_path)
            synced_lsn = wal.lsn
            probe = self.session.insert(DOC, self.site, 0, PROBE_TAG)
            shutil.copyfile(self.store_path, crash_store)
            with open(wal.wal_path, "rb") as log, open(crash_store + ".wal", "wb") as cut:
                cut.write(log.read(synced_bytes))
        self.session.delete(DOC, probe)
        crashed, report = Database.recover(crash_store, buffer_pages=BUFFER_PAGES)
        checks = self._recovered_ok(crashed, report, synced_lsn, value)

        wal.close()
        times = []
        for _ in range(recover_repeats):
            (recovered, report), seconds, factor = speed.timed(
                lambda: Database.recover(self.store_path, buffer_pages=BUFFER_PAGES)
            )
            times.append(seconds * factor)
        checks += self._recovered_ok(recovered, report, wal.lsn, value)
        metrics = {
            "storage.wal.recover_s": statistics.median(times),
            "storage.wal.replayed_ops": report.replayed,
            "storage.wal.bytes_per_update": self.wal_bytes / self.wal_updates,
        }
        return len(checks), checks.count(False), metrics

    def close(self) -> None:
        self.wal.close()


WORKLOADS = {w.name: w for w in (ScanLowsel, NavCold, SessionWarmAuto, UpdateRecover)}
