"""Property: the batch-at-a-time kernels keep the pinned books, bit for bit.

Every plan navigates batch-at-a-time over columnar cluster views: the
cost-sensitive plans in the path kernel (``XAssembly._produce`` over the
I/O operator), ``simple``, predicate paths and fallback levels in the
full-tree walker (``fullnav.full_step``).  The golden draws
(``tests/golden.py``) pin what the record-at-a-time chain they replaced
booked — value, node count, hex times, every ``Stats`` field, the traced
roll-up — for random documents with every ordered pair of axes at the
head of a path and predicates under ``simple``, the XMark paper and
predicate queries, every plan, speculation, ``k_min_queue``,
``memory_limit``, fault profiles and ``max_seconds`` cuts.  Each test
here runs one family of draws; every whole result is also checked
against ``xpath/reference``.

The places where the fusion could drift keep their structural spies: a
memory-limit trip under a stack of live extensions, a budget blowing
inside a replayed ``iterator_call`` crossing, the shared scan re-opening
one kernel per cluster, and the operator roll-up of a traced run.
"""

import dataclasses
import traceback

import pytest

from repro import BudgetExceededError
from repro.algebra.xassembly import XAssembly
from repro.sim.clock import TICK
from repro.sim.stats import Stats
from tests import golden


def _check_family(family):
    keys = [key for key, _ in golden.rows(family)]
    assert keys, family
    for key in keys:
        golden.check(key)


def test_batched_run_is_bit_identical():
    """Random documents and layouts, every ordered pair of the nine
    navigated axes at the head of a path, every plan with drawn
    speculation, ``k_min_queue`` and ``memory_limit``; predicate steps
    under ``simple``."""
    _check_family("path")


def test_xmark_queries_are_bit_identical():
    """Every paper query shape, three layouts, all four plans; the
    predicate queries under ``simple``."""
    _check_family("xmark")


def test_switched_off_gates_are_bit_identical():
    """The paper's unpruned configurations: the synopsis, the path
    summary or both switched off, the paper queries and random paths
    under every plan and AUTO (whose pricing reads the gates too)."""
    _check_family("gates")


def test_batched_is_bit_identical_under_faults():
    """Retries, latency spikes and lost requests: the kernels issue the
    pinned fix/unfix sequence at the pinned simulated instants, so the
    fault dice roll as they did."""
    _check_family("faults")


def test_disk_policies_are_bit_identical():
    """FIFO and C-LOOK controllers under the navigating plans, clean and
    with retries: the controller's pick is pinned beyond SSTF's."""
    _check_family("policy")


def test_slow_clusters_are_sidelined():
    """Completions past the latency SLO: XSchedule sidelines their
    clusters, drains them last, and keeps the pinned books."""
    for key, _ in golden.rows("slo"):
        stats = golden.check(key).result.stats
        assert stats.slo_violations and stats.sidelined_clusters, key


def test_every_stats_field_is_exercised():
    """The golden file pins every ``Stats`` field, and each is nonzero in
    at least one row: a counter nothing moves any more is dead weight
    every result still reports as zero."""
    fields = [f.name for f in dataclasses.fields(Stats)]
    rows = golden.pinned().values()
    assert all(list(r["stats"]) == fields for r in rows if "stats" in r)
    live = {name for r in rows for name, value in r.get("stats", {}).items() if value}
    assert live == set(fields), sorted(set(fields) - live)


@pytest.mark.parametrize("profile_name,recovered_by", list(golden.RECOVERED_BY.items()))
def test_every_recovery_duration_is_on_the_time_grid(profile_name, recovered_by):
    """Each recovery mechanism runs on every plan: a backoff delay, a
    spiked service or a resubmission deadline created off the time grid
    would make the sums depend on their order, and the kernel (one
    multiply per event) would part from the pinned books (one addition
    per candidate)."""
    fired = dict.fromkeys(recovered_by, 0)
    for key, row in golden.rows("grid"):
        if row["draw"]["faults"]["profile"] != profile_name:
            continue
        result = golden.check(key).result
        assert result.total_time == result.cpu_time + result.io_wait
        assert (result.total_time / TICK).is_integer()
        for counter in recovered_by:
            fired[counter] += getattr(result.stats, counter)
    assert all(fired.values()), fired


def test_batched_trace_reconciles_and_does_not_perturb():
    """A tracer changes nothing: the traced run keeps the pinned books,
    including the roll-up of crossings per operator — the kernel reports
    one ``XStep`` call per ``iterator_call`` it charges — and the
    untraced run the same books without it; the summary's counters are
    the run's ``Stats``."""
    for key, row in golden.rows("traced"):
        traced = golden.check(key)
        result = traced.result
        assert result.trace_summary.counters == result.stats.as_dict()
        vanilla = golden.run({**row["draw"], "traced": False})
        pinned = {k: v for k, v in golden.pinned_books(row).items() if k != "ops"}
        assert golden.books(vanilla) == pinned, key
        plan = row["draw"]["plan"]
        names = {event.name for event in traced.tracer.events}
        if plan in ("xschedule", "xscan") and result.stats.node_tests:
            assert "xstep-batch" in names, key
        if plan == "simple" and result.stats.node_tests:
            # every Unnest-Map extension reports itself, predicate steps too
            assert "unnest-batch" in names, key


# ---------------------------------------------- where the fusion could drift


@pytest.mark.parametrize(
    "plan,speculative", [("xscan", False), ("xschedule", True), ("xscan-shared", False)]
)
def test_fallback_under_a_stack_of_live_extensions(monkeypatch, plan, speculative):
    """The memory limit trips while several levels of the kernel hold an
    extension: those finish intra-cluster, every extension started after
    the trip navigates the full tree — on a layout with few borders, a
    mixed one and one that is all borders — and the books are the pinned
    ones."""
    live_levels = []
    enter_fallback = XAssembly._enter_fallback

    def spy(self):
        # the kernel's suspended levels, plus the one that was running
        live_levels.append(len(self._iter.gi_frame.f_locals["stack"]) + 1)
        enter_fallback(self)

    monkeypatch.setattr(XAssembly, "_enter_fallback", spy)
    keys = [key for key, _ in golden.rows("live") if key.startswith(f"live/{plan}-{speculative}/")]
    assert len(keys) == 3 * 7
    for key in keys:
        assert golden.check(key).result.stats.fallbacks == 1, key
    assert max(live_levels) >= 2, "no trip happened under a stack of live extensions"


@pytest.mark.parametrize("plan", ["xscan", "xschedule", "simple"])
def test_budget_blows_inside_a_replayed_crossing(plan):
    """Sweep ``max_seconds`` across the head of the run, where the plan
    itself runs (past it the run is ordering its result, unchecked):
    wherever the clock crosses the limit — including between two of the
    ``iterator_call`` charges the kernel replays for idle levels, or
    (``simple``) with the walkers of a step and of its predicates
    suspended on one another — the partial result and the raise are
    pinned."""
    whole = f"cut/{plan}/whole"
    total = golden.check(whole).result.total_time
    for key, _ in golden.rows("cut"):
        if key.startswith(f"cut/{plan}/") and key != whole:
            golden.check(key)
    draw = golden.row(whole)["draw"]
    in_replayed_crossing = cuts = 0
    for i in range(1, 60):
        budget = {"max_seconds": (total * i / 400).hex(), "on_exceeded": "raise"}
        cut = golden.run({**draw, "options": {**draw["options"], "budget": budget}})
        if cut.error is None:
            continue
        assert isinstance(cut.error, BudgetExceededError)
        cuts += 1
        frames = [f.name for f in traceback.extract_tb(cut.error.__traceback__)]
        # raised by a charge the kernel itself replayed, not by the
        # consumer's or the I/O operator's own next()
        in_replayed_crossing += frames[-4:-2] == ["_produce", "charge_call"]
    assert cuts > 20, "the sweep hardly ever cut the run short"
    if plan != "simple":
        assert in_replayed_crossing, "no limit fell inside a replayed crossing"


def test_shared_scan_reopens_one_kernel_per_cluster(monkeypatch):
    """Two paths of different length over one physical pass: each path's
    kernel is re-opened for every cluster while its R and S carry over
    (losing them would lose every result that crosses a border)."""
    opens = []
    open_ = XAssembly.open

    def spy(self):
        opens.append(self)
        open_(self)

    monkeypatch.setattr(XAssembly, "open", spy)
    shared = golden.check("shared/reopen").result
    kernels = set(opens)
    assert len(kernels) == 2
    assert len(opens) == 2 * shared.stats.clusters_visited
    draw = golden.row("shared/reopen")["draw"]
    separate = golden.run({**draw, "plan": "xscan"}).result
    assert shared.value == separate.value
    assert shared.stats.merges > 0
