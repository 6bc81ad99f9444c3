"""Delivery tapes: XSchedule's deliveries taken in from memoised tapes.

The walk from one of XSchedule's Q entries depends only on (page, path,
step, slot, resumed), and the entries are left-complete, so the path
kernel transcribes it once (:func:`repro.algebra.xassembly.build_tape`
given ``start``) and from then on takes the held cluster's deliveries in
from their tapes whenever nothing can observe the clock inside them
(``XAssembly._deliveries``).  The level-stack walk stays the reference —
an armed budget, however inert, forces it — and the golden rows
(``tests/golden.py``, ``deliveries/*``, ``warm/*``,
``updates/deliveries``) pin the books of both.  The seams get a test
each: a delivered proof that activates what S holds, a held cluster at
``k_min_queue`` 1, a dead page that trips fallback between two entries
taken in place, a second execution on one warm runtime, and an update
that re-patches a border companion between two executions.
"""

import sys

import pytest

import repro.storage.update as update
from repro import ExecutionBudget
from repro.algebra.xassembly import DeliveryTapes, XAssembly
from repro.algebra.xschedule import XSchedule
from repro.sim.iosys import AsyncIOSystem
from repro.xmark import Q7
from tests import golden

#: an armed budget no run can exhaust: the kernel walks level by level
INERT = ExecutionBudget(max_seconds=1e9)


@pytest.fixture(scope="module", params=[0.0, 1.0], ids=["contiguous", "fragmented"])
def store(request):
    """A private import: its views start without tapes."""
    held, _ = golden.imported(golden.random_doc(3, request.param))
    return held


@pytest.fixture
def lookups(monkeypatch):
    """One entry per delivery the kernel looks up on a tape: whether the
    tape was kept already."""
    seen = []
    get = dict.get

    def spy(self, key, default=None):
        tape = get(self, key, default)
        seen.append(tape is not None)
        return tape

    monkeypatch.setattr(DeliveryTapes, "get", spy)
    return seen


def _in_replay(depth: int = 2) -> bool:
    """Is the caller's caller the kernel's replay of delivery tapes?"""
    return sys._getframe(depth).f_code is XAssembly._deliveries.__code__


def _from_a_player() -> bool:
    """Is a tape player (``_deliveries``, ``_replay``) on the stack?"""
    players = (XAssembly._deliveries.__code__, XAssembly._replay.__code__)
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code in players:
            return True
        frame = frame.f_back
    return False


def _observed(result):
    return (
        result.value,
        result.nodes,
        result.stats.as_dict(),
        result.total_time.hex(),
        result.cpu_time.hex(),
        result.io_wait.hex(),
    )


def _keys(layout: str, speculative: bool | None = None, k: int | None = None) -> list[str]:
    keys = [key for key, _ in golden.rows("deliveries") if key.startswith(f"deliveries/{layout}/")]
    if speculative is not None:
        keys = [key for key in keys if key.endswith("/speculative") == speculative]
    if k is not None:
        keys = [key for key in keys if key.split("/")[3] == f"k{k}"]
    return keys


def test_deliveries_come_off_their_tapes(request, store, lookups):
    """Tape (built on the first execution, found on the second),
    level-stack walk and the pinned books agree on every row."""
    layout = request.node.callspec.id
    keys = _keys(layout)
    assert len(keys) == 2 * 2 * len(golden.TAPE_PATHS)
    for key in keys:
        del lookups[:]
        first = golden.check(key, shared=store).result
        assert lookups, f"{key}: no delivery was looked up on a tape"
        del lookups[:]
        again = golden.check(key, shared=store).result
        assert lookups and all(lookups), f"{key}: a second execution built a tape"
        del lookups[:]
        walked = golden.check(key, shared=store, budget=INERT).result
        assert not lookups, "an armed budget must force the level-stack walk"
        assert _observed(first) == _observed(again) == _observed(walked), key


def test_a_read_a_proof_submits_goes_out_at_the_walks_instant(monkeypatch):
    """The tape players post the walk's counts only where the clock can
    be read; a proof whose enqueue requests its cluster is such a point,
    and so is every activation of a speculating XSchedule's run.  Every
    read submitted on the cold ``deliveries/*`` and
    ``delivery/speculative*`` rows goes out at the same page and
    simulated instant under tapes as under the walk an armed budget
    forces — and some of them go out from inside a player."""
    submitted = []  # (page, clock.now) of every read, and whether a player submitted it
    request = AsyncIOSystem.request

    def spy(self, page):
        submitted.append((page, self.clock.now.hex(), _from_a_player()))
        return request(self, page)

    monkeypatch.setattr(AsyncIOSystem, "request", spy)
    held = golden.store(golden.ENTRY_DOC)[0]

    def run(key, budget):
        if key.startswith("delivery/"):
            mode, k = key.removeprefix("delivery/").rsplit("/", 1)
            golden.delivery_yields(held, int(k), mode, budget)
        else:
            golden.run(golden.row(key)["draw"], budget=budget)

    off_tapes = 0
    for key in [key for key, _ in golden.rows("deliveries")] + SPECULATING:
        del submitted[:]
        run(key, None)
        taped = [(page, now) for page, now, _ in submitted]
        off_tapes += sum(player for _, _, player in submitted)
        del submitted[:]
        run(key, INERT)
        assert [(page, now) for page, now, _ in submitted] == taped, key
    assert off_tapes, "no proof off a tape submitted a read"


#: the golden rows of speculating XSchedule from contexts all over the document
SPECULATING = [
    f"delivery/{mode}/{k}" for mode in ("speculative", "speculative-up") for k in (1, 100)
]


@pytest.mark.parametrize("key", SPECULATING)
def test_a_delivered_proof_activates_what_s_holds(key, monkeypatch):
    """Under speculation, with contexts all over the document, a crossing
    proved off a delivery tape releases the S entries a first visit's
    runs parked on its junction; they are activated, and their results
    yielded, before the next outcome at the walk's clock and counters."""
    released = []
    prove = XAssembly._prove

    def spy(self, step, junction, s_l, n_l):
        before = len(self._ready)
        prove(self, step, junction, s_l, n_l)
        if _in_replay():
            released.append(len(self._ready) - before)

    monkeypatch.setattr(XAssembly, "_prove", spy)
    assert golden.other(key) == golden.row(key)
    assert golden.row(key)["yields"][0] > 10
    assert released, "no crossing was proved off a tape"
    assert any(released), "no proof off a tape released an S entry"


def test_the_held_cluster_is_taken_in_whole(request, store, monkeypatch):
    """At ``k_min_queue`` 1 the producer is never due while Q holds an
    entry: the replay takes the held cluster's later entries in place.
    Every entry Q files is popped once, one ``queue_op`` each way, so Q
    hands on more entries than the ``deliver()`` pulls deliver."""
    pulled = []  # per run: the entries deliver() handed on
    deliver = XSchedule.deliver

    def counted(self):
        item = deliver(self)
        pulled[-1] += type(item) is tuple
        return item

    monkeypatch.setattr(XSchedule, "deliver", counted)
    in_place = 0
    for key in _keys(request.node.callspec.id, k=1):
        pulled.append(0)
        stats = golden.check(key, shared=store).result.stats
        assert stats.queue_ops % 2 == 0, key
        in_place += stats.queue_ops // 2 - pulled[-1]
    assert in_place > 0, "no entry was taken in place off a tape"


def test_a_dead_page_trips_fallback_between_two_entries_taken_in_place(monkeypatch):
    """A dead page under the mixed profile: the trip into fallback lands
    between two entries taken from a held cluster — before it off their
    tapes, after it on the walk, which extends them by full navigation —
    and the books are the pinned ones up to the raise of the lost data.
    Seen at each ``deliver()`` pull, with ``ctx.fallback``: the entries
    popped off Q since the pull before (what the replay took in place)
    and whether the pull itself takes the held cluster's next entry."""
    pulls = []  # per pull: (in fallback, taken in place before it, takes the held cluster's)
    deliver = XSchedule.deliver
    popped = {}  # per XSchedule: the entries popped off Q when its last pull returned

    def seen(self):
        gone = self._seq - self._qcount
        held = self._held is None and self._current in self._q and (
            self._qcount >= self.k or self.exhausted
        )
        pulls.append((self.ctx.fallback, gone - popped.get(self, gone), held))
        item = deliver(self)
        popped[self] = self._seq - self._qcount
        return item

    monkeypatch.setattr(XSchedule, "deliver", seen)
    keys = [key for key, _ in golden.rows("deliveries") if key.startswith("deliveries/dead/")]
    assert len(keys) == 8
    straddled = 0
    for key in keys:
        del pulls[:]
        outcome = golden.check(key)
        assert outcome.ctx.stats.fallbacks == 1, key
        before = [taken for fallback, taken, _ in pulls if not fallback]
        after = [(taken, held) for fallback, taken, held in pulls if fallback]
        assert not any(taken for taken, _ in after), f"{key}: a tape was replayed in fallback mode"
        straddled += any(before) and any(held for _, held in after)
    assert straddled, "no trip landed between two entries taken in place"


def test_a_warm_runtime_reuses_its_tapes(lookups):
    """The second execution on a warm runtime finds every tape the first
    built; the rows pin both rounds of each navigating plan."""
    held, _ = golden.imported(golden.PAPER_DOC)
    session = golden.database(golden.PAPER_DOC, shared=held).session(warm=True)
    first = session.execute(Q7, doc="d", plan="xschedule")
    assert lookups and not all(lookups)
    del lookups[:]
    again = session.execute(Q7, doc="d", plan="xschedule")
    assert lookups and all(lookups)
    assert again.value == first.value
    for name in golden.WARM_OPTIONS:
        assert golden.other(f"warm/{name}") == golden.row(f"warm/{name}"), name


def test_a_companion_rewrite_drops_the_delivery_tapes_of_its_page(monkeypatch):
    """Inserts that relocate records re-patch the companions of borders
    on other pages; a page whose view held delivery tapes loses them
    with the view, and the queries after the update are the pinned ones
    (and the reference evaluator's)."""
    dropped = []

    def spy(page, border, companion):
        view = page._colview
        held = view is not None and any(
            isinstance(tape, DeliveryTapes) for tape in view.tapes.values()
        )
        patch(page, border, companion)
        dropped.append(held and page._colview is None)

    patch = update._patch_companion
    monkeypatch.setattr(update, "_patch_companion", spy)
    assert golden.other("updates/deliveries") == golden.row("updates/deliveries")
    assert any(dropped), "no companion write hit a page holding delivery tapes"
