"""Kill-and-recover matrix: crash at every injection point, recover,
compare against the no-crash oracle.

A fixed mixed workload (inserts, subtree deletes, value updates, with
auto-checkpoints folding the log mid-run) executes under a
:class:`~repro.sim.faults.CrashPoint` for every step the durability
subsystem announces — WAL appends (torn mid-entry), checkpoint page
writes (torn mid-image), the checkpoint temp/rename steps, log resets,
and mid-operation deaths inside the update module itself.  After each
simulated death the store is recovered and must match the oracle's
state after the same acknowledged prefix *exactly*: document bytes,
synopsis rows, page count, and query answers.

Each sweep is a run of the golden file's ``crash`` family
(``tests/golden.py``): ``crash/{layout}/{seed}/schedule`` pins how often
each step occurs, and ``crash/{layout}/{seed}/{step}@{at}`` runs the
workload to one crash, recovers and asserts the durability floor and
the oracle equality.  The dispersed layout (1.0) is swept under import
seeds 1-3; the document-order layout (0.0) saves the same store under
every seed and is swept once.
"""

import pytest

from repro import Database
from repro.errors import SimulatedCrashError
from repro.sim.faults import CrashInjector, CrashPoint
from repro.storage.store import check_document
from repro.storage.wal import recover_store
from tests import golden
from tests.golden import CHECKPOINT_EVERY, crash_database, make_ops

LAYOUTS = (0.0, 1.0)  # document-order vs. fully dispersed clustering


@pytest.mark.parametrize("fragmentation", LAYOUTS, ids=lambda f: f"layout{f}")
def test_every_crash_point_recovers(fragmentation):
    sweeps = [seed for layout, seed in golden.CRASH_SWEEPS if layout == fragmentation]
    assert sweeps
    for seed in sweeps:
        prefix = f"crash/{fragmentation}/{seed}/"
        schedule = golden.row(prefix + "schedule")
        assert golden.other(prefix + "schedule") == schedule
        points = golden.crash_schedule(schedule["occurrences"])
        keys = [f"{prefix}{step}@{at}" for step, at in points]
        assert len(keys) >= 10  # the sweep is real, not degenerate
        assert [key for key in golden.pinned() if key.startswith(prefix)] == [
            prefix + "schedule",
            *keys,
        ]
        for key in keys:
            assert golden.other(key) == golden.row(key), key


@pytest.mark.parametrize("fragmentation", LAYOUTS, ids=lambda f: f"layout{f}")
def test_recovered_database_resumes_durable_operation(fragmentation, tmp_path):
    """Recover, re-attach, keep updating, crash again, recover again."""
    path = str(tmp_path / "resume.rpro")
    db = crash_database(fragmentation, 1)
    db.attach_wal(
        path,
        checkpoint_every=CHECKPOINT_EVERY,
        crash=CrashInjector(CrashPoint(step="wal-append", at=7)),
    )
    try:
        for op in make_ops(db):
            op()
    except SimulatedCrashError:
        pass
    recovered, report = Database.recover(path)
    recovered.attach_wal(path, checkpoint_every=CHECKPOINT_EVERY)
    root = recovered.execute("/root", doc="d", plan="simple").nodes[0]
    recovered.wal.insert("d", root, 0, "resumed")
    store, second = recover_store(path)
    # attach_wal checkpointed at the recovered LSN; the new op follows it
    assert second.checkpoint_lsn == report.last_lsn
    assert second.last_lsn == report.last_lsn + 1
    check_document(store, store.document("d"))


@pytest.mark.parametrize("fragmentation", LAYOUTS, ids=lambda f: f"layout{f}")
def test_crash_free_run_with_injector_matches_oracle(fragmentation):
    """An injector that never fires must not perturb the run at all."""
    inert = CrashInjector(CrashPoint(step="wal-append", at=10**9))
    assert golden.crash_free(fragmentation, 1, inert) == golden.crash_oracle(fragmentation, 1)
