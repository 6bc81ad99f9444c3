"""Partial path instances (paper Sec. 4).

The paper represents a partial path instance by the 4-tuple
``(S_L, N_L, S_R, N_R)``.  The engine carries it as one flat tuple,
XSchedule's queue entry ``(s_r, seq, s_l, n_l, left_open, target,
resumed)``, wherever an instance travels between operators:

* ``s_l`` / ``n_l`` — the left end.  For a *left-complete* instance,
  ``n_l`` is the NodeID of the originating context node (or ``None`` once
  speculative merging has lost the concrete context, see XAssembly).  For
  a *left-incomplete* instance (``left_open=True``), ``n_l`` is the
  junction: the NodeID of the entry border record the instance
  speculatively starts at.
* ``s_r`` — number of completed steps, exactly the paper's ``S_R``.
* ``target`` — the right end's NodeID, ``N_R``.
* ``resumed`` — the right end is an entry border record a crossing was
  proved into (a right-incomplete instance paused inside step
  ``s_r + 1``); the level that extends it applies its *resume* axis.
* ``seq`` — Q's tie-breaker among entries of one cluster; 0 elsewhere.

A context is the trivial complete instance at it,
``(0, 0, 0, nid, False, nid, False)``.  Inside the path kernel
(:meth:`repro.algebra.xassembly.XAssembly._produce`) the same parts live
in locals, the right end swizzled to a slot of the pinned cluster; in
fallback mode (Sec. 5.4.6) a level walks from it with
:func:`~repro.algebra.fullnav.full_step`.  Instances parked in the
main-memory structures R, S and Q are stored unswizzled (plain NodeIDs),
mirroring Sec. 3.6.

An I/O operator that speculates (Sec. 5.4.3) does not build its
left-incomplete instances one by one: it hands on one
:class:`EntryRun` per (cluster, step), which the path kernel walks in
place or takes in from its memoised tape — a cluster's runs after the
first without a pull, handed over in place (``take_run``).
"""

from __future__ import annotations

from typing import Sequence


class EntryRun:
    """The speculative instances of one (cluster, step), unexpanded.

    Each entry border ``slot`` of ``slots`` (ascending) stands for the
    left-incomplete instance that resumes step ``step + 1`` there:
    ``s_l = s_r = step``, ``n_l`` the border's NodeID, paused and
    resumed.  Its ``instance_op`` is charged entry by entry, by the path
    kernel that walks the run or takes it in from its tape.  ``slots`` is
    every entry the step's axis has on the cluster
    (``ColumnView.entries``), never a selection of them: the kernel
    memoises its walk of a run per (cluster, path, step).  The runs of
    one cluster reach the kernel in step order, the first by a pull; the
    producer hands the others over in place (``take_run``) when the
    kernel asks right after a tape, each charged the ``iterator_call``
    of the pull it replaces.  Memoised (:func:`repro.algebra.xscan.
    speculation`) and shared, a run is never changed: the steps pruned
    before it are booked as it is drawn; ``tape`` caches its tape.
    """

    __slots__ = ("step", "page_no", "slots", "synopsis_pruned", "postings_pruned", "tape")

    def __init__(self, step: int, page_no: int, slots: Sequence[int], synopsis=0, postings=0):
        self.step = step
        self.page_no = page_no
        self.slots = slots
        self.synopsis_pruned = synopsis
        self.postings_pruned = postings
        self.tape = None
