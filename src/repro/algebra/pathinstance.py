"""Partial path instances (paper Sec. 4).

The paper represents a partial path instance by the 4-tuple
``(S_L, N_L, S_R, N_R)``.  Our pipeline representation refines this with
the bookkeeping the operators need:

* ``s_l`` / ``n_l`` — the left end.  For a *left-complete* instance,
  ``n_l`` is the NodeID of the originating context node (or ``None`` once
  speculative merging has lost the concrete context, see XAssembly).  For
  a *left-incomplete* instance (``left_open=True``), ``n_l`` is the
  junction: the NodeID of the entry border record the instance
  speculatively starts at.
* ``s_r`` — number of completed steps, exactly the paper's ``S_R`` (a
  right-incomplete instance paused inside step ``s_r + 1``).
* right end — while an instance is extended by the path kernel's XStep
  levels, its right end is *swizzled*: ``slot`` on the current cluster's
  page (the frame pinned by the I/O-performing operator).  ``is_border``
  marks a paused crossing.  In fallback mode (and in the Simple method)
  ``page_no`` is set explicitly because navigation is no longer confined
  to one cluster.
* ``resumed`` — the right end is an entry border record just delivered by
  the I/O operator; the level that extends it applies its *resume* axis.

Instances parked in the main-memory structures R, S and Q are stored
unswizzled (plain NodeIDs), mirroring Sec. 3.6.

An I/O operator that speculates (Sec. 5.4.3) does not build its
left-incomplete instances one by one: it hands on one
:class:`EntryRun` per (cluster, step), which the path kernel walks in
place or takes in from its memoised tape — a cluster's runs after the
first without a pull, handed over in place (``take_run``).
"""

from __future__ import annotations

from typing import Sequence

from repro.storage.nodeid import NodeID


class PathInstance:
    """One partial path instance flowing through the pipeline."""

    __slots__ = ("s_l", "n_l", "left_open", "s_r", "slot", "is_border", "resumed", "page_no")

    def __init__(
        self,
        s_l: int,
        n_l: NodeID | None,
        left_open: bool,
        s_r: int,
        slot: int,
        is_border: bool,
        resumed: bool = False,
        page_no: int | None = None,
    ) -> None:
        self.s_l = s_l
        self.n_l = n_l
        self.left_open = left_open
        self.s_r = s_r
        self.slot = slot
        self.is_border = is_border
        self.resumed = resumed
        self.page_no = page_no

    @property
    def right_complete(self) -> bool:
        return not self.is_border

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        left = f"?{self.n_l}" if self.left_open else f"{self.n_l}"
        right = f"{'page ' + str(self.page_no) + ' ' if self.page_no is not None else ''}slot {self.slot}"
        flags = ("B" if self.is_border else "") + ("R" if self.resumed else "")
        return f"PathInstance([{self.s_l}]{left} -> [{self.s_r}]{right}{flags})"


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
