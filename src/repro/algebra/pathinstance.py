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
* right end — while an instance flows through the XStep chain, its right
  end is *swizzled*: ``slot`` on the current cluster's page (the frame
  pinned by the I/O-performing operator).  ``is_border`` marks a paused
  crossing.  In fallback mode (and in the Simple method) ``page_no`` is
  set explicitly because navigation is no longer confined to one cluster.
* ``resumed`` — the right end is an entry border record just delivered by
  the I/O operator; the applicable XStep must apply its *resume* axis.

Instances parked in the main-memory structures R, S and Q are stored
unswizzled (plain NodeIDs), mirroring Sec. 3.6.

An I/O operator that speculates (Sec. 5.4.3) does not build its
left-incomplete instances one by one: it hands on one
:class:`EntryRun` per (cluster, step), which the path kernel walks in
place and only the scalar chain expands.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.algebra.context import EvalContext
from repro.storage.nodeid import NodeID, make_nodeid


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
    resumed.  Its ``instance_op`` is charged entry by entry, by whoever
    walks the run.  ``slots`` is every entry the step's axis has on the
    cluster (``ColumnView.entry_slots``), never a selection of them: the
    path kernel memoises its walk of a run per (cluster, path, step).
    """

    __slots__ = ("step", "page_no", "slots")

    def __init__(self, step: int, page_no: int, slots: Sequence[int]) -> None:
        self.step = step
        self.page_no = page_no
        self.slots = slots

    def feed(self, ctx: EvalContext) -> Iterable[PathInstance | EntryRun]:
        """What the I/O operator passes on: the run itself for the path
        kernel, one instance per entry for the scalar chain."""
        return (self,) if ctx.options.batched else self._instances(ctx)

    def _instances(self, ctx: EvalContext) -> Iterator[PathInstance]:
        step, page_no = self.step, self.page_no
        for slot in self.slots:
            ctx.charge_instance()
            ctx.stats.speculative_instances += 1
            yield PathInstance(
                step, make_nodeid(page_no, slot), True, step, slot, True, True, page_no
            )
