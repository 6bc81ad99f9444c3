"""XStep: intra-cluster step evaluation (paper Sec. 5.3.2).

XStep performs all of the *cheap* navigation in cost-sensitive plans.
It extends applicable path instances by one step using intra-cluster
edges only; a border encountered during enumeration is returned as a
right-incomplete path instance instead of being crossed.

Every plan runs its XStep chain inside XAssembly's path kernel
(:meth:`repro.algebra.xassembly.XAssembly._produce`), one level per
step over the pinned cluster's
:class:`~repro.storage.colview.ColumnView`.  What stays here is what the
kernel's levels share with the rest of the algebra: the pinned-page
check, and fallback mode (Sec. 5.4.6), in which a level behaves as a
plain Unnest-Map: :func:`extend_full` runs the walker Unnest-Map runs,
:func:`~repro.algebra.fullnav.full_step`.
"""

from __future__ import annotations

from typing import Iterator

from repro.algebra.context import EvalContext
from repro.algebra.fullnav import full_step
from repro.algebra.pathinstance import PathInstance
from repro.algebra.steps import CompiledStep
from repro.errors import PlanError


def pinned_page(ctx: EvalContext, step_index: int, page_no: int | None):
    """The current cluster's page; the instance in flight, on ``page_no``
    (None: not known), must live on it."""
    frame = ctx.current_frame
    if frame is None or (page_no is not None and page_no != frame.page.page_no):
        raise PlanError(
            f"XStep {step_index}: instance references page {page_no}, "
            f"current cluster is "
            f"{frame.page.page_no if frame else None}"
        )
    return frame.page


def extend_full(
    ctx: EvalContext, step: CompiledStep, step_index: int, p: PathInstance
) -> Iterator[PathInstance]:
    """Fallback: unrestricted navigation, as an Unnest-Map would do —
    :func:`~repro.algebra.fullnav.full_step` from ``p``'s right end,
    each match an instance that keeps ``p``'s left end."""
    assert p.page_no is not None
    s_l, n_l, left_open = p.s_l, p.n_l, p.left_open
    for page_no, slot in full_step(
        ctx, step, p.page_no, p.slot, resumed=p.resumed, instances=True
    ):
        yield PathInstance(s_l, n_l, left_open, step_index, slot, False, False, page_no)
