"""XScan: sequential-scan-based cluster access (paper Sec. 5.4.3).

The second I/O-performing operator.  Instead of scheduling individual
cluster accesses, XScan reads *every* cluster of the document exactly
once, in physical order — the access pattern the disk (and any OS
readahead) serves at streaming bandwidth.  Because clusters are visited
in physical rather than logical order, XScan speculatively produces
left-incomplete path instances for every entry border of each cluster;
XAssembly later merges them with the instances that prove their left
ends reachable.

Fallback (Sec. 5.4.6): XScan restarts its producer and degrades to the
identity operator — every context is re-delivered and the (now
unrestricted) XStep chain re-evaluates the whole path; R in XAssembly
prevents duplicate results.
"""

from __future__ import annotations

from typing import Iterator

from repro.algebra.base import Operator
from repro.algebra.context import EvalContext
from repro.algebra.pathinstance import PathInstance
from repro.algebra.steps import CompiledStep
from repro.storage.nav import speculative_entries
from repro.storage.nodeid import make_nodeid
from repro.storage.pathsummary import PathPostings
from repro.storage.store import StoredDocument
from repro.storage.synopsis import cost_effective_skips


class XScan(Operator):
    """The I/O-performing operator based on a single sequential scan."""

    __slots__ = ("producer", "steps", "document", "postings")

    def __init__(
        self,
        ctx: EvalContext,
        producer: Operator,
        steps: list[CompiledStep],
        document: StoredDocument,
        postings: PathPostings | None = None,
    ) -> None:
        super().__init__(ctx)
        self.producer = producer
        self.steps = steps
        self.document = document
        self.postings = postings

    def open(self) -> None:
        self.producer.open()
        super().open()

    def close(self) -> None:
        super().close()
        self.producer.close()

    def _produce(self) -> Iterator[PathInstance]:
        ctx = self.ctx
        # The paper requires the context input sorted by cluster id; we
        # group the (typically single) context instances per cluster.
        by_cluster: dict[int, list[PathInstance]] = {}
        all_contexts: list[PathInstance] = []
        for y in self.producer:
            assert y.page_no is not None
            ctx.charge_queue_op()
            by_cluster.setdefault(y.page_no, []).append(y)
            all_contexts.append(y)

        page_nos = self.document.page_nos
        synopsis = self.document.synopsis if ctx.options.synopsis else None
        # The path-summary postings refine the synopsis, never replace
        # it: transit residues live in the synopsis rows, so the filter
        # is only sound with the synopsis alongside.
        postings = self.postings if synopsis is not None else None
        if synopsis is not None:
            # Skip clusters that provably cannot contribute: no pending
            # context lives there and no step's speculative resume can
            # yield a candidate or a transit (conservative, so results
            # are bit-identical to the unpruned scan).  Consulting the
            # synopsis is planning metadata — no simulated time charged.
            # Only runs of prunable pages long enough to beat the seek
            # their gap induces are dropped: skipping an isolated page in
            # a streaming read costs more than transferring it.
            steps = self.steps
            prunable = [
                page_no not in by_cluster
                and synopsis.prunable_for_scan(page_no, steps)
                for page_no in page_nos
            ]
            skips = cost_effective_skips(
                page_nos, prunable, ctx.iosys.disk.geometry
            )
            if skips:
                ctx.stats.synopsis_clusters_pruned += len(skips)
            if postings is not None:
                # Cluster postings widen the prunable vector (any page the
                # postings prove irrelevant is as safely skippable as a
                # synopsis-pruned one); the synopsis-only skip set above
                # is a pointwise subset, so taking the union keeps the
                # synopsis counter identical to a postings-free run and
                # attributes only the extra skips to the path summary.
                combined = [
                    flag
                    or (
                        page_no not in by_cluster
                        and postings.prunable_for_scan(synopsis, page_no)
                    )
                    for flag, page_no in zip(prunable, page_nos)
                ]
                extra = (
                    cost_effective_skips(
                        page_nos, combined, ctx.iosys.disk.geometry
                    )
                    - skips
                )
                if extra:
                    ctx.stats.pathsummary_clusters_pruned += len(extra)
                    skips = skips | extra
            if skips:
                page_nos = [p for p in page_nos if p not in skips]
        readahead = ctx.options.scan_readahead
        batched = ctx.options.batched
        issued = 0
        for index, page_no in enumerate(page_nos):
            if ctx.fallback:
                break
            if readahead > 0:
                # asynchronous prefetch: keep a window of reads in flight
                while issued < len(page_nos) and issued <= index + readahead:
                    if not ctx.buffer.is_resident(page_nos[issued]):
                        ctx.iosys.request(page_nos[issued])
                    issued += 1
                while not ctx.buffer.is_resident(page_no):
                    done = ctx.iosys.get_completion()
                    if done is None:
                        break
                    ctx.buffer.admit_completed(done)
            frame = ctx.buffer.try_fix_resident(page_no)
            if frame is None:
                # synchronous sequential read (O_DIRECT semantics): the
                # disk detects the ascending pattern, so only transfer
                # time is paid, but it is serial with the CPU work
                frame = ctx.buffer.fix(page_no)
            ctx.set_current_frame(frame)
            ctx.stats.clusters_visited += 1

            for y in by_cluster.pop(page_no, ()):  # contexts first (paper)
                ctx.charge_instance()
                yield y
            for step_index, step in enumerate(self.steps):
                if ctx.fallback:
                    break
                if synopsis is not None and not synopsis.can_contribute(
                    page_no, step
                ):
                    # no entry of this cluster can extend this step: the
                    # speculative instances would all come up empty
                    ctx.stats.synopsis_entries_pruned += 1
                    continue
                if postings is not None and not postings.can_contribute(
                    synopsis, page_no, step_index
                ):
                    # the synopsis could not rule the cluster out, but the
                    # postings prove no node of this step's path set lives
                    # here and no transit residue remains either
                    ctx.stats.pathsummary_entries_pruned += 1
                    continue
                # the columnar view's precomputed border lists replace the
                # record scan; enumeration charges nothing in either mode
                entries = (
                    frame.page.colview().entry_slots(step.axis)
                    if batched
                    else speculative_entries(frame.page, step.axis)
                )
                for border_slot in entries:
                    ctx.charge_instance()
                    ctx.stats.speculative_instances += 1
                    yield PathInstance(
                        s_l=step_index,
                        n_l=make_nodeid(page_no, border_slot),
                        left_open=True,
                        s_r=step_index,
                        slot=border_slot,
                        is_border=True,
                        resumed=True,
                        page_no=page_no,
                    )

        if ctx.fallback:
            # restart the producer, behave as the identity operator: the
            # fallback step chain fully re-evaluates every context (the
            # trip itself was counted by ``EvalContext.trip_fallback``)
            for y in all_contexts:
                ctx.charge_instance()
                yield y
