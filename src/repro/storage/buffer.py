"""Page buffer manager with swizzling accounting (paper Sec. 1, 3.6).

The buffer manager is where the paper locates two of its three physical
cost factors:

* a buffer *miss* triggers disk I/O (synchronous, unless the page was
  prefetched through the asynchronous subsystem);
* even a buffer *hit* pays a hash-table lookup with latch acquisition —
  this is the cost of *swizzling* a NodeID into an in-memory pointer.

Operators therefore keep a swizzled :class:`Frame` reference to the
cluster the path kernel's XStep levels work on (free) and only go
through :meth:`fix` when a
NodeID from the main-memory structures (R, S, Q) must be dereferenced.

Replacement is LRU over unpinned frames: the frame table is kept in
recency order (a touched frame moves to the end), so the victim is the
first unpinned frame met.  Reads only — the engine is a
query processor, so no dirty-page handling is needed.
"""

from __future__ import annotations

from repro.errors import BufferError_
from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel
from repro.sim.iosys import AsyncIOSystem
from repro.sim.stats import Stats
from repro.storage.page import Page, Segment


class Frame:
    """A buffered page with a pin count."""

    __slots__ = ("page", "pins")

    def __init__(self, page: Page) -> None:
        self.page = page
        self.pins = 0

    @property
    def page_no(self) -> int:
        return self.page.page_no

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame(page={self.page.page_no}, pins={self.pins})"


class BufferManager:
    """Fixed-capacity page buffer over a segment and the I/O subsystem."""

    __slots__ = (
        "segment",
        "iosys",
        "clock",
        "capacity",
        "stats",
        "tracer",
        "_frames",
        "_cost_swizzle",
        "_cost_unswizzle",
        "_cost_register",
    )

    def __init__(
        self,
        segment: Segment,
        iosys: AsyncIOSystem,
        clock: SimClock,
        costs: CostModel,
        capacity: int,
        stats: Stats,
        tracer=None,
    ) -> None:
        if capacity < 1:
            raise BufferError_(f"buffer capacity must be positive, got {capacity}")
        self.segment = segment
        self.iosys = iosys
        self.clock = clock
        self.capacity = capacity
        self.stats = stats
        self.tracer = tracer
        #: page_no -> frame, least recently used first
        self._frames: dict[int, Frame] = {}
        self._cost_swizzle = costs.swizzle
        self._cost_unswizzle = costs.unswizzle
        self._cost_register = costs.page_register

    # ------------------------------------------------------------------ fix
    #
    # A charge is a float add beside its counter (as in EvalContext); the
    # LRU touch is the lookup itself: pop, then reinsert at the MRU end.

    def fix(self, page_no: int) -> Frame:
        """Swizzle: translate a page number into a pinned frame.

        Charges the hash-lookup (swizzle) cost; on a miss, performs a
        *synchronous* read — this is the expensive path the Simple method
        takes for every inter-cluster navigation.  Pages that completed
        while the read blocked are admitted behind it, as long as an
        unpinned frame can make room (a page that finds none is read
        again when it is needed).
        """
        self.clock.now += self._cost_swizzle
        stats = self.stats
        stats.swizzles += 1
        frames = self._frames
        frame = frames.pop(page_no, None)
        if frame is None:
            stats.buffer_misses += 1
            if self.tracer is not None:
                self.tracer.event(self.clock.now, "buffer", "miss", page=page_no)
            iosys = self.iosys
            iosys.read_sync(page_no)
            frame = self._admit(page_no)
            frame.pins += 1
            if iosys.early:
                for early_page in iosys.drain_early_completions():
                    if early_page not in frames and (
                        len(frames) < self.capacity or self._evict()
                    ):
                        self._admit(early_page)
                frames[page_no] = frames.pop(page_no)
            return frame
        stats.buffer_hits += 1
        if self.tracer is not None:
            self.tracer.event(self.clock.now, "buffer", "hit", page=page_no)
        frames[page_no] = frame
        frame.pins += 1
        return frame

    def try_fix_resident(self, page_no: int) -> Frame | None:
        """Swizzle only if the page is already buffered (no I/O)."""
        self.clock.now += self._cost_swizzle
        stats = self.stats
        stats.swizzles += 1
        frames = self._frames
        frame = frames.pop(page_no, None)
        if frame is None:
            return None
        stats.buffer_hits += 1
        if self.tracer is not None:
            self.tracer.event(self.clock.now, "buffer", "hit", page=page_no)
        frames[page_no] = frame
        frame.pins += 1
        return frame

    def refix(self, frame: Frame) -> None:
        """:meth:`try_fix_resident` of the pinned ``frame``'s page
        followed by :meth:`unfix`, as one call: the swizzle (a hit), the
        LRU touch and the unswizzle, with the pin count as it was.  What
        XSchedule pays to hand on another entry of the cluster it holds."""
        if frame.pins <= 0:
            raise BufferError_(f"refix of unpinned frame {frame.page_no}")
        stats = self.stats
        stats.swizzles += 1
        stats.buffer_hits += 1
        stats.unswizzles += 1
        self.clock.now += self._cost_swizzle
        page_no = frame.page.page_no
        if self.tracer is not None:
            self.tracer.event(self.clock.now, "buffer", "hit", page=page_no)
        self._frames[page_no] = self._frames.pop(page_no)
        self.clock.now += self._cost_unswizzle

    def unfix(self, frame: Frame) -> None:
        """Release one pin; the frame becomes evictable at zero pins."""
        if frame.pins <= 0:
            raise BufferError_(f"unfix of unpinned frame {frame.page_no}")
        frame.pins -= 1
        self.stats.unswizzles += 1
        self.clock.now += self._cost_unswizzle

    def admit_completed(self, page_no: int) -> Frame:
        """Register a page whose asynchronous read just completed.

        Used by XSchedule/XScan after :meth:`AsyncIOSystem.get_completion`.
        Returns the (unpinned) frame; callers fix it via
        :meth:`try_fix_resident`.
        """
        frame = self._frames.get(page_no)
        if frame is None:
            frame = self._admit(page_no)
        return frame

    def is_resident(self, page_no: int) -> bool:
        return page_no in self._frames

    @property
    def n_resident(self) -> int:
        return len(self._frames)

    # ------------------------------------------------------------ internals

    def _admit(self, page_no: int) -> Frame:
        if len(self._frames) >= self.capacity and not self._evict():
            raise BufferError_(
                f"buffer of {self.capacity} pages exhausted with all frames pinned"
            )
        self.clock.now += self._cost_register
        self.stats.page_registers += 1
        frame = self._frames[page_no] = Frame(self.segment.page(page_no))
        return frame

    def _evict(self) -> bool:
        """Drop the least recently used unpinned frame; False if none."""
        for victim in self._frames.values():
            if not victim.pins:
                page_no = victim.page.page_no
                del self._frames[page_no]
                self.stats.evictions += 1
                if self.tracer is not None:
                    self.tracer.event(self.clock.now, "buffer", "evict", page=page_no)
                return True
        return False
