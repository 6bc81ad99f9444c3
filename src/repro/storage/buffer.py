"""Page buffer manager with swizzling accounting (paper Sec. 1, 3.6).

The buffer manager is where the paper locates two of its three physical
cost factors:

* a buffer *miss* triggers disk I/O (synchronous, unless the page was
  prefetched through the asynchronous subsystem);
* even a buffer *hit* pays a hash-table lookup with latch acquisition —
  this is the cost of *swizzling* a NodeID into an in-memory pointer.

Operators therefore pass swizzled :class:`Frame` references between
adjacent XStep operators (free) and only go through :meth:`fix` when a
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
        "costs",
        "capacity",
        "stats",
        "tracer",
        "_frames",
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
        self.costs = costs
        self.capacity = capacity
        self.stats = stats
        self.tracer = tracer
        #: page_no -> frame, least recently used first
        self._frames: dict[int, Frame] = {}

    # ------------------------------------------------------------------ fix

    def fix(self, page_no: int) -> Frame:
        """Swizzle: translate a page number into a pinned frame.

        Charges the hash-lookup (swizzle) cost; on a miss, performs a
        *synchronous* read — this is the expensive path the Simple method
        takes for every inter-cluster navigation.
        """
        self.clock.work(self.costs.swizzle)
        self.stats.swizzles += 1
        tracer = self.tracer
        frame = self._frames.get(page_no)
        if frame is None:
            self.stats.buffer_misses += 1
            if tracer is not None:
                tracer.event(self.clock.now, "buffer", "miss", page=page_no)
            self.iosys.read_sync(page_no)
            frame = self._admit(page_no)
            for early_page in self.iosys.drain_early_completions():
                if early_page not in self._frames:
                    self._admit(early_page)
        else:
            self.stats.buffer_hits += 1
            if tracer is not None:
                tracer.event(self.clock.now, "buffer", "hit", page=page_no)
        frame.pins += 1
        self._touch(frame)
        return frame

    def try_fix_resident(self, page_no: int) -> Frame | None:
        """Swizzle only if the page is already buffered (no I/O)."""
        self.clock.work(self.costs.swizzle)
        self.stats.swizzles += 1
        frame = self._frames.get(page_no)
        if frame is None:
            return None
        self.stats.buffer_hits += 1
        if self.tracer is not None:
            self.tracer.event(self.clock.now, "buffer", "hit", page=page_no)
        frame.pins += 1
        self._touch(frame)
        return frame

    def unfix(self, frame: Frame) -> None:
        """Release one pin; the frame becomes evictable at zero pins."""
        if frame.pins <= 0:
            raise BufferError_(f"unfix of unpinned frame {frame.page_no}")
        frame.pins -= 1
        self.stats.unswizzles += 1
        self.clock.work(self.costs.unswizzle)

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
        if len(self._frames) >= self.capacity:
            self._evict()
        self.clock.work(self.costs.page_register)
        frame = self._frames[page_no] = Frame(self.segment.page(page_no))
        return frame

    def _evict(self) -> None:
        victim = next((f for f in self._frames.values() if f.pins == 0), None)
        if victim is None:
            raise BufferError_(
                f"buffer of {self.capacity} pages exhausted with all frames pinned"
            )
        del self._frames[victim.page_no]
        self.stats.evictions += 1
        if self.tracer is not None:
            self.tracer.event(self.clock.now, "buffer", "evict", page=victim.page_no)

    def _touch(self, frame: Frame) -> None:
        """Move ``frame`` to the most-recently-used end of the table."""
        page_no = frame.page.page_no
        self._frames[page_no] = self._frames.pop(page_no)
