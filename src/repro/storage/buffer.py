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
from repro.sim.iosys import AsyncIOSystem
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
    )

    def __init__(
        self,
        segment: Segment,
        iosys: AsyncIOSystem,
        capacity: int,
        tracer=None,
    ) -> None:
        if capacity < 1:
            raise BufferError_(f"buffer capacity must be positive, got {capacity}")
        self.segment = segment
        self.iosys = iosys
        #: the I/O subsystem's clock, and the books it prices
        self.clock = iosys.clock
        self.capacity = capacity
        self.stats = iosys.stats
        self.tracer = tracer
        #: page_no -> frame, least recently used first
        self._frames: dict[int, Frame] = {}

    # ------------------------------------------------------------------ fix
    #
    # A charge is its counter (swizzles, unswizzles, page_registers); the
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
        return self.swap(None, page_no)

    def swap(self, frame: Frame | None, page_no: int) -> Frame:
        """:meth:`unfix` of ``frame`` (None: nothing to release) followed
        by :meth:`fix` of ``page_no``, as one call: what a full-tree walk
        pays to cross a border.  A read that raises leaves ``frame``
        released."""
        stats = self.stats
        if frame is not None:
            if frame.pins <= 0:
                raise BufferError_(f"unfix of unpinned frame {frame.page_no}")
            frame.pins -= 1
            stats.unswizzles += 1
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

    def probe_fix(self, page_no: int) -> Frame:
        """Probe for ``page_no``, then fix it: a hit is one swizzle, a miss
        the probe's swizzle and then :meth:`fix`'s (with its read)."""
        stats = self.stats
        stats.swizzles += 1
        frames = self._frames
        frame = frames.pop(page_no, None)
        if frame is None:
            return self.swap(None, page_no)
        stats.buffer_hits += 1
        if self.tracer is not None:
            self.tracer.event(self.clock.now, "buffer", "hit", page=page_no)
        frames[page_no] = frame
        frame.pins += 1
        return frame

    def refix(self, frame: Frame) -> None:
        """:meth:`probe_fix` of the pinned ``frame``'s page (resident)
        followed by :meth:`unfix`, as one call: the swizzle (a hit), the
        LRU touch and the unswizzle, with the pin count as it was.  What
        XSchedule pays to hand on another entry of the cluster it holds.
        ``XAssembly._deliveries`` books the same in place for each entry
        it takes (the counts, and the touch before anything else can
        reorder the frames): keep the two in step."""
        if frame.pins <= 0:
            raise BufferError_(f"refix of unpinned frame {frame.page_no}")
        stats = self.stats
        stats.swizzles += 1
        stats.buffer_hits += 1
        page_no = frame.page.page_no
        if self.tracer is not None:
            self.tracer.event(self.clock.now, "buffer", "hit", page=page_no)
        self._frames[page_no] = self._frames.pop(page_no)
        stats.unswizzles += 1  # the unfix: after the hit's stamp

    def count_hits(self, pages: list[int]) -> None:
        """Book a read of each resident page of ``pages`` (in the order
        read) made without a call: what :meth:`fix` then :meth:`unfix`
        book for a hit — the swizzle, the hit, the unswizzle — and the LRU
        touch.  The caller posts it before anything can read the clock and
        calls :meth:`fix` on a miss; untraced only (a traced hit is an
        event at its instant).  Keep it in step with :meth:`fix`."""
        stats = self.stats
        stats.swizzles += len(pages)
        stats.buffer_hits += len(pages)
        stats.unswizzles += len(pages)
        frames = self._frames
        for page_no in pages:
            frames[page_no] = frames.pop(page_no)

    def unfix(self, frame: Frame) -> None:
        """Release one pin; the frame becomes evictable at zero pins."""
        if frame.pins <= 0:
            raise BufferError_(f"unfix of unpinned frame {frame.page_no}")
        frame.pins -= 1
        self.stats.unswizzles += 1

    def admit_completed(self, page_no: int) -> Frame:
        """Register a page whose asynchronous read just completed.

        Used by XSchedule/XScan after :meth:`AsyncIOSystem.get_completion`.
        Returns the (unpinned) frame; callers fix it via
        :meth:`probe_fix`.
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
