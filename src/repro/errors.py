"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class StorageError(ReproError):
    """A storage-layer invariant was violated (bad NodeID, full page, ...)."""


class StoreCorruptError(StorageError):
    """Stored data failed a structural validity check.

    Raised wherever the engine reads back records — navigation, export,
    persistence, the importer's finalisation — and finds a shape the
    writer can never have produced (a border where a core record must
    sit, a missing child list, a dangling companion).  These checks are
    *data* validation, not programming asserts: they must survive
    ``python -O``, which is why the storage layer raises this type
    instead of using ``assert`` (enforced by replint's runtime-assert
    rule; see ``docs/static-analysis.md``).
    """


class WalCorruptError(StoreCorruptError):
    """The write-ahead log failed a structural validity check.

    Raised for damage *before* the log's tail — a bad magic number, an
    unsupported version, an LSN that jumps backwards.  A torn or
    checksum-failing **tail** is not an error: recovery stops cleanly at
    the last valid entry instead (the expected shape of a crash).
    """


class SimulatedCrashError(ReproError):
    """A deterministic crash point fired (kill-and-recover testing).

    Raised by :class:`repro.sim.faults.CrashInjector` at the Nth
    occurrence of a durability step (WAL append, checkpoint page write,
    rename, ...).  Models the process dying at that instant: whatever
    bytes reached the OS before the raise are on disk — possibly a torn
    write — and everything in memory is lost.  Test harnesses catch this
    error, then call :func:`repro.storage.wal.recover_store` on the
    files left behind.
    """

    def __init__(self, step: str, occurrence: int) -> None:
        super().__init__(
            f"simulated crash at durability step {step!r} (occurrence {occurrence})"
        )
        self.step = step
        self.occurrence = occurrence


class BufferError_(StorageError):
    """The buffer manager could not satisfy a fix request.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`BufferError`.
    """


class XmlSyntaxError(ReproError):
    """The XML parser rejected its input document."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class XPathSyntaxError(ReproError):
    """The XPath parser rejected the query string."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnsupportedQueryError(ReproError):
    """The query parses but uses features outside the supported subset."""


class PlanError(ReproError):
    """A physical plan was mis-assembled or used out of protocol."""


class IOError_(ReproError):
    """The simulated I/O stack could not complete a request.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IOError` (an alias of :class:`OSError`).
    """


class PageReadError(IOError_):
    """A page read kept failing past the retry cap."""

    def __init__(self, page: int, attempts: int, sim_time: float) -> None:
        super().__init__(
            f"read of page {page} failed after {attempts} attempts "
            f"(at simulated t={sim_time:.6f}s)"
        )
        self.page = page
        self.attempts = attempts
        self.sim_time = sim_time


class RequestLostError(IOError_):
    """A request's completion never arrived despite resubmissions."""

    def __init__(self, page: int, attempts: int, sim_time: float) -> None:
        super().__init__(
            f"request for page {page} lost {attempts} times without an answer "
            f"(at simulated t={sim_time:.6f}s)"
        )
        self.page = page
        self.attempts = attempts
        self.sim_time = sim_time


class DiskProgressError(IOError_):
    """The disk simulation could not advance (an internal invariant broke)."""

    def __init__(self, message: str, pending_pages: tuple[int, ...], sim_time: float) -> None:
        super().__init__(
            f"{message} (pending pages {list(pending_pages)}, "
            f"at simulated t={sim_time:.6f}s)"
        )
        self.pending_pages = pending_pages
        self.sim_time = sim_time


class ClockHorizonError(ReproError):
    """A simulated clock ran past the horizon of exact time arithmetic.

    Simulated time is kept on a grid (:data:`repro.sim.clock.TICK`) so
    that every sum is exact; that holds below
    :data:`repro.sim.clock.HORIZON`.  Raised when a request starts on a
    clock beyond it — start a fresh runtime (``QuerySession.cool()``).
    """

    def __init__(self, sim_time: float) -> None:
        super().__init__(
            f"simulated clock at t={sim_time:.6f}s is past the horizon of exact "
            "time arithmetic; start a fresh runtime"
        )
        self.sim_time = sim_time


class BudgetExceededError(ReproError):
    """An execution budget limit was reached mid-query.

    ``partial`` tells drain loops whether the budget asked for a partial
    result (``on_exceeded="partial"``) instead of an error.
    """

    def __init__(
        self, dimension: str, limit: float, spent: float, partial: bool
    ) -> None:
        super().__init__(
            f"execution budget exceeded: {dimension} limit {limit:g} "
            f"reached (spent {spent:g})"
        )
        self.dimension = dimension
        self.limit = limit
        self.spent = spent
        self.partial = partial
