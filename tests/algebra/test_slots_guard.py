"""Guard: the datapath's hot classes must stay ``__slots__``-only.

Per-instance dicts on objects created thousands of times per query
(entry runs, records) or touched per navigation hop (operators,
pages, frames) cost both memory and attribute-lookup time.  (XSchedule's
queue entries are flat tuples and have no class to guard.)
This test pins the optimisation down so a refactor cannot silently
reintroduce ``__dict__`` on the hot path.
"""

import repro.algebra.fullnav  # noqa: F401  (registers Operator subclasses)
import repro.algebra.multiscan  # noqa: F401
from repro.algebra.base import Operator
from repro.algebra.misc import ContextScan, DuplicateElimination
from repro.algebra.pathinstance import EntryRun
from repro.algebra.unnestmap import UnnestMap
from repro.algebra.xassembly import XAssembly
from repro.algebra.xscan import XScan
from repro.algebra.xschedule import XSchedule
from repro.sim.clock import SimClock
from repro.storage.buffer import BufferManager, Frame
from repro.storage.page import Page
from repro.storage.record import BorderRecord, CoreRecord
from repro.storage.synopsis import ClusterSynopsis

HOT_CLASSES = (
    Operator,
    XScan,
    XSchedule,
    XAssembly,
    UnnestMap,
    ContextScan,
    DuplicateElimination,
    EntryRun,
    CoreRecord,
    BorderRecord,
    Page,
    Frame,
    BufferManager,
    SimClock,
    ClusterSynopsis,
)


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def test_hot_classes_define_slots():
    for cls in HOT_CLASSES:
        assert "__slots__" in vars(cls), f"{cls.__name__} lost its __slots__"


def test_hot_instances_have_no_dict():
    """``__slots__`` only works if every class in the MRO plays along."""
    for cls in (EntryRun, CoreRecord, BorderRecord, Page, Frame, SimClock):
        assert "__dict__" not in dir(cls) or not any(
            "__dict__" in vars(c) for c in cls.__mro__ if c is not object
        ), f"{cls.__name__} instances grew a __dict__"


def test_every_operator_subclass_defines_slots():
    """A single slotless subclass gives its instances a dict again; catch
    new operators at review time, not in a profile."""
    for cls in _all_subclasses(Operator):
        if not cls.__module__.startswith("repro."):
            continue  # test stubs may stay slotless
        assert "__slots__" in vars(cls), (
            f"Operator subclass {cls.__module__}.{cls.__name__} must define "
            "__slots__ (use an empty tuple if it adds no attributes)"
        )
