"""Guard: the datapath's hot classes must stay ``__slots__``-only.

Per-instance dicts on objects created thousands of times per query
(entry runs, records) or touched per navigation hop (operators,
pages, frames) cost both memory and attribute-lookup time.  (XSchedule's
queue entries are flat tuples and have no class to guard.)
This test pins the optimisation down so a refactor cannot silently
reintroduce ``__dict__`` on the hot path: every class defined in the
hot modules (``HOT_PACKAGES``, ``HOT_MODULES``) declares ``__slots__``
(``@dataclass(slots=True)`` counts), apart from the shapes that are
never per-tuple allocations, and no class re-declares a slot of a base.
"""

import enum
import importlib
import pkgutil
import typing

import repro.algebra
import repro.algebra.fullnav  # noqa: F401  (registers Operator subclasses)
import repro.algebra.multiscan  # noqa: F401
import repro.sim
from repro.algebra.base import Operator
from repro.algebra.xscan import XScan
from repro.sim.clock import SimClock
from repro.storage.buffer import BufferManager, Frame
from repro.storage.colview import ColumnView
from repro.storage.page import Page
from repro.storage.record import CoreRecord
from repro.storage.synopsis import ClusterSynopsis

HOT_PACKAGES = (repro.algebra, repro.sim)
HOT_MODULES = ("repro.storage.record", "repro.storage.colview", "repro.storage.pathsummary")
#: hot classes defined outside the hot modules
HOT_CLASSES = (Page, Frame, BufferManager, ClusterSynopsis)


def _exempt_by_shape(cls) -> bool:
    """Enums, exceptions, NamedTuples, Protocols and TypedDicts."""
    return (
        issubclass(cls, (enum.Enum, BaseException))
        or (issubclass(cls, tuple) and hasattr(cls, "_fields"))
        or getattr(cls, "_is_protocol", False)
        or typing.is_typeddict(cls)
    )


def _hot_module_classes():
    names = [
        info.name
        for package in HOT_PACKAGES
        for info in pkgutil.walk_packages(package.__path__, package.__name__ + ".")
    ]
    for name in (*names, *HOT_MODULES):
        module = importlib.import_module(name)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                if not _exempt_by_shape(value):
                    yield value


def _guarded_classes():
    return {*HOT_CLASSES, *_hot_module_classes()}


def _own_slots(cls) -> tuple[str, ...]:
    slots = vars(cls).get("__slots__", ())
    return (slots,) if isinstance(slots, str) else tuple(slots)


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def test_hot_classes_define_slots():
    classes = _guarded_classes()
    assert {XScan, SimClock, CoreRecord, ColumnView} <= classes  # not vacuous
    for cls in classes:
        assert "__slots__" in vars(cls), (
            f"{cls.__module__}.{cls.__qualname__} lost its __slots__"
        )


def test_no_class_redeclares_a_base_slot():
    """A slot declared again below its base wastes a descriptor and hides
    the base's, so the two classes see different storage."""
    for cls in _guarded_classes():
        for base in cls.__mro__[1:]:
            shared = set(_own_slots(cls)) & set(_own_slots(base))
            assert not shared, (
                f"{cls.__qualname__} re-declares slot(s) {sorted(shared)} "
                f"of {base.__qualname__}"
            )


def test_hot_instances_have_no_dict():
    """``__slots__`` only works if every class in the MRO plays along."""
    for cls in _guarded_classes():
        assert not any(
            "__dict__" in vars(c) for c in cls.__mro__ if c is not object
        ), f"{cls.__qualname__} instances grew a __dict__"


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
