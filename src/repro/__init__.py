"""repro — Cost-Sensitive Reordering of Navigational Primitives.

A complete, simulation-backed reproduction of Kanne, Brantner &
Moerkotte, "Cost-Sensitive Reordering of Navigational Primitives"
(SIGMOD 2005): the partial-path-instance algebra (XStep, XAssembly,
XSchedule, XScan) over a Natix-style clustered tree store, a simulated
disk with asynchronous I/O, and the XMark workloads of the paper's
evaluation.

Quickstart::

    from repro import Database
    from repro.xmark import generate_xmark

    db = Database(buffer_pages=256)
    tree = generate_xmark(scale=0.1, tags=db.tags)
    db.add_tree(tree, "xmark")
    for plan in ("simple", "xschedule", "xscan"):
        r = db.execute("count(/site/regions//item)", doc="xmark", plan=plan)
        print(plan, r.value, f"{r.total_time:.3f}s")
"""

from repro.axes import Axis
from repro.engine import Database, Result
from repro.exec import (
    BatchOutcome,
    CalibrationStore,
    DeleteOp,
    ExecutionEnvironment,
    InsertOp,
    QuerySession,
    SetValueOp,
    run_batch,
)
from repro.obs import TraceEvent, TraceSummary, Tracer, format_metrics
from repro.errors import (
    BudgetExceededError,
    ClockHorizonError,
    DiskProgressError,
    IOError_,
    OffGridTimeError,
    PageReadError,
    PlanError,
    ReproError,
    RequestLostError,
    SimulatedCrashError,
    StorageError,
    StoreCorruptError,
    UnsupportedQueryError,
    WalCorruptError,
    XPathSyntaxError,
    XmlSyntaxError,
)
from repro.algebra.context import (
    DegradationEvent,
    DegradationReport,
    EvalOptions,
    ExecutionBudget,
)
from repro.sim.costmodel import ChooserCostModel, CostModel
from repro.sim.disk import DiskGeometry, SchedulingPolicy
from repro.sim.faults import (
    CRASH_STEPS,
    PROFILES,
    CrashInjector,
    CrashPoint,
    FaultPlan,
    FaultProfile,
    RetryPolicy,
    fault_profile,
)
from repro.storage.importer import ClusterPolicy, ImportOptions
from repro.storage.synopsis import ClusterSynopsis
from repro.storage.wal import RecoveryReport, WriteAheadLog, recover_store
from repro.xpath.compile import PlanKind

__version__ = "1.0.0"

__all__ = [
    "Database",
    "Result",
    "ExecutionEnvironment",
    "QuerySession",
    "CalibrationStore",
    "BatchOutcome",
    "run_batch",
    "InsertOp",
    "DeleteOp",
    "SetValueOp",
    "WriteAheadLog",
    "RecoveryReport",
    "recover_store",
    "CrashPoint",
    "CrashInjector",
    "CRASH_STEPS",
    "Tracer",
    "TraceEvent",
    "TraceSummary",
    "format_metrics",
    "Axis",
    "EvalOptions",
    "ExecutionBudget",
    "DegradationEvent",
    "DegradationReport",
    "FaultProfile",
    "FaultPlan",
    "RetryPolicy",
    "fault_profile",
    "PROFILES",
    "CostModel",
    "ChooserCostModel",
    "DiskGeometry",
    "SchedulingPolicy",
    "ImportOptions",
    "ClusterPolicy",
    "ClusterSynopsis",
    "PlanKind",
    "ReproError",
    "StorageError",
    "StoreCorruptError",
    "WalCorruptError",
    "SimulatedCrashError",
    "XmlSyntaxError",
    "XPathSyntaxError",
    "UnsupportedQueryError",
    "PlanError",
    "IOError_",
    "PageReadError",
    "RequestLostError",
    "DiskProgressError",
    "BudgetExceededError",
    "ClockHorizonError",
    "OffGridTimeError",
    "__version__",
]
