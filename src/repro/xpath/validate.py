"""Measured-vs-predicted validation of the AUTO plan chooser.

The chooser (:mod:`repro.xpath.estimate`) is a cost-steered decision,
and cost models are notoriously miscalibrated — the querytorque dossier
measures PostgreSQL's at r = -0.028 against actual speedups.  This
module scores *our* chooser against the simulator it is supposed to
predict:

* :func:`validate_query` runs every plan family cold for one query and
  compares what the estimator predicted with what the simulator
  measured — per-decision **regret** (AUTO's total minus the best
  family's total) and per-family **Q-Error**
  (``max(predicted/measured, measured/predicted)``, the standard
  cardinality-estimation accuracy score);
* :func:`validate_many` replays a grid of (database, query) points and
  folds the decisions into a :class:`ValidationReport` (win rate, total
  regret, Q-Error summary);
* :func:`build_store` turns a baseline report's cleanly-attributable
  forced-run timings into a seeded, *fitted*
  :class:`~repro.exec.calibration.CalibrationStore`, so a second
  validation pass measures the chooser **with** calibration;
* :func:`audit_seek_model` compares the random-I/O seek model against
  the simulator's measured per-request seek distance — the audit that
  retired the old fixed ``n_pages // 3`` hop guess.

Everything here drives the public engine API (cold ``Database.execute``
runs), so a validation pass is exactly as reproducible as the benches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.context import EvalOptions
from repro.algebra.steps import CompiledStep
from repro.engine import Database
from repro.errors import UnsupportedQueryError
from repro.exec.calibration import CalibrationStore
from repro.xpath.compile import PlanKind
from repro.xpath.estimate import IOCostPrediction, predict_io_costs

#: the families the chooser decides between (SIMPLE is measured as a
#: reference series but is never an AUTO outcome)
CHOOSER_FAMILIES = ("xscan", "xschedule")

#: every family a validation point measures
ALL_PLANS = ("simple", "xscan", "xschedule")


def q_error(predicted: float, measured: float) -> float:
    """The symmetric under/over-estimation factor (1.0 = perfect)."""
    if predicted <= 0.0 or measured <= 0.0:
        return float("inf")
    return max(predicted / measured, measured / predicted)


# ------------------------------------------------------------ observations


@dataclass(frozen=True)
class Observation:
    """One cleanly-attributable (shape, plan) timing from a forced run.

    Only single-path queries produce these — a multi-path query's leaves
    share one runtime (and its buffer), so their forced total cannot be
    attributed to any one shape.
    """

    doc: str
    steps: tuple[CompiledStep, ...]
    plan: str
    total_time: float
    prediction: IOCostPrediction | None


# -------------------------------------------------------------- decisions


@dataclass
class ChooserDecision:
    """One grid point: every family measured, the AUTO pick scored."""

    query: str  #: the query text
    doc: str
    meta: dict[str, object]  #: grid coordinates (scale, buffers, layout)
    measured: dict[str, float]  #: plan family -> simulated total [s]
    predicted: dict[str, float]  #: family -> summed per-leaf prediction [s]
    q_errors: dict[str, float]  #: family -> Q-Error of the prediction
    choices: list[tuple[str, str]]  #: per-leaf AUTO (choice, source)
    auto_total: float  #: simulated total of the AUTO execution
    best_plan: str  #: cheapest measured chooser family
    best_total: float
    observations: list[Observation] = field(default_factory=list)

    @property
    def win(self) -> bool:
        """True when AUTO matched the best family (float-tolerant)."""
        return self.auto_total <= self.best_total * (1.0 + 1e-9)

    @property
    def regret(self) -> float:
        """Seconds lost to the wrong pick (0 for a win)."""
        return max(0.0, self.auto_total - self.best_total)

    def as_dict(self) -> dict[str, object]:
        return {
            "query": self.query,
            "doc": self.doc,
            **self.meta,
            "measured": dict(self.measured),
            "predicted": dict(self.predicted),
            "q_errors": dict(self.q_errors),
            "choices": [list(pair) for pair in self.choices],
            "auto_total": self.auto_total,
            "best_plan": self.best_plan,
            "best_total": self.best_total,
            "regret": self.regret,
            "win": self.win,
        }


@dataclass
class ValidationReport:
    """A set of scored decisions with the headline aggregates."""

    decisions: list[ChooserDecision]

    @property
    def wins(self) -> int:
        return sum(1 for d in self.decisions if d.win)

    @property
    def win_rate(self) -> float:
        return self.wins / len(self.decisions) if self.decisions else 1.0

    @property
    def total_regret(self) -> float:
        return sum(d.regret for d in self.decisions)

    def q_error_summary(self) -> dict[str, dict[str, float]]:
        """Per family: mean and max Q-Error over the finite scores."""
        summary: dict[str, dict[str, float]] = {}
        for family in CHOOSER_FAMILIES:
            scores = [
                d.q_errors[family]
                for d in self.decisions
                if family in d.q_errors and d.q_errors[family] != float("inf")
            ]
            if scores:
                summary[family] = {
                    "mean": sum(scores) / len(scores),
                    "max": max(scores),
                }
        return summary

    def as_dict(self) -> dict[str, object]:
        return {
            "decisions": [d.as_dict() for d in self.decisions],
            "points": len(self.decisions),
            "wins": self.wins,
            "win_rate": self.win_rate,
            "total_regret": self.total_regret,
            "q_error": self.q_error_summary(),
        }


# --------------------------------------------------------------- the replay


def _leaf_predictions(
    db: Database,
    query: str,
    doc: str,
    opts: EvalOptions,
    advisor: CalibrationStore | None,
) -> tuple[list[tuple[CompiledStep, ...]], list[IOCostPrediction | None]]:
    """Per-leaf path shapes and cost predictions for one query."""
    document = db.store.document(doc)
    compiled = db.prepare(query, doc, PlanKind.XSCHEDULE, opts)
    model = advisor.model if advisor is not None else None
    shapes: list[tuple[CompiledStep, ...]] = []
    predictions: list[IOCostPrediction | None] = []
    for leaf in compiled.path_plans():
        shapes.append(tuple(leaf.steps))
        predictions.append(
            predict_io_costs(
                document,
                leaf.steps,
                db.geometry,
                *opts.snapshots(document),
                queue_depth=opts.k_min_queue,
                model=model,
            )
        )
    return shapes, predictions


def validate_query(
    db: Database,
    query: str,
    doc: str = "xmark",
    options: EvalOptions | None = None,
    advisor: CalibrationStore | None = None,
    meta: dict[str, object] | None = None,
) -> ChooserDecision:
    """Measure every plan family cold and score the AUTO pick.

    ``advisor`` is the calibration store consulted by the AUTO
    resolution (and whose fitted model prices the predictions); pass
    ``None`` to score the raw estimator.
    """
    opts = options or db.eval_options
    measured: dict[str, float] = {}
    for plan in ALL_PLANS:
        try:
            result = db.execute(query, doc, plan=plan, options=opts)
        except UnsupportedQueryError:
            continue
        measured[plan] = result.total_time

    shapes, predictions = _leaf_predictions(db, query, doc, opts, advisor)
    predicted: dict[str, float] = {}
    q_errors: dict[str, float] = {}
    if predictions and all(p is not None for p in predictions):
        for family in CHOOSER_FAMILIES:
            total = sum(p.predicted(family) for p in predictions if p is not None)
            predicted[family] = total
            if family in measured:
                q_errors[family] = q_error(total, measured[family])

    # the AUTO execution proper (through the advisor when one is given)
    compiled = db.prepare(query, doc, PlanKind.AUTO, opts, advisor=advisor)
    ctx = db.make_context(opts)
    mark = ctx.clock.checkpoint()
    compiled.execute(ctx)
    auto_total = ctx.clock.since(mark)[0]
    choices = [(record.choice, record.source) for record in compiled.auto_choices]

    candidates = {f: measured[f] for f in CHOOSER_FAMILIES if f in measured}
    best_plan = min(candidates, key=lambda f: candidates[f])
    best_total = candidates[best_plan]

    observations: list[Observation] = []
    if len(shapes) == 1:
        for family in CHOOSER_FAMILIES:
            if family in measured:
                observations.append(
                    Observation(
                        doc=doc,
                        steps=shapes[0],
                        plan=family,
                        total_time=measured[family],
                        prediction=predictions[0],
                    )
                )

    return ChooserDecision(
        query=query,
        doc=doc,
        meta=dict(meta or {}),
        measured=measured,
        predicted=predicted,
        q_errors=q_errors,
        choices=choices,
        auto_total=auto_total,
        best_plan=best_plan,
        best_total=best_total,
        observations=observations,
    )


def validate_many(
    points: list[tuple[Database, str, dict[str, object]]],
    doc: str = "xmark",
    options: EvalOptions | None = None,
    advisor: CalibrationStore | None = None,
) -> ValidationReport:
    """Replay ``(database, query, meta)`` grid points into one report."""
    decisions = [
        validate_query(db, query, doc=doc, options=options, advisor=advisor, meta=meta)
        for db, query, meta in points
    ]
    return ValidationReport(decisions)


# ----------------------------------------------------- calibration bootstrap


def build_store(
    decisions: list[ChooserDecision], margin_threshold: float = 0.25
) -> CalibrationStore:
    """A fitted, seeded store from a baseline report's forced runs.

    Deposits every cleanly-attributable observation, then fits the
    chooser CPU constants from the accumulated samples — the second
    validation pass runs with both the measured-argmin overrides and the
    calibrated cost model active.
    """
    store = CalibrationStore(margin_threshold=margin_threshold)
    for decision in decisions:
        for ob in decision.observations:
            store.observe(ob.doc, list(ob.steps), ob.plan, ob.total_time, ob.prediction)
    store.refit()
    return store


# --------------------------------------------------------------- seek audit


@dataclass
class SeekAuditRow:
    """Predicted vs measured per-request seek behaviour for one query.

    Scored twice: in **distance** (pages hopped per request) and in
    **service time** (``DiskGeometry.seek_time`` of that hop) — the
    latter is what the chooser actually prices, and the concave seek
    curve compresses large distance errors, so the two rankings can
    disagree.
    """

    query: str
    meta: dict[str, object]
    n_pages: int
    visited_pages: float
    measured_seeks: int
    measured_mean_seek: float  #: simulator: seek_distance / seeks
    predicted_hop: float  #: elevator-sweep model: n_pages / batch
    legacy_hop: float  #: the retired fixed guess: n_pages // 3
    measured_seek_time: float  #: geometry.seek_time at each hop
    predicted_seek_time: float
    legacy_seek_time: float

    def as_dict(self) -> dict[str, object]:
        return {
            "query": self.query,
            **self.meta,
            "n_pages": self.n_pages,
            "visited_pages": self.visited_pages,
            "measured_seeks": self.measured_seeks,
            "measured_mean_seek": self.measured_mean_seek,
            "predicted_hop": self.predicted_hop,
            "legacy_hop": self.legacy_hop,
            "predicted_error": q_error(self.predicted_hop, self.measured_mean_seek),
            "legacy_error": q_error(self.legacy_hop, self.measured_mean_seek),
            "predicted_time_error": q_error(
                self.predicted_seek_time, self.measured_seek_time
            ),
            "legacy_time_error": q_error(
                self.legacy_seek_time, self.measured_seek_time
            ),
        }


def audit_seek_model(
    db: Database,
    query: str,
    doc: str = "xmark",
    options: EvalOptions | None = None,
    meta: dict[str, object] | None = None,
) -> SeekAuditRow:
    """Run the XSchedule plan and compare seek models to the simulator.

    The measured mean comes straight from the run's
    :class:`~repro.sim.stats.Stats` (``seek_distance / seeks``); the
    predicted hop is the elevator-sweep expectation the chooser now
    prices (:func:`repro.xpath.estimate.predicted_random_unit`), shown
    next to the retired ``n_pages // 3`` constant.
    """
    opts = options or db.eval_options
    document = db.store.document(doc)
    result = db.execute(query, doc, plan=PlanKind.XSCHEDULE, options=opts)
    shapes, predictions = _leaf_predictions(db, query, doc, opts, advisor=None)
    visited = sum(p.visited_pages for p in predictions if p is not None)
    n_pages = document.n_pages
    batch = max(1.0, min(float(opts.k_min_queue), visited))
    predicted_hop = max(1.0, n_pages / batch)
    seeks = result.stats.seeks
    mean_seek = result.stats.seek_distance / seeks if seeks else 0.0
    legacy_hop = float(n_pages // 3)
    return SeekAuditRow(
        query=query,
        meta=dict(meta or {}),
        n_pages=n_pages,
        visited_pages=visited,
        measured_seeks=seeks,
        measured_mean_seek=mean_seek,
        predicted_hop=predicted_hop,
        legacy_hop=legacy_hop,
        measured_seek_time=db.geometry.seek_time(mean_seek) if seeks else 0.0,
        predicted_seek_time=db.geometry.seek_time(predicted_hop),
        legacy_seek_time=db.geometry.seek_time(legacy_hop),
    )
