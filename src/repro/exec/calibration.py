"""Measured-outcome feedback for the AUTO plan chooser.

The querytorque dossier's warning (PostgreSQL's cost model correlates at
r = -0.028 with actual speedups) applies to our AUTO chooser too: it is
a cost-steered decision and every mispricing lands directly on query
latency (the paper's Q15 shows XScan losing ~8x at high selectivity).
This module closes the loop at the session level:

* every cold single-path run of an XScan or XSchedule plan deposits its
  *simulated* total time here, keyed by ``(document, path shape)``;
* at AUTO-resolution time the store is consulted first — once both
  families have been observed for a shape, the measured argmin wins
  outright ("measured");
* a decision whose predicted relative margin is below
  :attr:`CalibrationStore.margin_threshold` is a coin flip; if exactly
  one family has been observed, the store deterministically picks the
  *other* one once ("explore"), so the next resolution has both
  measurements.  No RNG — exploration is a function of store state,
  keeping planning reproducible.

The store also carries the fitted :class:`~repro.sim.costmodel.ChooserCostModel`
(see :func:`~repro.sim.costmodel.fit_chooser_model`): observations
accumulate as fit samples, and :meth:`CalibrationStore.refit` turns them
into CPU constants the estimator prices into every later prediction.

Everything here is planning-time only: the store never touches the
simulated clock.  Every session keeps one (``QuerySession.calibration``);
:mod:`repro.xpath.validate` measures the chooser without it by passing no
``advisor``.
"""

from __future__ import annotations

from repro.algebra.steps import CompiledStep
from repro.sim.costmodel import ChooserCostModel, ChooserSample, fit_chooser_model
from repro.xpath.estimate import IOCostPrediction

#: the plan families the chooser decides between
PLAN_FAMILIES = ("xscan", "xschedule")

#: shape key: document name plus the per-step (axis, node-test) pairs —
#: predicates don't influence the I/O choice, so they are not part of it
ShapeKey = tuple


def shape_key(doc: str, steps: list[CompiledStep]) -> ShapeKey:
    """Hashable identity of one (document, location-path shape) pair."""
    return (doc, tuple((step.axis, step.test) for step in steps))


class CalibrationStore:
    """Observed (query-shape, plan) timings plus the fitted cost model."""

    __slots__ = (
        "margin_threshold",
        "model",
        "observations",
        "_observed",
        "_samples",
    )

    def __init__(self, margin_threshold: float = 0.25) -> None:
        #: below this predicted relative margin a decision counts as a
        #: coin flip and is worth one exploration run
        self.margin_threshold = margin_threshold
        #: fitted chooser CPU constants consulted by every prediction;
        #: ``None`` until :meth:`refit` (or an assignment) provides one
        self.model: ChooserCostModel | None = None
        #: total timings deposited (all shapes, all plans)
        self.observations = 0
        #: shape -> plan -> (runs, mean simulated total)
        self._observed: dict[ShapeKey, dict[str, tuple[int, float]]] = {}
        #: fit samples accumulated alongside the means
        self._samples: list[ChooserSample] = []

    # ---------------------------------------------------------- recording

    def observe(
        self,
        doc: str,
        steps: list[CompiledStep],
        plan: str,
        total_time: float,
        prediction: IOCostPrediction | None = None,
    ) -> None:
        """Deposit one run's simulated total for ``(doc, shape, plan)``.

        ``prediction`` (the pure-I/O prediction for the shape) turns the
        observation into a :class:`~repro.sim.costmodel.ChooserSample`
        for :meth:`refit`; without one the timing still feeds the
        measured-argmin and exploration decisions.
        """
        if plan not in PLAN_FAMILIES:
            return
        key = shape_key(doc, steps)
        by_plan = self._observed.setdefault(key, {})
        runs, mean = by_plan.get(plan, (0, 0.0))
        runs += 1
        mean += (total_time - mean) / runs
        by_plan[plan] = (runs, mean)
        self.observations += 1
        if prediction is not None:
            self._samples.append(
                ChooserSample(
                    plan=plan,
                    work_nodes=prediction.work_nodes(plan),
                    io_cost=prediction.predicted_io(plan),
                    observed_total=total_time,
                )
            )

    # ------------------------------------------------------------- advice

    def advise(
        self,
        doc: str,
        steps: list[CompiledStep],
        prediction: IOCostPrediction | None,
    ) -> tuple[str, str] | None:
        """Override the estimator's pick, or ``None`` to trust it.

        Returns ``(plan, source)`` with ``source`` one of ``"measured"``
        (both families observed — argmin of the observed means, ties to
        XSchedule like the estimator) or ``"explore"`` (low-confidence
        prediction with exactly one family observed — run the other).
        """
        by_plan = self._observed.get(shape_key(doc, steps))
        if not by_plan:
            return None
        scan = by_plan.get("xscan")
        sched = by_plan.get("xschedule")
        if scan is not None and sched is not None:
            return ("xscan" if scan[1] < sched[1] else "xschedule", "measured")
        if prediction is None or prediction.relative_margin >= self.margin_threshold:
            return None
        return ("xscan" if scan is None else "xschedule", "explore")

    # -------------------------------------------------------- calibration

    @property
    def samples(self) -> list[ChooserSample]:
        """The fit samples accumulated so far (a copy)."""
        return list(self._samples)

    def refit(self) -> ChooserCostModel | None:
        """Fit chooser CPU constants from the accumulated samples.

        Installs and returns the fitted model; with no samples the model
        is left untouched and ``None`` is returned.
        """
        if not self._samples:
            return None
        self.model = fit_chooser_model(self._samples)
        return self.model

    def clear(self) -> None:
        """Drop every observation and sample (the model is kept)."""
        self._observed.clear()
        self._samples.clear()
        self.observations = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CalibrationStore(shapes={len(self._observed)}, "
            f"observations={self.observations}, "
            f"model={'fitted' if self.model is not None else 'none'})"
        )
