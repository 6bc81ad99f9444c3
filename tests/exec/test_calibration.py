"""Tests for the chooser feedback store and its session wiring."""

import pytest

from repro import Database, EvalOptions, ImportOptions, Tracer
from repro.exec.calibration import CalibrationStore, shape_key
from repro.model.builder import tree_from_nested
from repro.sim.costmodel import ChooserCostModel, ChooserSample, fit_chooser_model
from repro.xpath.compile import PlanKind
from tests.conftest import small_database


def _steps_of(db, query, doc="d"):
    """The compiled step tuple of a single-path query."""
    compiled = db.prepare(query, doc, PlanKind.XSCHEDULE)
    plans = compiled.path_plans()
    assert len(plans) == 1
    return list(plans[0].steps)


def _prediction(db, query, doc="d", **kwargs):
    from repro.xpath.estimate import predict_io_costs

    return predict_io_costs(
        db.store.document(doc), _steps_of(db, query, doc), db.geometry, **kwargs
    )


# ------------------------------------------------------------- store logic


def test_measured_argmin_wins_once_both_observed():
    db, _ = small_database(seed=3)
    steps = _steps_of(db, "//a")
    store = CalibrationStore()
    store.observe("d", steps, "xscan", 2.0)
    store.observe("d", steps, "xschedule", 1.0)
    assert store.advise("d", steps, _prediction(db, "//a")) == (
        "xschedule",
        "measured",
    )
    # flip the balance: the running means decide, not the last sample
    store.observe("d", steps, "xschedule", 9.0)
    assert store.observed_mean("d", steps, "xschedule") == pytest.approx(5.0)
    assert store.advise("d", steps, _prediction(db, "//a")) == ("xscan", "measured")


def test_explore_picks_the_unobserved_arm_on_low_margin():
    db, _ = small_database(seed=3)
    steps = _steps_of(db, "//a")
    prediction = _prediction(db, "//a")
    store = CalibrationStore(margin_threshold=float("inf"))  # everything is a coin flip
    assert store.advise("d", steps, prediction) is None  # nothing observed yet
    store.observe("d", steps, "xscan", 1.5)
    assert store.advise("d", steps, prediction) == ("xschedule", "explore")
    store.clear()
    store.observe("d", steps, "xschedule", 1.5)
    assert store.advise("d", steps, prediction) == ("xscan", "explore")


def test_confident_predictions_are_not_explored():
    """Above the margin threshold the estimator is trusted even with one
    arm observed — exploration is only worth a run on coin flips."""
    db, _ = small_database(seed=3)
    steps = _steps_of(db, "//a")
    prediction = _prediction(db, "//a")
    assert prediction.relative_margin > 0.25  # the fixture is clear-cut
    store = CalibrationStore(margin_threshold=0.25)
    store.observe("d", steps, "xscan", 1.5)
    assert store.advise("d", steps, prediction) is None
    # ... and with no prediction at all there is nothing to doubt
    assert store.advise("d", steps, None) is None


def test_observations_keyed_by_shape_not_query_text():
    db, _ = small_database(seed=3)
    store = CalibrationStore()
    steps = _steps_of(db, "//a")
    same_shape = _steps_of(db, "/descendant-or-self::node()/child::a")
    store.observe("d", steps, "xscan", 1.0)
    store.observe("d", steps, "xschedule", 2.0)
    assert shape_key("d", steps) == shape_key("d", same_shape)
    assert store.advise("d", same_shape, None) == ("xscan", "measured")
    # a different document is a different key
    assert store.advise("other", steps, None) is None


def test_unknown_plan_families_are_ignored():
    db, _ = small_database(seed=3)
    steps = _steps_of(db, "//a")
    store = CalibrationStore()
    store.observe("d", steps, "simple", 1.0)
    assert store.observations == 0
    assert store.advise("d", steps, None) is None


# -------------------------------------------------------------- the refit


def test_refit_learns_cpu_constants():
    """Residual regression: observed = io + cpu_per_node * nodes + overhead
    must be recovered (slopes clamped non-negative)."""
    samples = [
        ChooserSample(plan="xscan", work_nodes=n, io_cost=0.5, observed_total=0.5 + 2e-6 * n + 0.125)
        for n in (1000.0, 5000.0, 20000.0)
    ] + [
        ChooserSample(plan="xschedule", work_nodes=n, io_cost=0.25, observed_total=0.25 + 0.03)
        for n in (100.0, 400.0)
    ]
    model = fit_chooser_model(samples)
    assert model.scan_cpu_per_node == pytest.approx(2e-6)
    assert model.scan_overhead == pytest.approx(0.125)
    assert model.sched_cpu_per_node == pytest.approx(0.0)
    assert model.sched_overhead == pytest.approx(0.03)
    # round-trip through the persistence form
    assert ChooserCostModel.from_dict(model.as_dict()) == model


def test_negative_slopes_are_clamped():
    """A decreasing residual (noise) must not turn CPU 'negative' — the
    fit falls back to a pure offset."""
    samples = [
        ChooserSample(plan="xscan", work_nodes=n, io_cost=0.0, observed_total=1.0 - 1e-5 * n)
        for n in (1000.0, 2000.0, 3000.0)
    ]
    model = fit_chooser_model(samples)
    assert model.scan_cpu_per_node == 0.0
    assert model.scan_overhead == pytest.approx(1.0 - 1e-5 * 2000.0)


def test_store_refit_installs_model():
    db, _ = small_database(seed=3)
    steps = _steps_of(db, "//a")
    store = CalibrationStore()
    assert store.refit() is None  # no samples yet: model untouched
    store.observe("d", steps, "xscan", 1.0, _prediction(db, "//a"))
    model = store.refit()
    assert model is not None and store.model is model
    assert len(store.samples) == 1


# --------------------------------------------------------- session wiring


def test_calibration_off_means_no_store():
    db, _ = small_database(seed=1)
    session = db.session(options=EvalOptions(calibration=False))
    assert session.calibration is None
    result = session.execute("count(//a)", "d")
    assert result.value is not None
    assert session.replans == 0


def test_cold_single_path_runs_are_observed():
    db, _ = small_database(seed=1)
    session = db.session()
    store = session.calibration
    assert store is not None and store.observations == 0
    session.execute("//a", "d", plan="xscan")
    session.execute("//a", "d", plan="xschedule")
    assert store.observations == 2
    assert store.advise("d", _steps_of(db, "//a"), None)[1] == "measured"
    # warm sessions never deposit (their buffer poisons the timing)
    warm = db.session(warm=True)
    warm.execute("//a", "d", plan="xscan")
    assert warm.calibration.observations == 0


def test_measured_override_replans_cached_auto_entry():
    """A cached AUTO plan is revalidated against the store: when the
    measured argmin contradicts the cached choice, the entry is dropped,
    the query recompiles, and the new plan records the override."""
    db, _ = small_database(seed=1)
    session = db.session()
    first = session.prepare("//a", "d")
    assert len(first.auto_choices) == 1
    chosen = first.auto_choices[0]
    assert chosen.source == "estimator"
    # fake clean measurements that contradict the estimator's pick
    other = "xscan" if chosen.choice == "xschedule" else "xschedule"
    store = session.calibration
    store.observe("d", list(chosen.steps), chosen.choice, 5.0)
    store.observe("d", list(chosen.steps), other, 1.0)
    replanned = session.prepare("//a", "d")
    assert session.replans == 1
    assert replanned.auto_choices[0].choice == other
    assert replanned.auto_choices[0].source == "measured"
    # the revalidated entry is stable now: next prepare is a plain hit
    hits = session.cache_hits
    again = session.prepare("//a", "d")
    assert again is replanned
    assert session.cache_hits == hits + 1
    assert session.replans == 1


def test_agreeing_measurements_do_not_replan():
    db, _ = small_database(seed=1)
    session = db.session()
    first = session.prepare("//a", "d")
    chosen = first.auto_choices[0]
    store = session.calibration
    store.observe("d", list(chosen.steps), chosen.choice, 1.0)
    other = "xscan" if chosen.choice == "xschedule" else "xschedule"
    store.observe("d", list(chosen.steps), other, 5.0)
    assert session.prepare("//a", "d") is first
    assert session.replans == 0


def test_forced_plans_never_replan():
    """Only AUTO entries carry choices to revalidate; forced plans hit
    the cache unconditionally."""
    db, _ = small_database(seed=1)
    session = db.session()
    forced = session.prepare("//a", "d", plan="xscan")
    assert forced.auto_choices == []
    store = session.calibration
    steps = _steps_of(db, "//a")
    store.observe("d", steps, "xscan", 9.0)
    store.observe("d", steps, "xschedule", 1.0)
    assert session.prepare("//a", "d", plan="xscan") is forced
    assert session.replans == 0


def test_plan_choice_events_traced():
    """Every AUTO resolution lands one plan-choice event (off the
    simulated clock) and the per-source rollup in the summary."""
    tracer = Tracer()
    db = Database(page_size=512, buffer_pages=16, tracer=tracer)
    tree = tree_from_nested(("a", [("b",), ("b",)]), db.tags)
    db.add_tree(tree, "d", ImportOptions(page_size=512))
    session = db.session()
    result = session.execute("//b", "d")
    assert tracer.plan_choices.get("estimator", 0) >= 1
    assert result.trace_summary.plan_choices.get("estimator", 0) >= 1
    events = [e for e in tracer.events if e.name == "plan-choice"]
    assert events and events[-1].args["chosen"] in ("xscan", "xschedule")
    assert events[-1].args["source"] == "estimator"
