"""Guard rails for the Stats counter bundle.

Every aggregate method must be ``dataclasses.fields()``-driven — adding a
counter to :class:`~repro.sim.stats.Stats` must never require touching
``merge``/``snapshot``/``diff``/``as_dict``/``reset``.
"""

import dataclasses

from repro.sim.stats import Stats


def _filled(offset: int) -> Stats:
    stats = Stats()
    for index, f in enumerate(dataclasses.fields(Stats)):
        setattr(stats, f.name, offset + index)
    return stats


def test_every_field_flows_through_all_aggregate_methods():
    """Set every field to a distinct value and push it through each
    method; a hand-maintained field list would drop the newest one."""
    a, b = _filled(1), _filled(1000)
    names = [f.name for f in dataclasses.fields(Stats)]

    assert set(a.as_dict()) == set(names)

    snap = a.snapshot()
    assert snap is not a
    assert snap.as_dict() == a.as_dict()

    merged = a.snapshot()
    merged.merge(b)
    for name in names:
        assert getattr(merged, name) == getattr(a, name) + getattr(b, name)

    assert merged.diff(b).as_dict() == a.as_dict()

    merged.reset()
    assert all(value == 0 for value in merged.as_dict().values())


def test_logical_vs_physical_page_counters_exist():
    """The budget meters logical reads (``pages_requested``); the disk
    bills physical attempts (``pages_read``).  Both must stay fields so
    the aggregate machinery and the trace summaries carry them."""
    names = {f.name for f in dataclasses.fields(Stats)}
    assert "pages_requested" in names
    assert "pages_read" in names
