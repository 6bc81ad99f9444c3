"""Figure 10: Q7 = three descendant counts — total time vs scale factor.

Paper shape to reproduce: XScan wins by up to ~4x over Simple and ~3x
over XSchedule (low selectivity: the sequential scan pays off);
XSchedule still beats Simple everywhere.
"""

import pytest

from conftest import bench_scales
from harness import PLANS, QUERY_BY_EXP, run_query, run_query_timed


@pytest.mark.parametrize("scale", bench_scales())
@pytest.mark.parametrize("plan", PLANS)
def test_fig10_q7(benchmark, xmark_store, record_result, scale, plan):
    db = xmark_store(scale)
    result, wall = benchmark.pedantic(
        lambda: run_query_timed(db, QUERY_BY_EXP["q7"], plan), rounds=1, iterations=1
    )
    record_result(
        "fig10_q7",
        scale=scale,
        plan=plan,
        total=result.total_time,
        cpu=result.cpu_time,
        wall=wall,
        pages_read=result.stats.pages_read,
    )
    benchmark.extra_info["simulated_total_s"] = result.total_time
    assert result.value is not None and result.value > 0


#: below this scale factor the document fits the buffer (sf 0.1 is 141
#: pages against 256 frames): Simple reads every page once and never
#: re-reads one, so the scan still wins but only by 1.9x, short of the
#: factor asserted below (2.5x at sf 0.25, where Simple reads 750 pages)
SHAPE_MIN_SCALE = 0.25


def test_fig10_shape_holds(xmark_store, benchmark):
    """On the low-selectivity Q7, the scan plan is the fastest."""
    scale = bench_scales()[len(bench_scales()) // 2]
    if scale < SHAPE_MIN_SCALE:
        pytest.skip(
            f"Figure 10's factor over Simple needs a document larger than the "
            f"buffer (page re-reads): asserted at scale >= {SHAPE_MIN_SCALE}, "
            f"this run's is {scale}"
        )
    db = xmark_store(scale)

    def run_all():
        return {plan: run_query(db, QUERY_BY_EXP["q7"], plan) for plan in PLANS}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert results["xscan"].total_time < results["xschedule"].total_time
    assert results["xschedule"].total_time < results["simple"].total_time
    # the paper's headline: up to a factor of four over Simple
    assert results["simple"].total_time / results["xscan"].total_time > 2.0
