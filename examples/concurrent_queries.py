"""Concurrent queries on one disk: deeper queues schedule better.

The paper's outlook expects "concurrent queries to strongly benefit from
asynchronous I/O, as scheduling decisions can be made based on more
pending requests".  This example runs a pair of XMark queries serially
and concurrently, under a reordering controller (SSTF) and under FIFO,
and also shows Q7 on the shared-scan plan (one physical pass for three
paths).

Run with::

    python examples/concurrent_queries.py [scale]
"""

import sys

from repro import Database, ImportOptions, SchedulingPolicy
from repro.xmark import Q7, generate_xmark

PAIR = [
    ("count(/site/regions//item)", "xmark", "xschedule"),
    ("count(/site//annotation)", "xmark", "xschedule"),
]


def build(policy: SchedulingPolicy, scale: float) -> Database:
    db = Database(page_size=8192, buffer_pages=256, disk_policy=policy)
    tree = generate_xmark(scale=scale, tags=db.tags, seed=1)
    db.add_tree(tree, "xmark", ImportOptions(fragmentation=1.0, seed=1))
    return db


def main(scale: float = 0.25) -> None:
    for policy in (SchedulingPolicy.SSTF, SchedulingPolicy.FIFO):
        db = build(policy, scale)
        serial = sum(db.execute(q, doc=d, plan=p).total_time for q, d, p in PAIR)
        outcome = db.run_batch(PAIR)
        gain = (serial - outcome.total_time) / serial * 100
        print(f"{policy.value:>5s}: serial {serial:7.3f}s  "
              f"concurrent {outcome.total_time:7.3f}s  ({gain:+.1f}%)")
        for result in outcome.results:
            print(f"       {result.query}: {result.value:.0f} "
                  f"(finished at {result.total_time:.3f}s)")

    db = build(SchedulingPolicy.SSTF, scale)
    three_scans = db.execute(Q7, doc="xmark", plan="xscan")
    one_scan = db.execute(Q7, doc="xmark", plan="xscan-shared")
    print(f"\nQ7, three separate scans: {three_scans.total_time:.3f}s "
          f"({three_scans.stats.pages_read} pages)")
    print(f"Q7, one shared scan:      {one_scan.total_time:.3f}s "
          f"({one_scan.stats.pages_read} pages)")

    # run_batch generalizes both: a whole batch of queries flows onto one
    # runtime — scan-shareable paths ride a single sequential pass, the
    # rest interleave over the shared disk queue.
    paths = ["/site/regions//item", "/site//description",
             "/site//annotation", "/site//emailaddress"]
    cold = [db.execute(p, doc="xmark") for p in paths]
    batch = db.run_batch(paths, doc="xmark")
    print(f"\nbatch of {len(paths)} paths: {batch.total_time:.3f}s, "
          f"{batch.stats.io_requests} I/O requests "
          f"({batch.scan_shared} on the shared scan) vs "
          f"{sum(r.stats.io_requests for r in cold)} requests / "
          f"{sum(r.total_time for r in cold):.3f}s for one-at-a-time cold runs")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.25)
