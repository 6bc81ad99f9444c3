"""Physical algebra over partial path instances (paper Sec. 4 and 5).

Operators (all iterators with ``open``/``next``/``close``):

* :class:`~repro.algebra.misc.ContextScan` — enumerates the context
  nodes, as NodeIDs (Sec. 5.1).
* :class:`~repro.algebra.unnestmap.UnnestMap` — the Simple method's step
  operator: full-tree navigation with immediate (synchronous) I/O.
* :class:`~repro.algebra.xassembly.XAssembly` — collects full paths,
  deduplicates right ends (R), merges speculative left-incomplete
  instances (S) (Sec. 5.3.3 / 5.4.5); its path kernel runs the
  intra-cluster-only XStep (Sec. 5.3.2) as one level per step, deferring
  border crossings as right-incomplete instances; a fallback level
  (Sec. 5.4.6) runs :func:`~repro.algebra.fullnav.full_step` instead.
* :class:`~repro.algebra.xschedule.XSchedule` — the asynchronous-I/O
  cluster scheduler with queue Q (Sec. 5.3.4 / 5.4.4).
* :class:`~repro.algebra.xscan.XScan` — single sequential scan with
  speculative instance generation (Sec. 5.4.3).
* :mod:`~repro.algebra.misc` — duplicate elimination, document-order
  sort, count aggregation (Sec. 5.1 / 5.5).

A partial path instance travels between operators as XSchedule's flat
queue tuple, or unexpanded in an
:class:`~repro.algebra.pathinstance.EntryRun` (:mod:`~repro.algebra.pathinstance`).
"""

from repro.algebra.context import EvalContext, EvalOptions
from repro.algebra.base import Operator

__all__ = ["EvalContext", "EvalOptions", "Operator"]
