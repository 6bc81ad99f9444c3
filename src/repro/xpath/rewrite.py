"""Whole-query logical rewrite against the document's path summary.

Runs between step compilation and physical plan choice (Maneth/Nguyen,
"XPath Whole Query Optimization": rewrite the *whole* location path
against structural knowledge, not step by step).  Three outcomes, all
derived from one :meth:`~repro.storage.pathsummary.PathSummary.evaluate`
pass, memoised on the summary (a recompile of the path, or the AUTO
chooser pricing it, walks the trie no more):

* **refutation** — the summary proves the path can match nothing; the
  compiled plan becomes a constant-empty result with zero I/O and no
  operator tree;
* **expansion** — a ``descendant::X`` step whose possible matches all
  sit on one concrete tag suffix below its contexts is replaced by the
  equivalent chain of ``child::`` steps (the generalisation of the
  ``//``-prefix optimisation; predicates ride along on the final step,
  and the PR 5 sibling-axis hazard does not arise because the replaced
  node *sets* are provably equal, not merely duplicate-free);
* **postings** — per-step cluster postings
  (:class:`~repro.storage.pathsummary.PathPostings`) for the operators'
  pre-scan filter.

Everything here is planning metadata: no simulated time is charged.
With ``EvalOptions.pathsummary`` off the pass does not run: the steps
stay as they are, nothing is refuted, and the operators get postings
that post every page of the document, which refuse nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.axes import Axis
from repro.algebra.steps import CompiledNodeTest, CompiledStep, UNKNOWN_TAG
from repro.storage.pathsummary import PathEvaluation, PathPostings, PathSummary, _PARENT_KINDS

#: Expansion cost gate: the expanded chain must sweep at most this
#: fraction of the descendant step's candidates.  Child steps enumerate
#: *all* children of each context (the summary's sweep counts only the
#: matching ones), so a factor of 2 keeps the rewrite from trading one
#: subtree sweep for a wider fan-out of cluster-hopping child probes.
_EXPANSION_GAIN = 2.0


@dataclass(frozen=True)
class RewriteOutcome:
    """What the rewrite pass decided for one location path."""

    steps: list[CompiledStep]  #: possibly-expanded step list
    refuted: bool  #: the summary proves the result empty
    expanded: int  #: number of ``descendant`` steps expanded
    #: evaluation of the final ``steps`` (None: the pass did not run)
    evaluation: PathEvaluation | None
    postings: PathPostings  #: per-step cluster filter


def rewrite_path(
    summary: PathSummary | None,
    steps: list[CompiledStep],
    page_nos: Sequence[int],
) -> RewriteOutcome:
    """Refute, expand, and post one compiled location path; without a
    summary (switched off), post it on every page of ``page_nos``."""
    if summary is None:
        return RewriteOutcome(list(steps), False, 0, None, PathPostings.uniform(steps, page_nos))
    evaluation = summary.evaluate(steps)
    if evaluation.refuted:
        return RewriteOutcome(list(steps), True, 0, evaluation, PathPostings.uniform(steps, ()))
    steps = list(steps)
    expanded = 0
    changed = True
    while changed:
        changed = False
        for index, step in enumerate(steps):
            replacement = _expand_descendant(summary, steps, evaluation, index, step)
            if replacement is None:
                continue
            candidate = steps[:index] + replacement + steps[index + 1 :]
            candidate_eval = summary.evaluate(candidate)
            # result node sets are provably equal, so the candidate can
            # never be refuted; the gate only compares enumeration work
            if (
                not candidate_eval.refuted
                and candidate_eval.visited * _EXPANSION_GAIN <= evaluation.visited
            ):
                steps = candidate
                evaluation = candidate_eval
                expanded += 1
                changed = True
                break
    postings = PathPostings.for_steps(summary, steps)
    return RewriteOutcome(steps, False, expanded, evaluation, postings)


def _expand_descendant(
    summary: PathSummary,
    steps: list[CompiledStep],
    evaluation: PathEvaluation,
    index: int,
    step: CompiledStep,
) -> list[CompiledStep] | None:
    """The ``child::`` chain replacing ``steps[index]``, or None.

    Sound when every (context chain, result chain) pair of the step
    shares one relative tag suffix: the descendant step's result set
    below each context node is then exactly the node set the child
    chain navigates to, so replacing the step preserves the query's
    semantics node-for-node — including order, duplicates, and any
    following step (the sibling-axis hazard of the ``//``-prefix
    R-optimisation cannot arise from an equal node set).
    """
    if step.axis is not Axis.DESCENDANT:
        return None
    if step.test.tag is None or step.test.tag == UNKNOWN_TAG:
        return None
    contexts = summary.keys_of(evaluation.step_sets[index - 1]) if index else [summary.root_key()]
    context_chains = [chain for chain, kind in contexts if kind in _PARENT_KINDS]
    suffixes = set()
    for rchain, _rkind in summary.keys_of(evaluation.step_sets[index]):
        for cchain in context_chains:
            if len(rchain) > len(cchain) and rchain[: len(cchain)] == cchain:
                suffixes.add(rchain[len(cchain) :])
                if len(suffixes) > 1:
                    return None
    if len(suffixes) != 1:
        return None
    (suffix,) = suffixes
    if len(suffix) < 2:
        # a one-tag suffix: descendant::X where X only occurs as a
        # direct child — a plain child step with the original test
        return [CompiledStep(Axis.CHILD, step.test, step.predicates)]
    intermediate = [
        CompiledStep(Axis.CHILD, CompiledNodeTest.compile("name", Axis.CHILD, tag), [])
        for tag in suffix[:-1]
    ]
    return intermediate + [CompiledStep(Axis.CHILD, step.test, step.predicates)]
