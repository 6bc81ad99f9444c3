"""Compiled location steps: axes bound to tag-dictionary ids.

The paper models node tests as subsets of the tag alphabet (Sec. 4.1).  A
:class:`CompiledNodeTest` is exactly that, refined with node kinds so the
XPath kind tests (``text()``, ``node()``) and the attribute axis's
principal node kind resolve correctly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.axes import ENTRY_BORDERS, Axis
from repro.model.tree import Kind

_KIND_ELEMENT = int(Kind.ELEMENT)
_KIND_TEXT = int(Kind.TEXT)
_KIND_ATTRIBUTE = int(Kind.ATTRIBUTE)
_KIND_DOCUMENT = int(Kind.DOCUMENT)

#: Sentinel tag id for a name that does not occur in the document: the
#: test can never match, but the query is still valid.
UNKNOWN_TAG = -1

#: the axes, numbered for :attr:`CompiledStep.memo_key`
_AXIS_NUMBER = {axis: number for number, axis in enumerate(Axis)}


@dataclass(frozen=True, slots=True)
class CompiledNodeTest:
    """Kind/tag membership test on candidate nodes."""

    kinds: frozenset[int]
    tag: int | None = None  #: required tag id; None = any tag

    def matches(self, kind: int, tag: int) -> bool:
        return kind in self.kinds and (self.tag is None or tag == self.tag)

    @property
    def is_node_test(self) -> bool:
        """True if this is ``node()`` on a non-attribute axis: any node matches."""
        return self.tag is None and len(self.kinds) >= 3

    @staticmethod
    def compile(test_kind: str, axis: Axis, tag_id: int | None) -> "CompiledNodeTest":
        """Build a compiled test from an AST node test on ``axis``."""
        principal = (
            frozenset({_KIND_ATTRIBUTE})
            if axis is Axis.ATTRIBUTE
            else frozenset({_KIND_ELEMENT})
        )
        if test_kind == "name":
            return CompiledNodeTest(principal, UNKNOWN_TAG if tag_id is None else tag_id)
        if test_kind == "wildcard":
            return CompiledNodeTest(principal)
        if test_kind == "text":
            kinds = frozenset() if axis is Axis.ATTRIBUTE else frozenset({_KIND_TEXT})
            return CompiledNodeTest(kinds)
        if test_kind == "node":
            if axis is Axis.ATTRIBUTE:
                return CompiledNodeTest(frozenset({_KIND_ATTRIBUTE}))
            return CompiledNodeTest(
                frozenset({_KIND_ELEMENT, _KIND_TEXT, _KIND_DOCUMENT})
            )
        if test_kind == "comment":
            return CompiledNodeTest(frozenset())  # comments are not stored
        raise ValueError(f"unknown node test kind {test_kind!r}")


#: Signature of a batch node test: (kind column, tag column, candidate
#: slots) -> match flags, parallel to the candidate array.
BatchMatch = Callable[["list[int]", "list[int]", "list[int]"], "list[bool]"]


def _never_batch(kinds: "list[int]", tags: "list[int]", slots: "list[int]") -> "list[bool]":
    return [False] * len(slots)


def compile_match_batch(test: CompiledNodeTest) -> BatchMatch:
    """``test.matches`` specialised for a whole candidate batch.

    Evaluates the node test against a page's kind/tag columns
    (:class:`~repro.storage.colview.ColumnView`) in one list
    comprehension instead of one call per candidate; the common shapes
    (single kind + required tag, single kind + any tag) collapse to one
    or two int comparisons per slot.  Border and tombstone slots carry
    negative kind sentinels, so they can never match (the kernels route
    borders before consulting the flags anyway).
    """
    kinds = test.kinds
    tag = test.tag
    if not kinds or tag == UNKNOWN_TAG:
        return _never_batch
    if len(kinds) == 1:
        (only,) = kinds
        if tag is None:
            return lambda kc, tc, slots, _k=only: [kc[s] == _k for s in slots]
        return lambda kc, tc, slots, _k=only, _t=tag: [
            kc[s] == _k and tc[s] == _t for s in slots
        ]
    if tag is None:
        return lambda kc, tc, slots, _ks=kinds: [kc[s] in _ks for s in slots]
    return lambda kc, tc, slots, _ks=kinds, _t=tag: [
        kc[s] in _ks and tc[s] == _t for s in slots
    ]


@dataclass(slots=True)
class CompiledPredicate:
    """A compiled step predicate (Simple plan only).

    ``op is None``: existence of the relative path.  Otherwise a general
    comparison in XPath's node-set semantics: some node reached by the
    path has a string value satisfying ``value <op> literal``.
    """

    steps: list["CompiledStep"]
    op: str | None = None  #: None (existence), "=" or "!="
    literal: str | None = None

    def matches_value(self, text: str) -> bool:
        assert self.op is not None and self.literal is not None
        return (text == self.literal) if self.op == "=" else (text != self.literal)


@dataclass(slots=True)
class CompiledStep:
    """One location step ready for execution."""

    axis: Axis
    test: CompiledNodeTest
    #: Nested predicates; only the Simple plan evaluates these (the paper
    #: defers nested paths — "more than two incomplete ends").
    predicates: list[CompiledPredicate] = field(default_factory=list)
    #: Precompiled batch form of ``test`` for the columnar kernels.
    match_batch: BatchMatch = field(init=False, repr=False, compare=False)
    #: The int the step's extensions on a page are memoised under
    #: (:meth:`~repro.storage.colview.ColumnView.step_memo`): the tag (0
    #: any, 1 :data:`UNKNOWN_TAG`, else the tag id + 2) above the test's
    #: kind bits (one per :class:`~repro.model.tree.Kind`) above the axis
    #: number.  A pure function of the step's value, so equal steps of
    #: different compilations share a memo, and nothing hashes the test
    #: per crossing.
    memo_key: int = field(init=False, repr=False, compare=False)
    #: Which of a page's entry lists a paused step enters it through, as
    #: an index into ``ColumnView.entries`` (:data:`~repro.axes.ENTRY_BORDERS`
    #: of the axis): speculation reads a cluster's entry slots without
    #: consulting the axis.
    entries: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.match_batch = compile_match_batch(self.test)
        self.entries = ENTRY_BORDERS[self.axis]
        tag = 0 if self.test.tag is None else self.test.tag + 2
        kinds = sum(1 << kind for kind in self.test.kinds)
        self.memo_key = tag << 8 | kinds << 4 | _AXIS_NUMBER[self.axis]
