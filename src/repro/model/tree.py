"""Array-backed labeled ordered tree.

A :class:`LogicalTree` stores one document as five parallel arrays
(kind, tag, parent, first_child, next_sibling) plus a sparse value table
for text and attribute nodes.  Node 0 is always the document root.

This representation is compact enough to hold XMark documents with
hundreds of thousands of nodes in pure Python, and it is the *input* to
the storage importer — the physical store re-encodes it into clustered
pages with border nodes.
"""

from __future__ import annotations

import enum
from array import array
from typing import Iterator

from repro.model.tags import DOCUMENT_TAG, TEXT_TAG, TagDictionary

#: Sentinel for "no node" in the link arrays.
NIL = -1


class Kind(enum.IntEnum):
    """Node kinds of the logical model."""

    DOCUMENT = 0
    ELEMENT = 1
    TEXT = 2
    ATTRIBUTE = 3


#: ``Kind`` members by value: ``KINDS[tree.kind[node]]`` without an enum call
KINDS = tuple(Kind)


class LogicalTree:
    """One document as parallel arrays; built via :class:`TreeBuilder`.

    Attribute nodes are ordinary children that precede all element/text
    children of their owner, mirroring how XPath exposes the attribute
    axis separately from the child axis: the child axis iterators skip
    them, the attribute axis iterator selects exactly them.
    """

    def __init__(self, tags: TagDictionary) -> None:
        self.tags = tags
        self.kind = array("b")
        self.tag = array("i")
        self.parent = array("i")
        self.first_child = array("i")
        self.next_sibling = array("i")
        self.values: dict[int, str] = {}
        # the document root
        self._append(Kind.DOCUMENT, DOCUMENT_TAG, NIL)

    # ------------------------------------------------------------- building

    def _append(self, kind: Kind, tag: int, parent: int) -> int:
        node = len(self.kind)
        self.kind.append(int(kind))
        self.tag.append(tag)
        self.parent.append(parent)
        self.first_child.append(NIL)
        self.next_sibling.append(NIL)
        return node

    # ------------------------------------------------------------ accessors

    @property
    def root(self) -> int:
        """The document root node (always 0)."""
        return 0

    def __len__(self) -> int:
        return len(self.kind)

    def kind_of(self, node: int) -> Kind:
        return KINDS[self.kind[node]]

    def tag_of(self, node: int) -> int:
        return self.tag[node]

    def tag_name(self, node: int) -> str:
        return self.tags.name_of(self.tag[node])

    def value_of(self, node: int) -> str | None:
        return self.values.get(node)

    def parent_of(self, node: int) -> int:
        """Parent node, or NIL for the root."""
        return self.parent[node]

    def children(self, node: int) -> Iterator[int]:
        """All children in order, including attribute nodes."""
        child = self.first_child[node]
        while child != NIL:
            yield child
            child = self.next_sibling[child]

    def element_children(self, node: int) -> Iterator[int]:
        """Children on the XPath child axis (elements and text nodes)."""
        for child in self.children(node):
            if self.kind[child] != Kind.ATTRIBUTE:
                yield child

    def attributes(self, node: int) -> Iterator[int]:
        """Attribute nodes of ``node``."""
        for child in self.children(node):
            if self.kind[child] == Kind.ATTRIBUTE:
                yield child

    def descendants(self, node: int, include_self: bool = False) -> Iterator[int]:
        """Preorder traversal below ``node`` (child axis only, no attrs)."""
        if include_self:
            yield node
        stack = [c for c in self.element_children(node)]
        stack.reverse()
        while stack:
            n = stack.pop()
            yield n
            tail = [c for c in self.element_children(n)]
            stack.extend(reversed(tail))

    def subtree_size(self, node: int) -> int:
        """Number of nodes in the subtree rooted at ``node`` (all kinds)."""
        count = 1
        for child in self.children(node):
            count += self.subtree_size(child)
        return count

    def depth_of(self, node: int) -> int:
        """Distance from the root (root has depth 0)."""
        depth = 0
        while self.parent[node] != NIL:
            node = self.parent[node]
            depth += 1
        return depth

    # ---------------------------------------------------------- diagnostics

    def count_tag(self, name: str) -> int:
        """Number of element nodes with tag ``name`` (testing helper)."""
        tag = self.tags.lookup(name)
        if tag is None:
            return 0
        kinds, tags = self.kind, self.tag
        element = int(Kind.ELEMENT)
        return sum(1 for i in range(len(kinds)) if kinds[i] == element and tags[i] == tag)

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on corruption."""
        n = len(self)
        assert self.kind[0] == Kind.DOCUMENT
        assert self.parent[0] == NIL
        seen = [False] * n
        stack = [0]
        while stack:
            node = stack.pop()
            assert not seen[node], f"node {node} reachable twice"
            seen[node] = True
            for child in self.children(node):
                assert self.parent[child] == node, f"bad parent link at {child}"
                stack.append(child)
        assert all(seen), "unreachable nodes present"
        for node in range(n):
            if self.kind[node] == Kind.TEXT:
                assert self.tag[node] == TEXT_TAG
                assert self.first_child[node] == NIL, "text node with children"
