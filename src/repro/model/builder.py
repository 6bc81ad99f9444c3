"""Event-driven construction of :class:`~repro.model.tree.LogicalTree`.

The builder exposes the classic SAX-shaped interface
(``start_element`` / ``attribute`` / ``text`` / ``end_element``) consumed
by both the XML parser and the XMark generator.  ``tree_from_nested``
is a compact literal syntax used heavily by the tests.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ReproError
from repro.model.tags import TEXT_TAG, TagDictionary
from repro.model.tree import NIL, Kind, LogicalTree

#: the kinds as the tree stores them: plain ints
_ELEMENT, _TEXT, _ATTRIBUTE = int(Kind.ELEMENT), int(Kind.TEXT), int(Kind.ATTRIBUTE)


class TreeBuilder:
    """Incrementally build a document tree.

    Elements must be properly nested; attributes may only be added to the
    currently open element before any of its content.
    """

    def __init__(self, tags: TagDictionary | None = None) -> None:
        self.tags = tags if tags is not None else TagDictionary()
        self.tree = LogicalTree(self.tags)
        self._open: list[int] = [self.tree.root]
        #: the last child and whether content started, of open elements only
        self._last_child: dict[int, int] = {}
        self._content_started: set[int] = set()
        self._finished = False

    # ------------------------------------------------------------- events

    def start_element(self, name: str, attributes: Sequence[tuple[str, str]] = ()) -> int:
        """Open an element; returns its node id."""
        self._check_open()
        node = self._attach(_ELEMENT, self.tags.intern(name))
        self._open.append(node)
        for attr_name, attr_value in attributes:
            self.attribute(attr_name, attr_value)
        return node

    def attribute(self, name: str, value: str) -> int:
        """Attach an attribute to the currently open element."""
        self._check_open()
        owner = self._open[-1]
        if owner == self.tree.root:
            raise ReproError("attributes are not allowed on the document root")
        if owner in self._content_started:
            raise ReproError(
                f"attribute {name!r} added after content of its element started"
            )
        node = self._attach(_ATTRIBUTE, self.tags.intern(name), mark_content=False)
        self.tree.values[node] = value
        return node

    def text(self, content: str) -> int:
        """Attach a text node to the currently open element."""
        self._check_open()
        node = self._attach(_TEXT, TEXT_TAG)
        self.tree.values[node] = content
        return node

    def end_element(self, name: str | None = None) -> None:
        """Close the current element, optionally checking its name."""
        self._check_open()
        if len(self._open) <= 1:
            raise ReproError("end_element with no open element")
        node = self._open.pop()
        if name is not None and self.tree.tag_name(node) != name:
            raise ReproError(
                f"mismatched end tag: expected {self.tree.tag_name(node)!r}, got {name!r}"
            )
        # only open elements are read: a closed one takes no more children
        self._last_child.pop(node, None)
        self._content_started.discard(node)

    def finish(self) -> LogicalTree:
        """Close the document and return the finished tree."""
        self._check_open()
        if len(self._open) != 1:
            open_names = [self.tree.tag_name(n) for n in self._open[1:]]
            raise ReproError(f"unclosed elements at end of document: {open_names}")
        self._finished = True
        return self.tree

    # ----------------------------------------------------------- internals

    def _check_open(self) -> None:
        if self._finished:
            raise ReproError("builder already finished")

    def _attach(self, kind: int, tag: int, mark_content: bool = True) -> int:
        """Append a node under the open element to the tree's five arrays
        (what :meth:`LogicalTree._append` does for the root) and link it
        in after the element's last child."""
        tree = self.tree
        parent = self._open[-1]
        node = len(tree.kind)
        tree.kind.append(kind)
        tree.tag.append(tag)
        tree.parent.append(parent)
        tree.first_child.append(NIL)
        tree.next_sibling.append(NIL)
        prev = self._last_child.get(parent, NIL)
        if prev == NIL:
            tree.first_child[parent] = node
        else:
            tree.next_sibling[prev] = node
        self._last_child[parent] = node
        if mark_content:
            self._content_started.add(parent)
        return node


def tree_from_nested(spec: object, tags: TagDictionary | None = None) -> LogicalTree:
    """Build a tree from a nested-literal spec (testing convenience).

    The spec grammar::

        element  := (name,)                         # empty element
                  | (name, [child, ...])
                  | (name, {attr: value}, [child, ...])
        child    := element | "text string"

    Example::

        tree_from_nested(("a", [("b", ["hi"]), "tail", ("c", [])]))
    """
    builder = TreeBuilder(tags)

    def emit(item: object) -> None:
        if isinstance(item, str):
            builder.text(item)
            return
        if not isinstance(item, tuple):
            raise ReproError(f"bad nested-tree spec item: {item!r}")
        if len(item) == 1:
            name, attrs, children = item[0], {}, []
        elif len(item) == 2:
            name, attrs, children = item[0], {}, item[1]
        elif len(item) == 3:
            name, attrs, children = item
        else:
            raise ReproError(f"bad nested-tree spec item: {item!r}")
        builder.start_element(name, sorted(attrs.items()))
        for child in children:
            emit(child)
        builder.end_element()

    emit(spec)
    return builder.finish()
