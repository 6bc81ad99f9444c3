"""XPath axes supported by the engine.

The paper's queries use only ``child`` and ``descendant-or-self``; we
support the full set of axes that our storage layout can navigate without
auxiliary indexes.  ``following``/``preceding`` are not implemented (they
are expressible as unions over these axes, and the paper never needs
them).
"""

from __future__ import annotations

import enum


class Axis(enum.Enum):
    """Navigational axes."""

    SELF = "self"
    CHILD = "child"
    DESCENDANT = "descendant"
    DESCENDANT_OR_SELF = "descendant-or-self"
    ATTRIBUTE = "attribute"
    PARENT = "parent"
    ANCESTOR = "ancestor"
    ANCESTOR_OR_SELF = "ancestor-or-self"
    FOLLOWING_SIBLING = "following-sibling"
    PRECEDING_SIBLING = "preceding-sibling"

    @property
    def is_downward(self) -> bool:
        """Does the axis move toward descendants (or stay put)?"""
        return self in _DOWNWARD

    @property
    def is_upward(self) -> bool:
        """Does the axis move toward ancestors?"""
        return self in (Axis.PARENT, Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF)

    @property
    def is_sibling(self) -> bool:
        return self in (Axis.FOLLOWING_SIBLING, Axis.PRECEDING_SIBLING)


_DOWNWARD = frozenset(
    {
        Axis.SELF,
        Axis.CHILD,
        Axis.DESCENDANT,
        Axis.DESCENDANT_OR_SELF,
        Axis.ATTRIBUTE,
    }
)

#: Axis applied when a paused step *resumes* in the cluster it crossed
#: into.  Inter-cluster edges are parent-child edges (subtree clustering),
#: which makes this mapping exact: e.g. a ``descendant`` step that paused
#: at a border continues as ``descendant-or-self`` of the remote subtree
#: root, because the remote root is itself a descendant of the context.
RESUME_AXIS: dict[Axis, Axis] = {
    Axis.CHILD: Axis.SELF,
    Axis.DESCENDANT: Axis.DESCENDANT_OR_SELF,
    Axis.DESCENDANT_OR_SELF: Axis.DESCENDANT_OR_SELF,
    Axis.ATTRIBUTE: Axis.SELF,
    Axis.PARENT: Axis.SELF,
    Axis.ANCESTOR: Axis.ANCESTOR_OR_SELF,
    Axis.ANCESTOR_OR_SELF: Axis.ANCESTOR_OR_SELF,
    # sibling axes resume with dedicated entry logic in the nav module
    Axis.FOLLOWING_SIBLING: Axis.FOLLOWING_SIBLING,
    Axis.PRECEDING_SIBLING: Axis.PRECEDING_SIBLING,
}

#: Which borders a paused step on the axis enters a cluster through, as
#: an index into :attr:`~repro.storage.colview.ColumnView.entries`:
#: upward borders (0) for a downward step, downward ones (1) for an
#: upward step, every border (2) for a sibling step, none (3) for a
#: ``self`` step, which never pauses.
ENTRY_BORDERS: dict[Axis, int] = {
    axis: 0 if axis.is_downward else 1 if axis.is_upward else 2 for axis in Axis
}
ENTRY_BORDERS[Axis.SELF] = 3
