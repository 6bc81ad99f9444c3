"""Node records: core nodes and border nodes (paper Sec. 3.4).

Each disk page stores a directory of records.  Two record types exist:

* :class:`CoreRecord` — a logical document node (element / text /
  attribute / document root).  Links to its parent and children are
  *slot numbers on the same page*; a link that crosses the cluster border
  points at a :class:`BorderRecord` instead.
* :class:`BorderRecord` — one end of an inter-cluster edge.  It stores the
  NodeID of the companion border record on the opposite side (the paper's
  ``target(x)``) and the slot of the local core node it connects to (the
  parent, for a downward border; the subtree root, for an upward border).

Record "sizes" are simulated byte footprints used by the importer to
decide when a page is full; no real serialization happens.

Navigation reads these records through parallel-array mirrors (see
:mod:`repro.storage.colview`): ``CoreRecord.kind``/``tag``/``parent_slot``/
``child_slots`` project into the ``kinds``/``tags``/``parents`` columns and
the CSR child table; ``BorderRecord.local_slot``/``down``/``continuation``/
``child_slots`` project into the border sentinel kind, ``parents``, the
``border_down``/``border_cont`` flags and the same CSR table.  Any new
navigational field added here must be mirrored there.
"""

from __future__ import annotations

from repro.model.tree import Kind
from repro.storage.nodeid import NodeID
from repro.storage.ordpath import OrdPath

#: Fixed per-record header: kind/tag/ordpath bookkeeping.
CORE_RECORD_HEADER = 16
#: Bytes per child link in a core record.
CHILD_LINK_SIZE = 4
#: Bytes per ORDPATH component (simulated compressed label).
ORDPATH_COMPONENT_SIZE = 2
#: Components beyond this add no simulated bytes: labels are stored
#: prefix-compressed against the page-local parent, so deep documents do
#: not blow up record sizes (the ORDPATH paper's encoding behaves
#: similarly).
ORDPATH_MAX_COMPONENTS = 32
#: Fixed size of a border record (companion NodeID + local link).
BORDER_RECORD_SIZE = 12


def ordpath_stored_size(n_components: int) -> int:
    """Simulated byte footprint of an ORDPATH label with ``n_components``."""
    return ORDPATH_COMPONENT_SIZE * min(n_components, ORDPATH_MAX_COMPONENTS)


class CoreRecord:
    """A document node as stored on a page."""

    __slots__ = ("kind", "tag", "ordpath", "parent_slot", "child_slots", "value")

    #: Class attribute, not a property: the navigation fast paths test it
    #: per record and a descriptor call there is measurable.
    is_border = False

    def __init__(
        self,
        kind: Kind,
        tag: int,
        ordpath: OrdPath,
        parent_slot: int,
        value: str | None = None,
    ) -> None:
        self.kind = kind
        self.tag = tag
        self.ordpath = ordpath
        #: Slot of the parent on this page (core or up-border); -1 only for
        #: the stored document root, which has no parent anywhere.
        self.parent_slot = parent_slot
        #: Slots of children in document order (core or down-border records).
        self.child_slots: list[int] = []
        self.value = value

    def size(self) -> int:
        """Simulated byte footprint of this record."""
        return (
            CORE_RECORD_HEADER
            + CHILD_LINK_SIZE * len(self.child_slots)
            + ordpath_stored_size(len(self.ordpath.components))
            + (len(self.value) if self.value is not None else 0)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CoreRecord(kind={self.kind.name}, tag={self.tag}, children={len(self.child_slots)})"


class BorderRecord:
    """One end of an inter-cluster edge.

    Two flavours exist:

    * a plain border models a parent-child edge whose endpoints live in
      different clusters;
    * a *continuation* border splits a long child list across clusters
      (the storage-level equivalent of Natix proxy/helper nodes): the
      downward side sits inside the parent's child list, the upward side
      (``child_slots`` is not None) carries the remainder of the list.
    """

    __slots__ = ("companion", "local_slot", "down", "continuation", "child_slots")

    is_border = True

    def __init__(
        self,
        companion: NodeID | None,
        local_slot: int,
        down: bool,
        continuation: bool = False,
        child_slots: list[int] | None = None,
    ) -> None:
        #: NodeID of the border record on the opposite side of the edge.
        #: ``None`` only transiently during import, before back-patching.
        self.companion = companion
        #: Slot of the local core node this border connects to: the parent
        #: core node for a downward border, the subtree root for an upward
        #: border (-1 for the upward side of a continuation, whose logical
        #: parent lives in the other cluster).
        self.local_slot = local_slot
        #: True if the edge leads to a child cluster (downward).
        self.down = down
        #: True if this border splits a child list rather than a tree edge.
        self.continuation = continuation
        #: For the upward side of a continuation: the remainder of the
        #: parent's child list (core slots / border slots on this page).
        self.child_slots = child_slots

    def target(self) -> NodeID:
        """The companion border's NodeID — the paper's ``target(x)``."""
        if self.companion is None:
            raise ValueError("border record not back-patched")
        return self.companion

    def size(self) -> int:
        """Simulated byte footprint of this record."""
        extra = CHILD_LINK_SIZE * len(self.child_slots) if self.child_slots else 0
        return BORDER_RECORD_SIZE + extra

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        direction = "down" if self.down else "up"
        kind = "continuation " if self.continuation else ""
        return (
            f"BorderRecord({kind}{direction}, companion={self.companion}, "
            f"local={self.local_slot})"
        )
