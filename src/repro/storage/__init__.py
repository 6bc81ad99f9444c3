"""Physical storage layer (paper Sec. 3).

Implements the storage model the paper assumes:

* :mod:`repro.storage.nodeid` — RID-style NodeIDs ``(page, slot)`` packed
  into a single integer; the page component is the cluster id (Sec. 3.3).
* :mod:`repro.storage.ordpath` — ORDPATH order labels [O'Neil et al.,
  SIGMOD 2004], used to re-establish document order (Sec. 5.5).
* :mod:`repro.storage.record` / :mod:`repro.storage.page` — core and
  border node records on slotted pages (Sec. 3.4).
* :mod:`repro.storage.buffer` — page buffer with pinning, LRU eviction
  and explicit swizzle/unswizzle accounting (Sec. 3.6).
* :mod:`repro.storage.importer` — subtree clustering of a logical tree
  onto pages, materialising border-node pairs at crossing edges.
* :mod:`repro.storage.store` — documents and segments.
* :mod:`repro.storage.colview` — columnar page mirrors and the
  intra-cluster navigational primitives (Sec. 3.5) over them, including
  the resume variants used after a border crossing.
"""

from repro.storage.nodeid import NodeID, make_nodeid, page_of, slot_of
from repro.storage.ordpath import OrdPath
from repro.storage.record import BorderRecord, CoreRecord
from repro.storage.page import Page, Segment
from repro.storage.buffer import BufferManager, Frame
from repro.storage.importer import ClusterPolicy, ImportOptions, import_tree
from repro.storage.store import (
    DocumentStore,
    StoredDocument,
    check_document,
    export_tree,
    recollect_statistics,
)
from repro.storage.update import delete_subtree, insert_node, update_value

__all__ = [
    "NodeID",
    "make_nodeid",
    "page_of",
    "slot_of",
    "OrdPath",
    "CoreRecord",
    "BorderRecord",
    "Page",
    "Segment",
    "BufferManager",
    "Frame",
    "ClusterPolicy",
    "ImportOptions",
    "import_tree",
    "DocumentStore",
    "StoredDocument",
    "check_document",
    "export_tree",
    "recollect_statistics",
    "insert_node",
    "delete_subtree",
    "update_value",
]
