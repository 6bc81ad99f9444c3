"""Hand-built storage layout of the paper's running example (Fig. 3/5).

Four clusters a, b, c, d on physical pages 0..3.  The document tree::

    d1 (root, cluster d)
    ├── a2 :A (cluster a)
    │   └── a3 :B
    ├── c2 :A (cluster c)
    │   ├── c3 :X
    │   └── c4 :B
    └── d4 :C (cluster d)
        └── b2 :X (cluster b)

Border nodes (paper names): a1 = up-border of cluster a, b1 of b, c1 of
c; d2, d3, d5 = down-borders in cluster d leading to a, c and b.

Query ``/A//B`` from context d1 selects a3 and c4.  Example 6 (XSchedule)
visits clusters d, a, c and never b; Example 7 (XScan) scans a, b, c, d
and resolves both results via speculative left-incomplete instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import Database
from repro.model.tree import Kind
from repro.storage.importer import ImportResult
from repro.storage.nodeid import NodeID, make_nodeid
from repro.storage.ordpath import OrdPath
from repro.storage.page import Page
from repro.storage.pathsummary import PathSummary
from repro.storage.record import BorderRecord, CoreRecord
from repro.storage.store import StoredDocument
from repro.storage.synopsis import ClusterSynopsis

PAGE_A, PAGE_B, PAGE_C, PAGE_D = 0, 1, 2, 3


@dataclass
class PaperTree:
    db: Database
    doc: StoredDocument
    nodes: dict[str, NodeID]  #: paper names -> NodeIDs (core and border)


def build_paper_tree(
    page_size: int = 512, buffer_pages: int = 8, geometry=None
) -> PaperTree:
    db = Database(page_size=page_size, buffer_pages=buffer_pages, geometry=geometry)
    tags = db.tags
    tag_a, tag_b, tag_c, tag_x = (tags.intern(t) for t in ("A", "B", "C", "X"))
    doc_tag = tags.intern("#document")  # pre-interned pseudo tag (id 0)

    pages = [Page(i, page_size) for i in range(4)]
    a_page, b_page, c_page, d_page = pages

    def ordpath(*components: int) -> OrdPath:
        return OrdPath(components)

    # cluster a: a1 (up-border), a2:A, a3:B
    a1 = a_page.add(BorderRecord(None, local_slot=1, down=False))
    a2 = a_page.add(CoreRecord(Kind.ELEMENT, tag_a, ordpath(1, 1), parent_slot=a1))
    a3 = a_page.add(CoreRecord(Kind.ELEMENT, tag_b, ordpath(1, 1, 1), parent_slot=a2))
    a_page.records[a2].child_slots.append(a3)

    # cluster b: b1 (up-border), b2:X
    b1 = b_page.add(BorderRecord(None, local_slot=1, down=False))
    b2 = b_page.add(CoreRecord(Kind.ELEMENT, tag_x, ordpath(1, 5, 1), parent_slot=b1))

    # cluster c: c1 (up-border), c2:A, c3:X, c4:B
    c1 = c_page.add(BorderRecord(None, local_slot=1, down=False))
    c2 = c_page.add(CoreRecord(Kind.ELEMENT, tag_a, ordpath(1, 3), parent_slot=c1))
    c3 = c_page.add(CoreRecord(Kind.ELEMENT, tag_x, ordpath(1, 3, 1), parent_slot=c2))
    c4 = c_page.add(CoreRecord(Kind.ELEMENT, tag_b, ordpath(1, 3, 3), parent_slot=c2))
    c_page.records[c2].child_slots.extend([c3, c4])

    # cluster d: d1 (document root), d2->a, d3->c, d4:C, d5->b
    d1 = d_page.add(CoreRecord(Kind.DOCUMENT, doc_tag, ordpath(1), parent_slot=-1))
    d2 = d_page.add(BorderRecord(None, local_slot=d1, down=True))
    d3 = d_page.add(BorderRecord(None, local_slot=d1, down=True))
    d4 = d_page.add(CoreRecord(Kind.ELEMENT, tag_c, ordpath(1, 5), parent_slot=d1))
    d5 = d_page.add(BorderRecord(None, local_slot=d4, down=True))
    d_page.records[d1].child_slots.extend([d2, d3, d4])
    d_page.records[d4].child_slots.append(d5)

    # back-patch border pairs
    def pair(page_i: Page, slot_i: int, page_j: Page, slot_j: int) -> None:
        page_i.records[slot_i].companion = make_nodeid(page_j.page_no, slot_j)
        page_j.records[slot_j].companion = make_nodeid(page_i.page_no, slot_i)

    pair(d_page, d2, a_page, a1)
    pair(d_page, d3, c_page, c1)
    pair(d_page, d5, b_page, b1)

    for page in pages:
        db.store.segment.adopt(page)

    nodes = {
        "a1": make_nodeid(PAGE_A, a1),
        "a2": make_nodeid(PAGE_A, a2),
        "a3": make_nodeid(PAGE_A, a3),
        "b1": make_nodeid(PAGE_B, b1),
        "b2": make_nodeid(PAGE_B, b2),
        "c1": make_nodeid(PAGE_C, c1),
        "c2": make_nodeid(PAGE_C, c2),
        "c3": make_nodeid(PAGE_C, c3),
        "c4": make_nodeid(PAGE_C, c4),
        "d1": make_nodeid(PAGE_D, d1),
        "d2": make_nodeid(PAGE_D, d2),
        "d3": make_nodeid(PAGE_D, d3),
        "d4": make_nodeid(PAGE_D, d4),
        "d5": make_nodeid(PAGE_D, d5),
    }

    doc = StoredDocument(
        name="paper",
        root=nodes["d1"],
        page_nos=[PAGE_A, PAGE_B, PAGE_C, PAGE_D],
        n_nodes=7,
        n_border_pairs=3,
        n_continuations=0,
        import_result=None,  # type: ignore[arg-type]
        synopsis=ClusterSynopsis.collect(pages),
        pathsummary=PathSummary.collect(db.store.segment, [PAGE_A, PAGE_B, PAGE_C, PAGE_D]),
    )
    db.store.documents["paper"] = doc
    return PaperTree(db=db, doc=doc, nodes=nodes)
