"""Hand-built layered instances for the witness checks."""

from __future__ import annotations

from fractions import Fraction

from vsp.graph import CapGraph
from vsp.flowsparse import Witness1, Witness2


def witness1_fixture():
    """k=4 degree-1 terminals on a hub ring; two K4 blobs hang off the hubs.
    Family j is blob j, reached by two terminals along vertex-disjoint
    two-edge paths.  Returns (graph, witness)."""
    hubs = [1, 2, 3, 4]
    blob_a = [11, 12, 13, 14]
    blob_b = [21, 22, 23, 24]
    terms = [31, 32, 33, 34]
    edges = []
    eid = {}

    def add(u, v):
        eid[(u, v)] = len(edges)
        eid[(v, u)] = len(edges)
        edges.append((u, v, 1))

    for i in range(4):
        add(hubs[i], hubs[(i + 1) % 4])
    for blob in (blob_a, blob_b):
        for i, u in enumerate(blob):
            for v in blob[i + 1:]:
                add(u, v)
    for i in range(4):
        add(hubs[i], blob_a[i])
        add(hubs[i], blob_b[i])
    for i in range(4):
        add(terms[i], hubs[i])
    g = CapGraph(hubs + blob_a + blob_b + terms, edges, terms)
    fam = []
    for blob, pair in ((blob_a, (31, 32)), (blob_b, (33, 34))):
        paths = []
        for t in pair:
            hub = t - 30
            paths.append((t, [eid[(t, hub)], eid[(hub, blob[hub - 1])]]))
        fam.append(
            {
                "members": frozenset(blob),
                "alpha": Fraction(1, 3),
                "paths": paths,
                "end_edges": [p[-1] for _t, p in paths],
            }
        )
    return g, Witness1(fam, r=2)


def witness2_fixture():
    """k=4 terminals, one K5 blob; T* = {t1} reaches two blob boundary edges
    along edge-disjoint paths, the other terminals reach t1 over the ring."""
    hubs = [1, 2, 3, 4]
    blob = [11, 12, 13, 14, 15]
    terms = [31, 32, 33, 34]
    edges = []
    eid = {}

    def add(u, v):
        eid[(u, v)] = len(edges)
        eid[(v, u)] = len(edges)
        edges.append((u, v, 1))

    for i in range(4):
        add(hubs[i], hubs[(i + 1) % 4])
    for i, u in enumerate(blob):
        for v in blob[i + 1:]:
            add(u, v)
    # two disjoint routes from hub 1's area into the blob
    add(hubs[0], blob[0])
    add(hubs[1], blob[1])
    add(hubs[2], blob[2])
    for i in range(4):
        add(terms[i], hubs[i])
    g = CapGraph(hubs + blob + terms, edges, terms)
    e1 = eid[(hubs[0], blob[0])]
    e2 = eid[(hubs[1], blob[1])]
    paths = [
        [(31, [eid[(31, 1)], e1])],
        [(31, [eid[(31, 1)], eid[(1, 2)], e2])],
    ]
    w = Witness2(
        members=frozenset(blob),
        edge_groups=[[e1], [e2]],
        term_star=(31,),
        paths=paths,
        alpha=Fraction(1, 3),
        r=2,
    )
    return g, w
