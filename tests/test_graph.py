import random
from fractions import Fraction

import pytest

from vsp.errors import ContractError, InputError, ParamError, ParseError
from vsp.graph import (
    CapGraph,
    _parse_cap,
    contract,
    out_capacity,
    out_edges,
    read_graph,
    subdivide_boundary,
    unit_expand,
    write_graph,
)

from util import brute_force_out, random_unit_graph, triangle


def test_out_edges_triangle_degree_cut():
    g = triangle()
    assert [e.eid for e in out_edges(g, {1})] == [0, 2]


def test_out_edges_whole_graph_empty():
    g = triangle()
    assert out_edges(g, {1, 2, 3}) == []


def test_out_edges_matches_brute_force_scan():
    rng = random.Random(7)
    for _ in range(25):
        g = random_unit_graph(rng, n=12, m=20)
        members = rng.sample(list(g.vertices), rng.randint(1, 11))
        assert [e.eid for e in out_edges(g, members)] == brute_force_out(g, members)


def test_out_edges_unknown_vertex():
    with pytest.raises(InputError):
        out_edges(triangle(), {99})


def test_degree_sum_identity():
    # |out(S)| == sum of degrees in S minus twice the inner edges, unit caps
    rng = random.Random(3)
    for _ in range(20):
        g = random_unit_graph(rng, n=10, m=18)
        members = set(rng.sample(list(g.vertices), rng.randint(1, 9)))
        inner = sum(1 for e in g.edges if e.u in members and e.v in members)
        deg = sum(g.degree(v) for v in members)
        assert sum(e.cap for e in out_edges(g, members)) == deg - 2 * inner


def test_subdivide_single_vertex_star():
    g = CapGraph([1, 2, 3, 4], [(1, 2, 1), (1, 3, 1), (1, 4, 1)])
    inst = subdivide_boundary(g, {1})
    assert len(inst.terminals) == 3
    assert inst.graph.n == 4  # center + 3 pendants
    for t in inst.terminals:
        assert len(inst.graph.incident(t)) == 1


def test_subdivide_no_boundary():
    g = triangle()
    inst = subdivide_boundary(g, {1, 2, 3})
    assert inst.terminals == ()
    assert inst.graph.m == 3


def _inner_parent_edge(inst):
    """parent_edge restricted to the inner edges, those not subdividing a
    boundary edge."""
    pendants = set(inst.pendant_of.values())
    return {ieid: geid for ieid, geid in inst.parent_edge.items() if geid not in pendants}


def test_subdivide_counts_random():
    rng = random.Random(11)
    for _ in range(15):
        g = random_unit_graph(rng, n=10, m=16)
        members = set(rng.sample(list(g.vertices), rng.randint(1, 9)))
        inst = subdivide_boundary(g, members)
        assert inst.graph.n == len(members) + len(out_edges(g, members))
        assert inst.members == frozenset(members)
        # every instance edge has a parent edge of the same capacity, one to
        # one; inner edges keep their map and a pendant maps to the boundary
        # edge it subdivides
        assert sorted(inst.parent_edge) == [e.eid for e in inst.graph.edges]
        assert len(set(inst.parent_edge.values())) == inst.graph.m
        for e in inst.graph.edges:
            assert g.edges[inst.parent_edge[e.eid]].cap == e.cap
        # restricted to the inner edges, it maps each to the edge of G[S] with
        # the same ends
        inner = _inner_parent_edge(inst)
        assert sorted(inner) == [
            e.eid for e in inst.graph.edges if e.u in members and e.v in members
        ]
        for ieid, geid in inner.items():
            e, pe = inst.graph.edges[ieid], g.edges[geid]
            assert (e.u, e.v) == (pe.u, pe.v)
        for t in inst.terminals:
            assert inst.parent_edge[inst.pendant_edge(t).eid] == inst.pendant_of[t]


def _instance_fields(inst):
    h = inst.graph
    return (
        h.vertices, [(e.u, e.v, e.cap) for e in h.edges], h.terminals, inst.terminals,
        dict(inst.pendant_of), _inner_parent_edge(inst),
    )


def test_subdivide_edge_subset():
    rng = random.Random(12)
    for _ in range(15):
        g = random_unit_graph(rng, n=10, m=18)
        members = set(rng.sample(list(g.vertices), rng.randint(1, 9)))
        boundary = [e.eid for e in out_edges(g, members)]
        full = subdivide_boundary(g, members)
        chosen = sorted(rng.sample(boundary, rng.randint(0, len(boundary))))
        sub = subdivide_boundary(g, members, chosen[::-1])
        # the chosen pendants in edge-id order, numbered after max(V)
        assert [sub.pendant_of[t] for t in sub.terminals] == chosen
        first = max(g.vertices) + 1
        assert sub.terminals == tuple(range(first, first + len(chosen)))
        assert sub.graph.vertices == tuple(sorted(members)) + sub.terminals
        # the same inner edges, in the same instance positions
        ninner = len(_inner_parent_edge(full))
        assert _inner_parent_edge(sub) == _inner_parent_edge(full)
        assert [(e.u, e.v, e.cap) for e in sub.graph.edges[:ninner]] == [
            (e.u, e.v, e.cap) for e in full.graph.edges[:ninner]
        ]
        assert sub.graph.m == ninner + len(chosen)
        assert _instance_fields(subdivide_boundary(g, members, boundary)) == (
            _instance_fields(full)
        )


def test_contract_two_vertex_cluster():
    # cluster {1,2} with inner edge and one boundary edge at each vertex
    g = CapGraph([1, 2, 3, 4], [(1, 2, 1), (1, 3, 1), (2, 4, 1)], [3, 4])
    h, cmap = contract(g, [{1, 2}])
    assert h.n == 3
    assert h.m == 2
    assert cmap.dropped == (0,)
    s = cmap.supernode[0]
    assert sorted(abs(e.cap) for e in h.incident(s)) == [1, 1]
    assert cmap.preimage([s, 3]) == {1, 2, 3}


def test_contract_empty_family_identity():
    g = triangle()
    h, cmap = contract(g, [])
    assert h.n == g.n and h.m == g.m
    assert all(cmap.vertex_map[v] == v for v in g.vertices)


def test_contract_edge_count_oracle():
    rng = random.Random(5)
    for _ in range(20):
        g = random_unit_graph(rng, n=12, m=22)
        verts = list(g.vertices)
        rng.shuffle(verts)
        c1, c2 = set(verts[:3]), set(verts[3:6])
        h, cmap = contract(g, [c1, c2])
        intra = sum(
            1
            for e in g.edges
            if (e.u in c1 and e.v in c1) or (e.u in c2 and e.v in c2)
        )
        assert h.m == g.m - intra
        # surviving-edge correspondence is a bijection onto non-intra edges
        assert sorted(cmap.edge_map.values()) == sorted(
            e.eid
            for e in g.edges
            if not ((e.u in c1 and e.v in c1) or (e.u in c2 and e.v in c2))
        )


def test_contract_overlap_rejected():
    g = triangle()
    with pytest.raises(ContractError):
        contract(g, [{1, 2}, {2, 3}])


def test_contract_terminal_rejected():
    g = CapGraph([1, 2, 3], [(1, 2, 1), (2, 3, 1)], [1])
    with pytest.raises(ContractError):
        contract(g, [{1, 2}])


@pytest.mark.parametrize("make, error, message", [
    (lambda: CapGraph([1, 2], [(1, 2, 0)]), InputError, "non-positive capacity 0"),
    (lambda: CapGraph([1, 2], [(1, 2, 1)], [1, 1]), InputError, "duplicate terminal"),
    (lambda: CapGraph([1, 2], [(1, 2, 1)], [3]), InputError, "terminal 3 not a vertex"),
    (lambda: CapGraph([1, 2], [(1, 3, 1)]), InputError, "edge 0 endpoint not a vertex"),
    (lambda: triangle().edges[0].other(3), KeyError, "3"),
    (lambda: subdivide_boundary(triangle(), []), InputError, "empty vertex set"),
    (lambda: contract(triangle(), [set()]), ContractError, "empty cluster"),
    (lambda: contract(triangle(), [{1, 9}]), InputError, "unknown vertex id 9"),
    (lambda: unit_expand(CapGraph([1, 2], [(1, 2, Fraction(1, 2))]), 1), InputError,
     "capacity 1/2 < 1"),
])
def test_graph_primitives_reject_malformed_input(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_graph_repr_and_empty_subset():
    g = triangle()
    assert repr(g) == "CapGraph(n=3, m=3, k=0)"
    assert g.is_connected_subset([])


def test_unit_expand_simple():
    g = CapGraph([1, 2], [(1, 2, 1)], [1, 2])
    ug = unit_expand(g, 1)
    assert [(e.u, e.v, e.cap) for e in ug.edges] == [(1, 2, 1)]


def test_unit_expand_fractional():
    g = CapGraph([1, 2, 3], [(1, 2, Fraction(5, 2)), (2, 3, 1)], [1, 3])
    ug = unit_expand(g, Fraction(1, 2))
    assert ug.edges[0].cap == 5  # ceil(2.5/0.5)


def test_unit_expand_caps_at_terminal_capacity():
    # huge capacity on an inner edge is capped at C before expansion
    g = CapGraph(
        [1, 2, 3, 4],
        [(1, 2, 3), (3, 4, 4), (2, 3, 10**6)],
        [1, 4],
    )
    ug = unit_expand(g, 1)
    assert g.terminal_capacity() == 7
    assert [e.cap for e in ug.edges] == [3, 4, 7]


def test_unit_expand_bad_eps():
    with pytest.raises(ParamError):
        unit_expand(triangle(), 0)


def test_graph_roundtrip(tmp_path):
    rng = random.Random(13)
    for i in range(20):
        g = random_unit_graph(rng, n=8, m=12, k=3)
        p = tmp_path / f"g{i}.vsp"
        write_graph(g, p)
        h = read_graph(p)
        assert h.n == g.n and h.m == g.m
        assert [(e.u, e.v) for e in h.edges] == [(e.u, e.v) for e in g.edges]
        assert [e.cap for e in h.edges] == [e.cap for e in g.edges]
        assert list(h.terminals) == list(g.terminals)


def test_read_minimal(tmp_path):
    p = tmp_path / "min.vsp"
    p.write_text("# tiny\np vsp 2 1 0\ne 1 2 1\n")
    g = read_graph(p)
    assert g.n == 2 and g.m == 1


def test_read_rejects_small_capacity(tmp_path):
    p = tmp_path / "bad.vsp"
    p.write_text("p vsp 2 1 0\ne 1 2 0.5\n")
    with pytest.raises(ParseError):
        read_graph(p)


def test_read_rejects_duplicate_terminal(tmp_path):
    p = tmp_path / "dup.vsp"
    p.write_text("p vsp 2 1 2\ne 1 2 1\nt 1\nt 1\n")
    with pytest.raises(ParseError) as ei:
        read_graph(p)
    assert "line 4" in str(ei.value)


MALFORMED = [
    ("p vsp 2 1 0\np vsp 2 1 0\ne 1 2 1\n", 2, "duplicate header"),
    ("p vsp 2 1\n", 1, "header must be"),
    ("p vsp 2 x 0\n", 1, "non-integer header field"),
    ("p vsp -1 0 0\n", 1, "negative header count"),
    ("# c\ne 1 2 1\np vsp 2 1 0\n", 2, "edge before header"),
    ("t 1\np vsp 2 0 1\n", 1, "terminal before header"),
    ("p vsp 2 1 0\ne 1 2\n", 2, "edge line must be"),
    ("p vsp 2 0 1\nt 1 2\n", 2, "terminal line must be"),
    ("p vsp 2 1 0\ne 1 b 1\n", 2, "non-integer vertex id"),
    ("p vsp 2 0 1\nt x\n", 2, "non-integer terminal id"),
    ("p vsp 2 1 0\ne 1 2 0\n", 2, "capacity 0 <= 0"),
    ("p vsp 2 1 0\ne 1 3 1\n", 2, "vertex id out of range"),
    ("p vsp 2 1 0\nx 1\n", 2, "unknown record 'x'"),
    ("# only a comment\n", 0, "missing header"),
    ("# c\np vsp 2 2 0\ne 1 2 1\n", 2, "expected 2 edges, found 1"),
    ("p vsp 2 1 2\ne 1 2 1\nt 1\n", 1, "expected 2 terminals, found 1"),
    ("p vsp 2 1 1\ne 1 2 1\nt 3\n", 3, "terminal 3 out of range"),
]


@pytest.mark.parametrize("text, line, message", MALFORMED, ids=[m for _t, _l, m in MALFORMED])
def test_read_rejects_malformed_files_at_their_line(tmp_path, text, line, message):
    p = tmp_path / "bad.vsp"
    p.write_text(text)
    with pytest.raises(ParseError) as ei:
        read_graph(p, require_min_capacity=False)
    assert ei.value.line == line
    assert str(ei.value).startswith(f"line {line}: {message}")


def test_read_rational_capacity(tmp_path):
    p = tmp_path / "rat.vsp"
    p.write_text("p vsp 2 1 0\ne 1 2 7/2\n")
    assert read_graph(p).edges[0].cap == Fraction(7, 2)


@pytest.mark.parametrize(
    "tok, want",
    [
        ("3", Fraction(3)),
        ("3/2", Fraction(3, 2)),
        ("1.5", Fraction(3, 2)),
        ("0", Fraction(0)),
        ("-1", Fraction(-1)),
        ("007", Fraction(7)),
        ("1_0", Fraction(10)),
        ("\u0663", Fraction(3)),  # ARABIC-INDIC DIGIT THREE, as Fraction reads it
        ("1/0", None),
        ("abc", None),
        ("", None),
        ("1/2/3", None),
        ("\u00b2", None),  # SUPERSCRIPT TWO: a digit, but not a decimal one
        ("1" * 4301, None),  # past int()'s default digit limit
    ],
)
def test_parse_cap_values_and_errors(tok, want):
    if want is None:
        with pytest.raises(ParseError) as ei:
            _parse_cap(tok, 4)
        assert (str(ei.value), ei.value.line) == (f"line 4: bad capacity {tok!r}", 4)
    else:
        got = _parse_cap(tok, 4)
        assert type(got) is Fraction and got == want


def test_cluster_boundary():
    g = CapGraph([1, 2, 3, 4], [(1, 2, 2), (2, 3, 1), (3, 4, 1)])
    assert tuple(e.eid for e in out_edges(g, {2, 3})) == (0, 2)
    assert out_capacity(g, {2, 3}) == 3
