import random
from fractions import Fraction

import pytest

from vsp.cutsparse import build_cut_sparsifier
from vsp.errors import InputError
from vsp.flow import TerminalCuts
from vsp.gen import gen_grid
from vsp.graph import CapGraph
from vsp.serialize import capacitated_unit_reduction
from vsp.verify import verify_cut_quality

from util import random_unit_graph

F = Fraction


def _dumbbell_terminals():
    edges = [
        (1, 2, 1), (2, 3, 1), (1, 3, 1),
        (4, 5, 1), (5, 6, 1), (4, 6, 1),
        (3, 4, 1),
        (1, 7, 1), (2, 8, 1), (5, 9, 1), (6, 10, 1),
    ]
    return CapGraph(range(1, 11), edges, [7, 8, 9, 10])


def test_grid_build_prices_no_split(monkeypatch):
    # the 4x5 grid's interior has 6 pendants, z = 6, and its only
    # capacity-1 bridges are the pendants: the bridge search certifies it
    # 1/3-well-linked, so the build contracts it whole and prices no split
    calls = []
    values = TerminalCuts.values
    monkeypatch.setattr(TerminalCuts, "values", lambda *a: calls.append(1) or values(*a))
    sp = build_cut_sparsifier(gen_grid(4, 5, k=6, seed=1))
    assert (sp.graph.n, len(calls)) == (7, 0)


def test_all_vertices_terminals():
    g = CapGraph([1, 2, 3], [(1, 2, 1), (2, 3, 1)], [1, 2, 3])
    sp = build_cut_sparsifier(g)
    assert sp.graph.n == g.n and sp.graph.m == g.m
    rep = verify_cut_quality(g, sp.graph)
    assert rep.ok and rep.q_observed == 1


def test_star_center_single_cluster():
    k = 5
    g = CapGraph(
        [1] + [10 + i for i in range(k)],
        [(1, 10 + i, 1) for i in range(k)],
        [10 + i for i in range(k)],
    )
    sp = build_cut_sparsifier(g)
    assert sp.steiner_count == 1
    assert sp.graph.m == g.m


def test_dumbbell_quality_in_range():
    g = _dumbbell_terminals()
    sp = build_cut_sparsifier(g)
    rep = verify_cut_quality(g, sp.graph)
    assert rep.ok, rep.violations
    assert 1 <= rep.q_observed <= 3


def test_capacities_below_one_rejected():
    with pytest.raises(InputError):
        build_cut_sparsifier(CapGraph([1, 2], [(1, 2, F(1, 2))], [1, 2]))
    sp = build_cut_sparsifier(CapGraph([1, 2], [(1, 2, F(3, 2))], [1, 2]))
    assert sp.quality == 3 and [e.cap for e in sp.graph.edges] == [F(3, 2)]


def test_random_unit_instances_quality_and_size():
    rng = random.Random(103)
    for _ in range(12):
        n = rng.randint(8, 14)
        g = random_unit_graph(rng, n=n, m=rng.randint(n, 2 * n), k=rng.randint(2, 5))
        ktot = g.total_terminal_degree()
        if ktot > 10:
            continue
        sp = build_cut_sparsifier(g)
        rep = verify_cut_quality(g, sp.graph)
        assert rep.ok, rep.violations
        assert 1 <= rep.q_observed <= 3
        assert sp.steiner_count <= 3 * max(1, int(ktot)) ** 3


def test_capacitated_keeps_capacities():
    # clusters {2, 5} and {3}: H keeps G's capacities unrounded, and the
    # decomposition ran on G itself, whose 9 edge stays above C = 7
    g = CapGraph([1, 2, 3, 4, 5], [(1, 2, F(25, 7)), (2, 3, 1), (3, 4, F(24, 7)), (2, 5, 9)],
                 [1, 4])
    sp = build_cut_sparsifier(g)
    assert sp.unit_graph is g and sp.eps_input is None
    assert sorted(map(sorted, sp.cmap.clusters)) == [[2, 5], [3]]
    assert [e.cap for e in sp.graph.edges] == [F(25, 7), 1, F(24, 7)]


def test_capacitated_expansion_counts():
    # capacity-5 edge between terminal-adjacent vertices; C = 6 exceeds it,
    # so flow mode's unit reduction at eps = 1/2 only scales by 2 eta* / eps
    # = 136, and cut mode builds on G itself: H keeps the capacities 3 of G's
    # terminal edges
    g = CapGraph([1, 2, 3, 4], [(1, 2, 3), (2, 3, 5), (3, 4, 3)], [1, 4])
    assert [e.cap for e in capacitated_unit_reduction(g, F(1, 2)).edges] == [408, 680, 408]
    sp = build_cut_sparsifier(g)
    assert sp.unit_graph is g
    assert [e.cap for e in sp.graph.edges] == [3, 3]
    assert verify_cut_quality(g, sp.graph).q_observed == 1


def test_capacitated_capping_applies():
    # a huge inner capacity is capped at C = 2 in flow mode's unit reduction
    # (136 min(c, 2) at eps = 1/2), while cut mode decomposes G uncapped and
    # H still cuts the terminals at 1
    g = CapGraph([1, 2, 3, 4], [(1, 2, 1), (2, 3, 5), (3, 4, 1)], [1, 4])
    assert [e.cap for e in capacitated_unit_reduction(g, F(1, 2)).edges] == [136, 272, 136]
    sp = build_cut_sparsifier(g)
    assert sp.unit_graph is g and [e.cap for e in g.edges] == [1, 5, 1]
    assert [e.cap for e in sp.graph.edges] == [1, 1]
    assert verify_cut_quality(g, sp.graph).q_observed == 1


def test_capacitated_quality():
    rng = random.Random(109)
    done = 0
    for _ in range(10):
        n = rng.randint(6, 9)
        verts = list(range(1, n + 1))
        edges = []
        for i in range(2, n + 1):
            edges.append((rng.randint(1, i - 1), i, rng.randint(1, 4)))
        for _ in range(n // 2):
            u, v = rng.sample(verts, 2)
            edges.append((u, v, F(rng.randint(2, 8), 2)))
        terms = rng.sample(verts, 3)
        g = CapGraph(verts, edges, terms)
        sp = build_cut_sparsifier(g)
        assert sp.quality == 3
        rep = verify_cut_quality(g, sp.graph)
        assert rep.ok, rep.violations
        assert rep.q_observed <= 3
        done += 1
    assert done == 10


def test_verify_detects_sabotage():
    g = _dumbbell_terminals()
    sp = build_cut_sparsifier(g)
    h = sp.graph
    # delete one edge of H: some cut gets cheaper in H than in G
    broken = CapGraph(h.vertices, [(e.u, e.v, e.cap) for e in h.edges[1:]], h.terminals)
    rep = verify_cut_quality(g, broken)
    assert not rep.ok
