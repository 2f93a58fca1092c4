import random
from fractions import Fraction

import pytest

from vsp.cutsparse import build_cut_sparsifier, lift_cut
from vsp.errors import InputError, ParamError
from vsp.graph import CapGraph, out_capacity
from vsp.verify import verify_cut_projection, verify_cut_quality

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


def test_unit_requires_integer_caps():
    g = CapGraph([1, 2], [(1, 2, F(3, 2))], [1, 2])
    with pytest.raises(InputError):
        build_cut_sparsifier(g)


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


def test_projection_and_lift_bound():
    rng = random.Random(107)
    for _ in range(6):
        g = random_unit_graph(rng, n=10, m=18, k=3)
        if g.total_terminal_degree() > 9:
            continue
        sp = build_cut_sparsifier(g)
        rep = verify_cut_projection(sp)
        assert rep.ok, rep.violations
        assert rep.q_observed <= 3


def test_lift_processes_ties_to_y():
    # a cluster straddling the cut with equal weights moves to Y
    g = CapGraph([1, 2, 3, 4], [(1, 2, 1), (2, 3, 1), (3, 4, 1)], [1, 4])
    side, steps = lift_cut(g, [frozenset({2, 3})], {1, 2})
    assert steps[0].moved_to == "Y"
    assert side == {1}
    assert out_capacity(g, side) == 1


def test_capacitated_reduction_consistency():
    # a unit-capacity input goes through the same supernode structure
    g = _dumbbell_terminals()
    spu = build_cut_sparsifier(g)
    spc = build_cut_sparsifier(g, F(3, 10))
    assert sorted(map(sorted, spu.cmap.clusters)) == sorted(map(sorted, spc.cmap.clusters))
    # expanded capacities: every bundle is multiplicity x eps
    eps = F(3, 10) / 3
    for e in spc.graph.edges:
        assert e.cap % eps == 0


def test_capacitated_expansion_counts():
    # capacity-5 edge between terminal-adjacent vertices at eps' = 0.3;
    # C = 6 exceeds the edge capacity, so no capping applies
    g = CapGraph([1, 2, 3, 4], [(1, 2, 3), (2, 3, 5), (3, 4, 3)], [1, 4])
    sp = build_cut_sparsifier(g, F(3, 10))
    assert sp.expansion.eps == F(1, 10)
    assert sp.expansion.cap_bound == 6
    assert sp.expansion.multiplicity[1] == 50  # ceil(5 / 0.1)


def test_capacitated_capping_applies():
    # a huge inner capacity is capped at C before expansion
    g = CapGraph([1, 2, 3, 4], [(1, 2, 1), (2, 3, 5), (3, 4, 1)], [1, 4])
    sp = build_cut_sparsifier(g, F(3, 10))
    assert sp.expansion.cap_bound == 2
    assert sp.expansion.multiplicity[1] == 20  # ceil(min(5, C=2) / 0.1)


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
        for eps in (F(3, 10), F(6, 10), F(1)):
            sp = build_cut_sparsifier(g, eps)
            rep = verify_cut_quality(g, sp.graph)
            assert rep.ok, rep.violations
            assert rep.q_observed <= 3 + eps
            done += 1
    assert done >= 12


def test_capacitated_bad_eps():
    g = CapGraph([1, 2], [(1, 2, 1)], [1, 2])
    with pytest.raises(ParamError):
        build_cut_sparsifier(g, 0)
    with pytest.raises(ParamError):
        build_cut_sparsifier(g, 2)


def test_verify_detects_sabotage():
    g = _dumbbell_terminals()
    sp = build_cut_sparsifier(g)
    h = sp.graph
    # delete one edge of H: some cut gets cheaper in H than in G
    broken = CapGraph(h.vertices, [e.ends() + (e.cap,) for e in h.edges[1:]], h.terminals)
    rep = verify_cut_quality(g, broken)
    assert not rep.ok
