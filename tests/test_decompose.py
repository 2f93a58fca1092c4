import random
from dataclasses import replace
from fractions import Fraction

import pytest

from vsp.errors import BudgetExceeded, InputError
from vsp.decompose import ClusterCert, strong_decompose, weak_decompose
from vsp.graph import CapGraph, out_edges, subdivide_boundary
from vsp.params import weak_threshold

from util import random_unit_graph, recheck_decomposition, triangle

F = Fraction


def _clique_with_pendants(n):
    edges = [(u, v, 1) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges += [(i, 100 + i, 1) for i in range(1, n + 1)]
    return CapGraph(list(range(1, n + 1)) + list(range(101, 101 + n)), edges)


def test_weak_clique_single_cluster():
    g = _clique_with_pendants(5)
    dec = weak_decompose(g, set(range(1, 6)))
    assert len(dec.clusters) == 1
    assert dec.clusters[0].source == "exact"


def test_weak_no_boundary_connected():
    g = CapGraph([1, 2, 3], [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    dec = weak_decompose(g, {1, 2, 3})
    assert len(dec.clusters) == 1
    assert dec.clusters[0].alpha is None  # no sparse cut possible


def test_weak_dumbbell_bridge_not_sparse():
    # two K5s joined by a bridge, 3 pendant boundary edges per side: the
    # bridge cut has sparsity 1/3, far above the weak threshold for z=6,
    # so the decomposition keeps one cluster
    edges = []
    for base in (0, 5):
        vs = list(range(base + 1, base + 6))
        edges += [(u, v, 1) for u in vs for v in vs if u < v]
    edges.append((5, 6, 1))
    edges += [(i, 100 + i, 1) for i in (1, 2, 3, 8, 9, 10)]
    verts = list(range(1, 11)) + [100 + i for i in (1, 2, 3, 8, 9, 10)]
    g = CapGraph(verts, edges)
    s = set(range(1, 11))
    # hand-check inside the test: the bridge cut is not sparse at threshold
    thr = weak_threshold(F(6))
    assert F(1, 3) >= thr
    dec = weak_decompose(g, s)
    assert len(dec.clusters) == 1
    assert dec.boundary_tally == 6


def test_weak_tally_bound_random():
    rng = random.Random(61)
    for _ in range(15):
        g = random_unit_graph(rng, n=14, m=24)
        members = set(rng.sample(list(g.vertices), rng.randint(4, 10)))
        dec = weak_decompose(g, members, budget=12)
        assert dec.boundary_tally <= F(12, 10) * dec.z
        recheck_decomposition(g, dec, members, budget=12)
        for ev in dec.events:
            assert ev.sparsity < dec.threshold
            assert ev.out_a <= F(51, 100) * ev.z_cluster


def test_weak_disconnected_input_splits_on_components():
    g = CapGraph([1, 2, 3, 4, 5], [(1, 2, 1), (3, 4, 1), (2, 5, 1), (4, 5, 1)])
    dec = weak_decompose(g, {1, 2, 3, 4})
    assert len(dec.clusters) >= 2


def test_strong_single_vertex():
    g = CapGraph([1, 2], [(1, 2, 1)], [2])
    dec = strong_decompose(g, {1})
    assert len(dec.clusters) == 1
    assert dec.clusters[0].alpha is None


def test_strong_path_two_end_pendants():
    edges = [(i, i + 1, 1) for i in range(1, 10)] + [(1, 100, 1), (10, 101, 1)]
    g = CapGraph(list(range(1, 11)) + [100, 101], edges)
    dec = strong_decompose(g, set(range(1, 11)))
    assert len(dec.clusters) == 1
    assert dec.clusters[0].alpha == F(1, 3)


def _pendant_path(n):
    edges = [(i, i + 1, 1) for i in range(1, n)]
    edges += [(i, 100 + i, 1) for i in range(1, n + 1)]
    return CapGraph(list(range(1, n + 1)) + list(range(101, 101 + n)), edges)


def test_strong_pendant_path_splits_with_bounds():
    n = 8
    g = _pendant_path(n)
    dec = strong_decompose(g, set(range(1, n + 1)))
    assert len(dec.clusters) > 1
    z = dec.z
    assert dec.boundary_tally <= 3 * z**3
    for i, count in dec.level_counts().items():
        assert count <= 1 << (3 * i + 3)
    assert {c.alpha for c in dec.clusters} <= {None, F(1, 3)}
    assert recheck_decomposition(g, dec, range(1, n + 1)) == []


def test_strong_rejects_disconnected():
    g = CapGraph([1, 2, 3, 4], [(1, 2, 1), (3, 4, 1)])
    with pytest.raises(InputError):
        strong_decompose(g, {1, 2, 3, 4})


def test_strong_rejects_an_empty_member_set():
    with pytest.raises(InputError, match="empty vertex set"):
        strong_decompose(triangle(), set())


def test_strong_budget_refusal():
    rng = random.Random(67)
    g = random_unit_graph(rng, n=20, m=40)
    members = set(list(g.vertices)[:10])
    assert len(subdivide_boundary(g, members).terminals) > 2
    with pytest.raises(BudgetExceeded):
        strong_decompose(g, members, budget=2)


def test_strong_random_certified(subtests=None):
    rng = random.Random(71)
    done = 0
    for _ in range(12):
        g = random_unit_graph(rng, n=12, m=20)
        members = set(rng.sample(list(g.vertices), rng.randint(3, 8)))
        comps = g.components(within=members)
        members = set(comps[0])
        if len(out_edges(g, members)) > 12:
            continue
        dec = strong_decompose(g, members)
        assert recheck_decomposition(g, dec, members) == []
        done += 1
    assert done >= 5


def test_certify_lists_budget_skips():
    # five bundles exceed the budget of 2: the weak decomposition keeps the
    # clique as one heuristic cluster, and its exact recheck is skipped and
    # listed, not passed
    g = _clique_with_pendants(5)
    dec = weak_decompose(g, set(range(1, 6)), budget=2)
    assert [c.source for c in dec.clusters] == ["heuristic"]
    assert recheck_decomposition(g, dec, range(1, 6), budget=2) == [0]
    assert recheck_decomposition(g, dec, range(1, 6), budget=5) == []


# each corrupted decomposition below fails exactly the recheck it names


def test_certify_catches_corruption():
    g = _clique_with_pendants(4)
    dec = strong_decompose(g, set(range(1, 5)))
    # move a vertex out of its cluster
    c0 = dec.clusters[0]
    dec.clusters[0] = replace(c0, inst=subdivide_boundary(g, c0.members - {min(c0.members)}))
    with pytest.raises(AssertionError, match="partition"):
        recheck_decomposition(g, dec, range(1, 5))


def test_recheck_catches_a_foreign_boundary():
    # the instance subdivides only some of the cluster's boundary edges
    g = _clique_with_pendants(4)
    dec = strong_decompose(g, set(range(1, 5)))
    c0 = dec.clusters[0]
    some = [e.eid for e in out_edges(g, c0.members)][1:]
    dec.clusters[0] = replace(c0, inst=subdivide_boundary(g, c0.members, some))
    with pytest.raises(AssertionError, match="boundary"):
        recheck_decomposition(g, dec, range(1, 5))
    # a K4 with one pendant edge split into singletons: each singleton's
    # instance is its own, but its boundary 3 or 4 exceeds out(S) = 1
    g = CapGraph(range(1, 6), [(u, v, 1) for u in range(1, 5) for v in range(u + 1, 5)]
                 + [(1, 5, 1)])
    dec = strong_decompose(g, set(range(1, 5)))
    dec.clusters[:] = [ClusterCert(subdivide_boundary(g, {v}), None, "trivial") for v in range(1, 5)]
    with pytest.raises(AssertionError, match="boundary"):
        recheck_decomposition(g, dec, range(1, 5))


def test_recheck_catches_a_disconnected_cluster():
    # the path of 12 splits into 1..4, 5..7 and 8..12; the outer two merge
    g = _pendant_path(12)
    dec = strong_decompose(g, set(range(1, 13)))
    first, middle, last = dec.clusters
    merged = subdivide_boundary(g, first.members | last.members)
    dec.clusters[:] = [replace(first, inst=merged), middle]
    with pytest.raises(AssertionError, match="connected"):
        recheck_decomposition(g, dec, range(1, 13))


def test_recheck_catches_a_cluster_below_alpha():
    # the path of 8 splits into 1..4 and 5..8 at sparsity 1/4; merged back,
    # the one cluster claims 1/3
    g = _pendant_path(8)
    dec = strong_decompose(g, set(range(1, 9)))
    dec.clusters[:] = [replace(dec.clusters[0], inst=subdivide_boundary(g, range(1, 9)))]
    with pytest.raises(AssertionError, match="well-linked"):
        recheck_decomposition(g, dec, range(1, 9))


def test_recheck_catches_an_event_at_threshold():
    g = _pendant_path(8)
    dec = strong_decompose(g, set(range(1, 9)))
    dec.events[0] = replace(dec.events[0], sparsity=dec.threshold)
    with pytest.raises(AssertionError, match="events"):
        recheck_decomposition(g, dec, range(1, 9))
