"""Spec-level invariants: the well-linkedness routing properties, contraction
transfer claims, and structural identities, checked on seeded samples."""

import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from vsp.flow import max_flow
from vsp.flowsparse import FlowParams, _path_transfer, is_good_router
from vsp.graph import CapGraph, contract, out_edges, subdivide_boundary
from vsp.params import beta_fcg
from vsp.routing import (
    DemandSet,
    boundary_path_system,
    min_congestion_routing,
)
from vsp.sparsecut import sparsest_cut_exact

from util import random_unit_graph

F = Fraction
AGG = FlowParams(profile="aggressive")


def _certified_cluster(rng):
    """A random cluster together with its exact well-linkedness level."""
    g = random_unit_graph(rng, n=9, m=16)
    members = set(rng.sample(list(g.vertices), rng.randint(3, 6)))
    comp = g.components(within=members)[0]
    members = frozenset(comp)
    inst = subdivide_boundary(g, members)
    if not (2 <= len(inst.terminals) <= 8):
        return None
    res = sparsest_cut_exact(inst)
    alpha = None if res.trivially_well_linked else res.sparsity
    return g, members, alpha


def test_p1_restricted_demands_route_within_bound():
    # any sampled 1-restricted demand set on out(S) routes inside S with
    # congestion at most 2 beta(z) / alpha
    rng = random.Random(301)
    done = 0
    while done < 8:
        got = _certified_cluster(rng)
        if got is None or got[2] is None or got[2] == 0:
            continue
        g, members, alpha = got
        inst = subdivide_boundary(g, members)
        terms = list(inst.terminals)
        z = inst.z
        if len(terms) < 2:
            continue
        # random 1-restricted integral-ish demand set: a partial matching
        order = terms[:]
        rng.shuffle(order)
        pairs = {}
        for i in range(0, len(order) - 1, 2):
            pairs[(order[i], order[i + 1])] = F(1)
        dem = DemandSet.from_map(pairs)
        assert dem.gamma <= 1
        res = min_congestion_routing(inst.graph, dem)
        bound = 2 * beta_fcg(z) / alpha
        assert res.eta <= bound, (res.eta, bound)
        done += 1


def test_p2_integral_path_systems():
    rng = random.Random(307)
    done = 0
    while done < 8:
        got = _certified_cluster(rng)
        if got is None or got[2] is None or got[2] == 0:
            continue
        g, members, alpha = got
        boundary = [e.eid for e in out_edges(g, members)]
        if len(boundary) < 4:
            continue
        size = len(boundary) // 2
        e1 = boundary[:size]
        e2 = boundary[-size:]
        if set(e1) & set(e2):
            continue
        cong = math.ceil(1 / alpha)
        paths = boundary_path_system(g, members, e1, e2, cong)
        assert paths is not None
        # re-count congestion on inner edges by hand
        load = {}
        for p in paths:
            for eid in p[1:-1]:
                load[eid] = load.get(eid, 0) + 1
        assert all(v <= cong for v in load.values())
        assert sorted(p[0] for p in paths) == sorted(e1)
        assert sorted(p[-1] for p in paths) == sorted(e2)
        done += 1


def test_wl_transfer_alpha_over_three():
    # contracting good routers keeps every set's well-linkedness within 1/3
    rng = random.Random(311)
    done = 0
    while done < 6:
        g = random_unit_graph(rng, n=10, m=18)
        members = frozenset(g.components(within=set(rng.sample(list(g.vertices), 3)))[0])
        if len(members) < 2:
            continue
        ok, cert = is_good_router(subdivide_boundary(g, members), AGG)
        if not ok:
            continue
        gp, cmap = contract(g, [members])
        rest = [v for v in gp.vertices if v not in cmap.supernode]
        if len(rest) < 3:
            continue
        sprime = frozenset(rng.sample(sorted(gp.vertices), 3))
        inst_p = subdivide_boundary(gp, sprime)
        if not (1 <= len(inst_p.terminals) <= 8):
            continue
        res_p = sparsest_cut_exact(inst_p)
        if res_p.trivially_well_linked:
            continue
        pre = frozenset(cmap.preimage(sprime))
        inst_g = subdivide_boundary(g, pre)
        res_g = sparsest_cut_exact(inst_g)
        alpha_g = F(1) if res_g.trivially_well_linked else res_g.sparsity
        assert alpha_g >= res_p.sparsity / 3
        done += 1


def test_path_transfer_three_eta():
    # a path system in the contracted graph transfers into the original
    # graph at three times the congestion
    rng = random.Random(313)
    done = 0
    while done < 5:
        g = random_unit_graph(rng, n=10, m=18, k=3)
        interior = [v for v in g.vertices if not g.is_terminal(v)]
        members = frozenset(g.components(within=set(rng.sample(interior, 3)))[0])
        if any(g.is_terminal(v) for v in members):
            continue
        ok, _ = is_good_router(subdivide_boundary(g, members), AGG)
        if not ok:
            continue
        gp, cmap = contract(g, [members])
        targets = sorted(e.eid for e in gp.edges)[-2:]
        sources = [t for t in gp.terminals][:2]
        got = _path_transfer(gp, sources, targets, 1)
        if got is None:
            continue
        back_targets = [cmap.edge_map[t] for t in targets]
        transferred = _path_transfer(g, sources, back_targets, 3)
        assert transferred is not None
        done += 1


def test_subdivision_preserves_min_cuts():
    rng = random.Random(317)
    for _ in range(10):
        g = random_unit_graph(rng, n=8, m=14)
        s, t = rng.sample(list(g.vertices), 2)
        base, _, _ = max_flow(g, [s], [t])
        members = set(rng.sample([v for v in g.vertices if v not in (s, t)], 3))
        # rebuild the full graph with the boundary of `members` subdivided
        edges = []
        nxt = max(g.vertices) + 1
        verts = list(g.vertices)
        for e in g.edges:
            if (e.u in members) != (e.v in members):
                verts.append(nxt)
                edges.append((e.u, nxt, e.cap))
                edges.append((nxt, e.v, e.cap))
                nxt += 1
            else:
                edges.append((e.u, e.v, e.cap))
        g2 = CapGraph(verts, edges, [])
        after, _, _ = max_flow(g2, [s], [t])
        assert after == base


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_contract_expand_bijection(data):
    n = data.draw(st.integers(5, 10))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = random_unit_graph(rng, n=n, m=2 * n)
    size = data.draw(st.integers(2, max(2, n // 2)))
    members = frozenset(rng.sample(list(g.vertices), size))
    h, cmap = contract(g, [members])
    inner = {e.eid for e in g.edges if e.u in members and e.v in members}
    assert sorted(cmap.edge_map.values()) == sorted(
        e.eid for e in g.edges if e.eid not in inner
    )
    assert sorted(cmap.dropped) == sorted(inner)
    # capacities survive through the bijection
    for heid, geid in cmap.edge_map.items():
        assert h.edges[heid].cap == g.edges[geid].cap
