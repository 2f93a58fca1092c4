import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import vsp.routing as routing
from vsp.errors import InputError
from vsp.flow import flow_conserves
from vsp.graph import CapGraph, subdivide_boundary
from vsp.ratlp import LpResult
from vsp.routing import (
    INFEASIBLE,
    DemandSet,
    _arc_ends,
    _arc_list,
    _commodities,
    _lp_rows,
    min_congestion_routing,
    uniform_exchange_demands,
    uniform_router_check,
)

from util import random_unit_graph, reference_lp_rows

F = Fraction


def test_single_edge_demand_one():
    g = CapGraph([1, 2], [(1, 2, 1)], [1, 2])
    res = min_congestion_routing(g, DemandSet.from_map({(1, 2): 1}))
    assert res.eta == 1
    assert res.exact_lp


def test_single_edge_demand_scales():
    g = CapGraph([1, 2], [(1, 2, 1)], [1, 2])
    res = min_congestion_routing(g, DemandSet.from_map({(1, 2): 2}))
    assert res.eta == 2


def test_four_cycle_splits_both_ways():
    g = CapGraph([1, 2, 3, 4], [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1)], [1, 3])
    res = min_congestion_routing(g, DemandSet.from_map({(1, 3): 2}))
    assert res.eta == 1
    # both two-edge routes saturated
    assert all(f == 1 for f in res.flow.edge_flow.values())


def test_disconnected_demand_infinity_sentinel():
    g = CapGraph([1, 2, 3, 4], [(1, 2, 1), (3, 4, 1)], [1, 3])
    res = min_congestion_routing(g, DemandSet.from_map({(1, 3): 1}))
    assert math.isinf(res.eta)
    assert res.flow is None


def test_demand_on_nonterminal_rejected():
    g = CapGraph([1, 2, 3], [(1, 2, 1), (2, 3, 1)], [1, 3])
    with pytest.raises(InputError):
        min_congestion_routing(g, DemandSet.from_map({(1, 2): 1}))


def test_conservation_exact_on_random_instances():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(4, 7)
        verts = list(range(1, n + 1))
        edges = [(i, i + 1, 1) for i in range(1, n)]
        for _ in range(n):
            u, v = rng.sample(verts, 2)
            edges.append((u, v, rng.randint(1, 2)))
        terms = rng.sample(verts, 3)
        g = CapGraph(verts, edges, terms)
        dem = DemandSet.from_map(
            {(terms[0], terms[1]): F(rng.randint(1, 4), 2), (terms[1], terms[2]): 1}
        )
        res = min_congestion_routing(g, dem)
        # per-commodity conservation holds exactly
        for src, arcs in res.commodity_arcs.items():
            sinks = {b if a == src else a: v for (a, b), v in dem.pairs if src in (a, b) and src == min(a, b)}
            sources = {src: sum(sinks.values(), F(0))}
            for t, v in sinks.items():
                sources[t] = -v
            assert flow_conserves(g, arcs, sources)
        # reported eta is the exact congestion of the returned flow
        assert res.eta == res.flow.congestion(g)


def test_float_path_agrees_with_exact_lp():
    rng = random.Random(43)
    for _ in range(6):
        n = rng.randint(5, 7)
        verts = list(range(1, n + 1))
        edges = [(i, i + 1, 1) for i in range(1, n)] + [(1, n, 1)]
        for _ in range(3):
            u, v = rng.sample(verts, 2)
            edges.append((u, v, 1))
        terms = rng.sample(verts, 4)
        g = CapGraph(verts, edges, terms)
        dem = DemandSet.from_map(
            {
                (terms[0], terms[1]): 1,
                (terms[2], terms[3]): 1,
                (terms[0], terms[3]): F(1, 2),
            }
        )
        exact = min_congestion_routing(g, dem, exact=True)
        approx = min_congestion_routing(g, dem, exact=False)
        assert not approx.exact_lp
        # repaired float flow is feasible and within 1e-6 of the optimum
        assert approx.eta >= exact.eta
        assert float(approx.eta) <= float(exact.eta) * (1 + 1e-6)


def test_gamma_restriction_metadata():
    dem = DemandSet.from_map({(1, 2): 1, (1, 3): F(1, 2), (2, 3): F(1, 4)})
    assert dem.gamma == F(3, 2)
    assert dem.total_at(3) == F(3, 4)


def test_router_check_star():
    # single vertex with z pendant boundary edges: congestion 2(z-1)/z < 2
    z = 5
    verts = [1] + [10 + i for i in range(z)]
    edges = [(1, 10 + i, 1) for i in range(z)]
    g = CapGraph(verts, edges)
    ok, res = uniform_router_check(subdivide_boundary(g, {1}))
    assert ok
    assert res.eta == F(2 * (z - 1), z)


def test_router_check_two_vertex_path():
    # cluster {1,2}, one boundary edge at each end: congestion exactly 1
    g = CapGraph([1, 2, 3, 4], [(1, 2, 1), (1, 3, 1), (2, 4, 1)])
    ok, res = uniform_router_check(subdivide_boundary(g, {1, 2}))
    assert ok
    assert res.eta == 1


def test_router_check_long_path_fails():
    # boundary edge on every vertex of a long path: middle edge overloaded
    n = 20
    edges = [(i, i + 1, 1) for i in range(1, n)]
    edges += [(i, 100 + i, 1) for i in range(1, n + 1)]
    g = CapGraph(list(range(1, n + 1)) + list(range(101, 101 + n)), edges)
    inst = subdivide_boundary(g, set(range(1, n + 1)))
    ok, res = uniform_router_check(inst, eta_bound=F(34))
    # z = 20; the middle edge must carry about z/2 units: congestion ~ 10 < 34
    # so lengthen the bound check instead: with eta_bound=2 it must fail
    ok2, res2 = uniform_router_check(inst, eta_bound=F(2))
    assert not ok2
    assert res2.eta > 2


def test_router_check_bucketed_star():
    # one bundle of 3 parallel boundary edges plus two singles
    g = CapGraph([1, 2, 3, 4], [(1, 2, 3), (1, 3, 1), (1, 4, 1)])
    ok, res = uniform_router_check(subdivide_boundary(g, {1}))
    assert ok
    z = F(5)
    assert res.eta == F(2 * 4, 5)  # each pendant unit carries 2(z-1)/z


def test_uniform_exchange_demand_bookkeeping():
    g = CapGraph([1, 2, 3], [(1, 2, 2), (1, 3, 1)])
    inst = subdivide_boundary(g, {1})
    dem, base = uniform_exchange_demands(inst)
    z = F(3)
    # bundle weights 2 and 1: cross demand 2*2*1/3, hairpin 2*2*1/3 on the pair bundle
    assert list(dem.pairs)[0][1] == F(4, 3)
    assert list(base.values()) == [F(4, 3)]


def test_lp_rows_equal_direct_scan():
    # the incidence-based assembly emits the rows of the direct arc scans,
    # in the same order and with the same coefficients; parallel edges, a
    # self-loop, rational capacities and a base load included
    rng = random.Random(7)
    graphs = [random_unit_graph(rng, n, n + 4, k=3) for n in (4, 6, 9)]
    graphs.append(CapGraph([1, 2, 3, 4], [(1, 2, F(3, 2)), (2, 2, 1), (2, 3, 2), (1, 2, 1),
                                          (3, 4, F(1, 3))], [1, 3, 4]))
    for g in graphs:
        terms = list(g.terminals)
        dem = DemandSet.from_map({(a, b): F(i + 1, 2) for i, (a, b) in
                                  enumerate(zip(terms, terms[1:] + terms[:1]))})
        base = {g.edges[0].eid: F(2, 3)}
        for split in (False, True):
            com = _commodities(dem, split)
            arcs = _arc_list(g)
            assert _lp_rows(g, com, arcs, base) == reference_lp_rows(g, com, arcs, base)


def test_float_repair_reroutes_a_sink_left_without_flow(monkeypatch):
    # HiGHS's answer loses the flow of the commodity from 1 on every arc into
    # sink 3, so the repair finds no path to 3 and must route that demand itself
    g = CapGraph([1, 2, 3, 4, 5],
                 [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1), (2, 5, 1), (5, 3, 1)], [1, 2, 3])
    dem = DemandSet.from_map({(1, 2): 1, (1, 3): 2, (2, 3): F(1, 2)})
    arcs = _arc_list(g)
    real, lost = routing.linprog, []

    def lossy(*args, **kwargs):
        res = real(*args, **kwargs)
        for ai, (eid, d) in enumerate(arcs):  # the first commodity's columns
            if _arc_ends(g, eid, d)[1] == 3:
                lost.append(res.x[ai])
                res.x[ai] = 0.0
        return res

    monkeypatch.setattr(routing, "linprog", lossy)
    res = min_congestion_routing(g, dem, exact=False)
    assert sum(lost) > 0
    for src, arc_flow in res.commodity_arcs.items():
        sinks = {b: v for (a, b), v in dem.pairs if a == src}
        sources = {src: sum(sinks.values(), F(0)), **{t: -v for t, v in sinks.items()}}
        assert flow_conserves(g, arc_flow, sources)
    assert res.eta == res.flow.congestion(g)
    assert res.eta >= min_congestion_routing(g, dem, exact=True).eta


def test_solver_failures_report_infeasible(monkeypatch):
    # every demand pair shares a component, so only a failing solver can
    # make the LP answer infeasible; both solvers' failures must read so
    g = CapGraph([1, 2, 3, 4, 10, 11, 12],
                 [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1), (1, 10, 1), (2, 11, 1), (3, 12, 1)],
                 [10, 11, 12])
    dem = DemandSet.from_map({(10, 11): 1, (11, 12): 1})
    inst = subdivide_boundary(g, {1, 2, 3, 4})
    assert uniform_router_check(inst)[0]
    monkeypatch.setattr(routing, "solve_lp", lambda *a: LpResult("infeasible", [], None))
    monkeypatch.setattr(routing, "linprog", lambda *a, **kw: SimpleNamespace(success=False))
    for exact in (True, False):
        res = min_congestion_routing(g, dem, exact=exact)
        assert res.eta == INFEASIBLE and res.flow is None
    ok, res = uniform_router_check(inst)
    assert not ok and res.eta == INFEASIBLE
