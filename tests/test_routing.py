import math
import random
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vsp.routing as routing
from vsp.errors import InputError
from vsp.flow import flow_conserves
from vsp.graph import CapGraph, congestion, subdivide_boundary
from vsp.ratlp import LpResult
from vsp.routing import (
    INFEASIBLE,
    DemandSet,
    _arc_ends,
    _commodities,
    _skeleton,
    min_congestion_routing,
    uniform_exchange_demands,
    uniform_router_check,
)

from util import random_unit_graph, reference_csr, reference_lp_rows

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
    with pytest.raises(InputError, match="demand on non-terminal vertex 2"):
        min_congestion_routing(g, DemandSet.from_map({(1, 2): 1}))
    with pytest.raises(InputError, match="demand on unknown vertex 4"):
        min_congestion_routing(g, DemandSet.from_map({(1, 4): 1}))
    with pytest.raises(InputError, match="demand between a terminal and itself"):
        DemandSet.from_map({(1, 1): 1})


def test_empty_demands_route_the_base_load_alone():
    # with no demands the base load alone sets eta = max base/cap (on this
    # path, a forest, with no LP; the forest property below covers the LP)
    g = CapGraph([1, 2, 3], [(1, 2, 3), (2, 3, 1)], [1, 3])
    res = min_congestion_routing(g, DemandSet.from_map({}), base_load={0: 2, 1: F(5, 6)})
    assert (res.eta, res.flow.edge_flow, res.commodity_arcs) == (F(5, 6), {0: 2, 1: F(5, 6)}, {})
    assert res.exact_lp and res.lp_eta == pytest.approx(5 / 6)
    assert min_congestion_routing(g, DemandSet.from_map({})).eta == 0


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
        assert res.eta == congestion(g, res.flow.edge_flow)


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


def test_router_check_long_path_fails(monkeypatch):
    # boundary edge on every vertex of a long path: middle edge overloaded
    n = 20
    edges = [(i, i + 1, 1) for i in range(1, n)]
    edges += [(i, 100 + i, 1) for i in range(1, n + 1)]
    g = CapGraph(list(range(1, n + 1)) + list(range(101, 101 + n)), edges)
    inst = subdivide_boundary(g, set(range(1, n + 1)))
    ok, res = uniform_router_check(inst)
    # z = 20; the middle edge must carry about z/2 units: congestion ~ 10 < 34
    # so lower the bound instead: with eta* = 2 it must fail
    monkeypatch.setattr(routing, "ETA_STAR", F(2))
    ok2, res2 = uniform_router_check(inst)
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


def test_lp_rows_equal_direct_scan(monkeypatch):
    # both solvers read one representation, the rows of the direct arc scans
    # in the same order: HiGHS the float CSR arrays and right-hand sides
    # `reference_csr` assembles from them, byte for byte, and the simplex the
    # same indptr and indices with exact data and exact right-hand sides;
    # parallel edges, a self-loop, rational capacities and a base load included
    rng = random.Random(7)
    graphs = [random_unit_graph(rng, n, n + 4, k=3) for n in (4, 6, 9)]
    graphs.append(CapGraph([1, 2, 3, 4], [(1, 2, F(3, 2)), (2, 2, 1), (2, 3, 2), (1, 2, 1),
                                          (3, 4, F(1, 3))], [1, 3, 4]))
    calls = []
    monkeypatch.setattr(routing, "solve_lp",
                        lambda *a: calls.append(a) or LpResult("infeasible", [], None))
    monkeypatch.setattr(routing, "linprog",
                        lambda *a, **kw: calls.append((a, kw)) or SimpleNamespace(success=False))
    for g in graphs:
        terms = list(g.terminals)
        dem = DemandSet.from_map({(a, b): F(i + 1, 2) for i, (a, b) in
                                  enumerate(zip(terms, terms[1:] + terms[:1]))})
        base = {g.edges[0].eid: F(2, 3)}
        for split in (False, True):
            com = _commodities(dem, split)
            arcs = [(e.eid, d) for e in g.edges if e.u != e.v for d in (0, 1)]
            eq_rows, eq_rhs, ub_rows, ub_rhs = reference_lp_rows(g, com, arcs, base)
            ncols = len(com) * len(arcs) + 1
            calls.clear()
            for exact in (True, False):
                res = min_congestion_routing(g, dem, base_load=base, split_pairs=split, exact=exact)
                assert res.eta == INFEASIBLE
            ((c_exact, a_ub, b_ub, a_eq, b_eq), ((c,), highs)) = calls
            assert c_exact == [0] * (ncols - 1) + [1]
            assert c.tobytes() == np.array([0] * (ncols - 1) + [1], dtype=float).tobytes()
            assert (highs["bounds"], highs["method"]) == ((0, None), "highs")
            for key, rows, rhs, (indptr, indices, data), b_exact in (
                    ("ub", ub_rows, ub_rhs, a_ub, b_ub), ("eq", eq_rows, eq_rhs, a_eq, b_eq)):
                got, want = highs[f"A_{key}"], reference_csr(rows, ncols)
                assert list(indptr) == got.indptr.tolist()
                assert list(indices) == got.indices.tolist()
                assert [list(zip(indices[i:j], data[i:j])) for i, j in zip(indptr, indptr[1:])] == rows
                assert list(b_exact) == rhs
                assert {type(v) for v in [*data, *b_exact]} <= {int, F}  # exact, no floats
                assert got.shape == want.shape
                for part in ("indptr", "indices", "data"):
                    assert getattr(got, part).dtype == getattr(want, part).dtype
                    assert getattr(got, part).tobytes() == getattr(want, part).tobytes()
                assert highs[f"b_{key}"].tobytes() == np.array([float(b) for b in rhs]).tobytes()


def test_float_decode_rounds_nonzero_entries_as_the_list_decode(monkeypatch):
    # HiGHS's x carries negative dust, an entry at the 1e-13 cut-off, one
    # above it that rounds to 0 at 2^-40, entries off the 2^-40 grid and two
    # halfway between grid points, flows above 2^13 (v * 2^40 > 2^53) and
    # an eta above 2^13; the decode hands the repair exactly the arc flows
    # that rounding every entry in a Python list gave
    g = CapGraph([1, 2, 3, 4], [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1), (1, 3, 1)], [1, 3])
    big = 3 * 2**13
    dem = DemandSet.from_map({(1, 3): big})
    arcs = _skeleton(g).arcs
    x = [0.0] * len(arcs) + [2.0**13 + 0.3]
    x[arcs.index((0, 0))] = big / 2 + 2.0**-30  # 1 -> 2
    x[arcs.index((1, 0))] = big / 2 - 2.0**-20  # 2 -> 3
    x[arcs.index((3, 1))] = big / 2 - 0.3  # 1 -> 4
    x[arcs.index((2, 1))] = big / 2 - 0.3  # 4 -> 3
    x[arcs.index((4, 0))] = 0.3 + 3 * 2.0**-42  # 1 -> 3, off the grid
    x[arcs.index((4, 1))] = 2.5 * 2.0**-40  # halfway: rounds to 2 steps
    x[arcs.index((2, 0))] = 5.5 * 2.0**-40  # halfway: rounds to 6 steps
    x[arcs.index((0, 1))] = -1e-9  # negative dust
    x[arcs.index((1, 1))] = 1e-13  # at the cut-off
    x[arcs.index((3, 0))] = 2.0**-42  # above the cut-off, rounds to 0
    monkeypatch.setattr(routing, "linprog",
                        lambda *a, **kw: SimpleNamespace(success=True, x=np.array(x)))
    seen = []
    real_assemble = routing._assemble
    monkeypatch.setattr(routing, "_assemble",
                        lambda *a: seen.append(a[2]) or real_assemble(*a))
    res = min_congestion_routing(g, dem, exact=False)
    # the list decode: every entry rounded, zeros dropped per commodity
    listed = [F(round(v * (1 << 40)), 1 << 40) if v > 1e-13 else 0 for v in x]
    want_flows = {0: {arcs[ai]: listed[ai] for ai in range(len(arcs)) if listed[ai] != 0}}
    assert seen == [want_flows]
    assert want_flows[0][(4, 1)] == F(2, 2**40) and want_flows[0][(2, 0)] == F(6, 2**40)
    assert not {(0, 1), (1, 1), (3, 0)} & set(want_flows[0])
    want = real_assemble(g, _commodities(dem, False), want_flows, {}, x[-1], False)
    assert (res.commodity_arcs, res.eta, res.lp_eta) == (want.commodity_arcs, want.eta, x[-1])
    assert res.flow.edge_flow == want.flow.edge_flow


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # SciPy's linprog is imported on the first float solve, not with vsp
    code = ("import sys, vsp.cli, vsp.routing; assert 'scipy.optimize' not in sys.modules; "
            "vsp.routing.linprog; assert 'scipy.optimize' in sys.modules")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_float_repair_reroutes_a_sink_left_without_flow(monkeypatch):
    # HiGHS's answer loses the flow of the commodity from 1 on every arc into
    # sink 3, so the repair finds no path to 3 and must route that demand itself
    g = CapGraph([1, 2, 3, 4, 5],
                 [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1), (2, 5, 1), (5, 3, 1)], [1, 2, 3])
    dem = DemandSet.from_map({(1, 2): 1, (1, 3): 2, (2, 3): F(1, 2)})
    arcs = _skeleton(g).arcs
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
    assert res.eta == congestion(g, res.flow.edge_flow)
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


def test_router_check_retries_exactly_when_the_float_optimum_meets_the_bound(monkeypatch):
    # HiGHS understates the optimum by half: the float optimum meets the
    # bound 3/2 that the repaired flow (the bridge carries 2) misses, so the
    # check solves the LP again exactly, which settles it
    core = [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 1), (5, 6, 1), (4, 6, 1), (3, 4, 1)]
    pendants = [(1, 10, 1), (2, 11, 1), (5, 12, 1), (6, 13, 1)]
    g = CapGraph([1, 2, 3, 4, 5, 6, 10, 11, 12, 13], core + pendants, [10, 11, 12, 13])
    inst = subdivide_boundary(g, range(1, 7))
    real = routing.linprog

    def understated(*args, **kwargs):
        res = real(*args, **kwargs)
        res.x[-1] /= 2
        return res

    monkeypatch.setattr(routing, "linprog", understated)
    monkeypatch.setattr(routing, "EXACT_LP_MAX_VARS", 50)  # 89 columns go to HiGHS
    dem, base = uniform_exchange_demands(inst)
    float_res = min_congestion_routing(inst.graph, dem, base_load=base, split_pairs=True)
    assert (float_res.exact_lp, float_res.lp_eta, float_res.eta) == (False, 1.0, 2)
    monkeypatch.setattr(routing, "ETA_STAR", F(3, 2))
    ok, res = uniform_router_check(inst)
    assert (ok, res.exact_lp, res.eta) == (False, True, 2)


# --------------------------------------------------------------------------
# forests: the one routing, assembled without an LP


def _fields(res):
    """A RoutingResult's fields, every dict as its items in order."""
    flow = None if res.flow is None else (list(res.flow.edge_flow.items()), res.flow.paths)
    arcs = [(src, list(a.items())) for src, a in res.commodity_arcs.items()]
    return res.eta, flow, arcs, res.lp_eta, res.exact_lp


_caps = st.sampled_from([F(1), F(2), F(1, 2), F(3, 2), F(2, 3)])


@st.composite
def _forests(draw):
    """A forest on 2..9 vertices, often of several components, with
    fractional capacities and maybe a self-loop; demands between terminals
    of one component (maybe none), a base load on some non-loop edges, and
    the routing flags."""
    n = draw(st.integers(2, 9))
    edges = []
    for v in range(2, n + 1):
        if draw(st.integers(0, 3)):  # else v starts a new component
            u = draw(st.integers(1, v - 1))
            edges.append((u, v, draw(_caps)) if draw(st.booleans()) else (v, u, draw(_caps)))
    tree_edges = len(edges)
    if draw(st.booleans()):
        v = draw(st.integers(1, n))
        edges.append((v, v, draw(_caps)))
    terms = draw(st.lists(st.integers(1, n), min_size=2, max_size=n, unique=True))
    g = CapGraph(range(1, n + 1), edges, terms)
    comp = {v: ci for ci, c in enumerate(g.components()) for v in c}
    pairs = [(a, b) for i, a in enumerate(terms) for b in terms[i + 1:] if comp[a] == comp[b]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    dem = DemandSet.from_map({ab: draw(st.sampled_from([F(1), F(1, 3), F(5, 2)]))
                              for ab in chosen})
    loaded = draw(st.lists(st.integers(0, tree_edges - 1), unique=True)) if tree_edges else []
    base = {eid: draw(st.sampled_from([F(1, 2), F(4, 3)])) for eid in loaded}
    return g, dem, base, draw(st.booleans()), draw(st.sampled_from([True, False, None]))


def _counting_solvers(monkeypatch):
    calls = []
    real_lp, real_highs = routing.solve_lp, routing.linprog
    monkeypatch.setattr(routing, "solve_lp", lambda *a: calls.append("simplex") or real_lp(*a))
    monkeypatch.setattr(routing, "linprog",
                        lambda *a, **kw: calls.append("highs") or real_highs(*a, **kw))
    return calls


@settings(max_examples=150, deadline=None)
@given(_forests())
def test_forest_routing_equals_the_lp_routing(forest):
    g, dem, base, split, exact = forest
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_solvers(mp)
        res = min_congestion_routing(g, dem, base_load=base, split_pairs=split, exact=exact)
        assert calls == []
        mp.setattr(routing, "_is_forest", lambda *a: False)
        lp = min_congestion_routing(g, dem, base_load=base, split_pairs=split, exact=True)
        assert calls == ["simplex"]
        float_lp = min_congestion_routing(g, dem, base_load=base, split_pairs=split, exact=False)
        assert calls == ["simplex", "highs"]
    # whatever `exact` says, the forest's routing is the exact LP's, field for field
    assert _fields(res) == _fields(lp)
    assert res.exact_lp and res.lp_eta == float(res.eta)
    # HiGHS's repaired flow is the same flow (its paths may be split in pieces)
    assert (float_lp.eta, float_lp.flow.edge_flow, float_lp.commodity_arcs) == \
        (res.eta, res.flow.edge_flow, res.commodity_arcs)
    assert float_lp.lp_eta == pytest.approx(res.lp_eta, rel=1e-6, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(_forests(), st.data())
def test_a_cycle_or_a_parallel_edge_reaches_the_solver(forest, data):
    g, dem, base, split, exact = forest
    tree = [e for e in g.edges if e.u != e.v]
    if not tree:
        return
    e = data.draw(st.sampled_from(tree))
    comp = next(c for c in g.components() if e.u in c)
    # a second edge inside one component: parallel to e, or closing a cycle
    u, v = data.draw(st.sampled_from([(e.u, e.v)] + [(a, b) for a in comp for b in comp
                                                      if a < b]))
    edges = [(f.u, f.v, f.cap) for f in g.edges] + [(u, v, 1)]
    g2 = CapGraph(g.vertices, edges, g.terminals)
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_solvers(mp)
        res = min_congestion_routing(g2, dem, base_load=base, split_pairs=split, exact=exact)
    assert calls == ["highs" if exact is False else "simplex"]
    assert res.exact_lp is (exact is not False)
