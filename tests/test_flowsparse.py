import random
import sys
from fractions import Fraction

import pytest

from vsp import cli, flowsparse, graph, sparsecut
from vsp.errors import InputError
from vsp.flowsparse import (
    FlowParams,
    balanced_cut_refine,
    build_flow_sparsifier,
    contract_procedure,
    find_contractible_or_witness,
    is_good_router,
)
from vsp.gen import gen_capacitated, gen_chamber, gen_grid
from vsp.graph import CapGraph, contract, subdivide_boundary, write_graph
from vsp.routing import DemandSet, min_congestion_routing
from vsp.serialize import load_sparsifier
from vsp.verify import (
    cluster_demand_restriction,
    recheck_router_certificates,
    reroute_through_clusters,
    verify_flow_quality,
)

F = Fraction
AGG = FlowParams(profile="aggressive")


def _pendant_terminals(core_edges, core_verts, attach, start=500):
    terms, edges = [], list(core_edges)
    for i, v in enumerate(attach):
        t = start + i
        terms.append(t)
        edges.append((v, t, 1))
    return CapGraph(list(core_verts) + terms, edges, terms)


def test_good_router_single_vertex():
    g = _pendant_terminals([], [1], [1, 1, 1])
    ok, cert = is_good_router(subdivide_boundary(g, {1}), AGG)
    assert ok
    assert cert.eta == F(2 * 2, 3)


def test_good_router_dumbbell_decided_by_lp():
    core = [
        (1, 2, 1), (2, 3, 1), (1, 3, 1),
        (4, 5, 1), (5, 6, 1), (4, 6, 1),
        (3, 4, 1),
    ]
    g = _pendant_terminals(core, range(1, 7), [1, 2, 5, 6])
    ok, cert = is_good_router(subdivide_boundary(g, set(range(1, 7))), AGG)
    # the bridge makes the cluster exactly 1/2-well-linked (cut 1 vs 2+2);
    # uniform exchange loads the bridge with 2*2*2/4 = 2 <= 34
    assert ok
    dem = DemandSet.from_map(
        {(t1, t2): F(2, 4) for i, t1 in enumerate(g.terminals) for t2 in g.terminals[i + 1:]}
    )
    oracle = min_congestion_routing(g, dem, exact=True)
    assert cert.eta == oracle.eta


def test_not_good_router_long_pendant_path():
    n = 16
    core = [(i, i + 1, 1) for i in range(1, n)]
    g = _pendant_terminals(core, range(1, n + 1), list(range(1, n + 1)))
    ok, cert = is_good_router(subdivide_boundary(g, set(range(1, n + 1))), AGG)
    # fails 1/3-well-linkedness long before the congestion bound
    assert not ok


def test_builder_k4_star():
    g = _pendant_terminals([], [1], [1, 1, 1, 1])
    sp = build_flow_sparsifier(g, params=AGG)
    assert sp.steiner_count == 1
    assert sp.certificates[0].eta == F(2 * 3, 4)
    assert recheck_router_certificates(sp)["ok"]


def test_builder_good_router_base_case():
    core = [(u, v, 1) for u in range(1, 6) for v in range(u + 1, 6)]
    g = _pendant_terminals(core, range(1, 6), [1, 2, 3, 4, 5])
    sp = build_flow_sparsifier(g, params=AGG)
    assert sp.steiner_count == 1
    assert sp.certificates[0].eta <= 34
    rep = recheck_router_certificates(sp)
    assert rep["ok"], rep["checks"]


def test_builder_rejects_high_degree_terminal():
    g = CapGraph([1, 2, 3], [(1, 2, 1), (1, 3, 1), (2, 3, 1)], [1])
    with pytest.raises(InputError):
        build_flow_sparsifier(g, params=AGG)


def test_unit_builder_all_terminals():
    g = CapGraph([1, 2], [(1, 2, 1)], [1, 2])
    sp = build_flow_sparsifier(g, params=AGG)
    assert sp.graph.n == 2 and sp.graph.m == 1


def test_unit_builder_certificates_and_quality():
    rng = random.Random(211)
    done = 0
    for _ in range(8):
        n = rng.randint(6, 10)
        core = [(i, i + 1, 1) for i in range(1, n)]
        for _ in range(n):
            u, v = rng.sample(range(1, n + 1), 2)
            core.append((u, v, 1))
        k = rng.randint(3, 5)
        g = _pendant_terminals(core, range(1, n + 1), rng.sample(range(1, n + 1), k))
        sp = build_flow_sparsifier(g, params=AGG)
        rep = recheck_router_certificates(sp)
        assert rep["ok"], rep["checks"]
        for cert in sp.certificates:
            assert cert.eta <= 34
        q = verify_flow_quality(
            g, sp.graph, strategies=("uniform", "matching"), samples=2,
            seed=done, quality_bound=F(68), sparsifier=sp,
        )
        assert q.ok, q.violations
        assert q.q_observed <= 68
        done += 1
    assert done >= 6


def test_contraction_loop_on_chamber():
    g = gen_chamber(seed=5)
    params = FlowParams(profile="aggressive", precheck_router=False)
    sp = build_flow_sparsifier(g, params=params)
    assert sp.size_bound_met
    assert sp.steiner_count <= params.f_size(g.k)
    assert any("contract:" in line for line in sp.log)
    rep = recheck_router_certificates(sp)
    assert rep["ok"], rep["checks"]


def test_find_contractible_on_chamber():
    g = gen_chamber(seed=5)
    gp, cmap = contract(g, [])
    out = find_contractible_or_witness(gp, AGG)
    assert out.kind == "contractible"
    cs = out.contractible
    # the definition is re-checked directly
    assert cs.boundary_cap <= (g.k + 1) // 2
    assert len(cs.members) > 128 * AGG.f_size(cs.boundary_cap)
    certs, gp2, cmap2, info = contract_procedure(
        g, [], gp, cmap, cs.members, AGG, [], []
    )
    assert info.vertices_after < info.vertices_before
    assert info.f_ledger_lhs <= info.f_ledger_rhs
    for c in certs:
        assert c.eta <= 34


def test_balanced_cut_refinement_properties():
    g = gen_chamber(seed=9, body_n=30, chamber_n=80, k=6)
    gp, _ = contract(g, [])
    interior = frozenset(v for v in gp.vertices if not gp.is_terminal(v))
    r = AGG.r(gp.k)
    out = balanced_cut_refine(gp, interior, AGG, r, AGG.f_size(F(gp.k, 2), r))
    if out.kind == "balanced":
        assert len(out.x) >= len(interior) / 4
        assert len(out.y) >= len(interior) / 4
        crossing = [
            e for e in gp.edges
            if (e.u in out.x and e.v in out.y) or (e.u in out.y and e.v in out.x)
        ]
        assert len(crossing) <= r * gp.k
    else:
        assert out.kind in ("contractible", "witness2")


def test_search_gives_up_when_no_balanced_split_exists(tmp_path, capsys):
    # the first refinement splits this chamber's 64 interior vertices 60/4,
    # and refining the 60 rebuilds X as all of them, an empty side that
    # crashed phase 2; a side below |S|/4 is no balanced partition, so the
    # search gives up
    g = gen_chamber(seed=0, body_n=4, chamber_n=60, k=6)
    sp = build_flow_sparsifier(g, params=FlowParams(profile="aggressive", precheck_router=False))
    assert any(line.startswith("search gave up: balanced-cut") for line in sp.log), sp.log
    assert recheck_router_certificates(sp)["ok"]
    gpath, prefix = str(tmp_path / "chamber.vsp"), str(tmp_path / "chamber.sp")
    write_graph(g, gpath)
    build = ["build", gpath, "--mode", "flow", "--profile", "aggressive", "--no-precheck",
             "--out", prefix]
    assert cli.main(build) == cli.EXIT_OK
    assert recheck_router_certificates(load_sparsifier(g, prefix))["ok"]
    assert cli.main(["verify", gpath, prefix]) == cli.EXIT_OK
    capsys.readouterr()


def test_capacitated_flow_sparsifier():
    core = [(u, v, 2) for u in range(1, 5) for v in range(u + 1, 5)]
    core += [(1, 10, 1), (2, 11, 1), (3, 12, 2)]
    g = CapGraph(list(range(1, 5)) + [10, 11, 12], core, [10, 11, 12])
    eps = F(1, 2)
    sp = build_flow_sparsifier(g, eps, AGG)
    assert sorted(sp.graph.terminals) == [10, 11, 12]
    assert sp.quality == 68 + eps
    # terminal-side capacities survive the round trip exactly
    for t in g.terminals:
        got = sum(e.cap for e in sp.graph.incident(t))
        want_lo = sum(e.cap for e in g.incident(t))
        assert want_lo <= got <= want_lo * (2 * F(34) + eps) / (2 * F(34))
    q = verify_flow_quality(g, sp.graph, strategies=("uniform", "matching"),
                            samples=3, seed=1, quality_bound=F(68) + eps)
    assert q.ok, q.violations


def test_reroute_composition_bound():
    core = [(u, v, 1) for u in range(1, 6) for v in range(u + 1, 6)]
    g = _pendant_terminals(core, range(1, 6), [1, 2, 3, 4])
    sp = build_flow_sparsifier(g, params=AGG)
    dem = DemandSet.from_map({(500, 501): 1, (502, 503): F(1, 2)})
    rh = min_congestion_routing(sp.graph, dem)
    composed = reroute_through_clusters(sp, rh)
    assert composed <= 2 * F(34) * rh.eta
    assert cluster_demand_restriction(sp, rh) <= rh.eta


@pytest.mark.parametrize(
    "make_graph, eps, params",
    [
        (lambda: gen_chamber(seed=5), None,
         FlowParams(profile="aggressive", precheck_router=False)),
        (lambda: gen_grid(10, 10, k=8), None, None),
        (lambda: gen_capacitated(n=8, k=3, seed=0), F(1, 2), None),
    ],
    ids=["chamber5-loop", "grid10-unit", "capacitated0-eps"],
)
def test_one_assembly_per_build(monkeypatch, make_graph, eps, params):
    # the search returns router certificates only; H is contracted once
    calls = []
    assemble = flowsparse.assemble_flow_sparsifier

    def counting(*args, **kwargs):
        calls.append(args[1])
        return assemble(*args, **kwargs)

    monkeypatch.setattr(flowsparse, "assemble_flow_sparsifier", counting)
    build_flow_sparsifier(make_graph(), eps, params)
    assert calls == [eps]


def _layer_caller(frame) -> str | None:
    """The module of the first frame outside the graph and sparse-cut layers
    (and this test's wrappers): the code that asked for the call."""
    skip = {"vsp.graph", "vsp.sparsecut", __name__}
    while frame is not None and frame.f_globals.get("__name__") in skip:
        frame = frame.f_back
    return None if frame is None else frame.f_globals.get("__name__")


@pytest.mark.parametrize(
    "make_graph, eps",
    [(lambda: gen_grid(4, 4, k=4), None), (lambda: gen_capacitated(n=8, k=3, seed=0), F(1, 2))],
    ids=["grid4-unit", "capacitated0-eps"],
)
def test_router_search_reuses_the_decomposition_instance(monkeypatch, make_graph, eps):
    # a build searches the instance G_S that each strong-decomposition
    # cluster keeps and takes its exact well-linked verdict: vsp.flowsparse
    # neither subdivides a cluster again nor reruns the sparsest cut.  The
    # recheck still builds one instance per certificate.
    originals = {
        "subdivide_boundary": graph.subdivide_boundary,
        "sparsest_cut_exact": sparsecut.sparsest_cut_exact,
    }
    calls = []

    def watch(name, fn):
        def watched(*args, **kwargs):
            calls.append((name, _layer_caller(sys._getframe(1)), args))
            return fn(*args, **kwargs)

        return watched

    for modname, mod in list(sys.modules.items()):
        if modname == "vsp" or modname.startswith("vsp."):
            for name, fn in originals.items():
                if vars(mod).get(name) is fn:
                    monkeypatch.setattr(mod, name, watch(name, fn))
    searched = []
    well_linked_routers = flowsparse._well_linked_routers

    def recording(inst, *rest):
        searched.append(inst)
        return well_linked_routers(inst, *rest)

    monkeypatch.setattr(flowsparse, "_well_linked_routers", recording)
    sp = build_flow_sparsifier(make_graph(), eps)
    # the watch is live: the decomposition's own calls are seen
    assert {n for n, c, _a in calls if c == "vsp.decompose"} == set(originals)
    assert [(n, c) for n, c, _a in calls if c == "vsp.flowsparse"] == []
    kept = [c.inst for dec in sp.decompositions for c in dec.clusters]
    assert searched and sorted(map(id, searched)) == sorted(map(id, kept))
    calls.clear()
    assert recheck_router_certificates(sp)["ok"]
    subdivided = [a[1] for n, _c, a in calls if n == "subdivide_boundary"]
    assert subdivided == [c.members for c in sp.certificates]
