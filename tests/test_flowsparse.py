import json
import logging
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from vsp import cli, flowsparse, graph, routing, sparsecut
from vsp.decompose import weak_decompose
from vsp.errors import BudgetExceeded
from vsp.flowsparse import (
    FlowParams,
    balanced_cut_refine,
    build_flow_sparsifier,
    contract_procedure,
    find_contractible_or_witness,
    is_good_router,
    verify_witness1,
    witness_to_flow,
)
from vsp.gen import gen_capacitated, gen_chamber, gen_grid
from vsp.graph import CapGraph, contract, subdivide_boundary, write_graph
from vsp.routing import DemandSet, min_congestion_routing, uniform_router_check
from vsp.serialize import load_sparsifier
from vsp.verify import (
    project_cluster_demands,
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
    sp, _ = build_flow_sparsifier(g, params=AGG)
    assert sp.steiner_count == 1
    assert sp.certificates[0].eta == F(2 * 3, 4)
    assert recheck_router_certificates(sp)["ok"]


def test_builder_good_router_base_case():
    core = [(u, v, 1) for u in range(1, 6) for v in range(u + 1, 6)]
    g = _pendant_terminals(core, range(1, 6), [1, 2, 3, 4, 5])
    sp, _ = build_flow_sparsifier(g, params=AGG)
    assert sp.steiner_count == 1
    assert sp.certificates[0].eta <= 34
    rep = recheck_router_certificates(sp)
    assert rep["ok"], rep["checks"]


def test_builder_picks_eps_for_high_degree_terminal():
    g = CapGraph([1, 2, 3], [(1, 2, 1), (1, 3, 1), (2, 3, 1)], [1])
    sp, _ = build_flow_sparsifier(g, params=AGG)
    assert (sp.eps_input, sp.quality) == (F(1, 2), F(137, 2))


def test_unit_builder_all_terminals():
    g = CapGraph([1, 2], [(1, 2, 1)], [1, 2])
    sp, _ = build_flow_sparsifier(g, params=AGG)
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
        sp, _ = build_flow_sparsifier(g, params=AGG)
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


def _search_log(caplog):
    """The messages the flow search logged since `caplog` was last cleared."""
    return [r.getMessage() for r in caplog.records if r.name == "vsp.flowsparse"]


def test_contraction_loop_on_chamber(caplog):
    caplog.set_level(logging.INFO, logger="vsp.flowsparse")
    g = gen_chamber(seed=5)
    params = FlowParams(profile="aggressive", precheck_router=False)
    sp, size_ok = build_flow_sparsifier(g, params=params)
    assert size_ok
    assert sp.steiner_count <= params.f_size(g.k)
    assert any("contract:" in line for line in _search_log(caplog))
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
        g, [], gp, cmap, cs.members, AGG
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


def test_search_gives_up_when_no_balanced_split_exists(tmp_path, capsys, caplog):
    # the first refinement splits this chamber's 64 interior vertices 60/4,
    # and refining the 60 rebuilds X as all of them, an empty side that
    # crashed phase 2; a side below |S|/4 is no balanced partition, so the
    # search gives up
    g = gen_chamber(seed=0, body_n=4, chamber_n=60, k=6)
    caplog.set_level(logging.INFO, logger="vsp.flowsparse")
    sp, _ = build_flow_sparsifier(g, params=FlowParams(profile="aggressive", precheck_router=False))
    lines = _search_log(caplog)
    assert any(line.startswith("search gave up: balanced-cut") for line in lines), lines
    assert recheck_router_certificates(sp)["ok"]
    gpath, prefix = str(tmp_path / "chamber.vsp"), str(tmp_path / "chamber.sp")
    write_graph(g, gpath)
    build = ["build", gpath, "--mode", "flow", "--profile", "aggressive", "--no-precheck",
             "--out", prefix]
    assert cli.main(build) == cli.EXIT_OK
    assert recheck_router_certificates(load_sparsifier(g, prefix))["ok"]
    assert cli.main(["verify", gpath, prefix]) == cli.EXIT_OK
    capsys.readouterr()


def _cycle(n, attach, caps=None):
    """An n-vertex cycle, edge (i, i+1) of capacity caps[i] (default 1), with
    a pendant terminal at every vertex of `attach`."""
    caps = caps or {}
    core = [(i, i % n + 1, caps.get(i, 1)) for i in range(1, n + 1)]
    return _pendant_terminals(core, range(1, n + 1), attach)


def test_phase_two_assembles_a_type1_witness(monkeypatch):
    # phase 1 halves the 12-cycle twice; phase 2 weak-decomposes r = 3 of the
    # quarters and routes two terminals onto each largest cluster
    g = _cycle(12, [1, 4, 7, 10])
    weak = []
    monkeypatch.setattr(flowsparse, "weak_decompose",
                        lambda *a, **kw: weak.append(a[1]) or weak_decompose(*a, **kw))
    out = find_contractible_or_witness(g, AGG)
    assert out.kind == "witness1"
    assert len(weak) == 3
    assert verify_witness1(g, out.witness, 4) == []
    eta = witness_to_flow(g, out.witness).eta
    assert eta == F(5, 2) and eta <= 10  # criterion 7's type-1 bound


def test_phase_two_gives_up_when_the_terminals_miss_every_cluster():
    # every terminal hangs off vertex 13, one edge away from the cycle: no
    # two edge-disjoint paths reach a cluster inside the cycle, and each
    # cut side is far below the contractible size
    core = [(i, i % 12 + 1, 1) for i in range(1, 13)] + [(1, 13, 1)]
    g = _pendant_terminals(core, range(1, 14), [13] * 4)
    with pytest.raises(BudgetExceeded, match="phase 2 assembled only 0 of 3 witness families"):
        find_contractible_or_witness(g, AGG)


# the failed transfer's cut side is the larger piece of X in the first case
# (it becomes the new X) and the smaller in the second (it joins Y)
@pytest.mark.parametrize("x_pieces, attach, cut, small_side", [
    ([[1, 2, 3], [4, 5, 6, 7]], [12, 13, 14, 14], {4, 5, 6, 7}, {4, 5, 6, 7}),
    ([[1], [2, 3, 4, 5, 6, 7]], [8, 8, 9, 9], {1}, {2, 3, 4, 5, 6, 7}),
])
def test_step2_rebuilds_the_partition_at_a_failed_group_transfer(monkeypatch, x_pieces, attach,
                                                                 cut, small_side):
    # X = 1..7 is joined to the path Y = 8..14 by 14 crossing edges (i, i+7)
    # but falls apart inside, so routing the first edge group onto the next
    # one inside X fails, and step 2 rebuilds the partition from the cut
    core = [(i, i + 7, 1) for i in range(1, 8) for _ in range(2)]
    core += [(a, b, 1) for piece in x_pieces for a, b in zip(piece, piece[1:])]
    core += [(v, v + 1, 1) for v in range(8, 14)]
    g = _pendant_terminals(core, range(1, 15), attach)
    s = frozenset(range(1, 15))
    rebuilt = []
    step2 = flowsparse._step2_new_partition
    monkeypatch.setattr(flowsparse, "_step2_new_partition",
                        lambda *a: rebuilt.append(a[3]) or step2(*a))
    out = balanced_cut_refine(g, s, AGG, 3, F(1))
    assert rebuilt == [frozenset(cut)]
    assert (out.kind, out.y, out.x) == ("balanced", frozenset(small_side), s - small_side)
    crossing = [e for e in g.edges if (e.u in out.x) != (e.v in out.x) and e.u in s and e.v in s]
    assert len(crossing) <= 3 * g.k and 4 * len(out.y) >= len(s)


def test_router_check_failures(monkeypatch, caplog):
    caplog.set_level(logging.INFO, logger="vsp.flowsparse")
    # below the exchange congestion of both cycles every router check fails
    g4, g6 = _cycle(12, [1, 4, 7, 10]), _cycle(16, [1, 4, 7, 10, 13, 15])
    interior = frozenset(range(1, 13))
    assert is_good_router(subdivide_boundary(g4, interior), AGG)[1].eta == F(3, 2)
    monkeypatch.setattr(routing, "ETA_STAR", F(1, 2))
    assert is_good_router(subdivide_boundary(g4, interior), AGG) == (False, None)
    # k <= 4: the cluster stays uncontracted
    caplog.clear()
    sp, size_ok = build_flow_sparsifier(g4, params=AGG)
    assert _search_log(caplog) == [
        "k <= 4 interior failed the router check; returning uncontracted"]
    assert (sp.certificates, size_ok, sp.graph.n) == ([], False, g4.n)
    # k = 6: the search finds a witness, and the exchange LP is solved once,
    # up front or, without the pre-check, after the witness
    checks = []
    monkeypatch.setattr(flowsparse, "uniform_router_check",
                        lambda *a, **kw: checks.append(1) or uniform_router_check(*a, **kw))
    for precheck in (True, False):
        checks.clear()
        caplog.clear()
        params = FlowParams(profile="aggressive", precheck_router=precheck)
        sp, size_ok = build_flow_sparsifier(g6, params=params)
        assert _search_log(caplog)[-2:] == [
            "witness1 found; witness flow congestion 100/27",
            "witness found but the interior fails the router check; stopping"]
        assert (len(checks), sp.certificates, size_ok) == (1, [], False)


def test_bucketed_capacities_skip_the_contraction_loop(caplog):
    caplog.set_level(logging.INFO, logger="vsp.flowsparse")
    g = _cycle(16, [1, 4, 7, 10, 13, 15], caps={5: 2})
    sp, size_ok = build_flow_sparsifier(
        g, params=FlowParams(profile="aggressive", precheck_router=False))
    assert _search_log(caplog) == ["bucketed capacities: contraction loop unavailable"]
    assert (sp.certificates, size_ok, sp.steiner_count) == ([], False, 16)


@pytest.mark.parametrize("g, met", [
    (_cycle(16, [1, 4, 7, 10, 13, 15], caps={5: 2}), False),
    (_cycle(12, [1, 4, 7, 10]), True),
], ids=["bucketed-cycle", "router-cycle"])
def test_build_summary_reports_the_size_verdict(tmp_path, g, met):
    # a fresh interpreter has no log handler attached: the search's INFO
    # records print nothing, and the summary carries the builder's verdict
    gpath = tmp_path / "g.vsp"
    write_graph(g, gpath)
    out = subprocess.run(
        [sys.executable, "-m", "vsp.cli", "build", str(gpath), "--mode", "flow",
         "--profile", "aggressive", "--no-precheck", "--out", str(tmp_path / "h")],
        capture_output=True, text=True,
    )
    assert (out.returncode, out.stderr) == (cli.EXIT_OK, "")
    assert json.loads(out.stdout.splitlines()[-1])["size_bound_met"] is met
    assert f'"size_bound_met": {json.dumps(met)}' in out.stdout


def test_router_check_refuses_beyond_the_enumeration_budget():
    inst = subdivide_boundary(_cycle(16, [1, 4, 7, 10, 13, 15]), range(1, 17))
    assert is_good_router(inst, FlowParams(profile="aggressive", enum_budget=6))[0]
    with pytest.raises(BudgetExceeded):
        sparsecut.is_well_linked(inst, F(1, 3), budget=5)
    assert is_good_router(inst, FlowParams(profile="aggressive", enum_budget=5)) == (False, None)


def test_theoretical_profile_constants():
    # the published parameter rule: r is the fixpoint of r > 24 beta(k*) /
    # alpha_w(k*), and F grows by 2^16 r^3 log r per halving above 4
    p = FlowParams()
    assert (p.r(4), p.r(8)) == (2526768, 2727568)
    assert p.k_star(4, p.r(4)) == 429931835
    assert p.growth(p.r(8)) == 28431371550456565183253248
    assert p.f_size(4) == 1
    assert p.f_size(8) == p.growth(p.r(8)) > 10**9


def test_capacitated_flow_sparsifier():
    core = [(u, v, 2) for u in range(1, 5) for v in range(u + 1, 5)]
    core += [(1, 10, 1), (2, 11, 1), (3, 12, 2)]
    g = CapGraph(list(range(1, 5)) + [10, 11, 12], core, [10, 11, 12])
    eps = F(1, 2)
    sp, _ = build_flow_sparsifier(g, eps, AGG)
    assert sorted(sp.graph.terminals) == [10, 11, 12]
    assert sp.quality == 68 + eps
    # the reduction rounds every terminal edge up by at most a factor
    # (2 eta* + eps) / (2 eta*), and the scale-back keeps that bracket
    for t in g.terminals:
        got = sum(e.cap for e in sp.graph.incident(t))
        want_lo = sum(e.cap for e in g.incident(t))
        assert want_lo <= got <= want_lo * (2 * F(34) + eps) / (2 * F(34))
    q = verify_flow_quality(g, sp.graph, strategies=("uniform", "matching"),
                            samples=3, seed=1, quality_bound=F(68) + eps)
    assert q.ok, q.violations


def _looped_k4():
    # test_capacitated_flow_sparsifier's graph plus a self-loop on terminal 10
    core = [(u, v, 2) for u in range(1, 5) for v in range(u + 1, 5)]
    core += [(1, 10, 1), (2, 11, 1), (3, 12, 2), (10, 10, 1)]
    return CapGraph(list(range(1, 5)) + [10, 11, 12], core, [10, 11, 12])


@pytest.mark.parametrize(
    "make_graph", [lambda: gen_capacitated(n=8, k=3, seed=1), _looped_k4],
    ids=["terminal-first-edges", "terminal-self-loop"],
)
def test_eps_edge_map_follows_h(make_graph):
    # H contracts the capacitated unit reduction, which keeps G's vertices
    # and edge ids: every H edge has the ends, in order, of the unit-graph
    # edge it maps to, and a terminal's self-loop is dropped, not renumbered
    g = make_graph()
    assert any(g.is_terminal(e.u) for e in g.edges)
    sp, _ = build_flow_sparsifier(g, F(1, 2), AGG)
    cmap = sp.cmap
    assert len(cmap.edge_map) == sp.graph.m
    for i, e in enumerate(sp.graph.edges):
        ue = sp.unit_graph.edges[cmap.edge_map[i]]
        assert (cmap.vertex_map[ue.u], cmap.vertex_map[ue.v]) == (e.u, e.v)


def test_terminal_self_loop_builds_and_verifies(tmp_path, capsys):
    gpath, prefix = str(tmp_path / "loop.vsp"), str(tmp_path / "loop.sp")
    write_graph(_looped_k4(), gpath)
    assert cli.main(["build", gpath, "--mode", "flow", "--out", prefix]) == cli.EXIT_OK
    assert cli.main(["verify", gpath, prefix]) == cli.EXIT_OK
    capsys.readouterr()


def test_eps_composed_flow_is_in_h_units():
    # a composed flow is a flow in the rounded G whose surviving edges are
    # H's, so its congestion is at least eta_H, and the routers bound it by
    # 2 eta* eta_H
    g = gen_capacitated(n=8, k=3, seed=0)
    sp, _ = build_flow_sparsifier(g, F(1, 2), AGG)
    rep = verify_flow_quality(g, sp.graph, samples=3, seed=1, sparsifier=sp)
    composed = [(r["h"], r["composed"]) for r in rep.records if "composed" in r]
    assert composed
    for h, c in composed:
        assert h <= c <= 2 * flowsparse.ETA_STAR * h


def test_reroute_composition_bound():
    core = [(u, v, 1) for u in range(1, 6) for v in range(u + 1, 6)]
    g = _pendant_terminals(core, range(1, 6), [1, 2, 3, 4])
    sp, _ = build_flow_sparsifier(g, params=AGG)
    dem = DemandSet.from_map({(500, 501): 1, (502, 503): F(1, 2)})
    rh = min_congestion_routing(sp.graph, dem)
    composed = reroute_through_clusters(sp, rh)
    assert composed <= 2 * F(34) * rh.eta
    # the demand mass each cluster takes at a boundary edge is at most eta_H
    # times the edge's capacity
    for dem in project_cluster_demands(sp, rh).values():
        mass = {}
        for pair, x in dem.items():
            for eid in pair:
                mass[eid] = mass.get(eid, 0) + x
        assert all(x <= rh.eta * sp.unit_graph.edges[eid].cap for eid, x in mass.items())


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
    searched, decomposed = [], []
    well_linked_routers = flowsparse._well_linked_routers
    interior_decompositions = flowsparse.interior_decompositions

    def recording(inst, *rest):
        searched.append(inst)
        return well_linked_routers(inst, *rest)

    monkeypatch.setattr(flowsparse, "_well_linked_routers", recording)
    monkeypatch.setattr(flowsparse, "interior_decompositions",
                        lambda *a: decomposed.extend(interior_decompositions(*a)) or decomposed)
    sp, _ = build_flow_sparsifier(make_graph(), eps)
    # the watch is live: the decomposition's own calls are seen
    assert {n for n, c, _a in calls if c == "vsp.decompose"} == set(originals)
    assert [(n, c) for n, c, _a in calls if c == "vsp.flowsparse"] == []
    kept = [c.inst for dec in decomposed for c in dec.clusters]
    assert searched and sorted(map(id, searched)) == sorted(map(id, kept))
    calls.clear()
    assert recheck_router_certificates(sp)["ok"]
    subdivided = [a[1] for n, _c, a in calls if n == "subdivide_boundary"]
    assert subdivided == [c.members for c in sp.certificates]
