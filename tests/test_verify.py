import dataclasses
import json
import random
import signal
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from hashlib import sha256

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from vsp import cli
from vsp.cutsparse import build_cut_sparsifier, verify_cut_projection
from vsp.errors import InputError
from vsp.flow import TerminalCuts, bipartitions, side_matrix
from vsp.flowsparse import FlowParams, build_flow_sparsifier
from vsp.gen import gen_capacitated, gen_dumbbell, gen_grid
from vsp.graph import CapGraph, contract, subdivide_boundary, write_graph
from vsp.routing import DemandSet, min_congestion_routing, uniform_router_check
from vsp.serialize import (
    RouterCertificate,
    assemble_flow_sparsifier,
    load_sparsifier,
    save_sparsifier,
)
import vsp.verify as verify
from vsp.verify import (
    demand_strategies,
    recheck_router_certificates,
    reroute_through_clusters,
    verify_cut_quality,
    verify_flow_quality,
)

from util import derived_router_fields, edit_sidecar, flow_router_graph, random_unit_graph

F = Fraction
AGG = FlowParams(profile="aggressive")


def _flow_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(6, 9)
    core = [(i, i + 1, 1) for i in range(1, n)]
    for _ in range(n):
        u, v = rng.sample(range(1, n + 1), 2)
        core.append((u, v, 1))
    k = rng.randint(3, 5)
    edges = list(core)
    terms = []
    for i, host in enumerate(rng.sample(range(1, n + 1), k)):
        t = 500 + i
        terms.append(t)
        edges.append((host, t, 1))
    return CapGraph(list(range(1, n + 1)) + terms, edges, terms)


def test_identity_sparsifier_q_one():
    g = random_unit_graph(random.Random(7), n=8, m=14, k=4)
    rep = verify_cut_quality(g, g)
    assert rep.ok and rep.q_observed == 1
    assert rep.flags["exhaustive"]
    assert rep.flags["tests"] == 2 ** (g.k - 1) - 1


@contextmanager
def _deadline(seconds):
    """Fail with TimeoutError instead of hanging (SIGALRM, main thread)."""
    def expire(_sig, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@given(
    k=st.integers(2, 9),
    budget=st.integers(0, 10),
    seed=st.integers(0, 10**6),
)
@example(k=4, budget=3, seed=0)  # 18 samples wanted, 7 splits exist
# no shrink phase: every shrink step of a hanging example would cost the deadline
@settings(max_examples=150, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_bipartitions_property(k, budget, seed):
    terms = list(range(100, 100 + k))
    random.Random(seed).shuffle(terms)  # side matrices order their columns by id
    with _deadline(1):
        masks, exhaustive = bipartitions(terms, budget, seed)
        side_a = side_matrix(terms, masks)
    total = 2 ** (k - 1) - 1
    assert len(masks) == len(side_a) == (total if exhaustive else 2 * budget * budget)
    assert exhaustive == (k <= budget or 2 * budget * budget >= total)
    assert len(set(masks)) == len(masks)
    assert len({row.tobytes() for row in side_a}) == len(side_a)
    assert side_a.shape == (len(masks), k)
    order = sorted(terms)
    for mask, row in zip(masks, side_a):
        a = [t for t, on in zip(order, row) if on]
        b = [t for t, on in zip(order, row) if not on]
        assert a and b and terms[0] in a
        assert sorted(a + b) == order
        assert set(a) == {terms[0], *(t for i, t in enumerate(terms[1:]) if mask >> i & 1)}


def test_bipartitions_sample_has_no_empty_side_and_reaches_mask_zero():
    terms = list(range(1, 11))
    isolated_first = 0
    for seed in range(200):
        masks, exhaustive = bipartitions(terms, 9, seed)
        side_a = side_matrix(terms, masks)
        assert not exhaustive
        assert (side_a.any(axis=1) & ~side_a.all(axis=1)).all(), seed
        isolated_first += ((side_a.sum(axis=1) == 1) & side_a[:, 0]).any()
    assert isolated_first > 0


def test_sampled_cut_quality_past_63_terminals():
    # 70 terminals, listed out of id order: the sampled masks reach 2^69,
    # past any int64, and the side matrices reorder their columns
    grid = gen_grid(10, 10, k=70)
    terms = list(grid.terminals)
    random.Random(1).shuffle(terms)
    g = CapGraph(grid.vertices, [(e.u, e.v, e.cap) for e in grid.edges], terms)
    h = CapGraph(g.vertices, [(e.u, e.v, e.cap * (1 + e.eid % 2)) for e in g.edges], terms)
    rep = verify_cut_quality(g, h)
    assert len(rep.records) == 2 * 16**2 == 512
    assert rep.flags == {"exhaustive": False, "non_exhaustive": True, "tests": 512}
    masks, _ = bipartitions(terms, 16, 0)
    assert max(masks) >= 1 << 64
    cuts_g, cuts_h = TerminalCuts(g, terms), TerminalCuts(h, terms)
    for rec, mask in zip(rep.records, masks, strict=True):
        side_a = [terms[0]] + [t for i, t in enumerate(terms[1:]) if mask >> i & 1]
        side_b = [t for t in terms if t not in side_a]
        assert rec["side_a"] == side_a
        assert rec["g"] == cuts_g.min_cut(side_a, side_b)[0]
        assert rec["h"] == cuts_h.min_cut(side_a, side_b)[0]
    # the seeded sample is pinned: the same sides in the same order
    sides = json.dumps([rec["side_a"] for rec in rep.records]).encode()
    assert sha256(sides).hexdigest() == (
        "ca654a801fd9403e5786664fcb6b2b886495c1ccbfbe4f8ebe135a446e042f53")


def test_cut_quality_holds_one_chunk_at_a_time(monkeypatch):
    # with 8-row chunks the 31 splits of 6 terminals take four `values`
    # calls per graph, G's and H's in turn, each with one chunk of rows.
    # Every vertex is a terminal, so both graphs are enumerated; with no
    # enumeration G, whose doubled scaled total passes 2^31, is priced in
    # Python and H in stacked solves, and the records stay the same
    edges = [(1, 2, 10**12), (2, 3, 1), (3, 4, 2), (4, 5, 1), (5, 6, 3), (6, 1, 1), (2, 5, 2)]
    terms = [4, 1, 6, 2, 5, 3]
    g = CapGraph(range(1, 7), edges, terms)
    h = CapGraph(range(1, 7), [(u, v, min(c, 20)) for u, v, c in edges], terms)
    whole = verify_cut_quality(g, h)
    # a stacked copy of either graph has 6 + 2 * 7 + 2 * 6 = 32 nodes and arcs
    monkeypatch.setattr("vsp.flow._CHUNK_SIZE", 8 * 32)
    calls = []
    values = TerminalCuts.values

    def recorded(cuts, side_a, side_b):
        out = values(cuts, side_a, side_b)
        calls.append(("g" if cuts._g is g else "h", len(side_a), out.dtype))
        return out

    monkeypatch.setattr(TerminalCuts, "values", recorded)
    rows = [8, 8, 8, 7]
    for enum_size, dtypes in ((1 << 16, (np.int64, np.int64)), (0, (object, np.int64))):
        monkeypatch.setattr("vsp.flow._ENUM_SIZE", enum_size)
        calls.clear()
        rep = verify_cut_quality(g, h)
        assert rep.records == whole.records and len(rep.records) == 31
        assert calls == [(side, n, dtype) for n in rows for side, dtype in zip("gh", dtypes)]
    _assert_min_cuts(g, h, rep)


def _contraction(seed):
    """A random G over core vertices 1..n and terminals 100.., with
    capacities in thirds and halves, parallel edges and sometimes an
    isolated core vertex, and H: G with its core vertices contracted into
    random clusters, so H has Steiner-Steiner edges.  Sometimes every vertex
    is a terminal, and then H is G with other capacities and s = 0."""
    rng = random.Random(seed)
    caps = [F(1), F(3, 2), F(2, 3), F(5, 2), F(7, 3)]
    n, k = rng.randint(2, 7), rng.randint(2, 6)
    core = list(range(1, n + 1))
    terms = [100 + i for i in range(k)]
    edges = [(v, rng.randint(1, v - 1), rng.choice(caps)) for v in core[1:]]
    edges += [(t, rng.choice(core), rng.choice(caps)) for t in terms]
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(core + terms, 2)
        edges.append((u, v, rng.choice(caps)))
    edges += rng.sample(edges, rng.randint(0, 3))  # parallel copies
    if rng.random() < 0.15:
        g = CapGraph(core + terms, edges, core + terms)
        return g, CapGraph(core + terms, [(u, v, c + 1) for u, v, c in edges], core + terms)
    isolated = [n + 1] if rng.random() < 0.5 else []
    g = CapGraph(core + isolated + terms, edges, terms)
    rng.shuffle(core)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(3, n - 1))))
    clusters = [core[a:b] for a, b in zip([0, *cuts], [*cuts, n])] + [[v] for v in isolated]
    return g, contract(g, clusters)[0]


def _assert_min_cuts(g, h, rep):
    terms = list(g.terminals)
    cuts_g, cuts_h = TerminalCuts(g, terms), TerminalCuts(h, terms)
    for rec in rep.records:
        side_b = [t for t in terms if t not in rec["side_a"]]
        assert rec["g"] == cuts_g.min_cut(rec["side_a"], side_b)[0]
        assert rec["h"] == cuts_h.min_cut(rec["side_a"], side_b)[0]


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_steiner_sides_price_h_as_max_flow_does(seed):
    g, h = _contraction(seed)
    for other in (h, g):
        rep = verify_cut_quality(g, other)
        assert len(rep.records) == 2 ** (g.k - 1) - 1
        _assert_min_cuts(g, other, rep)


def test_steiner_sides_up_to_the_bound_then_max_flow(monkeypatch):
    # 3 Steiner vertices and 31 splits in one chunk: 2^3 * 31 * (n + m)
    # entries is the largest chunk priced by enumeration
    g, h = _contraction(72)
    steiner = [v for v in h.vertices if not h.is_terminal(v)]
    assert (len(steiner), g.k, any(h.degree(v) == 0 for v in steiner)) == (3, 6, True)
    size = 2 ** 3 * 31 * (h.n + h.m)
    solves = []  # rows of every stacked solve of H
    compiled = TerminalCuts._stack_values

    def recorded(cuts, side_a, side_b):
        if cuts._g is h:
            solves.append(len(side_a))
        return compiled(cuts, side_a, side_b)

    monkeypatch.setattr(TerminalCuts, "_stack_values", recorded)
    monkeypatch.setattr("vsp.flow._ENUM_SIZE", size)
    at_bound = verify_cut_quality(g, h)
    assert solves == []
    monkeypatch.setattr("vsp.flow._ENUM_SIZE", size - 1)
    past_bound = verify_cut_quality(g, h)
    assert solves == [31]
    assert at_bound.records == past_bound.records
    _assert_min_cuts(g, h, past_bound)


def test_steiner_sides_sum_past_int64():
    # H's scaled total passes 2^63, so its cuts are summed in Python ints
    g, h = _contraction(72)
    big = CapGraph(h.vertices, [(e.u, e.v, e.cap * 2**62) for e in h.edges], h.terminals)
    rep = verify_cut_quality(g, big)
    assert max(rec["h"] for rec in rep.records) > 2**63
    _assert_min_cuts(g, big, rep)


def test_cut_quality_stacks_one_solve_per_chunk_of_g(monkeypatch):
    # G's 127 splits of 8 terminals take four chunks of a 20x20 grid and
    # one chunk of the smaller graphs.  H, with up to 4 Steiner vertices,
    # is enumerated, and so is a G with up to 6 non-terminals; the larger
    # G take one stacked solve per chunk.  With no enumeration, every chunk
    # of either graph is one stacked solve
    paths = Counter()
    for name in ("_enum_values", "_stack_values"):
        def counted(cuts, *sides, name=name, method=getattr(TerminalCuts, name)):
            paths[name, cuts._g] += 1
            return method(cuts, *sides)

        monkeypatch.setattr(TerminalCuts, name, counted)
    for g, steiner, chunks, g_path in [
            (gen_grid(20, 20, k=8), 1, 4, "_stack_values"),
            (gen_dumbbell(8, 4, seed=1), 2, 1, "_stack_values"),
            (gen_capacitated(10, 5, seed=3), 3, 1, "_enum_values"),
            (gen_capacitated(12, 6, seed=2), 4, 1, "_enum_values")]:
        h = build_cut_sparsifier(g).graph
        assert h.n - h.k == steiner
        for enum_size, expected in (
                (1 << 16, {(g_path, g): chunks, ("_enum_values", h): chunks}),
                (0, {("_stack_values", g): chunks, ("_stack_values", h): chunks})):
            monkeypatch.setattr("vsp.flow._ENUM_SIZE", enum_size)
            paths.clear()
            assert verify_cut_quality(g, h).ok
            assert paths == expected


def test_cut_quality_with_small_enum_budget_terminates():
    g = random_unit_graph(random.Random(7), n=8, m=14, k=4)
    with _deadline(20):
        rep = verify_cut_quality(g, g, enum_budget=3)
    assert rep.ok and rep.flags["exhaustive"] and rep.flags["tests"] == 7
    with _deadline(20):
        rep = verify_cut_quality(g, g, enum_budget=1, seed=3)
    assert rep.ok and rep.flags["non_exhaustive"] and rep.flags["tests"] == 2


def test_flow_identity_ratios_one():
    g = _flow_instance(3)
    rep = verify_flow_quality(g, g, strategies=("uniform", "matching"), samples=2)
    assert rep.ok
    assert rep.q_observed <= 1 + F(1, 10**5)


def test_flow_quality_with_isolated_terminals():
    # every terminal has degree 0, so gravity demands are undefined and skipped
    g = CapGraph([1, 2, 3], [], [1, 3])
    rep = verify_flow_quality(g, g)
    assert rep.ok and rep.q_observed == 1
    assert {r["strategy"] for r in rep.records} == {"uniform", "matching"}


def test_cut_quality_reports_a_cut_only_h_has():
    # terminals 4 and 5 are isolated in G; H joins 4 to 3
    g = CapGraph(range(1, 6), [(1, 2, 1), (2, 3, 1)], [1, 3, 4, 5])
    h = CapGraph(range(1, 6), [(1, 2, 1), (2, 3, 1), (3, 4, 1)], [1, 3, 4, 5])
    rep = verify_cut_quality(g, h)
    assert rep.violations == ["test 1: MinCut_G = 0 but MinCut_H = 1",
                              "test 5: MinCut_G = 0 but MinCut_H = 1"]
    # {1, 3, 4} | {5} is cut by nothing in either graph
    assert [r["ratio"] for r in rep.records] == [1, None, 2, 1, 1, None, 2]
    with pytest.raises(InputError, match="disagree on the terminal set"):
        verify_cut_quality(g, CapGraph(range(1, 6), [], [1, 3, 4]))
    # one terminal has no bipartition to price
    lone = CapGraph([1, 2], [(1, 2, 1)], [1])
    assert verify_cut_quality(lone, lone).q_observed == 1
    assert verify_cut_projection(build_cut_sparsifier(lone)).q_observed == 1
    assert demand_strategies(lone, "uniform", 3, 0) == []


def _two_triangles(bridge=((3, 4, 1),), scale=1):
    """Triangles 1-2-3 and 4-5-6 joined by the bridge edges, with pendant
    terminals 10, 11 at 1, 2 and 12, 13 at 5, 6; capacities times scale."""
    core = [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 1), (5, 6, 1), (4, 6, 1), *bridge]
    pend = [(1, 10, 1), (2, 11, 1), (5, 12, 1), (6, 13, 1)]
    terms = [10, 11, 12, 13]
    edges = [(u, v, scale * c) for u, v, c in core + pend]
    return CapGraph(list(range(1, 7)) + terms, edges, terms)


@pytest.mark.parametrize("h, bound, violation, record", [
    (_two_triangles(bridge=[(3, 4, F(1, 2))]), None,
     "test 0: lower side violated, eta_H 2 > eta_G 1", {"g": 1, "h": 2, "ratio": F(1, 2)}),
    (_two_triangles(bridge=[]), None,
     "test 0: disconnection disagreement", {"g": 1, "h": "inf", "ratio": None}),
    (_two_triangles(scale=2), 1,
     "test 0: ratio 2.000 above quality bound", {"g": 1, "h": F(1, 2), "ratio": 2}),
])
def test_flow_quality_rejects_a_wrong_h(h, bound, violation, record):
    rep = verify_flow_quality(_two_triangles(), h, strategies=("uniform",), quality_bound=bound)
    assert rep.violations == [violation]
    assert {key: rep.records[0][key] for key in record} == record


def test_flow_quality_rejects_malformed_calls():
    g = _two_triangles()
    with pytest.raises(InputError, match="disagree on the terminal set"):
        verify_flow_quality(g, CapGraph([10, 11], [(10, 11, 1)], [10, 11]))
    with pytest.raises(InputError, match="unknown demand strategy 'hose'"):
        verify_flow_quality(g, g, strategies=("hose",))


def _inflated(cert):
    arcs = {src: {arc: 1000 * v for arc, v in fan_out.items()}
            for src, fan_out in cert.commodity_arcs.items()}
    return dataclasses.replace(cert, commodity_arcs=arcs)


def test_flow_quality_rejects_inflated_router_flows():
    g = _two_triangles()
    sp, _ = build_flow_sparsifier(g, params=AGG)
    assert verify_flow_quality(g, sp.graph, strategies=("uniform",), sparsifier=sp).ok
    bad = dataclasses.replace(sp, certificates=[_inflated(c) for c in sp.certificates])
    rep = verify_flow_quality(g, sp.graph, strategies=("uniform",), sparsifier=bad)
    assert rep.violations == [
        "test 0: composed congestion 1500.000 exceeds 2 eta* eta_H = 51.000"
    ]


def test_router_recheck_names_structure_and_flow_faults():
    sp, _ = build_flow_sparsifier(_two_triangles(), params=AGG)
    (cert,) = sp.certificates

    def failed(certs):
        rep = recheck_router_certificates(dataclasses.replace(sp, certificates=certs))
        return {name: detail for name, ok, detail in rep["checks"] if not ok}

    # a cluster holding terminal 10, two clusters sharing their members, and
    # a cluster {1, 6} split between the triangles
    for certs in ([dataclasses.replace(cert, members=cert.members | {10})], [cert, cert],
                  [dataclasses.replace(cert, members=frozenset({1, 6}))]):
        assert "structure" in failed(certs)
    # 100 units circulating 1 -> 2 -> 3 -> 1 conserve flow but overload
    src = min(cert.commodity_arcs)
    circulating = {**cert.commodity_arcs[src]}
    for arc in ((0, 0), (1, 0), (2, 1)):
        circulating[arc] = circulating.get(arc, 0) + 100
    looped = dataclasses.replace(cert, commodity_arcs={**cert.commodity_arcs, src: circulating})
    assert failed([looped]) == {"router-flows": "cluster 0: congestion 102 exceeds eta* 34"}
    # a fan-out keyed by the inner edge 0 instead of a boundary edge
    stray = dataclasses.replace(cert, commodity_arcs={**cert.commodity_arcs, 0: {}})
    assert failed([stray]) == {"router-flows": "cluster 0: unknown source edge 0"}


def test_report_json_shape():
    g = random_unit_graph(random.Random(9), n=7, m=12, k=3)
    rep = verify_cut_quality(g, g)
    payload = json.loads(rep.to_json())
    assert payload["mode"] == "cut"
    assert payload["violations"] == []
    assert "q_observed" in payload and "tests" in payload and "budget_flags" in payload


def test_report_json_writes_fractions_and_refuses_other_types():
    rep = verify.QualityReport("cut", F(3, 2), records=[{"g": F(1, 3), "h": 2}])
    payload = json.loads(rep.to_json())
    assert (payload["q_observed"], payload["tests"]) == ("3/2", [{"g": "1/3", "h": 2}])
    rep.records.append({"g": np.int64(1)})
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        rep.to_json()
    rep.records[-1] = {"g": {1, 2}}
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        rep.to_json()


def test_flow_report_labels_sampling():
    g = _flow_instance(4)
    sp, _ = build_flow_sparsifier(g, params=AGG)
    rep = verify_flow_quality(g, sp.graph, samples=2, quality_bound=F(68), sparsifier=sp)
    assert rep.ok, rep.violations
    assert rep.flags["sampled"] is True
    assert rep.q_observed >= 1


def test_flow_quality_routes_each_demand_set_once(monkeypatch):
    # four degree-1 terminals: gravity equals uniform, and the three matching
    # samples repeat one of the three possible matchings
    g = flow_router_graph(3)
    sp, _ = build_flow_sparsifier(g)
    drawn, routed = [], Counter()

    def recorded(*args):
        out = demand_strategies(*args)
        drawn.extend(out)
        return out

    def counted(graph, dem, **kw):
        routed[dem] += 1
        return min_congestion_routing(graph, dem, **kw)

    monkeypatch.setattr(verify, "demand_strategies", recorded)
    monkeypatch.setattr(verify, "min_congestion_routing", counted)
    rep = verify_flow_quality(g, sp.graph, samples=3, sparsifier=sp)
    assert rep.ok, rep.violations
    assert len(rep.records) == len(drawn) == 5
    assert len(set(drawn)) < 5
    assert routed == {dem: 2 for dem in drawn}
    for rec, dem in zip(rep.records, drawn):
        rh = min_congestion_routing(sp.graph, dem)
        assert (rec["g"], rec["h"]) == (min_congestion_routing(g, dem).eta, rh.eta)
        assert rec["composed"] == reroute_through_clusters(sp, rh)


def test_router_recheck_detects_flow_perturbation():
    g = _flow_instance(5)
    sp, _ = build_flow_sparsifier(g, params=AGG)
    assert recheck_router_certificates(sp)["ok"]
    cert = sp.certificates[0]
    src = next(iter(cert.commodity_arcs))
    arcs = dict(cert.commodity_arcs[src])
    key = next(iter(arcs))
    arcs[key] = arcs[key] + 1  # one flow value nudged up
    sp.certificates[0] = dataclasses.replace(
        cert, commodity_arcs={**cert.commodity_arcs, src: arcs}
    )
    rep = recheck_router_certificates(sp)
    assert not rep["ok"]
    assert any("router-flows" == name and not ok for name, ok, _ in rep["checks"])


def _router_flows_failed(sp, cert):
    sp.certificates[0] = cert
    rep = recheck_router_certificates(sp)
    return not rep["ok"] and any(
        name == "router-flows" and not ok for name, ok, _ in rep["checks"]
    )


def _readd(tmp_path, sp, **fields):
    """Save `sp`, put stored fields back into its first sidecar certificate
    and return the prefix."""
    prefix = str(tmp_path / "sp")
    save_sparsifier(sp, prefix)
    edit_sidecar(prefix, lambda p: p["certificates"][0].update(fields))
    return prefix


@pytest.mark.parametrize("alpha", [None, F(1, 4), F(1, 2)])
def test_router_recheck_derives_wl_alpha(tmp_path, alpha):
    # the claim is fixed at 1/3 for z > 1 and derived by the recheck, so a
    # sidecar that states an alpha (or null, which used to skip the test) is
    # not a file save_sparsifier writes
    g = _flow_instance(5)
    sp, _ = build_flow_sparsifier(g, params=AGG)
    assert subdivide_boundary(g, sp.certificates[0].members).z > 1
    assert ("well-linked", True, "all clusters 1/3-well-linked") in (
        recheck_router_certificates(sp)["checks"]
    )
    prefix = _readd(tmp_path, sp, wl_alpha=None if alpha is None else str(alpha))
    with pytest.raises(InputError):
        load_sparsifier(g, prefix)


def _pendant_path_router(n):
    """The path 1..n with a terminal pendant on every vertex, its interior
    certified as one router by the exchange LP."""
    g = CapGraph(
        list(range(1, n + 1)) + [100 + v for v in range(1, n + 1)],
        [(v, v + 1, 1) for v in range(1, n)] + [(v, 100 + v, 1) for v in range(1, n + 1)],
        [100 + v for v in range(1, n + 1)],
    )
    members = frozenset(range(1, n + 1))
    inst = subdivide_boundary(g, members)
    ok, res = uniform_router_check(inst)
    assert ok
    arcs = {
        inst.pendant_of[t]: {(inst.parent_edge[e], d): v for (e, d), v in flows.items()}
        for t, flows in res.commodity_arcs.items()
    }
    return assemble_flow_sparsifier(g, None, [RouterCertificate(members, res.eta, arcs)])


def test_router_recheck_tests_well_linkedness():
    # a path with a pendant on every vertex routes the uniform exchange at
    # congestion 4, but its middle edge cuts 1 against 4 boundary edges: the
    # flows recheck and the derived 1/3 well-linkedness test fails
    rep = recheck_router_certificates(_pendant_path_router(8))
    assert [name for name, ok, _ in rep["checks"] if not ok] == ["well-linked"]


def test_well_linked_recheck_catches_a_mispriced_sweep(monkeypatch):
    # at length 6 the middle cut is exactly 1/3, so the cluster passes; its
    # 6 bundles give 31 splits, priced in one `values` call.  A sweep that
    # prices every split 1 too high would still pass, and the least split's
    # Python min cut catches it
    sp = _pendant_path_router(6)
    assert recheck_router_certificates(sp)["ok"]
    values = TerminalCuts.values
    monkeypatch.setattr(TerminalCuts, "values", lambda cuts, a, b: values(cuts, a, b) + 1)
    with pytest.raises(RuntimeError, match="sweep"):
        recheck_router_certificates(sp)


def test_recheck_budget_reaches_the_well_linked_test():
    g = _flow_instance(5)
    sp, _ = build_flow_sparsifier(g, params=AGG)
    assert subdivide_boundary(g, sp.certificates[0].members).z > 1
    wl = {name: detail for name, _ok, detail in recheck_router_certificates(sp, budget=1)["checks"]}
    assert "cluster 0: skipped (budget)" in wl["well-linked"]
    wl = {name: detail for name, _ok, detail in recheck_router_certificates(sp)["checks"]}
    assert "skipped" not in wl["well-linked"]


def test_router_recheck_detects_dropped_commodity():
    g = _flow_instance(5)
    sp, _ = build_flow_sparsifier(g, params=AGG)
    cert = sp.certificates[0]
    src = next(iter(cert.commodity_arcs))
    arcs = {s: a for s, a in cert.commodity_arcs.items() if s != src}
    assert _router_flows_failed(sp, dataclasses.replace(cert, commodity_arcs=arcs))


def test_router_recheck_requires_the_exact_eta():
    # eta is the congestion the stored flows attain, not just a bound on it
    g = _flow_instance(5)
    sp, _ = build_flow_sparsifier(g, params=AGG)
    cert = sp.certificates[0]
    assert _router_flows_failed(sp, dataclasses.replace(cert, eta=cert.eta + 1))
    # a cluster with z <= 1 exchanges nothing: eta 0 and no flows
    leaf = CapGraph([1, 2, 10, 11], [(1, 2, 1), (1, 10, 1), (1, 11, 1)], [10, 11])
    for stored in (RouterCertificate(frozenset({2}), F(0), {}),
                   RouterCertificate(frozenset({2}), F(1), {}),
                   RouterCertificate(frozenset({2}), F(0), {0: {(0, 0): F(1)}})):
        rep = recheck_router_certificates(assemble_flow_sparsifier(leaf, None, [stored]))
        assert rep["ok"] == (stored.eta == 0 and not stored.commodity_arcs)


def test_verify_rejects_an_eta_forged_with_negative_arc_flows(tmp_path, capsys):
    # 1/8 off both arcs of every fan-out edge keeps conservation and lowers
    # the summed load from the true 3/2 to 3/4, the eta this file claims
    g = gen_grid(4, 4, k=4, seed=0)
    sp, _ = build_flow_sparsifier(g)
    (cert,) = sp.certificates
    assert cert.eta == F(3, 2)
    forged = {
        src: {(e, d): arcs.get((e, d), F(0)) - F(1, 8) for e, _ in arcs for d in (0, 1)}
        for src, arcs in cert.commodity_arcs.items()
    }
    sp.certificates[0] = RouterCertificate(cert.members, F(3, 4), forged)
    write_graph(g, str(tmp_path / "g.vsp"))
    save_sparsifier(sp, str(tmp_path / "sp"))
    assert cli.main(["verify", str(tmp_path / "g.vsp"), str(tmp_path / "sp")]) == 1
    report = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert report["budget_flags"]["certificates"] == "failed"
    assert report["violations"][0].startswith(
        "certificate check router-flows: cluster 0: arc flow -1/8 on edge"
    )


def _capacitated_router():
    core = [(u, v, 2) for u in range(1, 5) for v in range(u + 1, 5)]
    core += [(1, 10, 1), (2, 11, 1), (3, 12, 2)]
    g = CapGraph(list(range(1, 5)) + [10, 11, 12], core, [10, 11, 12])
    sp, _ = build_flow_sparsifier(g, F(1, 2), AGG)
    assert recheck_router_certificates(sp)["ok"]
    hairpin = derived_router_fields(sp.unit_graph, sp.certificates[0].members)["hairpin"]
    assert len(hairpin) > 1
    return g, sp, hairpin


def test_router_recheck_detects_dropped_hairpin(tmp_path):
    # hairpin loads are derived from the bundle weights; a sidecar that
    # stores a map, here one missing an entry, is rejected
    g, sp, hairpin = _capacitated_router()
    drop = min(hairpin)
    hp = {e: v for e, v in hairpin.items() if e != drop}
    with pytest.raises(InputError):
        load_sparsifier(g, _readd(tmp_path, sp, hairpin=hp))


def test_router_recheck_reports_stray_hairpin(tmp_path):
    g, sp, hairpin = _capacitated_router()
    inner = next(
        e.eid for e in sp.unit_graph.edges
        if e.u in sp.certificates[0].members and e.v in sp.certificates[0].members
    )
    hp = {**hairpin, str(inner): "1"}
    with pytest.raises(InputError):
        load_sparsifier(g, _readd(tmp_path, sp, hairpin=hp))


def test_router_recheck_detects_membership_corruption():
    g = _flow_instance(6)
    sp, _ = build_flow_sparsifier(g, params=AGG)
    cert = sp.certificates[0]
    moved = set(cert.members)
    moved.discard(min(moved))
    if not moved:
        pytest.skip("single-vertex cluster")
    sp.certificates[0] = dataclasses.replace(cert, members=frozenset(moved))
    rep = recheck_router_certificates(sp)
    assert not rep["ok"]


def test_star_supernode_recheck_low_congestion():
    k = 5
    g = CapGraph(
        [1] + [10 + i for i in range(k)],
        [(1, 10 + i, 1) for i in range(k)],
        [10 + i for i in range(k)],
    )
    sp, _ = build_flow_sparsifier(g, params=AGG)
    assert recheck_router_certificates(sp)["ok"]
    assert all(c.eta < 2 for c in sp.certificates)


def test_lower_side_violation_detected():
    # deleting an edge from H lets some cut drop below G's
    g = _flow_instance(8)
    sp = build_cut_sparsifier(g)
    h = sp.graph
    if h.m < 2:
        pytest.skip("degenerate")
    broken = CapGraph(h.vertices, [e.ends() + (e.cap,) for e in h.edges[1:]], h.terminals)
    rep = verify_cut_quality(g, broken)
    assert not rep.ok


def test_composed_flow_bound_random():
    rng = random.Random(12)
    for seed in range(3):
        g = _flow_instance(20 + seed)
        sp, _ = build_flow_sparsifier(g, params=AGG)
        terms = sorted(g.terminals)
        d = {}
        for _ in range(3):
            a, b = rng.sample(terms, 2)
            d[(min(a, b), max(a, b))] = F(rng.randint(1, 4), 2)
        dem = DemandSet.from_map(d)
        rh = min_congestion_routing(sp.graph, dem)
        if rh.flow is None:
            continue
        composed = reroute_through_clusters(sp, rh)
        assert composed <= 2 * F(34) * rh.eta * (1 + 2 * F(1, 10**6))
