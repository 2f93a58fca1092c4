import dataclasses
import json
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from vsp.cutsparse import build_cut_sparsifier_unit
from vsp.flowsparse import (
    FlowParams,
    RouterCertificate,
    build_flow_sparsifier,
    build_flow_sparsifier_unit,
)
from vsp.graph import CapGraph
from vsp.routing import DemandSet, min_congestion_routing
from vsp.verify import (
    _bipartitions,
    recheck_router_certificates,
    reroute_through_clusters,
    verify_cut_quality,
    verify_flow_quality,
)

from util import random_unit_graph

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
    with _deadline(1):
        splits, exhaustive = _bipartitions(terms, budget, seed)
    total = 2 ** (k - 1) - 1
    assert len(splits) == (total if exhaustive else 2 * budget * budget)
    assert exhaustive == (k <= budget or 2 * budget * budget >= total)
    assert len(set(splits)) == len(splits)
    for a, b in splits:
        assert a and b and a[0] == terms[0]
        assert sorted(a + b) == terms


def test_bipartitions_sample_has_no_empty_side_and_reaches_mask_zero():
    terms = list(range(1, 11))
    isolated_first = 0
    for seed in range(200):
        splits, exhaustive = _bipartitions(terms, 9, seed)
        assert not exhaustive
        assert all(a and b for a, b in splits), seed
        isolated_first += any(a == (1,) for a, _b in splits)
    assert isolated_first > 0


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


def test_report_json_shape():
    g = random_unit_graph(random.Random(9), n=7, m=12, k=3)
    rep = verify_cut_quality(g, g)
    payload = json.loads(rep.to_json())
    assert payload["mode"] == "cut"
    assert payload["violations"] == []
    assert "q_observed" in payload and "tests" in payload and "budget_flags" in payload


def test_flow_report_labels_sampling():
    g = _flow_instance(4)
    sp = build_flow_sparsifier_unit(g, AGG)
    rep = verify_flow_quality(g, sp.graph, samples=2, quality_bound=F(68), sparsifier=sp)
    assert rep.ok, rep.violations
    assert rep.flags["sampled"] is True
    assert rep.q_observed >= 1


def test_router_recheck_detects_flow_perturbation():
    g = _flow_instance(5)
    sp = build_flow_sparsifier_unit(g, AGG)
    assert recheck_router_certificates(sp)["ok"]
    cert = sp.certificates[0]
    src = next(iter(cert.commodity_arcs))
    arcs = dict(cert.commodity_arcs[src])
    key = next(iter(arcs))
    arcs[key] = arcs[key] + 1  # one flow value nudged up
    bad = RouterCertificate(
        cert.members, cert.boundary, cert.z, cert.eta, cert.wl_alpha,
        cert.wl_source, {**cert.commodity_arcs, src: arcs}, cert.hairpin,
    )
    sp.certificates[0] = bad
    rep = recheck_router_certificates(sp)
    assert not rep["ok"]
    assert any("router-flows" == name and not ok for name, ok, _ in rep["checks"])


def _router_flows_failed(sp, cert):
    sp.certificates[0] = cert
    rep = recheck_router_certificates(sp)
    return not rep["ok"] and any(
        name == "router-flows" and not ok for name, ok, _ in rep["checks"]
    )


@pytest.mark.parametrize("alpha", [None, F(1, 4), F(1, 2)])
def test_router_recheck_derives_wl_alpha(alpha):
    # the claim is fixed at 1/3 for z > 1: a certificate that claims less
    # (or nothing, which used to skip the test) fails the well-linked check
    g = _flow_instance(5)
    sp = build_flow_sparsifier_unit(g, AGG)
    cert = sp.certificates[0]
    assert cert.z > 1 and cert.wl_alpha == F(1, 3)
    sp.certificates[0] = dataclasses.replace(cert, wl_alpha=alpha)
    rep = recheck_router_certificates(sp)
    assert not rep["ok"]
    assert [name for name, ok, _ in rep["checks"] if not ok] == ["well-linked"]


def test_router_recheck_detects_dropped_commodity():
    g = _flow_instance(5)
    sp = build_flow_sparsifier_unit(g, AGG)
    cert = sp.certificates[0]
    src = next(iter(cert.commodity_arcs))
    arcs = {s: a for s, a in cert.commodity_arcs.items() if s != src}
    assert _router_flows_failed(sp, dataclasses.replace(cert, commodity_arcs=arcs))


def _capacitated_router():
    core = [(u, v, 2) for u in range(1, 5) for v in range(u + 1, 5)]
    core += [(1, 10, 1), (2, 11, 1), (3, 12, 2)]
    g = CapGraph(list(range(1, 5)) + [10, 11, 12], core, [10, 11, 12])
    sp = build_flow_sparsifier(g, F(1, 2), AGG)
    assert recheck_router_certificates(sp)["ok"]
    cert = sp.certificates[0]
    assert cert.z > 1 and len(cert.hairpin) > 1
    return sp, cert


def test_router_recheck_detects_dropped_hairpin():
    sp, cert = _capacitated_router()
    drop = min(cert.hairpin)
    hp = {e: v for e, v in cert.hairpin.items() if e != drop}
    assert _router_flows_failed(sp, dataclasses.replace(cert, hairpin=hp))


def test_router_recheck_reports_stray_hairpin():
    sp, cert = _capacitated_router()
    inner = next(e.eid for e in sp.unit_graph.edges if e.eid not in cert.boundary)
    hp = {**cert.hairpin, inner: F(1)}
    assert _router_flows_failed(sp, dataclasses.replace(cert, hairpin=hp))


def test_router_recheck_detects_membership_corruption():
    g = _flow_instance(6)
    sp = build_flow_sparsifier_unit(g, AGG)
    cert = sp.certificates[0]
    moved = set(cert.members)
    moved.discard(min(moved))
    if not moved:
        pytest.skip("single-vertex cluster")
    bad = RouterCertificate(
        frozenset(moved), cert.boundary, cert.z, cert.eta, cert.wl_alpha,
        cert.wl_source, cert.commodity_arcs, cert.hairpin,
    )
    sp.certificates[0] = bad
    rep = recheck_router_certificates(sp)
    assert not rep["ok"]


def test_star_supernode_recheck_low_congestion():
    k = 5
    g = CapGraph(
        [1] + [10 + i for i in range(k)],
        [(1, 10 + i, 1) for i in range(k)],
        [10 + i for i in range(k)],
    )
    sp = build_flow_sparsifier_unit(g, AGG)
    assert recheck_router_certificates(sp)["ok"]
    assert all(c.eta < 2 for c in sp.certificates)


def test_lower_side_violation_detected():
    # deleting an edge from H lets some cut drop below G's
    g = _flow_instance(8)
    sp = build_cut_sparsifier_unit(g)
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
        sp = build_flow_sparsifier_unit(g, AGG)
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
