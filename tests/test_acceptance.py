"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers.  Tolerances are pinned here and nowhere else:

  cut quality           exact rationals, zero tolerance
  flow quality          delta = 1e-6, comparisons inflated by (1 + 2 delta)
  router constant       eta* = 34, exact
"""

import json
import logging
import random
from fractions import Fraction
from pathlib import Path

import pytest

from vsp.cutsparse import build_cut_sparsifier
from vsp.decompose import interior_decompositions, weak_decompose
from vsp.flow import max_flow
from vsp.flowsparse import (
    FlowParams,
    balanced_cut_refine,
    build_flow_sparsifier,
    find_contractible_or_witness,
    witness_to_flow,
)
from vsp.gen import (
    gen_chamber, gen_dumbbell, gen_grid, gen_random_unit, gen_regular, gen_welllinked,
)
from vsp.graph import CapGraph, contract, out_capacity, subdivide_boundary
from vsp.params import weak_threshold
from vsp.routing import DemandSet, min_congestion_routing, uniform_router_check
from vsp.sparsecut import sparsest_cut_exact
from vsp.serialize import RouterCertificate, load_sparsifier, save_sparsifier
from vsp.verify import (
    recheck_router_certificates,
    reroute_through_clusters,
    verify_cut_quality,
)

from fixtures import witness1_fixture, witness2_fixture
from util import (
    checked_contraction,
    derived_router_fields,
    flow_router_graph as _flow_instance,
    recheck_decomposition,
    rewire_to_terminal,
    shift_map_line,
)

F = Fraction
DELTA = F(1, 10**6)
TOL = 1 + 2 * DELTA
AGG = FlowParams(profile="aggressive")


# --------------------------------------------------------------------------
# corpora


def _pendant_path(n, k, seed):
    rng = random.Random(seed)
    edges = [(i, i + 1, 1) for i in range(1, n)]
    terms = []
    for i, h in enumerate(rng.sample(range(1, n + 1), k)):
        t = 500 + i
        terms.append(t)
        edges.append((h, t, 1))
    return CapGraph(list(range(1, n + 1)) + terms, edges, terms)


def _random_tree(n, k, seed):
    rng = random.Random(seed)
    edges = [(rng.randint(1, i - 1), i, 1) for i in range(2, n + 1)]
    terms = []
    for i, h in enumerate(rng.sample(range(1, n + 1), k)):
        t = 500 + i
        terms.append(t)
        edges.append((h, t, 1))
    return CapGraph(list(range(1, n + 1)) + terms, edges, terms)


def _cut_corpus():
    """>= 200 seeded unit instances, n <= 40, k <= 8, arbitrary terminal
    degree, total terminal degree bounded for the exact solvers."""
    out = []
    for seed in range(22):
        out.append(_pendant_path(24, 6, seed))
        out.append(_random_tree(30, 7, seed))
        out.append(_random_tree(16, 5, 100 + seed))
        out.append(gen_random_unit(n=20, m=34, k=4, seed=seed))
        out.append(gen_random_unit(n=14, m=20, k=6, seed=200 + seed))
        out.append(gen_regular(n=30, d=3, k=6, seed=seed))
        out.append(gen_regular(n=32, d=3, k=5, seed=300 + seed))
        out.append(gen_welllinked(n=12, k=8, seed=seed))
        out.append(gen_grid(rows=4, cols=5, k=6, seed=seed))
        out.append(gen_grid(rows=3, cols=4, k=5, seed=400 + seed))
        out.append(gen_dumbbell(k=6, side=5, seed=seed))
        out.append(gen_dumbbell(k=8, side=4, seed=500 + seed))
    return [g for g in out if g.total_terminal_degree() <= 11 and g.n <= 40]


@pytest.fixture(scope="module")
def cut_built():
    corpus = _cut_corpus()
    assert len(corpus) >= 200, f"corpus holds only {len(corpus)} instances"
    built = []
    for g in corpus:
        sp = build_cut_sparsifier(g)
        built.append((g, sp))
    return built


@pytest.fixture(scope="module")
def flow_built():
    built = []
    for seed in range(30):
        g = _flow_instance(seed)
        sp, size_ok = build_flow_sparsifier(g, params=AGG)
        built.append((g, sp, size_ok))
    return built


# --------------------------------------------------------------------------
# criteria


def test_criterion_1_cut_quality_unit(cut_built):
    assert len(cut_built) >= 200
    worst = F(1)
    for g, sp in cut_built:
        rep = verify_cut_quality(g, sp.graph)
        assert rep.flags["exhaustive"]
        assert rep.ok, rep.violations
        assert 1 <= rep.q_observed <= 3
        worst = max(worst, rep.q_observed)
    print(
        f"criterion 1 (unit cut quality): PASS - {len(cut_built)} instances, "
        f"exhaustive verification, q_observed in [1, {worst}]"
    )


def test_criterion_2_cut_quality_capacitated():
    count = 0
    worst = F(1)
    for seed in range(51):
        rng = random.Random(900 + seed)
        n = rng.randint(6, 9)
        verts = list(range(1, n + 1))
        edges = []
        for i in range(2, n + 1):
            edges.append((rng.randint(1, i - 1), i, F(rng.randint(2, 8), 2)))
        for _ in range(n // 2 + 1):
            u, v = rng.sample(verts, 2)
            edges.append((u, v, F(rng.randint(2, 8), 2)))
        g = CapGraph(verts, edges, rng.sample(verts, rng.randint(3, 4)))
        sp = build_cut_sparsifier(g)
        assert sp.quality == 3
        assert sp.steiner_count <= 3 * g.terminal_capacity() ** 3
        rep = verify_cut_quality(g, sp.graph)
        assert rep.ok, rep.violations
        assert rep.q_observed <= 3
        worst = max(worst, rep.q_observed)
        count += 1
    assert count >= 50
    print(
        f"criterion 2 (capacitated cut quality): PASS - {count} builds, "
        f"q_observed <= {worst} <= 3"
    )


def test_criterion_3_strong_decomposition(cut_built):
    decs = 0
    clusters = 0
    for g, sp in cut_built:
        decompositions = interior_decompositions(g)
        assert sp.cmap.clusters == tuple(c.members for dec in decompositions for c in dec.clusters)
        # each decomposition covers the connected piece of G minus its
        # terminals that holds its first cluster
        piece_of = {v: piece for piece in g.components(within=set(g.vertices) - set(g.terminals))
                    for v in piece}
        for dec in decompositions:
            if dec.z > 12:
                continue
            decs += 1
            z = dec.z
            assert z == 0 or dec.boundary_tally <= 3 * z**3
            for lvl, cnt in dec.level_counts().items():
                assert cnt <= 1 << (3 * lvl + 3)
            assert {c.alpha for c in dec.clusters} <= {None, F(1, 3)}
            piece = piece_of[min(dec.clusters[0].members)]
            assert recheck_decomposition(g, dec, piece) == []
            clusters += len(dec.clusters)
    assert decs >= 200
    print(
        f"criterion 3 (strong decomposition): PASS - {decs} decompositions, "
        f"{clusters} clusters re-certified 1/3-well-linked, tallies <= 3z^3, "
        f"levels <= 2^(3i+3)"
    )


def test_criterion_4_weak_decomposition():
    rng = random.Random(41)
    runs = 0
    splits = 0
    skipped = 0
    for seed in range(25):
        g = gen_random_unit(n=16, m=26, k=0, seed=777 + seed)
        members = set(rng.sample(list(g.vertices), rng.randint(5, 12)))
        dec = weak_decompose(g, members, budget=10)
        runs += 1
        assert dec.boundary_tally <= F(12, 10) * dec.z
        thr = weak_threshold(dec.z) if dec.z > 0 else F(1, 128)
        for ev in dec.events:
            splits += 1
            assert ev.sparsity < thr
            assert ev.out_a <= F(51, 100) * ev.z_cluster
        # a heuristic cluster has more bundles than the budget, so its exact
        # recheck is skipped and listed; it is rechecked here at the default
        # budget instead
        over = recheck_decomposition(g, dec, members, budget=10)
        assert over == [i for i, c in enumerate(dec.clusters) if c.source == "heuristic"]
        for i in over:
            c = dec.clusters[i]
            res = sparsest_cut_exact(subdivide_boundary(g, c.members), stop_below=c.alpha)
            assert res.trivially_well_linked or res.sparsity >= c.alpha
        skipped += len(over)
    assert runs >= 25
    print(
        f"criterion 4 (weak decomposition): PASS - {runs} runs, {splits} splits "
        f"all below threshold with the 0.51 rule, tallies <= 1.2 out(S), "
        f"{skipped} heuristic clusters rechecked beyond the budget"
    )


def test_criterion_5_router_constant(flow_built):
    checked = 0
    for _g, sp, _ok in flow_built:
        for cert in sp.certificates:
            assert cert.eta <= 34
            checked += 1
        rep = recheck_router_certificates(sp)
        assert rep["ok"] and not rep["skipped"], rep["checks"]
    # the two pinned micro-cases
    star = CapGraph(
        [1, 11, 12, 13, 14], [(1, 10 + i, 1) for i in range(1, 5)], [11, 12, 13, 14]
    )
    ok, res = uniform_router_check(subdivide_boundary(star, {1}))
    assert ok and res.eta < 2
    twop = CapGraph([1, 2, 3, 4], [(1, 2, 1), (1, 3, 1), (2, 4, 1)], [3, 4])
    ok, res = uniform_router_check(subdivide_boundary(twop, {1, 2}))
    assert ok and res.eta == 1
    print(
        f"criterion 5 (eta* = 34): PASS - {checked} cluster certificates at "
        f"congestion <= 34 exactly; star < 2, two-path = 1"
    )


def test_criterion_6_flow_quality(flow_built):
    assert len(flow_built) >= 30
    rng = random.Random(4242)
    demands_per_instance = 100
    worst_ratio = F(1)
    worst_comp = F(0)
    for g, sp, _ok in flow_built:
        # (a) premises of the contraction quality claim, exactly
        rep = recheck_router_certificates(sp)
        assert rep["ok"] and not rep["skipped"], rep["checks"]
        terms = sorted(g.terminals)
        k = len(terms)
        dems = []
        dems.append(DemandSet.from_map(
            {(a, b): F(1, k) for i, a in enumerate(terms) for b in terms[i + 1:]}
        ))
        degs = {t: g.degree(t) for t in terms}
        tot = sum(degs.values(), F(0))
        dems.append(DemandSet.from_map(
            {(a, b): degs[a] * degs[b] / tot for i, a in enumerate(terms) for b in terms[i + 1:]}
        ))
        while len(dems) < demands_per_instance:
            d = {}
            for _ in range(rng.randint(1, 2 * k)):
                a, b = rng.sample(terms, 2)
                d[(min(a, b), max(a, b))] = F(rng.randint(1, 8), 4)
            dems.append(DemandSet.from_map(d))
        for dem in dems:
            rg = min_congestion_routing(g, dem, exact=False)
            rh = min_congestion_routing(sp.graph, dem, exact=False)
            # (b) both sides of the quality sandwich at (1 + 2 delta)
            assert rh.eta <= rg.eta * TOL, (float(rh.eta), float(rg.eta))
            assert rg.eta <= 68 * rh.eta * TOL
            if rh.eta > 0:
                worst_ratio = max(worst_ratio, rg.eta / rh.eta)
            # (c) constructive re-routing through the cluster routers
            comp = reroute_through_clusters(sp, rh)
            assert comp <= 2 * F(34) * rh.eta * TOL
            if rh.eta > 0:
                worst_comp = max(worst_comp, comp / rh.eta)
    total = len(flow_built) * demands_per_instance
    print(
        f"criterion 6 (flow quality): PASS - {len(flow_built)} instances x "
        f"{demands_per_instance} demand sets = {total} Lap comparisons, "
        f"worst eta_G/eta_H = {float(worst_ratio):.3f} <= 68, worst "
        f"composed/eta_H = {float(worst_comp):.3f} <= 68"
    )


def test_criterion_7_witness_flows():
    g1, w1 = witness1_fixture()
    wf1 = witness_to_flow(g1, w1)
    assert wf1.eta <= 10
    assert wf1.rate == F(1, g1.k)
    for t in g1.terminals:
        (pend,) = g1.incident(t)
        assert wf1.edge_flow[pend.eid] == 2 * F(g1.k - 1, g1.k)
    g2, w2 = witness2_fixture()
    wf2 = witness_to_flow(g2, w2)
    assert wf2.eta <= 34
    assert wf2.rate == F(1, g2.k)
    for t in g2.terminals:
        (pend,) = g2.incident(t)
        assert wf2.edge_flow[pend.eid] == 2 * F(g2.k - 1, g2.k)
    print(
        f"criterion 7 (witness flows): PASS - type-1 congestion {wf1.eta} <= 10, "
        f"type-2 congestion {wf2.eta} <= 34, every pair exchanges exactly 1/k "
        f"each way"
    )


def test_criterion_8_progress_and_ledgers(caplog):
    caplog.set_level(logging.INFO, logger="vsp.flowsparse")
    contractions = 0
    refinements = 0
    for seed, chamber_n in ((5, 140), (6, 150), (7, 135)):
        g = gen_chamber(seed=seed, chamber_n=chamber_n)
        gp, cmap = contract(g, [])
        out = find_contractible_or_witness(gp, AGG)
        assert out.kind == "contractible"
        checked_contraction(g, gp, cmap, out.contractible, AGG)
        contractions += 1
        # the refinement lemma on the same interior
        interior = frozenset(v for v in gp.vertices if not gp.is_terminal(v))
        r = AGG.r(gp.k)
        ref = balanced_cut_refine(gp, interior, AGG, r, AGG.f_size(F(gp.k, 2), r))
        refinements += 1
        if ref.kind == "balanced":
            assert len(ref.x) >= len(interior) / 4
            assert len(ref.y) >= len(interior) / 4
            crossing = sum(
                1 for e in gp.edges
                if (e.u in ref.x and e.v in ref.y) or (e.u in ref.y and e.v in ref.x)
            )
            assert crossing <= r * gp.k
        # the full loop with the pre-check disabled drives the same machinery
        caplog.clear()
        _sp, size_ok = build_flow_sparsifier(
            g, params=FlowParams(profile="aggressive", precheck_router=False)
        )
        assert size_ok
        assert any("contract:" in r.getMessage() for r in caplog.records
                   if r.name == "vsp.flowsparse")
    print(
        f"criterion 8 (progress and ledgers): PASS - {contractions} contractions "
        f"all strictly shrinking with ledger sum F(k_Z) <= 128 F(k''), "
        f"{refinements} refinements with balanced bounds; in-loop iteration "
        f"monotonicity is asserted at runtime"
    )


def test_criterion_9_size_bounds(cut_built, flow_built):
    for g, sp in cut_built:
        ktot = g.total_terminal_degree()
        bound = 3 * max(1, int(ktot)) ** 3
        assert sp.steiner_count <= bound
    for g, sp, size_ok in flow_built:
        assert size_ok
        assert sp.steiner_count <= AGG.f_size(g.total_terminal_degree())
    print(
        f"criterion 9 (size bounds): PASS - {len(cut_built)} cut sparsifiers "
        f"within 3k^3 Steiner vertices, {len(flow_built)} aggressive flow "
        f"sparsifiers within F(k)"
    )


def _corruptions(tmpdir, g, sp_prefix, sp):
    """Yield (name, apply) single-edit corruptions of a serialized sparsifier
    `sp`; the certificate edit only where `sp` has a certificate to edit."""
    gpath = Path(f"{sp_prefix}.vsp")
    jpath = Path(f"{sp_prefix}.cert.json")

    def edit_graph(fn):
        lines = gpath.read_text().splitlines()
        fn(lines)
        gpath.write_text("\n".join(lines) + "\n")

    def edit_json(fn):
        payload = json.loads(jpath.read_text())
        fn(payload)
        # save_sparsifier's layout, so only the edited content differs
        jpath.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    def drop_edge(lines):
        i = next(i for i, l in enumerate(lines) if l.startswith("e "))
        hdr = lines[0].split()
        hdr[3] = str(int(hdr[3]) - 1)
        lines[0] = " ".join(hdr)
        del lines[i]

    def double_capacity(lines):
        i = next(i for i, l in enumerate(lines) if l.startswith("e "))
        toks = lines[i].split()
        toks[3] = str(Fraction(toks[3] if "/" not in toks[3] else None) * 2
                      if "/" not in toks[3] else Fraction(*map(int, toks[3].split("/"))) * 2)
        lines[i] = " ".join(toks)

    def add_edge(lines):
        i = next(i for i, l in enumerate(lines) if l.startswith("e "))
        hdr = lines[0].split()
        hdr[3] = str(int(hdr[3]) + 1)
        lines[0] = " ".join(hdr)
        lines.insert(i, lines[i])

    def move_cluster_vertex(payload):
        for c in payload["clusters"]:
            if len(c) > 1:
                c.pop()
                return
        payload["clusters"][0].append(max(g.vertices) + 999)

    def raise_quality(payload):
        payload["quality"] = str(Fraction(payload["quality"]) + 1)

    # the fields a certificate used to store next to its witness: each one
    # is now derived from G and the cluster, so putting a wrong value back
    # into the sidecar must be rejected
    def readd_wl_alpha(payload):
        payload["certificates"][0]["wl_alpha"] = None

    def readd_hairpin(payload):
        boundary = derived_router_fields(sp.unit_graph, sp.certificates[0].members)["boundary"]
        payload["certificates"][0]["hairpin"] = {str(boundary[0]): "1"}

    def readd_size_bound_met(payload):
        payload["size_bound_met"] = True

    yield "drop-edge", lambda: edit_graph(drop_edge)
    yield "double-capacity", lambda: edit_graph(double_capacity)
    yield "add-edge", lambda: edit_graph(add_edge)
    yield "move-cluster-vertex", lambda: edit_json(move_cluster_vertex)
    yield "rewire-to-terminal", lambda: edit_graph(rewire_to_terminal)
    yield "raise-quality", lambda: edit_json(raise_quality)
    yield "edit-map-line", lambda: edit_graph(shift_map_line)
    if sp.kind == "flow":
        yield "readd-size-bound-met", lambda: edit_json(readd_size_bound_met)
        if sp.certificates:
            yield "readd-wl-alpha", lambda: edit_json(readd_wl_alpha)
            yield "readd-hairpin", lambda: edit_json(readd_hairpin)


def test_criterion_10_sabotage(tmp_path, cut_built, flow_built):
    detected = 0
    total = 0
    # file-level corruption of serialized sparsifiers
    for i, (g, sp) in enumerate(cut_built[:4] + [(g, sp) for g, sp, _ok in flow_built[:4]]):
        for name, apply in _corruptions(tmp_path, g, str(tmp_path / f"s{i}"), sp):
            save_sparsifier(sp, str(tmp_path / f"s{i}"))
            apply()
            total += 1
            try:
                sp2 = load_sparsifier(g, str(tmp_path / f"s{i}"))
            except Exception:
                detected += 1
                continue
            rep = verify_cut_quality(g, sp2.graph)
            if not rep.ok or rep.q_observed > sp2.quality:
                detected += 1
            elif sp2.kind == "flow" and not recheck_router_certificates(sp2)["ok"]:
                # what `vsp verify --mode flow` adds for a flow sparsifier
                detected += 1
    # certificate-level corruption of flow sparsifiers
    rng = random.Random(0)
    for g, sp, _ok in flow_built[:6]:
        cert = sp.certificates[0]
        variants = []
        src = next(iter(cert.commodity_arcs), None)
        if src is not None and cert.commodity_arcs[src]:
            arcs = dict(cert.commodity_arcs[src])
            key = next(iter(arcs))
            arcs[key] = arcs[key] + 1
            variants.append(("flow+1", {**cert.commodity_arcs, src: arcs}, cert.members))
            arcs2 = dict(cert.commodity_arcs)
            del arcs2[src]
            variants.append(("drop-commodity", arcs2, cert.members))
            # conservation holds after either edit, but a negative flow or a
            # direction other than 0/1 must not pass for a lighter load
            minus = dict(cert.commodity_arcs[src])
            for d in (0, 1):
                minus[(key[0], d)] = minus.get((key[0], d), F(0)) - F(1, 8)
            variants.append(("both-arcs-minus", {**cert.commodity_arcs, src: minus}, cert.members))
            flip = next(k for k in cert.commodity_arcs[src] if k[1] == 1)
            rekeyed = {(e, 2) if (e, d) == flip else (e, d): v
                       for (e, d), v in cert.commodity_arcs[src].items()}
            variants.append(("direction-2", {**cert.commodity_arcs, src: rekeyed}, cert.members))
        if len(cert.members) > 1:
            variants.append(
                ("drop-member", cert.commodity_arcs, frozenset(sorted(cert.members)[1:]))
            )
        for name, arcs, members in variants:
            bad = RouterCertificate(members, cert.eta, arcs)
            old = sp.certificates[0]
            sp.certificates[0] = bad
            total += 1
            try:
                if not recheck_router_certificates(sp)["ok"]:
                    detected += 1
            finally:
                sp.certificates[0] = old
    assert total >= 30
    assert detected == total, f"only {detected} of {total} corruptions flagged"
    print(
        f"criterion 10 (sabotage corpus): PASS - {detected}/{total} single-edit "
        f"corruptions detected"
    )


def test_criterion_11_oracles():
    # max flow against the exhaustive bipartition oracle
    from util import brute_force_min_cut, brute_force_sparsest, random_unit_graph

    rng = random.Random(1111)
    for _ in range(30):
        g = random_unit_graph(rng, n=rng.randint(6, 12), m=18)
        s, t = rng.sample(list(g.vertices), 2)
        val, _sol, side = max_flow(g, [s], [t])
        assert val == brute_force_min_cut(g, {s}, {t})
        assert out_capacity(g, side) == val
    # sparsest cut against the exhaustive vertex-bipartition oracle
    checked = 0
    while checked < 15:
        g = random_unit_graph(rng, n=9, m=15)
        members = set(rng.sample(list(g.vertices), rng.randint(2, 6)))
        inst = subdivide_boundary(g, members)
        if inst.graph.n > 12 or not inst.terminals:
            continue
        oracle = brute_force_sparsest(inst.graph)
        res = sparsest_cut_exact(inst)
        if oracle is None:
            assert res.trivially_well_linked or res.sparsity >= 1
        else:
            assert res.sparsity == min(oracle, 1)
        checked += 1
    # the float routing path against the exact rational LP on <= 200 vars
    lp_checked = 0
    while lp_checked < 12:
        g = random_unit_graph(rng, n=rng.randint(5, 7), m=11, k=3)
        terms = sorted(g.terminals)
        dem = DemandSet.from_map(
            {(terms[0], terms[1]): 1, (terms[1], terms[2]): F(1, 2)}
        )
        nvars = 2 * 2 * g.m + 1
        if nvars > 200:
            continue
        exact = min_congestion_routing(g, dem, exact=True)
        approx = min_congestion_routing(g, dem, exact=False)
        if exact.eta == float("inf"):
            assert approx.eta == float("inf")
            continue
        assert approx.eta >= exact.eta
        assert float(approx.eta) <= float(exact.eta) * (1 + 1e-6)
        lp_checked += 1
    print(
        "criterion 11 (oracle cross-checks): PASS - 30 max-flow, "
        f"{checked} sparsest-cut and {lp_checked} routing-LP comparisons, all exact "
        "within delta"
    )
