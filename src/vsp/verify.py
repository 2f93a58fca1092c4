"""Independent quality certification.

Cut quality is verified exhaustively: every nontrivial terminal bipartition
is priced in both graphs with exact arithmetic.  The `flow.bipartitions`
masks are decoded a chunk at a time into a boolean side matrix
(`TerminalCuts.chunks`), and G and H each price every chunk with one call
of `TerminalCuts.values`.  H holds the terminals plus a few Steiner
vertices, one per contracted cluster, so that call usually prices it by
enumerating the sides of its Steiner vertices, and G by one stacked
max-flow.  The records are built from the two chunks' integer values.
Flow quality cannot be enumerated, so the verifier combines (a) exact
re-checks of every cluster's router certificate, which are the premises of
the contraction quality argument, (b) sampled demand sets routed at
minimum congestion in both graphs and compared at tolerance delta, through
the LP unless the graph is a forest (as an H whose terminals all hang off
one Steiner vertex is), whose one routing needs none, and (c) the
constructive re-routing of each H-flow through the cluster routers, whose
congestion is evaluated exactly.

`QualityReport.to_json` writes either report with `_write_json`, which
returns what `json.dumps(..., indent=1)` would, `Fraction`s as strings.

The checker reads the `serialize` records and imports no search code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from json.encoder import encode_basestring_ascii
from math import inf
from typing import Iterable

from .errors import BudgetExceeded, InputError
from .flow import TerminalCuts, bipartitions, flow_conserves
from .graph import CapGraph, SubdividedInstance, congestion, subdivide_boundary
from .params import ETA_STAR, ONE_THIRD
from .routing import INFEASIBLE, DemandSet, RoutingResult, min_congestion_routing
from .serialize import RouterCertificate, Sparsifier, unit_scale
from .sparsecut import DEFAULT_ENUM_BUDGET, sparsest_cut_exact

DEFAULT_CUT_ENUM_BUDGET = 16
DEFAULT_DELTA = Fraction(1, 10**6)


@dataclass
class QualityReport:
    mode: str  # "cut" | "flow"
    q_observed: Fraction | None
    records: list[dict] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    flags: dict = field(default_factory=dict)
    delta: Fraction = DEFAULT_DELTA

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        """The report as `json.dumps(payload, indent=1)` writes it, every
        `Fraction` as its string.  It is not written by `json.dumps`: with an
        `indent`, json runs its pure-Python encoder (the C encoder takes
        none), and a cut report holds one record per split.  `_write_json`
        returns the same string in about a third of the time."""
        payload = {
            "mode": self.mode,
            "q_observed": self.q_observed,
            "q_observed_float": None if self.q_observed is None else float(self.q_observed),
            "delta": float(self.delta),
            "tests": self.records,
            "violations": self.violations,
            "budget_flags": self.flags,
        }
        return _write_json(payload)


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == inf:
        return "Infinity"
    if x == -inf:
        return "-Infinity"
    return float.__repr__(x)


# each scalar type's writer; a subclass is written as its first base in
# `_SUBCLASSES`, in json's order
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    Fraction: lambda x: encode_basestring_ascii(str(x)),
}
_SUBCLASSES = tuple((cls, _SCALARS[cls]) for cls in (str, int, float, Fraction))


def _write_json(x, indent: str = "") -> str:
    """x as `json.dumps(x, indent=1)` writes it `len(indent)` levels deep,
    a `Fraction` as its string: dicts with str keys, lists, tuples, str,
    int, float, bool, None and their subclasses.  Another type, or a dict
    key that is not a str, is a TypeError."""
    write = _SCALARS.get(type(x))
    if write is not None:
        return write(x)
    inner = indent + " "
    parts = []
    if isinstance(x, dict):
        brackets = "{}"
        for key, value in x.items():
            write = _SCALARS.get(type(value))
            text = write(value) if write is not None else _write_json(value, inner)
            # encode_basestring_ascii raises the TypeError for a key that is not a str
            parts.append(f"{encode_basestring_ascii(key)}: {text}")
    elif isinstance(x, (list, tuple)):
        brackets = "[]"
        for value in x:
            write = _SCALARS.get(type(value))
            parts.append(write(value) if write is not None else _write_json(value, inner))
    else:
        for cls, write in _SUBCLASSES:
            if isinstance(x, cls):
                return write(x)
        raise TypeError(f"{type(x).__name__} is not JSON serializable")
    if not parts:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(parts) + f"\n{indent}{brackets[1]}"


def verify_cut_quality(
    g: CapGraph,
    h: CapGraph,
    enum_budget: int = DEFAULT_CUT_ENUM_BUDGET,
    seed: int = 0,
) -> QualityReport:
    """Price every nontrivial terminal bipartition in G and H exactly,
    both from the same masks, one record per split in mask order.
    Beyond the enumeration budget a seeded sample is used and flagged.

    G's chunks of splits go one at a time to `TerminalCuts(g).values` and
    `TerminalCuts(h).values`, and each chunk's records are built from the
    two lists of scaled integer values.  A contraction H is no larger than
    G, so G's chunks fit H's bound on a stacked solve."""
    if sorted(g.terminals) != sorted(h.terminals):
        raise InputError("graphs disagree on the terminal set")
    terms = list(g.terminals)
    rep = QualityReport("cut", None)
    if len(terms) < 2:
        rep.q_observed = Fraction(1)
        rep.flags["exhaustive"] = True
        return rep
    masks, exhaustive = bipartitions(terms, enum_budget, seed)
    rep.flags["exhaustive"] = exhaustive
    if not exhaustive:
        rep.flags["non_exhaustive"] = True
    cuts_g, cuts_h = TerminalCuts(g, terms), TerminalCuts(h, terms)
    # side a in the order of `terms`, as the masks list it
    in_terms = [sorted(terms).index(t) for t in terms]
    worst = Fraction(1)
    for side_a in cuts_g.chunks(terms, masks):
        values_g = cuts_g.values(side_a, ~side_a).tolist()
        values_h = cuts_h.values(side_a, ~side_a).tolist()
        for row, vg, vh in zip(side_a[:, in_terms].tolist(), values_g, values_h):
            i = len(rep.records)
            ta = list(compress(terms, row))
            # both values over the product of the denominators
            over_h, over_g = vh * cuts_g.den, vg * cuts_h.den
            if vg == 0:
                ratio = Fraction(1) if vh == 0 else None
            else:
                ratio = Fraction(over_h, over_g)
                worst = max(worst, ratio)
            vg, vh = Fraction(vg, cuts_g.den), Fraction(vh, cuts_h.den)
            if ratio is None:
                rep.violations.append(f"test {i}: MinCut_G = 0 but MinCut_H = {vh}")
            elif over_h < over_g:
                rep.violations.append(
                    f"test {i}: lower side violated, H {vh} < G {vg} on {sorted(ta)}"
                )
            rep.records.append({"id": i, "side_a": ta, "g": vg, "h": vh, "ratio": ratio})
    rep.flags["tests"] = len(rep.records)
    rep.q_observed = worst
    return rep


# --------------------------------------------------------------------------
# demand strategies


def demand_strategies(
    g: CapGraph, strategy: str, samples: int, seed: int
) -> list[DemandSet]:
    terms = sorted(g.terminals)
    k = len(terms)
    if k < 2:
        return []
    rng = random.Random(seed)
    out: list[DemandSet] = []
    if strategy == "uniform":
        d = {
            (a, b): Fraction(1, k)
            for i, a in enumerate(terms)
            for b in terms[i + 1:]
        }
        out.append(DemandSet.from_map(d))
    elif strategy == "matching":
        for _ in range(samples):
            order = terms[:]
            rng.shuffle(order)
            d = {}
            for i in range(0, k - 1, 2):
                d[(order[i], order[i + 1])] = Fraction(1)
            out.append(DemandSet.from_map(d))
    elif strategy == "gravity":
        degs = {t: g.degree(t) for t in terms}
        total = sum(degs.values(), Fraction(0))
        if total == 0:
            return []
        d = {}
        for i, a in enumerate(terms):
            for b in terms[i + 1:]:
                d[(a, b)] = degs[a] * degs[b] / total
        out.append(DemandSet.from_map(d))
    else:
        raise InputError(f"unknown demand strategy {strategy!r}")
    return out


def verify_flow_quality(
    g: CapGraph,
    h: CapGraph,
    strategies: Iterable[str] = ("uniform", "matching", "gravity"),
    samples: int = 5,
    seed: int = 0,
    delta: Fraction = DEFAULT_DELTA,
    quality_bound: Fraction | None = None,
    sparsifier: Sparsifier | None = None,
) -> QualityReport:
    """Sampled flow-quality report.  q_observed is a lower bound on the true
    flow quality (sampling cannot prove an upper bound); the upper bound is
    certified separately through the router certificates.  When a sparsifier
    is supplied, every sampled H-flow is also re-routed through the cluster
    routers and the composed congestion compared against 2 eta* eta(H,D).

    A demand set that repeats within the call (gravity equals uniform when
    every terminal has degree 1, and matching samples repeat among few
    terminals) is routed once in each graph; every record of it reuses
    those two routings, so it still gets its own id and entry."""
    if sorted(g.terminals) != sorted(h.terminals):
        raise InputError("graphs disagree on the terminal set")
    rep = QualityReport("flow", None, delta=delta)
    rep.flags["sampled"] = True
    tol = 1 + 2 * delta
    worst = Fraction(1)
    tid = 0
    routed: dict[DemandSet, tuple[RoutingResult, RoutingResult]] = {}
    for strat in strategies:
        for dem in demand_strategies(g, strat, samples, seed + tid):
            if not dem:
                continue
            if dem not in routed:
                routed[dem] = (min_congestion_routing(g, dem), min_congestion_routing(h, dem))
            rg, rh = routed[dem]
            rec = {"id": tid, "strategy": strat, "pairs": len(dem.pairs)}
            tid += 1
            if rg.eta == INFEASIBLE or rh.eta == INFEASIBLE:
                both = rg.eta == INFEASIBLE and rh.eta == INFEASIBLE
                rec.update(g="inf" if rg.eta == INFEASIBLE else rg.eta,
                           h="inf" if rh.eta == INFEASIBLE else rh.eta, ratio=None)
                if not both:
                    rep.violations.append(f"test {rec['id']}: disconnection disagreement")
                rep.records.append(rec)
                continue
            rec.update({"g": rg.eta, "h": rh.eta})
            if rh.eta > rg.eta * tol:
                rep.violations.append(
                    f"test {rec['id']}: lower side violated, eta_H {rh.eta} > eta_G {rg.eta}"
                )
            ratio = None
            if rh.eta > 0:
                ratio = rg.eta / rh.eta
                worst = max(worst, ratio)
                if quality_bound is not None and ratio > quality_bound * tol:
                    rep.violations.append(
                        f"test {rec['id']}: ratio {float(ratio):.3f} above quality bound"
                    )
            rec["ratio"] = ratio
            if sparsifier is not None and rh.flow is not None and rh.eta > 0:
                composed = reroute_through_clusters(sparsifier, rh)
                rec["composed"] = composed
                bound = 2 * ETA_STAR * rh.eta * tol
                if composed > bound:
                    rep.violations.append(
                        f"test {rec['id']}: composed congestion {float(composed):.3f} "
                        f"exceeds 2 eta* eta_H = {float(bound):.3f}"
                    )
            rep.records.append(rec)
    rep.q_observed = worst
    return rep


# --------------------------------------------------------------------------
# re-routing an H-flow through the cluster routers (the constructive bound)


def project_cluster_demands(
    sp: Sparsifier, h_result
) -> dict[frozenset, dict[tuple[int, int], Fraction]]:
    """Split every H-flow path at the supernodes it traverses, accumulating
    per-cluster boundary-pair demands (keyed by parent-graph edge ids)."""
    h = sp.graph
    by_super = {s: c for s, c in zip(sp.cmap.supernode, sp.cmap.clusters)}
    emap = sp.cmap.edge_map
    out: dict[frozenset, dict[tuple[int, int], Fraction]] = {
        c: {} for c in sp.cmap.clusters
    }
    for amt, (src, _dst), epath in h_result.flow.paths:
        v = src
        prev_geid = None
        for heid in epath:
            e = h.edges[heid]
            w = e.other(v)
            geid = emap[heid]
            if v in by_super and prev_geid is not None:
                c = by_super[v]
                a, b = sorted((prev_geid, geid))
                if a != b:
                    d = out[c]
                    d[(a, b)] = d.get((a, b), Fraction(0)) + amt
            prev_geid = geid
            v = w
    return out


def reroute_through_clusters(sp: Sparsifier, h_result) -> Fraction:
    """Exact congestion of the composed flow: H-loads on surviving edges plus
    each cluster's demand mass pushed through its certified fan-out flows.
    Both are carried into the unit graph's units: an eps file's H has the
    unit graph's capacities divided by `unit_scale(eps)`."""
    g = sp.unit_graph
    unit = unit_scale(sp.eps_input)
    load: dict[int, Fraction] = {}
    emap = sp.cmap.edge_map
    for heid, f in h_result.flow.edge_flow.items():
        load[emap[heid]] = load.get(emap[heid], Fraction(0)) + unit * f
    demands = project_cluster_demands(sp, h_result)
    for cert in sp.certificates:
        dem = demands.get(cert.members, {})
        if not dem:
            continue
        w_at: dict[int, Fraction] = {}
        for (a, b), x in dem.items():
            w_at[a] = w_at.get(a, Fraction(0)) + unit * x
            w_at[b] = w_at.get(b, Fraction(0)) + unit * x
        for eid, w in w_at.items():
            scale = w / g.edges[eid].cap
            for (ieid, _d), l in cert.commodity_arcs.get(eid, {}).items():
                e = g.edges[ieid]
                # skip the boundary edges: the fan-out's pendant handoffs are H's
                if (e.u in cert.members) == (e.v in cert.members):
                    load[ieid] = load.get(ieid, Fraction(0)) + scale * l
    return congestion(g, load)


# --------------------------------------------------------------------------
# router certificate re-checks


def recheck_router_certificates(sp: Sparsifier, budget: int = DEFAULT_ENUM_BUDGET) -> dict:
    """Recheck every router certificate against the working graph G.
    Failures are report entries.

    A certificate holds only its witness: the cluster's members, the
    congestion eta and the fan-out flows.  Everything else is derived here
    from the cluster's instance G_S, built once per certificate from G and
    the members and used by every check: the boundary edges and their
    bundle weights w_e, their total z, the alpha = 1/3 well-linkedness claim
    for every cluster with z > 1 (a cluster with z <= 1 has no nontrivial
    bipartition to claim anything about), and the hairpin load
    2 w_e (w_e - 1) / z that every bundle with w_e > 1 puts on its own
    pendant edge.

    The checks: the clusters are disjoint, terminal-free and connected;
    every fan-out puts positive flow on arcs of direction 0 or 1 only, so
    no entry lowers a load, conserves flow and delivers w_i w_j / z to
    every other bundle, and a certificate with z > 1 carries one for every
    boundary edge with w_e < z (a lone bundle with w_e = z exchanges
    nothing); the fan-outs plus the hairpin loads have congestion exactly
    the stored eta, which is at most eta* (a cluster with z <= 1 stores eta
    0 and no flows); and every z > 1 cluster is 1/3-well-linked.  The
    well-linked test finds the cluster's least sparsity with no threshold,
    so its verdict rests on the least split's Python min cut, which must
    match the sweep's value, and not on the swept values alone.  It
    enumerates at most `budget` boundary bundles; a cluster beyond it is
    reported "skipped (budget)" and its index listed under "skipped": work
    not done, not passed."""
    g = sp.unit_graph
    checks: list[tuple[str, bool, str]] = []

    def add(name, ok, detail=""):
        checks.append((name, ok, detail))

    seen: set[int] = set()
    ok_struct = True
    for cert in sp.certificates:
        if cert.members & seen:
            ok_struct = False
        seen |= cert.members
        if any(g.is_terminal(v) for v in cert.members):
            ok_struct = False
        if not g.is_connected_subset(cert.members):
            ok_struct = False
    add("structure", ok_struct, f"{len(sp.certificates)} clusters disjoint, terminal-free, connected")

    insts = [subdivide_boundary(g, cert.members) for cert in sp.certificates]
    ok_flow, detail = True, []
    for ci, (cert, inst) in enumerate(zip(sp.certificates, insts)):
        err = _recheck_one_router(inst, cert)
        if err:
            ok_flow = False
            detail.append(f"cluster {ci}: {err}")
    add("router-flows", ok_flow, "; ".join(detail) or "conservation, delivery, congestion <= eta*")

    ok_wl, detail, skipped = True, [], []
    for ci, inst in enumerate(insts):
        if inst.z <= 1:
            continue
        try:
            res = sparsest_cut_exact(inst, budget=budget)
        except BudgetExceeded:
            detail.append(f"cluster {ci}: skipped (budget)")
            skipped.append(ci)
            continue
        if res.sparsity < ONE_THIRD:
            ok_wl = False
            detail.append(f"cluster {ci}: sparsity {res.sparsity}")
    add("well-linked", ok_wl, "; ".join(detail) or "all clusters 1/3-well-linked")

    return {"ok": all(ok for _n, ok, _d in checks), "checks": checks, "skipped": skipped}


def _recheck_one_router(inst: SubdividedInstance, cert: RouterCertificate) -> str:
    z = inst.z
    if z <= 1:
        if cert.eta != 0 or cert.commodity_arcs:
            return f"boundary capacity {z} exchanges nothing, yet flows are stored"
        return ""
    to_inst = {geid: ieid for ieid, geid in inst.parent_edge.items()}
    pend_term = {inst.pendant_of[t]: t for t in inst.terminals}
    weights = {e: inst.weight(t) for e, t in pend_term.items()}
    # completeness: every bundle that exchanges with another one needs its
    # fan-out
    missing = sorted(e for e, w in weights.items() if w < z and e not in cert.commodity_arcs)
    if missing:
        return f"no fan-out flow for boundary edges {missing}"
    load: dict[int, Fraction] = {e: 2 * w * (w - 1) / z for e, w in weights.items() if w > 1}
    for src_eid, arcs in cert.commodity_arcs.items():
        wi = weights.get(src_eid)
        if wi is None:
            return f"unknown source edge {src_eid}"
        inst_arcs = {}
        for (geid, d), v in arcs.items():
            if geid not in to_inst:
                return f"flow on edge {geid} outside the cluster"
            if v <= 0 or d not in (0, 1):
                return f"arc flow {v} on edge {geid} direction {d}: not positive on arc 0 or 1"
            inst_arcs[(to_inst[geid], d)] = v
            load[geid] = load.get(geid, Fraction(0)) + v
        # expected divergence: the source pendant ships w_i w_j / z to each
        # other pendant
        total = sum(
            (wi * weights[o] / z for o in weights if o != src_eid), Fraction(0)
        )
        sources = {pend_term[src_eid]: total}
        for o, wo in weights.items():
            if o != src_eid:
                sources[pend_term[o]] = -(wi * wo / z)
        if not flow_conserves(inst.graph, inst_arcs, sources):
            return f"conservation or delivery fails for source {src_eid}"
    worst = congestion(inst.graph, {to_inst[e]: v for e, v in load.items()})
    if worst > ETA_STAR:
        return f"congestion {worst} exceeds eta* {ETA_STAR}"
    if worst != cert.eta:
        return f"recomputed congestion {worst} differs from the stored {cert.eta}"
    return ""
