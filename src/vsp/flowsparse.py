"""Flow sparsifiers built from good routers.

A good router is a 1/3-well-linked terminal-free cluster whose boundary
edges can all exchange 1/z flow each way inside the cluster with congestion
at most eta* = 34.  Contracting a disjoint family of good routers costs at
most a factor 2 eta* in congestion, so such a contraction is a quality-68
restricted flow sparsifier.  The construction shrinks the contracted graph
below a size budget F(k) by repeatedly finding contractible sets (small
boundary, size above 128 F(boundary)) and re-decomposing them; when instead
a witness turns up, the whole interior is certified a good router and
contracted in one step.

There is one builder, `build_flow_sparsifier(g, eps=None)`, which returns
the pair (sparsifier, whether it met the size bound F(k)).  Its search,
recursion included, returns router certificates only, and H is contracted
once by `serialize.assemble_flow_sparsifier`, as `load_sparsifier` does;
the certificate record and the capacitated unit reduction live there too,
so the checker reads them without this module.  What the search did
(routers found, contractions, give-ups, premises that failed) goes to the
`vsp.flowsparse` logger as INFO records; the package adds no handler, so
nothing is printed unless the caller configures logging.  It searches each
strong-decomposition cluster on the instance G_S the cluster keeps and
relies on its exact 1/3 verdict, so a build solves only the exchange LP;
`vsp verify` rechecks well-linkedness.  The terminals of every G_S are
degree-1 pendants, so G's terminals may have any degree.  With eps the
search runs on G's capacitated unit reduction, which only rounds
capacities (2 eta* c / eps up to an integer) and keeps G's vertices and
edge ids; H's capacities are scaled back, and the claim is 2 eta* + eps.

Both parameter profiles take the flow-cut gap beta(k) = max(1, log2 k).
"theoretical" uses the published constants (the fixpoint r and F growing by
2^16 r^3 log r per halving), under which F(k) exceeds any desk-scale n and the
builder exits at the decomposition stage; "aggressive" fixes r = 3
(AGGRESSIVE_R) and lets F grow x4 per halving (AGGRESSIVE_F_GROWTH), so the
contraction loop, witness search and recursion actually execute, with
quality certified empirically per output.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .decompose import Decomposition, interior_decompositions, strong_decompose, weak_decompose
from .errors import BudgetExceeded, InputError
from .flow import Net
from .graph import CapGraph, ContractionMap, SubdividedInstance, congestion, contract
from .graph import out_capacity, out_edges, subdivide_boundary
from .params import ETA_STAR, ONE_THIRD, beta_fcg, rational_log2, weak_threshold
from .routing import INFEASIBLE, DemandSet, min_congestion_routing, uniform_router_check
from .serialize import RouterCertificate, Sparsifier
from .serialize import assemble_flow_sparsifier, capacitated_unit_reduction
from .sparsecut import DEFAULT_ENUM_BUDGET, is_well_linked, sparsest_cut

AGGRESSIVE_R = 3
AGGRESSIVE_F_GROWTH = 4  # per halving of k

logger = logging.getLogger(__name__)


# --------------------------------------------------------------------------
# parameters


@dataclass
class FlowParams:
    profile: str = "theoretical"  # "theoretical" | "aggressive"
    enum_budget: int = DEFAULT_ENUM_BUDGET
    # with False the router search skips the up-front router check and
    # enters the contraction loop even on router interiors (witnesses then
    # surface and are cross-checked), which is the aggressive profile's job
    precheck_router: bool = True

    def r(self, k: int) -> int:
        """AGGRESSIVE_R, or the theoretical fixpoint `_fixpoint_r(k)`."""
        return AGGRESSIVE_R if self.profile == "aggressive" else _fixpoint_r(k)

    @staticmethod
    def k_star(k: int, r: int) -> int:
        return max(2, math.ceil(2 * k * r * max(1.0, math.log2(r))))

    def growth(self, r: int) -> Fraction:
        if self.profile == "aggressive":
            return Fraction(AGGRESSIVE_F_GROWTH)
        return Fraction(1 << 16) * r**3 * rational_log2(Fraction(max(2, r)))

    def f_size(self, k, r: int | None = None) -> Fraction:
        """The sparsifier size budget F: 1 up to 4, multiplied by the growth
        factor per halving above that (arguments round up to powers of two)."""
        kf = float(k)
        if kf <= 4:
            return Fraction(1)
        if r is None:
            r = self.r(int(math.ceil(kf)))
        power = 1 << max(0, math.ceil(math.log2(kf)))
        val = Fraction(1)
        while power > 4:
            val *= self.growth(r)
            power //= 2
        return val


@functools.cache
def _fixpoint_r(k: int) -> int:
    """Smallest integer r with r > 24 beta(k*) / alpha_w(k*) for
    k* = 2 k r log r (alpha_w = weak_threshold), found by fixpoint
    iteration.  It depends on k alone, so each k is iterated once."""
    r = 2
    while True:
        kstar = FlowParams.k_star(k, r)
        need = 24 * beta_fcg(kstar) / weak_threshold(kstar)
        if r > need:
            return r
        r = max(r + 1, int(math.ceil(float(need))))


# --------------------------------------------------------------------------
# certificates


def is_good_router(
    inst: SubdividedInstance, params: FlowParams
) -> tuple[bool, RouterCertificate | None]:
    """Conjunction of exact 1/3-well-linkedness and the uniform exchange
    check at eta*, both on the cluster's instance G_S; the certificate names
    the edges of the graph G_S was cut from.  Budget refusals on the
    well-linkedness side surface as 'unknown', which is treated as
    not-a-router (can only inflate size).  A build calls only the second
    conjunct: its strong decomposition decided the first."""
    try:
        if not is_well_linked(inst, ONE_THIRD, budget=params.enum_budget)[0]:
            return False, None
    except BudgetExceeded:
        return False, None
    cert = _router_certificate(inst)
    return cert is not None, cert


def _router_certificate(inst: SubdividedInstance) -> RouterCertificate | None:
    """The exchange half of the router check: the certificate of G_S's
    uniform exchange at eta* on the parent's edge ids, or None."""
    ok, res = uniform_router_check(inst)
    if not ok:
        return None
    # on G_S's edge ids, each fan-out keyed by its source's pendant edge
    commodity = {
        inst.pendant_edge(src_t).eid: arcs for src_t, arcs in (res.commodity_arcs or {}).items()
    }
    return _translate_certificate(RouterCertificate(inst.members, res.eta, commodity),
                                  inst.parent_edge)


def _translate_certificate(cert: RouterCertificate, emap: Mapping[int, int]) -> RouterCertificate:
    """`cert` on the parent graph's edge ids, through an instance's
    `parent_edge` map: the map is one-to-one, and a pendant's inside->t_e
    direction stays 0."""
    return RouterCertificate(
        cert.members,
        cert.eta,
        {
            emap[src]: {(emap[e], d): v for (e, d), v in arcs.items()}
            for src, arcs in cert.commodity_arcs.items()
        },
    )


# --------------------------------------------------------------------------
# witnesses


@dataclass
class Witness1:
    """r disjoint well-linked sets, each reachable from ceil(k/2) distinct
    terminals by edge-disjoint paths ending on distinct boundary edges."""

    families: list[dict]  # per j: members, alpha, alpha_source, paths, end_edges
    r: int
    kstar: int


@dataclass
class Witness2:
    members: frozenset[int]  # the set A-tilde
    edge_groups: list[list[int]]  # E_1..E_r, edge ids, ceil(k/4) each
    term_star: tuple[int, ...]  # ceil(k/4) terminals
    paths: list[list[tuple[int, list[int]]]]  # per j: (terminal, edge id path)
    alpha: Fraction
    alpha_source: str
    r: int


@dataclass
class ContractibleSet:
    members: frozenset[int]  # vertices of the current contracted graph
    boundary_cap: Fraction
    size_budget: Fraction  # 128 F(|out|) it exceeds


def _route_loads(routes: Iterable[tuple[Fraction, list[int]]]) -> dict[int, Fraction]:
    load: dict[int, Fraction] = {}
    for amt, path in routes:
        for eid in path:
            load[eid] = load.get(eid, Fraction(0)) + amt
    return load


def verify_witness1(gp: CapGraph, w: Witness1, k: int) -> list[str]:
    """Re-check a type-1 witness by direct counting; returns failure strings."""
    fails = []
    need = (k + 1) // 2
    seen_members = set()
    for j, fam in enumerate(w.families):
        ms = fam["members"]
        if ms & seen_members:
            fails.append(f"family {j} overlaps an earlier family")
        seen_members |= ms
        if any(gp.is_terminal(v) for v in ms):
            fails.append(f"family {j} contains terminals")
        paths = fam["paths"]
        if len(paths) < need:
            fails.append(f"family {j} has {len(paths)} paths < {need}")
        load = _route_loads((1, p) for _t, p in paths)
        if load and max(load.values()) > 1:
            fails.append(f"family {j} paths are not edge-disjoint")
        terms = [t for t, _p in paths]
        if len(set(terms)) != len(terms):
            fails.append(f"family {j} repeats terminals")
        ends = [p[-1] for _t, p in paths if p]
        bset = set(e.eid for e in out_edges(gp, ms))
        if len(set(ends)) != len(ends) or not set(ends) <= bset:
            fails.append(f"family {j} path ends are not distinct boundary edges")
    return fails


def verify_witness2(gp: CapGraph, w: Witness2, k: int) -> list[str]:
    fails = []
    need = (k + 3) // 4
    if len(w.term_star) != need:
        fails.append(f"terminal set has {len(w.term_star)} != {need}")
    if len(w.edge_groups) != w.r:
        fails.append(f"{len(w.edge_groups)} edge groups != r = {w.r}")
    bset = set(e.eid for e in out_edges(gp, w.members))
    flat: list[int] = []
    for grp in w.edge_groups:
        flat.extend(grp)
        if len(grp) != need:
            fails.append("edge group of wrong size")
    if len(set(flat)) != len(flat) or not set(flat) <= bset:
        fails.append("edge groups are not disjoint boundary subsets")
    for j, paths in enumerate(w.paths):
        load = _route_loads((1, p) for _t, p in paths)
        if load and max(load.values()) > 2:
            fails.append(f"path system {j} exceeds congestion 2")
        ends = [p[-1] for _t, p in paths if p]
        if not set(ends) <= set(w.edge_groups[j]):
            fails.append(f"path system {j} does not end in its edge group")
        if sorted(t for t, _p in paths) != sorted(w.term_star):
            fails.append(f"path system {j} does not start at the terminal set")
    return fails


# --------------------------------------------------------------------------
# witness -> router flow (constructive)


def _path_transfer(
    g: CapGraph,
    sources: list[int],
    target_edges: list[int],
    eta_cap: int,
) -> list[tuple[int, list[int]]] | None:
    """A 1:1 path system from source vertices onto distinct target edges with
    congestion at most eta_cap: sources get capacity 1, each target edge is
    split by a midpoint wired to the sink with capacity 1, every other edge
    carries eta_cap.  None when the integral max flow falls short."""
    targets = set(target_edges)
    net = Net()
    for e in g.edges:
        if e.u == e.v:
            continue
        if e.eid in targets:
            net.split_edge(e.u, e.v, 1, e.eid, 1)
        else:
            net.undirected(e.u, e.v, eta_cap * e.cap, key=e.eid)
    for s in sources:
        net.arc(net.source, s, 1)
    if net.max_flow(net.source, net.sink) < len(sources):
        return None
    return net.unit_edge_paths()


# --------------------------------------------------------------------------
# the balanced-cut lemma


def _edge_ids_between(gp: CapGraph, a: frozenset[int], b: frozenset[int]) -> list[int]:
    return [
        e.eid
        for e in gp.edges
        if (e.u in a and e.v in b) or (e.u in b and e.v in a)
    ]


def _terminals_to_edges(
    gp: CapGraph, targets: list[int], per_edge_cap: int
) -> tuple[list[tuple[int, list[int]]] | None, frozenset[int]]:
    """Edge-disjoint paths from distinct terminals onto the target edges,
    each target edge absorbing at most per_edge_cap path endpoints.  On
    success returns (paths, empty); on failure (None, source side of the
    min cut restricted to non-terminal vertices)."""
    targets_set = set(targets)
    net = Net()
    tset = set(gp.terminals)
    for e in gp.edges:
        if e.u == e.v:
            continue
        u = net.source if e.u in tset else e.u
        v = net.source if e.v in tset else e.v
        if u == v:
            continue
        if e.eid in targets_set:
            net.split_edge(u, v, e.cap, e.eid, per_edge_cap)
        else:
            net.undirected(u, v, e.cap, key=e.eid)
    need = (gp.k + 1) // 2
    if net.max_flow(net.source, net.sink) < need:
        return None, net.cut_side()
    return _terminal_paths(gp, net, tset), frozenset()


def _terminal_paths(gp: CapGraph, net: Net, tset: set[int]) -> list[tuple[int, list[int]]]:
    """The unit paths of a flow out of the merged terminals as (terminal,
    edge path) pairs sorted by terminal; terminals have degree 1, so the
    first edge names the terminal."""
    paths = []
    for _first, epath in net.unit_edge_paths():
        first = gp.edges[epath[0]]
        paths.append((first.u if first.u in tset else first.v, epath))
    paths.sort(key=lambda tp: tp[0])
    return paths


def _prune_distinct_ends(
    paths: list[tuple[int, list[int]]], want: int
) -> list[tuple[int, list[int]]] | None:
    """Select up to `want` paths with pairwise distinct last edges."""
    chosen = []
    used_edges: set[int] = set()
    used_terms: set[int] = set()
    for term, p in sorted(paths, key=lambda tp: (tp[1][-1], tp[0])):
        if not p or p[-1] in used_edges or term in used_terms:
            continue
        chosen.append((term, p))
        used_edges.add(p[-1])
        used_terms.add(term)
        if len(chosen) == want:
            return chosen
    return None


@dataclass
class SearchOutcome:
    """How the search, or one run of the refinement lemma inside it, ends."""

    kind: str  # "contractible" | "witness1" | "witness2"; the lemma also "balanced"
    contractible: ContractibleSet | None = None
    witness: Witness1 | Witness2 | None = None
    x: frozenset[int] | None = None  # the balanced partition
    y: frozenset[int] | None = None


def balanced_cut_refine(
    gp: CapGraph,
    s_members: frozenset[int],
    params: FlowParams,
    r: int,
    f_half: Fraction,
) -> SearchOutcome:
    """One run of the refinement lemma on S: ends with a balanced partition
    with at most rk crossing edges, a verified type-2 witness, or a
    contractible set.  Crossing size strictly decreases each iteration."""
    k = gp.k
    if not (len(s_members) > 512 * f_half):
        logger.info("premise |S| > 2^9 F(k/2) violated: %s <= %s", len(s_members), 512 * f_half)
    order = sorted(s_members)
    x = frozenset(order[: (len(order) + 1) // 2])
    y = s_members - x
    last_cross = None
    max_iter = gp.m + 4
    half_k = (k + 1) // 2
    quarter_k = (k + 3) // 4
    for _it in range(max_iter):
        if len(x) < len(y):
            x, y = y, x
        gamma = _edge_ids_between(gp, x, y)
        if len(gamma) <= r * k:
            return _balanced(s_members, x, y)
        if last_cross is not None and len(gamma) >= last_cross:
            raise BudgetExceeded(
                f"balanced-cut refinement stalled at crossing size {len(gamma)}"
            )
        last_cross = len(gamma)

        # step 1: route terminals onto the crossing edges
        paths, cut_side = _terminals_to_edges(gp, gamma, per_edge_cap=2)
        if paths is None:
            a = cut_side & (frozenset(gp.vertices) - frozenset(gp.terminals))
            outcome = _step1_cut_case(gp, x, a, half_k, f_half)
            if outcome is not None:
                return outcome
            x, y = _step1_new_partition(gp, s_members, x, y, a)
            continue
        p1 = _prune_distinct_ends(paths, quarter_k)
        if p1 is None:
            logger.info("could not prune step-1 paths to distinct ends")
            return _balanced(s_members, x, y)
        term_star = tuple(sorted(t for t, _p in p1))
        gamma1 = [p[-1] for _t, p in p1]

        # step 2: route gamma1 to r-1 further edge groups inside X; rest holds
        # |gamma| - ceil(k/4) > (r-1) ceil(k/4) edges, enough for every group
        rest = [eid for eid in sorted(gamma) if eid not in set(gamma1)]
        groups = [gamma1]
        for j in range(1, r):
            groups.append(rest[(j - 1) * quarter_k : j * quarter_k])
        systems = [list(p1)]
        failed_cut = None
        for j in range(1, r):
            res = _group_transfer(gp, x, gamma1, groups[j])
            if isinstance(res, frozenset):
                failed_cut = res
                break
            systems.append(_concat_systems(p1, res))
        if failed_cut is not None:
            x, y = _step2_new_partition(gp, x, y, failed_cut)
            continue

        # step 3: is X well-linked for the union of the groups?
        flat = [eid for grp in groups for eid in grp]
        inst = subdivide_boundary(gp, x, flat)
        res = sparsest_cut(inst, budget=params.enum_budget, stop_below=Fraction(1))
        a_side = frozenset() if res.cut is None else frozenset(res.cut.side_a) & x
        b_side = x - a_side
        if (
            res.trivially_well_linked
            or res.sparsity >= 1
            or res.pendant_split_edge is not None
            or not a_side
            or not b_side
        ):
            alpha = weak_threshold(r * quarter_k)
            w2 = Witness2(
                frozenset(x), groups, term_star, systems, alpha,
                "exact" if res.exact else "heuristic", r,
            )
            return SearchOutcome("witness2", witness=w2)
        if len(a_side) > len(b_side):
            a_side, b_side = b_side, a_side
        x, y = b_side, y | a_side

    raise BudgetExceeded("balanced-cut refinement exceeded its iteration bound")


def _balanced(s_members, x, y) -> SearchOutcome:
    """The balanced outcome, whose sides the lemma gives at least |S|/4
    vertices each.  A partition rebuild can leave a side short, even empty;
    no balanced partition is known then, and the search gives up."""
    short = min(len(x), len(y))
    if 4 * short < len(s_members):
        raise BudgetExceeded(f"balanced-cut refinement left a side of {short} of {len(s_members)}")
    return SearchOutcome("balanced", x=x, y=y)


def _step1_cut_case(gp, x, a, half_k, f_half):
    """After a failed terminal routing, either extract a contractible
    component of the far side or signal the partition rebuild."""
    b = (frozenset(gp.vertices) - frozenset(gp.terminals)) - a
    cross = sum((gp.edges[eid].cap for eid in _edge_ids_between(gp, a, b)), Fraction(0))
    if cross >= half_k:
        logger.info("step-1 cut not below k/2; continuing with rebuild")
    xa = x & a
    xb = x & b
    if len(xb) >= len(xa):
        for comp in gp.components(within=b):
            cs = frozenset(comp)
            boundary = out_capacity(gp, cs)
            if len(cs) > 128 * f_half and boundary <= half_k:
                return SearchOutcome(
                    "contractible",
                    contractible=ContractibleSet(cs, boundary, 128 * f_half),
                )
    return None


def _step1_new_partition(gp, s_members, x, y, a):
    b = (frozenset(gp.vertices) - frozenset(gp.terminals)) - a
    xa, xb = x & a, x & b
    if len(xa) >= len(xb):
        return frozenset(xa), frozenset(y | xb)
    # rebuild from components of the S-part of the far side
    sb = s_members & b
    pieces = [frozenset(c) for c in gp.components(within=sb)]
    target = len(s_members) / 4
    newx: set[int] = set()
    for piece in sorted(pieces, key=lambda p: (-len(p), min(p))):
        if len(newx) >= target:
            break
        newx |= piece
    return frozenset(newx), frozenset(s_members - newx)


def _group_transfer(gp, x, gamma1, gamma_j):
    """Edge-disjoint paths from the gamma1 edges to the gamma_j edges inside
    G'[X].  Returns the path list, or the failing cut's source side in X."""
    net = Net()
    xset = set(x)
    for e in gp.edges:
        if e.u in xset and e.v in xset and e.u != e.v:
            net.undirected(e.u, e.v, e.cap, key=e.eid)
    for eid in gamma1:
        e = gp.edges[eid]
        inside = e.u if e.u in xset else e.v
        net.undirected(net.source, inside, 1, key=eid)
    for eid in gamma_j:
        e = gp.edges[eid]
        inside = e.u if e.u in xset else e.v
        net.undirected(inside, net.sink, 1, key=eid)
    if net.max_flow(net.source, net.sink) < len(gamma1):
        return net.cut_side() & xset
    return [path for _first, path in net.unit_edge_paths()]


def _concat_systems(p1, p2_paths):
    """Join terminal->gamma1 paths with gamma1->gamma_j paths on the shared
    gamma1 edge; the shared edge is kept once."""
    by_first = {}
    for p in p2_paths:
        by_first[p[0]] = p
    joined = []
    for term, p in p1:
        cont = by_first.get(p[-1])
        if cont is None:
            continue
        joined.append((term, p + cont[1:]))
    return joined


def _step2_new_partition(gp, x, y, a_side):
    b_side = x - a_side
    if len(a_side) <= len(b_side):
        return frozenset(b_side), frozenset(y | a_side)
    return frozenset(a_side), frozenset(y | b_side)


# --------------------------------------------------------------------------
# contractible-or-witness search (two phases)


def find_contractible_or_witness(gp: CapGraph, params: FlowParams) -> SearchOutcome:
    """Phase 1 refines {V - T} through ceil(log r) rounds of balanced cuts;
    phase 2 weak-decomposes r of the resulting sets, looks for contractible
    clusters, and otherwise routes the terminals onto each largest cluster to
    assemble a type-1 witness."""
    k = gp.k
    r = params.r(k)
    f_half = params.f_size(Fraction(k, 2), r)
    f_k = params.f_size(k, r)
    interior = frozenset(v for v in gp.vertices if not gp.is_terminal(v))
    if len(interior) <= f_k:
        raise InputError("search precondition |V(G') - T| > F(k) violated")
    families = [interior]
    rounds = max(1, math.ceil(math.log2(r))) if r > 1 else 1
    for _i in range(rounds):
        nxt: list[frozenset[int]] = []
        for s in families:
            out = balanced_cut_refine(gp, s, params, r, f_half)
            if out.kind != "balanced":
                return out
            nxt.extend([out.x, out.y])
        families = nxt
    families.sort(key=min)
    if len(families) < r:
        raise BudgetExceeded(f"phase 1 produced {len(families)} sets < r = {r}")
    kstar = params.k_star(k, r)
    half_k = (k + 1) // 2
    chosen = families[:r]
    witness_families = []
    for j, s_j in enumerate(chosen):
        zj = out_capacity(gp, s_j)
        if zj > kstar:
            logger.info("family %s: boundary %s exceeds k* = %s", j, zj, kstar)
        dec = weak_decompose(gp, s_j, budget=params.enum_budget)
        for c in dec.clusters:
            if c.z <= half_k and len(c.members) > 128 * params.f_size(c.z, r):
                return SearchOutcome(
                    "contractible",
                    contractible=ContractibleSet(
                        c.members, c.z, 128 * params.f_size(c.z, r)
                    ),
                )
        big = max(dec.clusters, key=lambda c: (len(c.members), -min(c.members)))
        if not len(big.members) > 128 * f_half:
            logger.info(
                "family %s: largest weak cluster has %s vertices, "
                "claim > 2^7 F(k/2) = %s does not hold here", j, len(big.members), 128 * f_half
            )
        routed = _route_terminals_to_cluster(gp, big.members, half_k)
        if isinstance(routed, frozenset):
            # min cut below k/2: the far side plus the cluster is contractible
            b0 = (interior - routed) | big.members
            for comp in gp.components(within=b0):
                if big.members <= frozenset(comp):
                    cs = frozenset(comp)
                    bound = out_capacity(gp, cs)
                    budget = 128 * params.f_size(bound, r)
                    if len(cs) > budget and bound <= half_k:
                        return SearchOutcome(
                            "contractible",
                            contractible=ContractibleSet(cs, bound, budget),
                        )
                    logger.info(
                        "family %s: cut side fails the contractible size check (%s vs %s)",
                        j, len(cs), budget,
                    )
                    break
            continue
        witness_families.append(
            {
                "members": big.members,
                "alpha": weak_threshold(kstar),
                "alpha_source": "exact" if all(
                    c.source in ("exact", "trivial") for c in dec.clusters
                ) else "heuristic",
                "paths": routed,
                "end_edges": [p[-1] for _t, p in routed],
            }
        )
    if len(witness_families) < r:
        raise BudgetExceeded(
            f"phase 2 assembled only {len(witness_families)} of {r} witness families"
        )
    return SearchOutcome("witness1", witness=Witness1(witness_families, r, kstar))


def _route_terminals_to_cluster(gp: CapGraph, members: frozenset[int], need: int):
    """ceil(k/2) edge-disjoint paths from distinct terminals to distinct
    boundary edges of `members`, or the min cut's source side on failure."""
    net = Net()
    tset = set(gp.terminals)
    for e in gp.edges:
        if e.u == e.v:
            continue
        u = net.source if e.u in tset else net.sink if e.u in members else e.u
        v = net.source if e.v in tset else net.sink if e.v in members else e.v
        if u == v:
            continue
        net.undirected(u, v, e.cap, key=e.eid)
    if net.max_flow(net.source, net.sink) < need:
        return net.cut_side()
    return _terminal_paths(gp, net, tset)[:need]


# --------------------------------------------------------------------------
# witness -> flow (Witness theorems, constructive)


def _concat_cancel(p1: list[int], p2: list[int]) -> list[int]:
    """Concatenate two edge paths, cancelling the shared double-back edges at
    the junction (a handoff through a degree-1 terminal's pendant)."""
    a, b = list(p1), list(p2)
    while a and b and a[-1] == b[0]:
        a.pop()
        b.pop(0)
    return a + b


def _mixing_demands(
    inst, masses: Mapping[int, Fraction]
) -> DemandSet:
    """Even-spread demands among boundary pendants holding the given masses:
    pair (e, e') exchanges 2 (M(e) + M(e')) / q, q the number of edges."""
    eids = sorted(masses)
    q = len(eids)
    term_of = {inst.pendant_of[t]: t for t in inst.terminals}
    pairs = {}
    for i, ei in enumerate(eids):
        for ej in eids[i + 1:]:
            d = 2 * (masses[ei] + masses[ej]) / q
            if d > 0:
                pairs[(term_of[ei], term_of[ej])] = d
    return DemandSet.from_map(pairs)


def _mix_inside(
    g: CapGraph, members: frozenset[int], masses: Mapping[int, Fraction]
) -> dict[int, Fraction]:
    """Route the even-spread demands inside the cluster; returns inner-edge
    loads (pendant handoff loads dropped)."""
    inst = subdivide_boundary(g, members)
    dem = _mixing_demands(inst, masses)
    if not dem:
        return {}
    res = min_congestion_routing(inst.graph, dem)
    if res.eta == INFEASIBLE:
        raise InputError("mixing demands are unroutable inside the witness set")
    pendants = set(inst.pendant_of.values())
    loads: dict[int, Fraction] = {}
    for ieid, f in res.flow.edge_flow.items():
        geid = inst.parent_edge[ieid]
        if geid not in pendants and f != 0:
            loads[geid] = loads.get(geid, Fraction(0)) + f
    return loads


@dataclass
class WitnessFlow:
    """A routing where every terminal pair exchanges `rate` each way, built
    from a witness; edge loads and congestion are exact."""

    edge_flow: dict[int, Fraction]
    eta: Fraction
    rate: Fraction  # per ordered terminal pair


def witness_to_flow(
    g: CapGraph,
    witness: Witness1 | Witness2,
    cmap: ContractionMap | None = None,
) -> WitnessFlow:
    if isinstance(witness, Witness1):
        return _witness1_flow(g, witness, cmap)
    return _witness2_flow(g, witness, cmap)


def _witness1_flow(g, w: Witness1, cmap) -> WitnessFlow:
    k = g.k
    r = w.r
    terms = list(g.terminals)
    rho = Fraction(1, k * r)  # per ordered pair, per family
    unit = 2 * (k - 1) * rho  # a terminal's in+out mass within one family
    load: dict[int, Fraction] = {}
    for fam in w.families:
        members = cmap.preimage(fam["members"]) if cmap else set(fam["members"])
        members = frozenset(members)
        end_edges = [
            cmap.edge_map[eid] if cmap else eid for eid in fam["end_edges"]
        ]
        t_j = sorted(t for t, _p in fam["paths"])
        # paths T_j -> E_j in g, congestion at most 3 (transfer of the
        # witness's edge-disjoint system into the un-contracted graph)
        p_j = _path_transfer(g, t_j, end_edges, 3)
        if p_j is None:
            raise InputError("witness path system does not transfer into the graph")
        p_j_by_term = {t: p for t, p in p_j}
        # paths T - T_j -> pendants of T_j, 1:1, congestion at most 3
        t_rest = [t for t in terms if t not in set(t_j)]
        partner_of: dict[int, int] = {}
        p_star_by_term: dict[int, list[int]] = {}
        if t_rest:
            pend = {next(iter(g.incident(t))).eid: t for t in t_j}
            p_star = _path_transfer(g, t_rest, sorted(pend), 3)
            if p_star is None:
                raise InputError("terminal-to-terminal transfer failed")
            for t, p in p_star:
                partner_of[t] = pend[p[-1]]
                p_star_by_term[t] = p
        # per-terminal routes onto E_j, with handoff cancellation
        masses: dict[int, Fraction] = {eid: Fraction(0) for eid in end_edges}
        routes: list[tuple[Fraction, list[int]]] = []
        for t in terms:
            if t in p_j_by_term:
                owner, route = t, p_j_by_term[t]
            else:
                owner = partner_of[t]
                route = _concat_cancel(p_star_by_term[t], p_j_by_term[owner])
            routes.append((unit, route))
            masses[p_j_by_term[owner][-1]] += unit / 2
        for eid, amt in _route_loads(routes).items():
            load[eid] = load.get(eid, Fraction(0)) + amt
        for eid, amt in _mix_inside(g, members, masses).items():
            load[eid] = load.get(eid, Fraction(0)) + amt
    return WitnessFlow(load, congestion(g, load), r * rho)


def _witness2_flow(g, w: Witness2, cmap) -> WitnessFlow:
    k = g.k
    r = w.r
    terms = list(g.terminals)
    rho = Fraction(1, k)  # per ordered pair, split across the r systems
    members = frozenset(cmap.preimage(w.members) if cmap else w.members)
    groups = [[cmap.edge_map[eid] if cmap else eid for eid in grp] for grp in w.edge_groups]
    tstar = sorted(w.term_star)
    # Q: everyone reaches a T* terminal (empty path for T* members), three
    # batches of size <= |T*| each routed 1:1 at congestion <= 3
    rest = [t for t in terms if t not in set(tstar)]
    q_of: dict[int, int] = {t: t for t in tstar}
    q_path: dict[int, list[int]] = {t: [] for t in tstar}
    pend = {next(iter(g.incident(t))).eid: t for t in tstar}
    for i in range(0, len(rest), len(tstar)):
        batch = rest[i : i + len(tstar)]
        res = _path_transfer(g, batch, sorted(pend), 3)
        if res is None:
            raise InputError("terminal batch does not reach the witness terminals")
        for t, p in res:
            q_of[t] = pend[p[-1]]
            q_path[t] = p
    # per-system transfers T* -> E_j at congestion <= 6 (witness congestion 2
    # tripled by un-contraction), carrying each terminal's 1/r mass share
    unit = 2 * (k - 1) * rho
    routes: list[tuple[Fraction, list[int]]] = []
    masses: dict[int, Fraction] = {eid: Fraction(0) for grp in groups for eid in grp}
    for j in range(r):
        p_j = _path_transfer(g, tstar, groups[j], 6)
        if p_j is None:
            raise InputError("witness edge-group transfer failed")
        p_j_by_term = {t: p for t, p in p_j}
        for t in terms:
            route = _concat_cancel(q_path[t], p_j_by_term[q_of[t]])
            routes.append((unit / r, route))
            masses[p_j_by_term[q_of[t]][-1]] += unit / (2 * r)
    load = _route_loads(routes)
    for eid, amt in _mix_inside(g, members, masses).items():
        load[eid] = load.get(eid, Fraction(0)) + amt
    return WitnessFlow(load, congestion(g, load), rho)


# --------------------------------------------------------------------------
# Contract(G', S) and the builders


@dataclass
class ContractionInfo:
    boundary: Fraction
    pieces: list[tuple[Fraction, int]]  # (k_Z, |Z|) per strong cluster
    f_ledger_lhs: Fraction  # sum of F(k_Z)
    f_ledger_rhs: Fraction  # 128 F(k'')
    vertices_before: int
    vertices_after: int


def contract_procedure(
    g: CapGraph,
    certs: list[RouterCertificate],
    gp: CapGraph,
    cmap: ContractionMap,
    s_members: frozenset[int],
    params: FlowParams,
) -> tuple[list[RouterCertificate], CapGraph, ContractionMap, ContractionInfo]:
    """Un-contract the routers inside the contractible set, strongly
    decompose the result, find the routers of every piece recursively, and
    re-contract.  The vertex count must strictly drop (Claim-level
    bookkeeping is recorded and asserted)."""
    k = gp.k
    r = params.r(k)
    kp = out_capacity(gp, s_members)
    if kp > (k + 1) // 2:
        raise InputError(f"contractible set has boundary {kp} > ceil(k/2)")
    s_orig = frozenset(cmap.preimage(s_members))
    dec = strong_decompose(g, s_orig, budget=params.enum_budget)
    by_super = dict(zip(cmap.supernode, cmap.clusters))
    dropped = {by_super[v] for v in s_members if v in by_super}
    kept = [c for c in certs if c.members not in dropped]
    found, size_ok = _cluster_routers([dec], params)
    if not size_ok:
        logger.info("recursive build missed its size bound")
    kept = sorted(kept + found, key=lambda c: min(c.members))
    pieces = [(zc.z, len(zc.members)) for zc in dec.clusters]
    lhs = sum((params.f_size(zc.z, r) for zc in dec.clusters), Fraction(0))
    gp2, cmap2 = contract(g, [c.members for c in kept])
    kpow = Fraction(1 << max(2, math.ceil(math.log2(max(1.0, float(kp))))))
    info = ContractionInfo(
        kp, pieces, lhs, 128 * params.f_size(kpow, r), gp.n, gp2.n
    )
    if gp2.n >= gp.n:
        raise AssertionError(
            f"contraction did not shrink the graph ({gp.n} -> {gp2.n})"
        )
    logger.info(
        "contract: boundary %s, %s pieces, ledger %s <= %s, vertices %s -> %s",
        kp, len(pieces), lhs, info.f_ledger_rhs, gp.n, gp2.n,
    )
    return kept, gp2, cmap2, info


def _cluster_routers(
    strong: Iterable[Decomposition], params: FlowParams
) -> tuple[list[RouterCertificate], bool]:
    """The router certificates of the clusters of G's strong decompositions
    on G's edge ids, found in the instance each cluster keeps, and whether
    every search met its size bound."""
    certs: list[RouterCertificate] = []
    size_ok = True
    for dec in strong:
        for zc in dec.clusters:
            found, ok = _well_linked_routers(zc.inst, params)
            certs += found
            size_ok = size_ok and ok
    return certs, size_ok


def _well_linked_routers(
    inst: SubdividedInstance, params: FlowParams
) -> tuple[list[RouterCertificate], bool]:
    """The routers to contract in a cluster's instance G_S, whose degree-1
    terminals leave the interior S, on the edge ids of the graph G_S was cut
    from; and whether contracting them meets the size bound F(k).  A strong
    decomposition certified S 1/3-well-linked on G_S, so both router checks
    solve only the exchange LP.  S is one router when it passes the check
    (always for k <= 4); otherwise a legal contracted graph of G_S is shrunk
    below F(k) via contractible sets, and a witness certifies S as a router
    and ends the loop."""
    g = inst.graph
    k = g.k
    k_eff = g.total_terminal_degree()  # equals k on true unit graphs
    if params.precheck_router or k_eff <= 4:
        cert = _router_certificate(inst)
        if cert is not None:
            logger.info("interior is a good router (eta %s); single contraction", cert.eta)
            return [cert], True
        if k_eff <= 4:
            # the premises promise a router here; record the violation honestly
            logger.info("k <= 4 interior failed the router check; returning uncontracted")
            return [], False
    certs: list[RouterCertificate] = []
    gp, cmap = contract(g, [])
    f_k = params.f_size(k_eff)
    unit_loop = all(e.cap == 1 for e in g.edges)
    while gp.n - k > f_k:
        if not unit_loop:
            logger.info("bucketed capacities: contraction loop unavailable")
            break
        try:
            outcome = find_contractible_or_witness(gp, params)
        except BudgetExceeded as exc:
            logger.info("search gave up: %s", exc)
            break
        if outcome.kind == "contractible":
            certs, gp, cmap, _info = contract_procedure(
                g, certs, gp, cmap, outcome.contractible.members, params
            )
            continue
        # witness: the interior must already be a router (the up-front check
        # makes this branch a cross-check).  With the pre-check on, that
        # check already failed here; otherwise certify it now.  Then stop
        wf = witness_to_flow(g, outcome.witness, cmap if cmap.clusters else None)
        logger.info("%s found; witness flow congestion %s", outcome.kind, wf.eta)
        if not params.precheck_router:
            cert = _router_certificate(inst)
            if cert is not None:
                return [cert], True
        logger.info("witness found but the interior fails the router check; stopping")
        break
    certs = [_translate_certificate(c, inst.parent_edge) for c in certs]
    return certs, gp.n - k <= f_k


def build_flow_sparsifier(
    g: CapGraph, eps: Fraction | int | str | None = None, params: FlowParams | None = None
) -> tuple[Sparsifier, bool]:
    """The flow sparsifier of G and whether it met the size bound F(k).
    Without eps, a unit multigraph whose terminals have degree 1 is searched
    as it is, and any other G takes eps = 1/2.  With eps the routers are
    searched on G's capacitated unit reduction.  The interior is strongly
    decomposed, every cluster searched on its own instance, and the routers
    contracted once."""
    params = params or FlowParams()
    if eps is None and not (g.is_unit and all(len(g.incident(t)) == 1 for t in g.terminals)):
        eps = Fraction(1, 2)
    if eps is None:
        gunit = g
    else:
        eps = Fraction(eps)
        gunit = capacitated_unit_reduction(g, eps)
        logger.info("capacitated reduction: scale %s", 2 * ETA_STAR / eps)
    certs, size_ok = _cluster_routers(interior_decompositions(gunit, params.enum_budget), params)
    certs.sort(key=lambda c: min(c.members))
    return assemble_flow_sparsifier(g, eps, certs), size_ok
