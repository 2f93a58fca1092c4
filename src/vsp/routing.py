"""Minimum-congestion multicommodity routing (concurrent flow).

Solver strategy: one edge-formulation LP, built once as sparse rows of
`(column, coefficient)` pairs (`_lp_rows`), goes unchanged to one of two
solvers, and the solve call is the only branch.  The exact rational simplex
(`ratlp.solve_lp`) reads the rows as they are; HiGHS reads them as CSR
arrays, and its x is rounded to multiples of 2^-40.  `exact` picks the
solver, by default the simplex up to EXACT_LP_MAX_VARS columns and HiGHS
above.  Either way x is decoded into per-commodity arc flows, and one repair
(`_assemble`) makes that flow exactly feasible (paths with rational
amounts, demands met exactly) and reports as eta the exactly evaluated
congestion of that flow, so a float solve can only overstate eta, never
understate a certificate.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import InputError
from .flow import FlowSolution
from .graph import CapGraph, SubdividedInstance, congestion
from .params import ETA_STAR
from .ratlp import solve_lp

INFEASIBLE = math.inf

EXACT_LP_MAX_VARS = 200


@dataclass(frozen=True)
class DemandSet:
    """Symmetric demands over marked terminals: D maps an unordered pair
    (smaller id first) to the total flow the pair must exchange."""

    pairs: tuple[tuple[tuple[int, int], Fraction], ...]

    @staticmethod
    def from_map(d: Mapping[tuple[int, int], Fraction | int]) -> "DemandSet":
        norm: dict[tuple[int, int], Fraction] = {}
        for (a, b), v in d.items():
            if a == b:
                raise InputError("demand between a terminal and itself")
            key = (a, b) if a < b else (b, a)
            norm[key] = norm.get(key, Fraction(0)) + Fraction(v)
        items = tuple(sorted((k, v) for k, v in norm.items() if v > 0))
        return DemandSet(items)

    def total_at(self, t: int) -> Fraction:
        return sum((v for (a, b), v in self.pairs if t in (a, b)), Fraction(0))

    @property
    def gamma(self) -> Fraction:
        """Smallest gamma such that the set is gamma-restricted."""
        best = Fraction(0)
        for t in {x for (a, b), _ in self.pairs for x in (a, b)}:
            best = max(best, self.total_at(t))
        return best

    @property
    def terminals(self) -> tuple[int, ...]:
        return tuple(sorted({x for (a, b), _ in self.pairs for x in (a, b)}))

    def __bool__(self) -> bool:
        return bool(self.pairs)


@dataclass
class RoutingResult:
    eta: Fraction | float  # exact congestion of `flow`; math.inf if unroutable
    flow: FlowSolution | None
    commodity_arcs: dict[int, dict[tuple[int, int], Fraction]] = field(default_factory=dict)
    lp_eta: float | None = None  # raw LP optimum (diagnostic)
    exact_lp: bool = False


def _commodities(dem: DemandSet, split_pairs: bool) -> dict[int, dict[int, Fraction]]:
    """Group demands by source.  With split_pairs each unordered pair (a,b)
    becomes two half-demands a->b and b->a (same optimum by symmetry), which
    yields the per-source fan-out flows cluster certificates need."""
    com: dict[int, dict[int, Fraction]] = defaultdict(dict)
    for (a, b), v in dem.pairs:
        if split_pairs:
            com[a][b] = com[a].get(b, Fraction(0)) + v / 2
            com[b][a] = com[b].get(a, Fraction(0)) + v / 2
        else:
            com[a][b] = com[a].get(b, Fraction(0)) + v
    return dict(sorted(com.items()))


def _arc_list(g: CapGraph) -> list[tuple[int, int]]:
    return [(e.eid, d) for e in g.edges if e.u != e.v for d in (0, 1)]


def _arc_ends(g: CapGraph, eid: int, d: int) -> tuple[int, int]:
    e = g.edges[eid]
    return (e.u, e.v) if d == 0 else (e.v, e.u)


def min_congestion_routing(
    g: CapGraph,
    demands: DemandSet,
    *,
    base_load: Mapping[int, Fraction] | None = None,
    split_pairs: bool = False,
    exact: bool | None = None,
) -> RoutingResult:
    """Route `demands` in g at minimum congestion.

    base_load contributes fixed flow already occupying edges (used for
    bucketed hairpin traffic); it is included in the congestion being
    minimized and in the reported eta.  exact picks the LP solver: True the
    rational simplex, False HiGHS, None the simplex up to EXACT_LP_MAX_VARS
    columns and HiGHS above.
    """
    base = {eid: Fraction(v) for eid, v in (base_load or {}).items()}
    for t in demands.terminals:
        if not g.has_vertex(t):
            raise InputError(f"demand on unknown vertex {t}")
        if g.terminals and t not in g.terminals:
            raise InputError(f"demand on non-terminal vertex {t}")
    comp_of: dict[int, int] = {}
    for ci, comp in enumerate(g.components()):
        for v in comp:
            comp_of[v] = ci
    for (a, b), v in demands.pairs:
        if comp_of[a] != comp_of[b]:
            return RoutingResult(INFEASIBLE, None)
    com = _commodities(demands, split_pairs)
    arcs = _arc_list(g)
    nA = len(arcs)
    nvars = len(com) * nA + 1
    if exact is None:
        exact = nvars <= EXACT_LP_MAX_VARS
    eq_rows, b_eq, ub_rows, b_ub = _lp_rows(g, com, arcs, base)
    c = [0] * (nvars - 1) + [1]
    if exact:
        lp = solve_lp(c, ub_rows, b_ub, eq_rows, b_eq)
        if lp.status != "optimal":
            return RoutingResult(INFEASIBLE, None)
        x, lp_eta = lp.x, float(lp.x[-1])
    else:
        res = linprog(np.array(c, dtype=float),
                      A_ub=_csr(ub_rows, nvars), b_ub=np.array([float(b) for b in b_ub]),
                      A_eq=_csr(eq_rows, nvars), b_eq=np.array([float(b) for b in b_eq]),
                      bounds=(0, None), method="highs")
        if not res.success:
            return RoutingResult(INFEASIBLE, None)
        # dyadic quantization keeps downstream denominators small
        x = [Fraction(round(v * (1 << 40)), 1 << 40) if v > 1e-13 else 0 for v in res.x.tolist()]
        lp_eta = float(res.x[-1])
    flows = {
        ci: {arcs[ai]: x[ci * nA + ai] for ai in range(nA) if x[ci * nA + ai] != 0}
        for ci in range(len(com))
    }
    return _assemble(g, com, flows, base, lp_eta, exact)


def _lp_rows(g, com, arcs, base):
    """The routing LP as sparse rows [(column, coefficient), ...] with their
    right-hand sides.  Column ci * len(arcs) + ai is commodity ci's flow on
    arc ai, and the last column is the congestion eta.

    Equalities, one per (commodity, vertex other than its source) in that
    order: inflow minus outflow at v equals the demand absorbed at v.
    Inequalities, one per non-loop edge: the flow of every commodity on both
    arcs of e, minus cap_e * eta, is at most -base_e.  Entries of a row are
    in increasing column order.
    """
    nA = len(arcs)
    eta_col = len(com) * nA
    incidence: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    edge_arcs: dict[int, list[int]] = defaultdict(list)
    for ai, (eid, d) in enumerate(arcs):
        u, w = _arc_ends(g, eid, d)
        incidence[u].append((ai, -1))
        incidence[w].append((ai, 1))
        edge_arcs[eid].append(ai)
    eq_rows, eq_rhs = [], []
    for ci, (src, sinks) in enumerate(com.items()):
        off = ci * nA
        for v in g.vertices:
            if v != src:
                eq_rows.append([(off + ai, s) for ai, s in incidence[v]])
                eq_rhs.append(sinks.get(v, Fraction(0)))
    ub_rows, ub_rhs = [], []
    for e in g.edges:
        if e.u != e.v:
            row = [(ci * nA + ai, 1) for ci in range(len(com)) for ai in edge_arcs[e.eid]]
            row.append((eta_col, -e.cap))
            ub_rows.append(row)
            ub_rhs.append(-base.get(e.eid, Fraction(0)))
    return eq_rows, eq_rhs, ub_rows, ub_rhs


def _csr(rows, ncols) -> sp.csr_matrix:
    """HiGHS's copy of sparse rows [(column, coefficient), ...]."""
    indptr = np.cumsum([0] + [len(r) for r in rows])
    cols = [j for r in rows for j, _ in r]
    vals = [float(v) for r in rows for _, v in r]
    return sp.csr_matrix((vals, cols, indptr), shape=(len(rows), ncols))


def _assemble(g, com, flows, base, lp_eta, exact_lp) -> RoutingResult:
    """Decompose per-commodity arc flows into paths, rescale so every demand
    is met exactly, and evaluate the resulting congestion exactly."""
    sources = list(com)
    paths: list[tuple[Fraction, tuple, list[int]]] = []
    commodity_arcs: dict[int, dict[tuple[int, int], Fraction]] = {}
    for ci, src in enumerate(sources):
        sinks = dict(com[src])
        total = sum(sinks.values(), Fraction(0))
        dust = Fraction(0) if exact_lp else total / 10**9
        raw = _peel_paths(g, src, sinks, flows.get(ci, {}), dust)
        by_sink: dict[int, list[int]] = defaultdict(list)
        for pi, (amt, dst, _p) in enumerate(raw):
            by_sink[dst].append(pi)
        fixed: list[tuple[Fraction, int, list[int]]] = []
        for dst, want in sinks.items():
            got = sum((raw[pi][0] for pi in by_sink.get(dst, [])), Fraction(0))
            if got == 0:
                path = _bfs_edge_path(g, src, dst)
                fixed.append((want, dst, path))
                continue
            scale = want / got
            for pi in by_sink[dst]:
                amt, _dst, p = raw[pi]
                fixed.append((amt * scale, dst, p))
        arcflow: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
        for amt, dst, p in fixed:
            if amt == 0:
                continue
            u = src
            for eid in p:
                e = g.edges[eid]
                v = e.other(u)
                arcflow[(eid, 0 if (u, v) == (e.u, e.v) else 1)] += amt
                u = v
            paths.append((amt, (src, dst), p))
        commodity_arcs[src] = dict(arcflow)
    edge_flow: dict[int, Fraction] = defaultdict(Fraction)
    for eid, v in base.items():
        edge_flow[eid] += v
    for arcs_ in commodity_arcs.values():
        for (eid, _d), v in arcs_.items():
            edge_flow[eid] += v
    eta = congestion(g, edge_flow)
    sol = FlowSolution(dict(edge_flow), paths, eta=eta)
    return RoutingResult(eta, sol, commodity_arcs, lp_eta, exact_lp)


_ABSORB = "absorb"


def _peel_paths(g, src, sinks, arcflow, dust) -> list[tuple[Fraction, int, list[int]]]:
    """Path decomposition of one commodity's arc flow.

    Every sink t gets a synthetic absorber arc carrying exactly its demand,
    so walks from the source only terminate at the absorber and flow passing
    *through* one sink toward another is attributed correctly.  Exact LP
    flows peel losslessly (dust == 0); float-derived flows skip sub-dust arcs
    and leave residual imbalance for the per-sink rescale in the caller.
    """
    flow: dict = {k: v for k, v in arcflow.items() if v > 0}
    for t, d in sinks.items():
        if d > 0:
            flow[(_ABSORB, t)] = d
    sink_node = ("sink",)

    def ends(a):
        if a[0] == _ABSORB:
            return a[1], sink_node
        return _arc_ends(g, *a)

    out_arcs: dict = defaultdict(list)
    for a in sorted(flow, key=str):
        out_arcs[ends(a)[0]].append(a)
    result = []
    guard = 4 * len(flow) + 4 * len(sinks) + 64
    while guard > 0:
        guard -= 1
        # walk from src along positive arcs, cancelling cycles as found
        path: list = []
        at: dict = {src: 0}
        u = src
        while u != sink_node:
            nxt = None
            for a in out_arcs[u]:
                if flow.get(a, Fraction(0)) > dust:
                    nxt = a
                    break
            if nxt is None:
                break
            path.append(nxt)
            u = ends(nxt)[1]
            if u in at:
                cyc = path[at[u]:]
                amt = min(flow[a] for a in cyc)
                for a in cyc:
                    flow[a] -= amt
                del path[at[u]:]
                at = {src: 0}
                w = src
                for i, a in enumerate(path):
                    w = ends(a)[1]
                    at[w] = i + 1
                u = w if path else src
                continue
            at[u] = len(path)
        if not path:
            break
        if u != sink_node:
            # dead end off the absorber: numerical dust, drop the walked amount
            amt = min(flow[a] for a in path)
            for a in path:
                flow[a] -= amt
            continue
        amt = min(flow[a] for a in path)
        if amt <= 0:
            break
        for a in path:
            flow[a] -= amt
        dst = path[-1][1]  # absorber arc names its sink
        result.append((amt, dst, [eid for eid, _d in path[:-1]]))
    return result


def _bfs_edge_path(g, src, dst) -> list[int]:
    prev: dict[int, tuple[int, int]] = {}
    seen = {src}
    dq = deque([src])
    while dq:
        u = dq.popleft()
        if u == dst:
            break
        for e in g.incident(u):
            v = e.other(u)
            if v not in seen:
                seen.add(v)
                prev[v] = (u, e.eid)
                dq.append(v)
    if dst not in prev and dst != src:
        raise InputError(f"no path {src} -> {dst}")
    path = []
    u = dst
    while u != src:
        pu, eid = prev[u]
        path.append(eid)
        u = pu
    return list(reversed(path))


def uniform_exchange_demands(inst: SubdividedInstance) -> tuple[DemandSet, dict[int, Fraction]]:
    """Demands for the good-router test: every pair of boundary edge units
    exchanges 1/z each way.  Bundled form: pendant bundles i != j exchange
    2 w_i w_j / z, and same-bundle pairs appear as a fixed hairpin load of
    2 w_i (w_i - 1) / z on their shared pendant edge."""
    terms = list(inst.terminals)
    z = inst.z
    pairs: dict[tuple[int, int], Fraction] = {}
    base: dict[int, Fraction] = {}
    for i, ti in enumerate(terms):
        wi = inst.weight(ti)
        hair = 2 * wi * (wi - 1) / z
        if hair > 0:
            base[inst.pendant_edge(ti).eid] = hair
        for tj in terms[i + 1:]:
            wj = inst.weight(tj)
            pairs[(ti, tj)] = 2 * wi * wj / z
    return DemandSet.from_map(pairs), base


def uniform_router_check(inst: SubdividedInstance) -> tuple[bool, RoutingResult]:
    """On the cluster's instance G_S: can every pair of boundary edges
    exchange 1/z flow each way inside the cluster with congestion at most
    eta*?  The returned flow lives on the instance's edges and is an
    exactly verifiable certificate when the answer is yes."""
    z = inst.z
    if z <= 1:
        return True, RoutingResult(Fraction(0), FlowSolution({}, eta=Fraction(0)), {}, None, True)
    dem, base = uniform_exchange_demands(inst)
    res = min_congestion_routing(inst.graph, dem, base_load=base, split_pairs=True)
    if res.eta == INFEASIBLE:
        return False, res
    ok = res.eta <= ETA_STAR
    if not ok and not res.exact_lp and res.lp_eta is not None and res.lp_eta < float(ETA_STAR):
        # repair overshot a feasible optimum; one retry on the exact path if
        # remotely affordable, else stay conservative
        nvars = len(_commodities(dem, True)) * len(_arc_list(inst.graph)) + 1
        if nvars <= 4 * EXACT_LP_MAX_VARS:
            res = min_congestion_routing(
                inst.graph, dem, base_load=base, split_pairs=True, exact=True
            )
            ok = res.eta <= ETA_STAR
    return ok, res

