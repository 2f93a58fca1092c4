"""Minimum-congestion multicommodity routing (concurrent flow).

A forest (loops aside) has exactly one routing: each demand on its tree
path, which the repair an LP's flow goes through (`_assemble`) finds by
itself when it is given no flow.  So a forest takes no LP, whatever
`exact` says; a sparsifier H whose terminals all hang off one Steiner
vertex is such a forest.  Any other graph takes the LP below.

Solver strategy: one edge-formulation LP goes unchanged to one of two
solvers, and the solve call is the only branch.  The LP's graph part (arcs,
vertex-arc incidence, capacities) is compiled once per graph (`_Skeleton`),
and `_Skeleton.tile` tiles it for each demand set into CSR arrays whose
coefficients are codes into two tables, one exact and one float.  HiGHS
reads the arrays with the float table, and its x is rounded to multiples of
2^-40, nonzero entries only.  The exact rational simplex (`ratlp.solve_lp`)
reads the same indptr and indices arrays, with data from the exact table:
one CSR representation (`_block`) serves both solvers, which differ only in
the table and the solve call.  The simplex scales each row to integers and
holds the LP as one numpy integer tableau (int64, widened to Python ints
only when an update could overflow).  `exact` picks the solver, by default
the simplex up to EXACT_LP_MAX_VARS columns and HiGHS above.  Either way x
is decoded into per-commodity arc flows, and one repair (`_assemble`) makes
that flow exactly feasible (paths with rational amounts, demands met
exactly) and reports as eta the exactly evaluated congestion of that flow,
so a float solve can only overstate eta, never understate a certificate.

SciPy is imported on the first float solve, never with this module:
`_highs_block` imports `scipy.sparse`, and SciPy's `linprog` is this
module's attribute `linprog`, bound on first use (`__getattr__`).  Cut mode
and small flow LPs load neither `scipy.sparse` nor `scipy.optimize` here.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import InputError
from .flow import FlowSolution
from .graph import CapGraph, SubdividedInstance, congestion
from .params import ETA_STAR
from .ratlp import solve_lp

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

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
    lp_eta: float | None = None  # raw LP optimum (diagnostic); float(eta) on a forest
    exact_lp: bool = False  # the flow is exact: the rational simplex's, or a forest's


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


def __getattr__(name: str):
    """`linprog`, SciPy's, imported and bound here on first use.  Tests and
    the benchmark's tracer rebind the attribute, and the float solve calls
    whatever it is bound to."""
    if name != "linprog":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global linprog
    from scipy.optimize import linprog
    return linprog


def _arc_ends(g: CapGraph, eid: int, d: int) -> tuple[int, int]:
    e = g.edges[eid]
    return (e.u, e.v) if d == 0 else (e.v, e.u)


class _Skeleton:
    """The part of g's routing LP that no demand set changes.

    Arc 2j + d is direction d of g's j-th non-loop edge, listed in `arcs` as
    (eid, d); d = 0 runs e.u -> e.v.  The vertex-arc incidence has one entry
    per (arc, end), sorted by end and then arc: `inc_row` is the end's
    position in g.vertices, `inc_arc` the arc, and `inc_code` 0 where the
    arc enters the end (coefficient +1) and 1 where it leaves (-1); `deg`
    counts the entries per position.  Code 2 + j stands for -cap of edge j.
    The codes index `exact` (an object array of ints and Fractions) and
    `floats` (their floats)."""

    __slots__ = ("arcs", "pos", "edge_row", "inc_row", "inc_arc", "inc_code", "deg",
                 "exact", "floats")

    def __init__(self, g: CapGraph):
        edges = [e for e in g.edges if e.u != e.v]
        self.arcs = [(e.eid, d) for e in edges for d in (0, 1)]
        self.pos = {v: p for p, v in enumerate(g.vertices)}
        self.edge_row = {e.eid: j for j, e in enumerate(edges)}
        ends = np.array([(self.pos[e.u], self.pos[e.v]) for e in edges], dtype=np.intp)
        ends = ends.reshape(len(edges), 2)
        # arc 2j leaves ends[j, 0] for ends[j, 1], and arc 2j + 1 goes back
        tails, heads = ends.ravel(), ends[:, ::-1].ravel()
        arc = np.arange(len(self.arcs))
        row, arc = np.concatenate((heads, tails)), np.concatenate((arc, arc))
        code = np.repeat(np.arange(2), len(self.arcs))
        order = np.lexsort((arc, row))
        self.inc_row, self.inc_arc, self.inc_code = row[order], arc[order], code[order]
        self.deg = np.bincount(row, minlength=len(self.pos))
        # integral capacities as ints (negating a Fraction costs a microsecond),
        # and num / den is float(cap), one correctly rounded division
        caps = [e.cap for e in edges]
        self.exact = np.array([1, -1] + [-c.numerator if c.denominator == 1 else -c for c in caps],
                              dtype=object)
        self.floats = np.array([1.0, -1.0] + [-(c.numerator / c.denominator) for c in caps])

    def tile(self, com: dict[int, dict[int, Fraction]], base: Mapping[int, Fraction]):
        """The routing LP of the commodities `com` over the fixed load
        `base`, as (number of columns, equalities, inequalities).  A block
        is (indptr, indices, codes, rhs): CSR arrays with coefficient codes,
        and the nonzero right-hand sides by row.

        Column ci * len(arcs) + ai is commodity ci's flow on arc ai, and the
        last column is the congestion eta.  Equalities, one per (commodity,
        vertex other than its source) in that order: inflow minus outflow at
        v equals the demand absorbed at v.  Inequalities, one per non-loop
        edge: the flow of every commodity on both arcs of e, minus
        cap_e * eta, is at most -base_e.  Entries of a row are in increasing
        column order."""
        n, nA, nC = len(self.pos), len(self.arcs), len(com)
        src = np.array([self.pos[s] for s in com], dtype=np.intp)[:, None]
        offset = np.arange(nC)[:, None] * nA
        # commodity ci's copy of the incidence, without its source's row
        keep = self.inc_row != src
        lengths = np.broadcast_to(self.deg, (nC, n))[np.arange(n) != src]
        eq_rhs = {}
        for ci, (s, sinks) in enumerate(com.items()):
            for v, amt in sinks.items():
                p = self.pos[v]
                eq_rhs[ci * (n - 1) + p - (p > self.pos[s])] = amt
        eq = (np.concatenate(([0], np.cumsum(lengths))), (self.inc_arc + offset)[keep],
              np.broadcast_to(self.inc_code, keep.shape)[keep], eq_rhs)
        # edge j's row: both arcs of j in every commodity, then eta
        m = nA // 2
        cols = np.hstack((2 * np.arange(m)[:, None] + (offset + np.arange(2)).ravel(),
                          np.full((m, 1), nC * nA)))
        codes = np.zeros(cols.shape, dtype=np.intp)
        codes[:, -1] = 2 + np.arange(m)
        ub_rhs = {self.edge_row[eid]: -v for eid, v in base.items() if v and eid in self.edge_row}
        ub = (np.arange(m + 1) * (2 * nC + 1), cols.ravel(), codes.ravel(), ub_rhs)
        return nC * nA + 1, eq, ub


def _skeleton(g: CapGraph) -> _Skeleton:
    """g's routing skeleton, compiled on the first call and kept on g."""
    if g._lp_skeleton is None:
        g._lp_skeleton = _Skeleton(g)
    return g._lp_skeleton


def _block(block, table: np.ndarray) -> tuple[tuple, np.ndarray]:
    """A tiled block read through `table` (the skeleton's `exact` or
    `floats`): the CSR triple (indptr, indices, data) and the dense
    right-hand-side vector, both of table's dtype."""
    ptr, indices, codes, rhs = block
    b = np.zeros(len(ptr) - 1, table.dtype)
    b[list(rhs)] = list(rhs.values())
    return (ptr, indices, table[codes]), b


def _highs_block(block, ncols: int, floats: np.ndarray) -> tuple[csr_matrix, np.ndarray]:
    """A tiled block as HiGHS's CSR matrix and right-hand-side vector."""
    from scipy.sparse import csr_matrix

    (ptr, indices, data), b = _block(block, floats)
    return csr_matrix((data, indices, ptr), shape=(len(b), ncols)), b


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
    minimized and in the reported eta.  exact picks the LP solver when an
    LP is needed; a forest needs none.  True picks the rational simplex,
    False HiGHS, None the simplex up to EXACT_LP_MAX_VARS columns and HiGHS
    above.
    """
    base = {eid: Fraction(v) for eid, v in (base_load or {}).items()}
    for t in demands.terminals:
        if not g.has_vertex(t):
            raise InputError(f"demand on unknown vertex {t}")
        if g.terminals and t not in g.terminals:
            raise InputError(f"demand on non-terminal vertex {t}")
    comps = g.components()
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    for (a, b), v in demands.pairs:
        if comp_of[a] != comp_of[b]:
            return RoutingResult(INFEASIBLE, None)
    com = _commodities(demands, split_pairs)
    if _is_forest(g, len(comps)):
        return _route_forest(g, com, base)
    sk = _skeleton(g)
    ncols, eq, ub = sk.tile(com, base)
    if exact is None:
        exact = ncols <= EXACT_LP_MAX_VARS
    if exact:
        (a_ub, b_ub), (a_eq, b_eq) = _block(ub, sk.exact), _block(eq, sk.exact)
        lp = solve_lp([0] * (ncols - 1) + [1], a_ub, b_ub, a_eq, b_eq)
        if lp.status != "optimal":
            return RoutingResult(INFEASIBLE, None)
        x = {j: v for j, v in enumerate(lp.x[:-1]) if v}
        lp_eta = float(lp.x[-1])
    else:
        c = np.zeros(ncols)
        c[-1] = 1
        a_ub, b_ub = _highs_block(ub, ncols, sk.floats)
        a_eq, b_eq = _highs_block(eq, ncols, sk.floats)
        highs = globals().get("linprog") or __getattr__("linprog")  # see __getattr__
        res = highs(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                    method="highs")
        if not res.success:
            return RoutingResult(INFEASIBLE, None)
        # dyadic quantization keeps downstream denominators small
        cols = np.flatnonzero(res.x[:-1] > 1e-13)
        x = {}
        for j, v in zip(cols.tolist(), (res.x[cols] * 2.0**40).tolist()):
            q = round(v)
            if q:
                x[j] = Fraction(q, 1 << 40)
        lp_eta = float(res.x[-1])
    flows: dict[int, dict[tuple[int, int], Fraction]] = defaultdict(dict)
    for j, v in x.items():
        ci, ai = divmod(j, len(sk.arcs))
        flows[ci][sk.arcs[ai]] = v
    return _assemble(g, com, flows, base, lp_eta, exact)


def _is_forest(g: CapGraph, ncomps: int) -> bool:
    """Whether g, with `ncomps` components, is a forest once its loops are
    dropped: a cycle or a parallel edge adds a non-loop edge beyond n - ncomps."""
    return sum(e.u != e.v for e in g.edges) == len(g.vertices) - ncomps


def _route_forest(g, com, base) -> RoutingResult:
    """The one routing of the commodities `com` on the forest g, the LP's
    optimum: given no flow, `_assemble` puts each demand on its BFS path,
    which in a forest is its tree path."""
    res = _assemble(g, com, {}, base, None, True)
    res.lp_eta = float(res.eta)
    return res


def _assemble(g, com, flows, base, lp_eta, exact_lp) -> RoutingResult:
    """Decompose per-commodity arc flows into paths, rescale so every demand
    is met exactly, and evaluate the resulting congestion exactly.  A demand
    its commodity's flow does not reach goes on its BFS path, which exists:
    `min_congestion_routing` answers a demand across components before."""
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
    sol = FlowSolution(dict(edge_flow), paths)
    return RoutingResult(congestion(g, edge_flow), sol, commodity_arcs, lp_eta, exact_lp)


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
        return True, RoutingResult(Fraction(0), FlowSolution({}), {}, None, True)
    dem, base = uniform_exchange_demands(inst)
    res = min_congestion_routing(inst.graph, dem, base_load=base, split_pairs=True)
    if res.eta == INFEASIBLE:
        return False, res
    ok = res.eta <= ETA_STAR
    if not ok and not res.exact_lp and res.lp_eta is not None and res.lp_eta < float(ETA_STAR):
        # repair overshot a feasible optimum; one retry on the exact path if
        # remotely affordable, else stay conservative
        nvars = len(_commodities(dem, True)) * len(_skeleton(inst.graph).arcs) + 1
        if nvars <= 4 * EXACT_LP_MAX_VARS:
            res = min_congestion_routing(
                inst.graph, dem, base_load=base, split_pairs=True, exact=True
            )
            ok = res.eta <= ETA_STAR
    return ok, res

