"""Shared helpers for the test suite: small graph builders and brute-force
oracles kept deliberately independent of the library's solvers."""

from __future__ import annotations

import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from vsp.decompose import strong_decompose
from vsp.errors import BudgetExceeded
from vsp.flowsparse import contract_procedure
from vsp.graph import CapGraph, out_capacity, subdivide_boundary
from vsp.sparsecut import DEFAULT_ENUM_BUDGET, sparsest_cut_exact


def triangle() -> CapGraph:
    return CapGraph([1, 2, 3], [(1, 2, 1), (2, 3, 1), (1, 3, 1)])


def path_graph(n: int, cap=1) -> CapGraph:
    return CapGraph(range(1, n + 1), [(i, i + 1, cap) for i in range(1, n)])


def random_unit_graph(rng: random.Random, n: int, m: int, k: int = 0) -> CapGraph:
    """Connected random multigraph with unit capacities and k terminals."""
    edges = []
    verts = list(range(1, n + 1))
    for i in range(2, n + 1):
        edges.append((rng.randint(1, i - 1), i, 1))
    while len(edges) < m:
        u, v = rng.sample(verts, 2)
        edges.append((u, v, 1))
    terms = rng.sample(verts, k) if k else []
    return CapGraph(verts, edges, terms)


def bench_workloads():
    """The benchmark's `workloads` module, imported from bench/."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return workloads


def flow_router_graph(seed: int) -> CapGraph:
    """The acceptance suite's flow-router recipe: a unit path on n = 7..10
    vertices plus n random chords, and k = 4..5 pendant terminals."""
    rng = random.Random(seed)
    n = rng.randint(7, 10)
    edges = [(i, i + 1, 1) for i in range(1, n)]
    for _ in range(n):
        u, v = rng.sample(range(1, n + 1), 2)
        edges.append((u, v, 1))
    k = rng.randint(4, 5)
    terms = []
    for i, h in enumerate(rng.sample(range(1, n + 1), k)):
        t = 500 + i
        terms.append(t)
        edges.append((h, t, 1))
    return CapGraph(list(range(1, n + 1)) + terms, edges, terms)


def brute_force_out(g: CapGraph, members) -> list[int]:
    ms = set(members)
    return [e.eid for e in g.edges if (e.u in ms) != (e.v in ms)]


def brute_force_min_cut(g: CapGraph, term_a, term_b) -> Fraction:
    """Minimum over all vertex bipartitions separating term_a from term_b of
    the crossing capacity.  Exponential; for n <= ~14 only."""
    return brute_force_min_cut_side(g, term_a, term_b)[0]


def brute_force_min_cut_side(g: CapGraph, term_a, term_b) -> tuple[Fraction, frozenset]:
    """brute_force_min_cut's value with the minimal term_a side of a minimum
    cut: the intersection of the term_a sides of all minimum cuts (itself a
    minimum cut)."""
    ta, tb = set(term_a), set(term_b)
    free = [v for v in g.vertices if v not in ta and v not in tb]
    best, side = None, None
    for bits in itertools.product((0, 1), repeat=len(free)):
        side_a = ta | {v for v, b in zip(free, bits) if b == 0}
        val = sum(
            (e.cap for e in g.edges if (e.u in side_a) != (e.v in side_a)),
            Fraction(0),
        )
        if best is None or val < best:
            best, side = val, side_a
        elif val == best:
            side = side & side_a
    return best, frozenset(side)


def brute_force_sparsest(g_s: CapGraph, weights=None) -> Fraction | None:
    """Sparsest cut of a subdivided instance by enumerating every vertex
    bipartition.  Terminal weight = weights[t], 1 per terminal vertex when
    no weights are given.  None when no bipartition splits the terminals."""
    terms = set(g_s.terminals)
    if weights is None:
        weights = dict.fromkeys(terms, 1)
    z = sum(weights[t] for t in terms)
    verts = list(g_s.vertices)
    best = None
    for bits in itertools.product((0, 1), repeat=len(verts) - 1):
        side_a = {verts[0]}
        for v, b in zip(verts[1:], bits):
            if b == 0:
                side_a.add(v)
        wa = sum(weights[t] for t in terms & side_a)
        wb = z - wa
        if wa == 0 or wb == 0:
            continue
        val = sum(
            (e.cap for e in g_s.edges if (e.u in side_a) != (e.v in side_a)),
            Fraction(0),
        )
        sp = val / min(wa, wb)
        if best is None or sp < best:
            best = sp
    return best


def brute_force_bundle_sweep(inst, stop_below=None):
    """sparsest_cut_exact's sweep re-derived by brute force: the bundle
    bipartitions in mask order (mask bit i puts terminals[i + 1] with
    terminals[0]), each priced by brute_force_min_cut_side, the best kept
    under the (sparsity, value, sorted side) order, stopping at the first
    split below stop_below.  Returns ((sparsity, value, side), minimal cut
    side), or None with fewer than two bundles."""
    terms = list(inst.terminals)
    weights = {t: inst.weight(t) for t in terms}
    best = None
    for mask in range((1 << (len(terms) - 1)) - 1):
        side1 = [terms[0]] + [t for i, t in enumerate(terms[1:]) if mask >> i & 1]
        side2 = [t for t in terms if t not in side1]
        value, side_a = brute_force_min_cut_side(inst.graph, side1, side2)
        wa = sum(weights[t] for t in side1)
        sparsity = value / min(wa, inst.z - wa)
        key = (sparsity, value, tuple(sorted(side1)))
        if best is None or key < best[0]:
            best = (key, side_a)
            if stop_below is not None and sparsity < stop_below:
                break
    return best


# --------------------------------------------------------------------------
# Fraction-tableau Bland simplex: the differential oracle for vsp.ratlp.
# Same algorithm, column layout, ratio-test tie-break and drive-out of
# artificials, with every entry a Fraction.


def _frac_pivot(tab, basis, row, col):
    piv = tab[row][col]
    inv = 1 / piv
    tab[row] = [v * inv for v in tab[row]]
    prow = tab[row]
    for r, trow in enumerate(tab):
        if r == row:
            continue
        factor = trow[col]
        if factor == 0:
            continue
        tab[r] = [a - factor * b for a, b in zip(trow, prow)]
    basis[row] = col


def _frac_run_simplex(tab, basis, ncols):
    obj = len(tab) - 1
    while True:
        col = -1
        for j in range(ncols):
            if tab[obj][j] < 0:
                col = j
                break
        if col == -1:
            return "optimal"
        row = -1
        best = None
        for r in range(len(tab) - 1):
            a = tab[r][col]
            if a > 0:
                ratio = tab[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[row]):
                    best = ratio
                    row = r
        if row == -1:
            return "unbounded"
        _frac_pivot(tab, basis, row, col)


def fraction_simplex(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """Minimize c.x s.t. a_ub x <= b_ub, a_eq x == b_eq, x >= 0 on a Fraction
    tableau.  Returns (status, x, objective) as vsp.ratlp.solve_lp does."""
    zero, one = Fraction(0), Fraction(1)
    n = len(c)
    rows, rhs, kinds = [], [], []
    for row, b in zip(a_ub, b_ub):
        rows.append([Fraction(v) for v in row])
        rhs.append(Fraction(b))
        kinds.append("ub")
    for row, b in zip(a_eq, b_eq):
        rows.append([Fraction(v) for v in row])
        rhs.append(Fraction(b))
        kinds.append("eq")
    m = len(rows)
    nslack = kinds.count("ub")
    slack_idx = {i: n + i for i, k in enumerate(kinds) if k == "ub"}
    tab, basis, art_cols = [], [], []
    next_col = n + nslack
    for i in range(m):
        row = rows[i] + [zero] * nslack
        if i in slack_idx:
            row[slack_idx[i]] = one
        b = rhs[i]
        if b < 0:
            row = [-v for v in row]
            b = -b
        if i in slack_idx and row[slack_idx[i]] == one:
            basis.append(slack_idx[i])
        else:
            art_cols.append(next_col)
            basis.append(next_col)
            next_col += 1
        tab.append(row + [b])
    total_cols = next_col
    for i, trow in enumerate(tab):
        need = total_cols - (len(trow) - 1)
        b = trow.pop()
        trow.extend([zero] * need)
        if basis[i] >= n + nslack:
            trow[basis[i]] = one
        trow.append(b)
    if art_cols:
        obj = [zero] * total_cols + [zero]
        for j in art_cols:
            obj[j] = one
        tab.append(obj)
        for r in range(m):
            if basis[r] in art_cols:
                tab[-1] = [a - b for a, b in zip(tab[-1], tab[r])]
        status = _frac_run_simplex(tab, basis, total_cols)
        if status != "optimal" or tab[-1][-1] != 0:
            return "infeasible", [], None
        tab.pop()
        redundant = []
        for r in range(m):
            if basis[r] in art_cols:
                for j in range(n + nslack):
                    if tab[r][j] != 0:
                        _frac_pivot(tab, basis, r, j)
                        break
                else:
                    redundant.append(r)
        for r in reversed(redundant):
            del tab[r]
            del basis[r]
        m = len(tab)
        keep = n + nslack
        for r in range(m):
            b = tab[r].pop()
            del tab[r][keep:]
            tab[r].append(b)
        total_cols = keep
    obj = [Fraction(v) for v in c] + [zero] * (total_cols - n) + [zero]
    tab.append(obj)
    for r in range(m):
        if basis[r] < n and tab[-1][basis[r]] != 0:
            factor = tab[-1][basis[r]]
            tab[-1] = [a - factor * b for a, b in zip(tab[-1], tab[r])]
    status = _frac_run_simplex(tab, basis, total_cols)
    if status == "unbounded":
        return "unbounded", [], None
    x = [zero] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tab[r][-1]
    return "optimal", x, sum((ci * xi for ci, xi in zip(c, x)), zero)


def reference_lp_rows(g, com, arcs, base):
    """The routing LP rows by direct scans of the arc list: for each
    (commodity, non-source vertex) every arc, and for each non-loop edge
    every column.  Returns (equality rows, their right-hand sides,
    inequality rows, theirs), each row a list of (column, coefficient)
    pairs with exact coefficients."""
    nC, nA = len(com), len(arcs)

    def ends(eid, d):
        e = g.edges[eid]
        return (e.u, e.v) if d == 0 else (e.v, e.u)

    eq_rows, eq_rhs = [], []
    for ci, (src, sinks) in enumerate(com.items()):
        for v in g.vertices:
            if v == src:
                continue
            coeff = {}
            for ai, (eid, d) in enumerate(arcs):
                u, w = ends(eid, d)
                if w == v:
                    coeff[ai] = coeff.get(ai, 0) + 1
                if u == v:
                    coeff[ai] = coeff.get(ai, 0) - 1
            eq_rows.append([(ci * nA + ai, s) for ai, s in coeff.items()])
            eq_rhs.append(sinks.get(v, Fraction(0)))
    ub_rows, ub_rhs = [], []
    for e in g.edges:
        if e.u == e.v:
            continue
        row = []
        for ci in range(nC):
            for ai, (eid, _d) in enumerate(arcs):
                if eid == e.eid:
                    row.append((ci * nA + ai, 1))
        row.append((nC * nA, -e.cap))
        ub_rows.append(row)
        ub_rhs.append(-base.get(e.eid, Fraction(0)))
    return eq_rows, eq_rhs, ub_rows, ub_rhs


def reference_csr(rows, ncols: int) -> sp.csr_matrix:
    """Sparse (column, coefficient) rows as a float CSR matrix, assembled
    from Python lists entry by entry: the reference for what HiGHS reads."""
    indptr = np.cumsum([0] + [len(r) for r in rows])
    cols = [j for r in rows for j, _ in r]
    vals = [float(v) for r in rows for _, v in r]
    return sp.csr_matrix((vals, cols, indptr), shape=(len(rows), ncols))


def rewire_to_terminal(lines: list[str]) -> None:
    """Sabotage the edge lines of a saved `.vsp` in place: every edge moves
    onto the first terminal (its other end kept), capacities unchanged."""
    t = next(l.split()[1] for l in lines if l.startswith("t "))
    for i, l in enumerate(lines):
        if l.startswith("e "):
            _e, u, v, cap = l.split()
            lines[i] = f"e {t} {u if v == t else v} {cap}"


def shift_map_line(lines: list[str]) -> None:
    """Sabotage a saved `.vsp` in place: the first `map` line names the
    next vertex id as its supernode."""
    i = next(i for i, l in enumerate(lines) if l.startswith("map "))
    toks = lines[i].split()
    toks[1] = str(int(toks[1]) + 1)
    lines[i] = " ".join(toks)


def edit_sidecar(prefix: str, edit) -> None:
    """Apply `edit` to the parsed JSON sidecar saved under `prefix` and write
    it back in save_sparsifier's layout (indent 1, sorted keys, trailing
    newline), so only the edited content differs."""
    path = f"{prefix}.cert.json"
    with open(path) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def derived_router_fields(g: CapGraph, members) -> dict:
    """The per-certificate fields that G and the cluster determine, in the
    sidecar encoding older files stored them in: members, boundary edge ids,
    boundary capacity z, the 1/3 well-linkedness claim and its source, and
    the hairpin load 2 w (w - 1) / z of every boundary edge with w > 1."""
    boundary = brute_force_out(g, members)
    caps = {e.eid: e.cap for e in g.edges}
    z = sum((caps[e] for e in boundary), Fraction(0))
    return {
        "members": sorted(members),
        "boundary": boundary,
        "z": str(z),
        "wl_alpha": "1/3" if z > 1 else None,
        "wl_source": "exact" if z > 1 else "trivial",
        "hairpin": {
            str(e): str(2 * caps[e] * (caps[e] - 1) / z) for e in boundary if caps[e] > 1
        },
    }


# --------------------------------------------------------------------------
# the contraction procedure, rechecked from its inputs and outputs


def checked_contraction(g: CapGraph, gp: CapGraph, cmap, cs, params):
    """contract_procedure on the contractible set `cs` of gp, a contraction
    of g by cmap, with every claim rechecked from scratch: the boundary
    out(cs) = k'' is at most ceil(k/2), cs has more than 128 F(k'')
    vertices, the contracted graph has fewer vertices than gp, and the
    strong pieces Z of cs's preimage in g keep the ledger
    sum F(k_Z) <= 128 F(k'') with k'' rounded up to a power of two, at
    least 4.  Returns the procedure's router certificates."""
    kp = out_capacity(gp, cs)
    assert kp <= (gp.k + 1) // 2
    assert len(cs) > 128 * params.f_size(kp)
    certs, gp2, _cmap2 = contract_procedure(g, [], gp, cmap, cs, params)
    assert gp2.n < gp.n
    r = params.r(gp.k)
    pieces = strong_decompose(g, cmap.preimage(cs), budget=params.enum_budget).clusters
    kpow = 4
    while kpow < kp:
        kpow *= 2
    assert sum(params.f_size(zc.z, r) for zc in pieces) <= 128 * params.f_size(kpow, r)
    return certs


# --------------------------------------------------------------------------
# a decomposition, rechecked from the graph


def recheck_decomposition(g: CapGraph, dec, members, budget: int = DEFAULT_ENUM_BUDGET):
    """Re-derive a decomposition of `members` from g: its clusters partition
    the set; each cluster is connected and keeps the instance of its own
    boundary in g, of capacity at most out(members); an exact sweep with no
    threshold finds no split of a cluster below its alpha; every split event
    is below the threshold.  Raises AssertionError naming the failed check.
    Returns the indices of the clusters whose sweep exceeds `budget`, which
    are not checked."""
    ms = frozenset(members)
    assert sorted(v for c in dec.clusters for v in c.members) == sorted(ms), "partition"
    z = out_capacity(g, ms)
    skipped = []
    for i, c in enumerate(dec.clusters):
        assert g.is_connected_subset(c.members), f"connected: cluster {i}"
        real = [(e.eid, e.cap) for e in g.edges if (e.u in c.members) != (e.v in c.members)]
        stored = [(c.inst.pendant_of[t], c.inst.weight(t)) for t in c.inst.terminals]
        assert stored == real and c.z <= z, f"boundary: cluster {i}"
        if c.alpha is None:
            continue
        try:
            res = sparsest_cut_exact(subdivide_boundary(g, c.members), budget=budget)
        except BudgetExceeded:
            skipped.append(i)
            continue
        assert res.trivially_well_linked or res.sparsity >= c.alpha, f"well-linked: cluster {i}"
    assert all(ev.sparsity < dec.threshold for ev in dec.events), "events"
    return skipped
