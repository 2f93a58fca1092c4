"""Sparsest cut on subdivided cluster instances, exact and heuristic, and the
well-linkedness predicate built on them.

The exact solver sweeps the terminal bipartitions as arrays: each chunk
of masks becomes a boolean side matrix (`TerminalCuts.chunks`), its cut
values come back from `TerminalCuts.values`, which picks how to price
them, its side weights from one matrix product, and the first split below
`stop_below` or the chunk's least sparsity is found by exact integer
cross-multiplication.  Fractions and tuples are built only for the tied
candidates.  A returned split is a sparsity and a vertex side of G_S.  The
side comes from a pure-Python min cut on the split
(`TerminalCuts.min_cut`), whose value must equal the sweep's; it is the
minimal source side of a minimum cut, the same whichever way the value was
found.  With `stop_below`, a sweep that finds no split below the threshold
returns its verdict alone, the least sparsity and no side: callers cut only
along a split below their threshold.  Such a verdict rests on the swept
values alone, since no split is re-solved in Python; the checker
(`verify.recheck_router_certificates`) therefore sweeps with no threshold,
so its verdicts rest on the least split's Python min cut as well.
Parallel boundary edges are bucketed into one bundle terminal per original
edge, so the enumeration is over bundles; splitting a bundle away from its
attachment never helps a cut of sparsity below 1, and cuts of sparsity
exactly 1 always exist (cut one pendant), so the bundle-level minimum
capped at 1 is the true optimum.  A single bundle is split only between
its own pendant units, each at sparsity exactly 1; no vertex side of G_S
does that, so the answer is sparsity 1 with no side.

With `stop_below` = alpha, integer capacities and a connected G_S, one
bridge search may give the verdict with no sweep (`_bridge_bound`).  Every
split then cuts at least 1.  A split of value 1 crosses a capacity-1
bridge and splits the terminals as that bridge does, and a split of value
at least 2 has sparsity at least 2 / floor(z/2).  When 2 / floor(z/2) >= alpha (z <= 13 at
alpha = 1/3) and no capacity-1 bridge leaves weights W, z - W with
alpha min(W, z - W) > 1, no split is below alpha.  So a verdict's sparsity
is a certified lower bound of at least `stop_below` on every split's
sparsity, and only a sweep's verdict is the exact least.  Every returned
split, and every answer without a threshold, comes from the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import BudgetExceeded
from .flow import TerminalCuts, bipartitions
from .graph import SubdividedInstance, out_capacity

DEFAULT_ENUM_BUDGET = 22


@dataclass(frozen=True)
class SparsestCut:
    """Result of a sparsest-cut computation on a subdivided instance.

    sparsity None means no bipartition splits the boundary terminals at all
    (zero or one boundary edge): the cluster is well-linked at every alpha.
    `cut` is the vertex side of G_S of a split of that sparsity.  It is None
    when G_S has no terminal split, for an exact verdict that no split is
    below the `stop_below` it was asked for, and for a single bundle, which
    only its own pendant units split, at sparsity 1.  A verdict's sparsity
    is a lower bound of at least `stop_below` on every split's sparsity: the
    least sparsity when a sweep gave it, a bridge bound otherwise.
    """

    sparsity: Fraction | None
    cut: frozenset[int] | None
    exact: bool

    @property
    def trivially_well_linked(self) -> bool:
        return self.sparsity is None


def _bundle_terms(inst: SubdividedInstance) -> list[tuple[int, Fraction]]:
    return [(t, inst.weight(t)) for t in inst.terminals]


def sparsest_cut_exact(
    inst: SubdividedInstance,
    budget: int = DEFAULT_ENUM_BUDGET,
    stop_below: Fraction | None = None,
) -> SparsestCut:
    """Globally minimum-sparsity cut by exhaustive bundle bipartitions.

    Ties break by (sparsity, cut value, lexicographic terminal side).  With
    stop_below set, returns early on the first cut below that threshold (the
    certificate is then valid but not necessarily optimal); when no cut is
    below it, the result is the verdict alone, a lower bound of at least
    stop_below on every split's sparsity with cut None.
    """
    terms = _bundle_terms(inst)
    z = inst.z
    if len(terms) == 0 or z <= 1:
        return SparsestCut(None, None, True)
    nb = len(terms)
    if nb > budget:
        raise BudgetExceeded(
            f"{nb} boundary bundles exceed the exact enumeration budget {budget}; "
            "use sparsest_cut_heuristic"
        )
    if nb >= 2:
        bound = None if stop_below is None else _bridge_bound(inst, terms, z, stop_below)
        if bound is not None:
            return SparsestCut(bound, None, True)
        return _sweep(inst, terms, budget, stop_below)
    # one bundle of z > 1 parallel pendants: only pendant units split it
    return SparsestCut(Fraction(1), None, True)


def _bridge_bound(
    inst: SubdividedInstance,
    terms: list[tuple[int, Fraction]],
    z: Fraction,
    alpha: Fraction,
) -> Fraction | None:
    """A lower bound of at least `alpha` on every split's sparsity, read off
    the bridges of G_S in one depth-first search, or None when this test
    cannot give one.

    It needs integer capacities and a connected G_S, so that every split
    cuts at least 1.  A split of value at least 2 has sparsity at least
    2 / floor(z/2).  A split of value 1 cuts one capacity-1 bridge, so its
    sides are the terminals on the two sides of that bridge, of weights W
    and z - W, and its sparsity is 1 / min(W, z - W).  The bound is the
    least of these and 1 (Tarjan, "A note on finding the bridges of a
    graph", IPL 1974)."""
    g = inst.graph
    zint = int(z)
    half = zint // 2
    if z.denominator != 1 or alpha * half > 2 or not g.is_unit:
        return None
    weight = {t: int(w) for t, w in terms}
    root = g.vertices[0]
    disc = {root: 0}  # discovery index
    low = {root: 0}  # least discovery index the subtree reaches by a back edge
    below = {root: weight.get(root, 0)}  # terminal weight of the subtree
    widest = 0  # the largest min(W, z - W) over capacity-1 bridges
    stack = [(root, None, iter(g.incident(root)))]
    while stack:
        v, parent_edge, edges = stack[-1]
        for e in edges:
            if e is parent_edge:
                continue
            w = e.v if e.u == v else e.u
            if w in disc:
                low[v] = min(low[v], disc[w])
                continue
            disc[w] = low[w] = len(disc)
            below[w] = weight.get(w, 0)
            stack.append((w, e, iter(g.incident(w))))
            break
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[v])
                below[p] += below[v]
                if low[v] > disc[p] and parent_edge.cap == 1:
                    widest = max(widest, min(below[v], zint - below[v]))
    if len(disc) < g.n:
        return None  # a disconnected G_S splits at value 0
    bound = min(Fraction(1), Fraction(2, half), Fraction(1, max(widest, 1)))
    return bound if bound >= alpha else None


def _sweep(
    inst: SubdividedInstance,
    terms: list[tuple[int, Fraction]],
    budget: int,
    stop_below: Fraction | None,
) -> SparsestCut:
    """The bundle sweep of `sparsest_cut_exact` on side matrices.  Cutting
    the pendants of a side costs its weight, so no split has sparsity above
    1 and the best one is the answer.

    A split's cut value v and smaller side weight w are integers over the
    sweep's two denominators, so its sparsity is v den_w / (den_v w) and
    two splits compare by v1 w2 against v2 w1.  These products go through
    Python ints whenever int64 could overflow.

    The returned split (the one below `stop_below`, or the least one) gets
    its side from a Python min cut, and a swept value that differs from it
    raises RuntimeError; a verdict that nothing is below `stop_below`
    solves nothing in Python."""
    ids = [t for t, _ in terms]
    order = sorted(ids)  # the side matrices' column order
    cuts = TerminalCuts(inst.graph, ids)
    # bundle weights as ints over one denominator
    den = lcm(*(w.denominator for _, w in terms))
    wint = {t: w.numerator * (den // w.denominator) for t, w in terms}
    zint = sum(wint.values())
    weights = np.array([wint[t] for t in order], dtype=np.int64 if zint < 1 << 63 else object)
    # v / w < stop_below exactly when v * below[0] < w * below[1]
    below = (0, 0) if stop_below is None else (
        den * stop_below.denominator, cuts.den * stop_below.numerator)
    masks, _ = bipartitions(ids, budget)  # exhaustive: nb <= budget
    best = None  # (sparsity, value, sorted side a, side a row)
    for side_a in cuts.chunks(ids, masks):
        v = cuts.values(side_a, ~side_a)
        wa = side_a @ weights
        w = np.minimum(wa, zint - wa)
        vmax = int(v.max())
        if v.dtype == object or max(vmax * zint, vmax * below[0], zint * below[1]) >> 63:
            v, w = v.astype(object), w.astype(object)
        if stop_below is not None and (hit := v * below[0] < w * below[1]).any():
            rows = [int(np.argmax(hit))]
        else:
            # the least sparsity: a float guess, then exact improvements
            c = int(np.argmin(v / w)) if v.dtype != object else 0
            while (better := v * w[c] < v[c] * w).any():
                c = int(np.argmax(better))
            rows = np.flatnonzero(v * w[c] == v[c] * w)
            rows = rows[v[rows] == v[rows].min()].tolist()
        for r in rows:
            value = Fraction(int(v[r]), cuts.den)
            key = (Fraction(int(v[r]) * den, cuts.den * int(w[r])), value,
                   tuple(t for t, on in zip(order, side_a[r]) if on))
            if best is None or key < best[:3]:
                best = (*key, side_a[r])
        if stop_below is not None and best[0] < stop_below:
            break
    sparsity, value, side1, row = best
    if stop_below is not None and sparsity >= stop_below:
        return SparsestCut(sparsity, None, True)
    side2 = tuple(t for t, on in zip(order, row) if not on)
    checked, side = cuts.min_cut(side1, side2)
    if checked != value:
        raise RuntimeError(f"min cut of {list(side1)}: sweep {value}, Python Dinic {checked}")
    # the minimal source side holds exactly the source terminals side1
    return SparsestCut(sparsity, side, True)


def _sweep_candidates(inst: SubdividedInstance) -> list[list[int]]:
    """Vertex orderings to sweep: Fiedler vectors of the plain and the
    degree-normalized Laplacian, plus an id ordering as a fallback."""
    g = inst.graph
    verts = list(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    if n <= 2:
        return [verts]
    a = np.zeros((n, n))
    for e in g.edges:
        if e.u == e.v:
            continue
        w = float(e.cap)
        a[idx[e.u], idx[e.v]] += w
        a[idx[e.v], idx[e.u]] += w
    deg = a.sum(axis=1)
    lap = np.diag(deg) - a
    orders = [verts]
    try:
        vals, vecs = np.linalg.eigh(lap)
        fiedler = vecs[:, np.argsort(vals)[1]]
        orders.append([v for _, v in sorted(zip(fiedler, verts), key=lambda p: (p[0], p[1]))])
    except np.linalg.LinAlgError:
        pass
    try:
        d = np.where(deg > 0, deg, 1.0)
        nlap = lap / np.sqrt(np.outer(d, d))
        vals, vecs = np.linalg.eigh(nlap)
        fiedler = vecs[:, np.argsort(vals)[1]]
        orders.append([v for _, v in sorted(zip(fiedler, verts), key=lambda p: (p[0], p[1]))])
    except np.linalg.LinAlgError:
        pass
    return orders


def _eval_side(inst: SubdividedInstance, side_a: set[int]) -> Fraction | None:
    wa = sum((inst.weight(t) for t in inst.terminals if t in side_a), Fraction(0))
    wb = inst.z - wa
    if wa == 0 or wb == 0:
        return None
    return out_capacity(inst.graph, side_a) / min(wa, wb)


def sparsest_cut_heuristic(inst: SubdividedInstance) -> SparsestCut:
    """Spectral sweep plus up to four rounds of greedy single-vertex moves.
    The returned cut's sparsity is evaluated exactly; optimality is not
    guaranteed."""
    terms = _bundle_terms(inst)
    z = inst.z
    if len(terms) == 0 or z <= 1:
        return SparsestCut(None, None, False)
    if len(terms) == 1:
        # one bundle of z >= 2 parallel pendants: the only nontrivial splits
        # separate pendant units, all of sparsity exactly 1
        return SparsestCut(Fraction(1), None, False)
    g = inst.graph
    best_side: set[int] | None = None
    best_sp: Fraction | None = None
    for order in _sweep_candidates(inst):
        side: set[int] = set()
        for v in order[:-1]:
            side.add(v)
            sp = _eval_side(inst, side)
            if sp is not None and (best_sp is None or sp < best_sp):
                best_sp, best_side = sp, set(side)
    if best_side is None:
        # fall back to isolating the first boundary terminal
        best_side = {terms[0][0]}
        best_sp = _eval_side(inst, best_side)
    # greedy local moves
    for _ in range(4):
        improved = False
        for v in g.vertices:
            trial = set(best_side)
            if v in trial:
                trial.discard(v)
            else:
                trial.add(v)
            if not trial or len(trial) == g.n:
                continue
            sp = _eval_side(inst, trial)
            if sp is not None and sp < best_sp:
                best_side, best_sp = trial, sp
                improved = True
        if not improved:
            break
    return SparsestCut(best_sp, frozenset(best_side), False)


def sparsest_cut(
    inst: SubdividedInstance, budget: int = DEFAULT_ENUM_BUDGET, **kw
) -> SparsestCut:
    """Exact within budget, heuristic beyond it."""
    try:
        return sparsest_cut_exact(inst, budget=budget, **kw)
    except BudgetExceeded:
        return sparsest_cut_heuristic(inst)


def is_well_linked(
    inst: SubdividedInstance,
    alpha: Fraction,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[bool, frozenset[int] | None]:
    """Exact test on the cluster's instance G_S: does every bipartition of S
    cut at least alpha times the smaller boundary side?  Returns the vertex
    side of a violating split of G_S on failure.  Raises BudgetExceeded when
    the exact enumeration is out of reach."""
    res = sparsest_cut_exact(inst, budget=budget, stop_below=alpha)
    if res.trivially_well_linked or res.sparsity >= alpha:
        return True, None
    return False, res.cut
