"""Sparsest cut on subdivided cluster instances, exact and heuristic, and the
well-linkedness predicate built on them.

The exact solver sweeps the terminal bipartitions as arrays: each chunk
of masks becomes a boolean side matrix (`TerminalCuts.chunks`), its cut
values come back from `TerminalCuts.values`, which picks how to price
them, its side weights from one matrix product, and the first split below
`stop_below` or the chunk's least sparsity is found by exact integer
cross-multiplication.  Fractions and tuples are built only for the tied
candidates.  The certificate of a returned split comes from a pure-Python
min cut on it (`TerminalCuts.min_cut`), whose value must equal the sweep's;
its side is the minimal source side of a minimum cut, the same whichever
way the value was found.  With `stop_below`, a sweep that finds no split
below the threshold returns its verdict alone, the least sparsity and no
cut: callers cut only along a split below their threshold.  Such a verdict
rests on the swept values alone, since no split is re-solved in Python;
the checkers (`verify.recheck_router_certificates`,
`decompose.certify_decomposition`) therefore sweep with no threshold, so
their verdicts rest on the least split's Python min cut as well.  Parallel
boundary edges are bucketed into one bundle terminal per original edge, so
the enumeration is over bundles; splitting a bundle away from its
attachment never helps a cut of sparsity below 1, and cuts of sparsity
exactly 1 always exist (cut one pendant), so the bundle-level minimum
capped at 1 is the true optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import BudgetExceeded
from .flow import CutCertificate, TerminalCuts, bipartitions
from .graph import SubdividedInstance, out_capacity

DEFAULT_ENUM_BUDGET = 22


@dataclass(frozen=True)
class SparsestCut:
    """Result of a sparsest-cut computation on a subdivided instance.

    sparsity None means no bipartition splits the boundary terminals at all
    (zero or one boundary edge): the cluster is well-linked at every alpha.
    A sparsity with cut None is an exact verdict that no split is below the
    `stop_below` it was asked for.
    """

    sparsity: Fraction | None
    cut: CutCertificate | None
    exact: bool
    pendant_split_edge: int | None = None  # set when the optimum splits a bundle

    @property
    def trivially_well_linked(self) -> bool:
        return self.sparsity is None


def _bundle_terms(inst: SubdividedInstance) -> list[tuple[int, Fraction]]:
    return [(t, inst.weight(t)) for t in inst.terminals]


def _certificate(inst, side_a: frozenset[int], value: Fraction) -> CutCertificate:
    g = inst.graph
    wa = sum((inst.weight(t) for t in inst.terminals if t in side_a), Fraction(0))
    wb = inst.z - wa
    sp = value / min(wa, wb) if wa > 0 and wb > 0 else None
    return CutCertificate(
        side_a,
        frozenset(g.vertices) - side_a,
        value,
        term_a=wa,
        term_b=wb,
        sparsity=sp,
    )


def sparsest_cut_exact(
    inst: SubdividedInstance,
    budget: int = DEFAULT_ENUM_BUDGET,
    stop_below: Fraction | None = None,
) -> SparsestCut:
    """Globally minimum-sparsity cut by exhaustive bundle bipartitions.

    Ties break by (sparsity, cut value, lexicographic terminal side).  With
    stop_below set, returns early on the first cut below that threshold (the
    certificate is then valid but not necessarily optimal); when no cut is
    below it, the result is the verdict alone, the least sparsity with cut
    None.
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
        return _sweep(inst, terms, budget, stop_below)
    # one bundle of z > 1 parallel pendants: only pendant units split it
    return _pendant_split(inst, exact=True)


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
    its cut from a Python min cut, and a swept value that differs from it
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
    best = None  # (sparsity, value, sorted side a, side a row, wa)
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
                best = (*key, side_a[r], int(wa[r]))
        if stop_below is not None and best[0] < stop_below:
            break
    sparsity, value, side1, row, wa = best
    if stop_below is not None and sparsity >= stop_below:
        return SparsestCut(sparsity, None, True)
    side2 = tuple(t for t, on in zip(order, row) if not on)
    checked, cut = cuts.min_cut(side1, side2)
    if checked != value:
        raise RuntimeError(f"min cut of {list(side1)}: sweep {value}, Python Dinic {checked}")
    cert = CutCertificate(
        cut.side_a, cut.side_b, value,
        term_a=Fraction(wa, den), term_b=Fraction(zint - wa, den),
        sparsity=sparsity,
    )
    return SparsestCut(sparsity, cert, True)


def _pendant_split(inst: SubdividedInstance, exact: bool) -> SparsestCut:
    """The sparsity-1 cut that separates one pendant unit of the first
    bundle from the rest."""
    t0 = inst.terminals[0]
    cert = CutCertificate(
        frozenset({t0}),
        frozenset(inst.graph.vertices) - {t0},
        Fraction(1),
        term_a=Fraction(1),
        term_b=inst.z - 1,
        sparsity=Fraction(1),
    )
    return SparsestCut(Fraction(1), cert, exact, pendant_split_edge=inst.pendant_of[t0])


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
        return _pendant_split(inst, exact=False)
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
    cert = _certificate(inst, frozenset(best_side), out_capacity(g, best_side))
    return SparsestCut(cert.sparsity, cert, False)


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
) -> tuple[bool, CutCertificate | None]:
    """Exact test on the cluster's instance G_S: does every bipartition of S
    cut at least alpha times the smaller boundary side?  Returns a violating
    cut (on the instance's vertices) on failure.  Raises BudgetExceeded when
    the exact enumeration is out of reach."""
    res = sparsest_cut_exact(inst, budget=budget, stop_below=alpha)
    if res.trivially_well_linked or res.sparsity >= alpha:
        return True, None
    return False, res.cut
