"""Exact linear programming over the rationals.

A two-phase primal simplex with Bland's rule: exact and cycle-free.
Intended for the small instances this package certifies (a few hundred
variables); `routing` hands larger routing LPs to HiGHS instead, on the
same tiled arrays, and re-verifies that solver's flow exactly.

Representation.  The objective `c` is a dense list, one entry per column,
and each constraint block a CSR triple (indptr, indices, data) of exact
values, no column twice in a row: `routing` passes the indptr and indices
that HiGHS reads.  The tableau is one 2-D numpy integer array: one row per
constraint and the objective row last, one column per variable and the
right-hand side last.  Each row holds its rational row times an implicit
positive scale (a constraint row's scale is its basic entry): one
segmented lcm over the rows' entries and right-hand sides scales each row
to integers, and one fancy assignment writes them all.  A pivot makes the
pivot entry p positive, and every other row with a nonzero f in the pivot
column becomes `row * p - f * prow` in one vectorised update; a new
objective row is priced out against all basic rows in one such update.
No decision reads a row's scale: the signs of the objective row and the
nonzero tests do not change with it, and the ratio test compares b_r / a_r
across rows by cross-multiplying, so the scales cancel.  So a row is
divided by the gcd of its entries only once an update leaves an entry of
it at or above 2^30, and the rows a price-out reads are divided before it.

The array is int64 while no product of an update can reach 2^62.  Entries
below 2^30 prove it (|a| * p + |f| * |prow| < 2^61), so a pivot takes one
maximum over the rows it updates.  Only when a row is at or above 2^30 do
the rows get divided by their gcd and the update's bound computed from
their maxima; if that may reach 2^62, the array is widened, once, to
dtype=object, whose entries are Python ints.  The arithmetic is exact
either way.  A divided row is primitive, so it is never larger than the
row that dividing after every update would hold, and the array widens only
where that would have widened too.

Every sign test and ratio comparison is thus evaluated exactly on the same
rational tableau a dense `Fraction` tableau would hold: the entering column
is the smallest with a negative reduced cost, ratio ties go to the smallest
basic index, and an artificial left basic after phase 1 is driven out at
its row's smallest nonzero column.  So the pivot sequence, the returned
point and the objective are those of the textbook rational Bland simplex;
only the cost per pivot differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

_LIMIT = 1 << 62  # int64 holds every entry and every update term below this
_BIG = math.isqrt(_LIMIT // 4)  # 2^30: entries below it keep |a| * p + |f| * |prow| < 2^61

Csr = tuple[Sequence[int], Sequence[int], Sequence[Fraction]]  # indptr, indices, data
_NO_ROWS: Csr = ((0,), (), ())


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction]
    objective: Fraction | None


def _fit(t: np.ndarray, bound: int) -> np.ndarray:
    """t, widened to Python ints if it is int64 and `bound` may not fit."""
    return t if bound < _LIMIT or t.dtype == object else t.astype(object)


def _pivot(t: np.ndarray, basis: list[int], row: int, col: int) -> np.ndarray:
    """Pivot on (row, col); returns the tableau, widened if the update needs it."""
    if t[row, col] < 0:
        t[row] *= -1
    nonzero = t[:, col].nonzero()[0]
    rows = nonzero[nonzero != row]
    if t.dtype != object and np.abs(t[nonzero]).max() >= _BIG:
        # a large entry: bound the update exactly, on rows divided by their gcd
        t[nonzero] = _reduced(t[nonzero])
        a, prow = np.abs(t[rows]), np.abs(t[row])
        t = _fit(t, int(a.max(initial=0)) * int(prow[col])
                 + int(a[:, col].max(initial=0)) * int(prow.max()))
    sub, prow = t[rows], t[row]
    sub = sub * prow[col] - sub[:, col, None] * prow
    big = np.abs(sub).max(axis=1) >= _BIG
    if big.any():
        sub[big] = _reduced(sub[big])
    t[rows] = sub
    basis[row] = col
    return t


def _reduced(rows: np.ndarray) -> np.ndarray:
    """Each row divided by the gcd of its entries (an all-zero row stays)."""
    rows //= np.maximum(np.gcd.reduce(rows, axis=1), 1)[:, None]
    return rows


def _price_out(t: np.ndarray, basis: list[int]) -> np.ndarray:
    """Eliminate the basic columns from the objective row (the last row) in
    one update, on basic rows divided by their gcd first; returns the
    tableau, widened if the update needs it.  With
    p_r the basic entry of row r, f_r the objective's entry in its column
    and L the lcm of the p_r, the objective becomes
    `L * obj - sum_r f_r * (L / p_r) * row_r`."""
    rows = t[-1, basis].nonzero()[0]
    if not len(rows):
        return t
    cols = [basis[r] for r in rows]
    t[rows] = _reduced(t[rows])
    p = t[rows, cols].tolist()
    lcm = math.lcm(*p)
    w = [f * (lcm // q) for f, q in zip(t[-1, cols].tolist(), p)]
    row_max = np.abs(t[rows]).max(axis=1).tolist()
    t = _fit(t, lcm * int(np.abs(t[-1]).max()) + sum(abs(a) * b for a, b in zip(w, row_max)))
    t[-1:] = _reduced(lcm * t[-1:] - np.array(w, t.dtype) @ t[rows])
    return t


def _run_simplex(t: np.ndarray, basis: list[int]) -> tuple[str, np.ndarray]:
    """Price the basic columns out of the objective row (the last row), then
    drive it to optimality with Bland's rule.  Returns the status and the
    tableau, which a pivot may have widened."""
    t = _price_out(t, basis)
    while True:
        neg = t[-1, :-1] < 0
        col = int(neg.argmax())
        if not neg[col]:
            return "optimal", t
        rows = (t[:-1, col] > 0).nonzero()[0].tolist()
        if not rows:
            return "unbounded", t
        # minimum ratio b_r / a_r over a_r > 0, smallest basic index on ties
        a, b = t[rows, col].tolist(), t[rows, -1].tolist()
        best = 0
        for i in range(1, len(rows)):
            lhs, rhs = b[i] * a[best], b[best] * a[i]
            if lhs < rhs or (lhs == rhs and basis[rows[i]] < basis[rows[best]]):
                best = i
        t = _pivot(t, basis, rows[best], col)


def solve_lp(
    c: Sequence[Fraction],
    a_ub: Csr = _NO_ROWS,
    b_ub: Sequence[Fraction] = (),
    a_eq: Csr = _NO_ROWS,
    b_eq: Sequence[Fraction] = (),
) -> LpResult:
    """Minimize c.x subject to a_ub x <= b_ub, a_eq x == b_eq, x >= 0.

    c is dense, one entry per column.  Each constraint block is a CSR triple
    (indptr, indices, data): row i has the exact coefficients
    data[indptr[i]:indptr[i + 1]] in the columns indices[indptr[i]:indptr[i + 1]],
    no column twice, and a column it leaves out has coefficient 0."""
    n, nslack, m = len(c), len(b_ub), len(b_ub) + len(b_eq)
    keep = n + nslack
    # one CSR array over the tableau's rows: the inequalities, the equalities
    # and the objective c, each row led by its right-hand side (the
    # objective's is 0) in the last column, index -1
    blocks = (a_ub, a_eq, ((0, n), range(n), c))
    lengths = np.concatenate([np.diff(ptr) for ptr, _, _ in blocks])
    at = np.cumsum(lengths) - lengths
    cols = np.insert(np.concatenate([np.asarray(j, np.intp) for _, j, _ in blocks]), at, -1)
    vals = np.insert(np.array([v for _, _, data in blocks for v in data], object), at,
                     np.array([*b_ub, *b_eq, 0], object))
    start = at + np.arange(m + 1)  # each row's right-hand side, then its entries
    row = np.repeat(np.arange(m + 1), lengths + 1)
    # each row times the lcm of its denominators, in int64 unless a product
    # may reach 2^62 (a row's lcm divides the lcm of all the denominators)
    num, den = [v.numerator for v in vals], [v.denominator for v in vals]
    dtype = np.int64 if max(map(abs, num)) * math.lcm(*set(den)) < _LIMIT else object
    num, den = np.array(num, dtype), np.array(den, dtype)
    scale = np.lcm.reduceat(den, start)
    ints = num * (scale[row] // den)
    last = start[m]  # the objective row, after the constraints
    obj, scale = ints[last + 1:], scale[:m]
    row, cols, ints = row[:last], cols[:last], ints[:last]

    # columns: n structural, nslack slacks, then one artificial per row whose
    # slack does not survive the sign flip that makes its right-hand side >= 0,
    # then the right-hand side; a slack or an artificial is its row's scale
    neg = ints[start[:m]] < 0
    art = np.flatnonzero(neg | (np.arange(m) >= nslack))
    basis = np.arange(n, n + m)
    basis[art] = keep + np.arange(len(art))
    width = keep + len(art)
    t = _fit(np.zeros((m + 1, width + 1), np.int64),
             int(max(np.abs(ints).max(initial=0), scale.max(initial=0))))
    t[row, cols] = ints
    t[np.arange(nslack), n + np.arange(nslack)] = scale[:nslack]
    t[:m][neg] *= -1
    t[art, basis[art]] = scale[art]
    basis = basis.tolist()

    if width > keep:
        # phase 1: minimize the sum of the artificials
        t[-1, keep:width] = 1
        status, t = _run_simplex(t, basis)
        if status != "optimal" or t[-1, -1]:
            return LpResult("infeasible", [], None)
        t[-1] = 0  # spent; the drive-out leaves it be, phase 2 refills it
        # drive any artificial still basic out; an all-zero row is redundant
        redundant = []
        for r in range(m):
            if basis[r] >= keep:
                nonzero = t[r, :keep].nonzero()[0]
                if len(nonzero):
                    t = _pivot(t, basis, r, int(nonzero[0]))
                else:
                    redundant.append(r)
        # delete the redundant rows and the artificial columns
        t = np.delete(np.delete(t, redundant, axis=0), np.s_[keep:width], axis=1)
        basis = [j for r, j in enumerate(basis) if r not in redundant]

    t = _fit(t, int(np.abs(obj).max(initial=0)))
    t[-1, :n] = obj
    status, t = _run_simplex(t, basis)
    if status == "unbounded":
        return LpResult("unbounded", [], None)
    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(int(t[r, -1]), int(t[r, j]))
    objective = sum((c[j] * x[j] for j in basis if j < n), Fraction(0))
    return LpResult("optimal", x, objective)
