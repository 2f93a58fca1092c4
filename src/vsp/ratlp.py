"""Exact linear programming over the rationals.

A dense two-phase primal simplex with Bland's rule: exact and cycle-free.
Intended for the small instances this package certifies (a few hundred
variables); larger routing LPs go through the float path in `routing` and
are re-verified exactly there.

Representation.  Each tableau row is a list of Python ints plus one
positive int denominator: the rational row is `ints / den`.  Rows are
gcd-reduced after every update, and the initial rows and both objective
rows are scaled to integers by the lcm of their denominators.  A pivot
changes only the pivot row's denominator (it becomes the pivot entry), and
every other row with a nonzero f in the pivot column becomes
`row * p - f * prow` over `den * p`, where `prow / p` is the new pivot row.
The ratio test compares b_r / a_r across rows by cross-multiplying, so the
row denominators cancel.

Every sign test and ratio comparison is thus evaluated exactly on the same
rational tableau a `Fraction` tableau would hold, so the pivot sequence,
the returned point and the objective are those of the textbook rational
Bland simplex; only the cost per entry (one gcd per row instead of one per
entry) differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction]
    objective: Fraction | None


class _Row:
    """One tableau row: the rational values `ints[j] / den`, with den > 0."""

    __slots__ = ("ints", "den")

    def __init__(self, ints: list[int], den: int):
        g = math.gcd(*ints, den)
        if g > 1:
            ints = [v // g for v in ints]
            den //= g
        self.ints = ints
        self.den = den


def _integer_row(values: Sequence) -> _Row:
    """Scale a row of rationals to integers by the lcm of its denominators."""
    fracs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return _Row([f.numerator * (den // f.denominator) for f in fracs], den)


def _eliminate(row: _Row, col: int, prow: _Row) -> _Row:
    """row - row[col] * prow, for a pivot row whose entry in col is 1."""
    f = row.ints[col]
    p = prow.den
    return _Row([a * p - f * b for a, b in zip(row.ints, prow.ints)], row.den * p)


def _pivot(tab: list[_Row], basis: list[int], row: int, col: int) -> None:
    prow = tab[row]
    piv = prow.ints[col]
    if piv < 0:
        prow = _Row([-v for v in prow.ints], -piv)
    else:
        prow = _Row(prow.ints, piv)
    tab[row] = prow
    for r, trow in enumerate(tab):
        if r != row and trow.ints[col] != 0:
            tab[r] = _eliminate(trow, col, prow)
    basis[row] = col


def _run_simplex(tab: list[_Row], basis: list[int], ncols: int) -> str:
    """Drive the objective row (last row) to optimality with Bland's rule."""
    obj = len(tab) - 1
    while True:
        objrow = tab[obj].ints
        col = -1
        for j in range(ncols):
            if objrow[j] < 0:
                col = j
                break
        if col == -1:
            return "optimal"
        # minimum ratio b_r / a_r over a_r > 0, smallest basic index on ties
        row = -1
        best_b = best_a = 0
        for r in range(obj):
            ints = tab[r].ints
            a = ints[col]
            if a > 0:
                b = ints[-1]
                if row == -1:
                    better = True
                else:
                    lhs, rhs = b * best_a, best_b * a
                    better = lhs < rhs or (lhs == rhs and basis[r] < basis[row])
                if better:
                    best_b, best_a, row = b, a, r
        if row == -1:
            return "unbounded"
        _pivot(tab, basis, row, col)


def solve_lp(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> LpResult:
    """Minimize c.x subject to a_ub x <= b_ub, a_eq x == b_eq, x >= 0."""
    n = len(c)
    ub = list(zip(a_ub, b_ub))
    nslack = len(ub)
    keep = n + nslack

    # columns: n structural, nslack slacks, then one artificial per row whose
    # slack does not survive the sign flip that makes its right-hand side >= 0
    rows: list[tuple[list[int], int, int]] = []  # (ints, rhs, den)
    basis: list[int] = []
    art_rows: list[int] = []
    for i, (vals, b) in enumerate(ub + list(zip(a_eq, b_eq))):
        row = _integer_row([*vals, b])
        ints, den = row.ints, row.den
        rhs = ints.pop()
        ints.extend([0] * nslack)
        if i < nslack:
            ints[n + i] = den
        if rhs < 0:
            ints = [-v for v in ints]
            rhs = -rhs
        if i < nslack and ints[n + i] > 0:
            basis.append(n + i)
        else:
            basis.append(keep + len(art_rows))
            art_rows.append(i)
        rows.append((ints, rhs, den))
    m = len(rows)
    total_cols = keep + len(art_rows)
    tab: list[_Row] = []
    for i, (ints, rhs, den) in enumerate(rows):
        ints.extend([0] * len(art_rows))
        if basis[i] >= keep:
            ints[basis[i]] = den
        ints.append(rhs)
        tab.append(_Row(ints, den))

    if art_rows:
        # phase 1: minimize the sum of the artificials
        obj = _Row([0] * keep + [1] * len(art_rows) + [0], 1)
        for r in art_rows:
            obj = _eliminate(obj, basis[r], tab[r])
        tab.append(obj)
        status = _run_simplex(tab, basis, total_cols)
        if status != "optimal" or tab[-1].ints[-1] != 0:
            return LpResult("infeasible", [], None)
        tab.pop()
        # drive any artificial still basic out; an all-zero row is redundant
        redundant = []
        for r in range(m):
            if basis[r] >= keep:
                ints = tab[r].ints
                for j in range(keep):
                    if ints[j] != 0:
                        _pivot(tab, basis, r, j)
                        break
                else:
                    redundant.append(r)
        for r in reversed(redundant):
            del tab[r]
            del basis[r]
        m = len(tab)
        # drop the artificial columns
        for r, row in enumerate(tab):
            tab[r] = _Row(row.ints[:keep] + row.ints[-1:], row.den)
        total_cols = keep

    obj = _integer_row(list(c) + [0] * (total_cols - n + 1))
    for r in range(m):
        if basis[r] < n and obj.ints[basis[r]] != 0:
            obj = _eliminate(obj, basis[r], tab[r])
    tab.append(obj)
    status = _run_simplex(tab, basis, total_cols)
    if status == "unbounded":
        return LpResult("unbounded", [], None)
    x = [ZERO] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(tab[r].ints[-1], tab[r].den)
    objective = sum((ci * xi for ci, xi in zip(c, x)), ZERO)
    return LpResult("optimal", x, objective)
