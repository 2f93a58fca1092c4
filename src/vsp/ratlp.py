"""Exact linear programming over the rationals.

A sparse two-phase primal simplex with Bland's rule: exact and cycle-free.
Intended for the small instances this package certifies (a few hundred
variables); `routing` hands larger routing LPs to HiGHS instead, on the
same tiled arrays, and re-verifies that solver's flow exactly.

Representation.  The objective `c` is a dense list, one entry per column.
Each constraint row comes in sparse, as `(column, coefficient)` pairs with
no column repeated (`routing._simplex_block` decodes them from the routing
LP's tiled CSR arrays); a column left out has coefficient 0.  Each tableau
row is a `{column: int}` map of its nonzero entries plus one positive int
denominator: the rational row is `ents / den`.  The right-hand side sits
in the same map, under the key `RHS`, so a zero right-hand side is simply
absent.  Rows are gcd-reduced after every update, and the initial rows and
both objective rows are scaled to integers by the lcm of their
denominators.  A pivot changes only the pivot row's denominator (it
becomes the pivot entry), and every other row with a nonzero f in the pivot
column becomes `row * p - f * prow` over `den * p`, where `prow / p` is the
new pivot row; the update touches only the nonzeros of the two rows, and an
entry that cancels is deleted.  The ratio test compares b_r / a_r across
rows by cross-multiplying, so the row denominators cancel.

Every sign test and ratio comparison is thus evaluated exactly on the same
rational tableau a dense `Fraction` tableau would hold: the entering column
is the smallest with a negative reduced cost, ratio ties go to the smallest
basic index, and an artificial left basic after phase 1 is driven out at
its row's smallest nonzero column.  So the pivot sequence, the returned
point and the objective are those of the textbook rational Bland simplex;
only the cost per pivot (the nonzeros, one gcd per row) differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

ZERO = Fraction(0)
RHS = -1  # the key of a row's right-hand side; columns are >= 0

SparseRow = Sequence[tuple[int, Fraction]]  # (column, coefficient) pairs


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction]
    objective: Fraction | None


class _Row:
    """One tableau row: the rational values `ents[j] / den` of its nonzero
    entries, with den > 0."""

    __slots__ = ("ents", "den")

    def __init__(self, ents: dict[int, int], den: int):
        g = math.gcd(*ents.values(), den)
        if g > 1:
            ents = {j: v // g for j, v in ents.items()}
            den //= g
        self.ents = ents
        self.den = den


def _integer_row(values: Mapping[int, object]) -> _Row:
    """Scale a row of rationals, keyed by column, to integers by the lcm of
    its denominators; zero entries are left out."""
    fracs = {
        j: v if isinstance(v, (int, Fraction)) else Fraction(v)
        for j, v in values.items() if v
    }
    den = math.lcm(*(f.denominator for f in fracs.values()))
    return _Row({j: f.numerator * (den // f.denominator) for j, f in fracs.items()}, den)


def _eliminate(row: _Row, col: int, prow: _Row) -> _Row:
    """row - row[col] * prow, for a pivot row whose entry in col is 1."""
    f = row.ents[col]
    p = prow.den
    ents = {j: a * p for j, a in row.ents.items()} if p != 1 else dict(row.ents)
    for j, b in prow.ents.items():
        v = ents.get(j, 0) - f * b
        if v:
            ents[j] = v
        else:
            del ents[j]
    return _Row(ents, row.den * p)


def _pivot(tab: list[_Row], basis: list[int], row: int, col: int) -> None:
    prow = tab[row]
    piv = prow.ents[col]
    if piv < 0:
        prow = _Row({j: -v for j, v in prow.ents.items()}, -piv)
    else:
        prow = _Row(prow.ents, piv)
    tab[row] = prow
    for r, trow in enumerate(tab):
        if r != row and col in trow.ents:
            tab[r] = _eliminate(trow, col, prow)
    basis[row] = col


def _run_simplex(tab: list[_Row], basis: list[int]) -> str:
    """Drive the objective row (last row) to optimality with Bland's rule."""
    obj = len(tab) - 1
    while True:
        col = min((j for j, v in tab[obj].ents.items() if v < 0 and j != RHS), default=-1)
        if col == -1:
            return "optimal"
        # minimum ratio b_r / a_r over a_r > 0, smallest basic index on ties
        row = -1
        best_b = best_a = 0
        for r in range(obj):
            ents = tab[r].ents
            a = ents.get(col, 0)
            if a > 0:
                b = ents.get(RHS, 0)
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
    a_ub: Sequence[SparseRow] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[SparseRow] = (),
    b_eq: Sequence[Fraction] = (),
) -> LpResult:
    """Minimize c.x subject to a_ub x <= b_ub, a_eq x == b_eq, x >= 0.

    c is dense, one entry per column; each constraint row is a sequence of
    `(column, coefficient)` pairs naming each column at most once, and a
    column it leaves out has coefficient 0."""
    n = len(c)
    ub = list(zip(a_ub, b_ub))
    nslack = len(ub)
    keep = n + nslack

    # columns: n structural, nslack slacks, then one artificial per row whose
    # slack does not survive the sign flip that makes its right-hand side >= 0
    tab: list[_Row] = []
    basis: list[int] = []
    nart = 0
    for i, (vals, b) in enumerate(ub + list(zip(a_eq, b_eq))):
        row = _integer_row({**dict(vals), RHS: b})
        ents, den = row.ents, row.den
        if i < nslack:
            ents[n + i] = den
        if ents.get(RHS, 0) < 0:
            ents = {j: -v for j, v in ents.items()}
        if i < nslack and ents[n + i] > 0:
            basis.append(n + i)
        else:
            basis.append(keep + nart)
            ents[keep + nart] = den
            nart += 1
        tab.append(_Row(ents, den))
    m = len(tab)

    if nart:
        # phase 1: minimize the sum of the artificials
        obj = _Row({j: 1 for j in range(keep, keep + nart)}, 1)
        for r in range(m):
            if basis[r] >= keep:
                obj = _eliminate(obj, basis[r], tab[r])
        tab.append(obj)
        status = _run_simplex(tab, basis)
        if status != "optimal" or RHS in tab[-1].ents:
            return LpResult("infeasible", [], None)
        tab.pop()
        # drive any artificial still basic out; an all-zero row is redundant
        redundant = []
        for r in range(m):
            if basis[r] >= keep:
                cols = [j for j in tab[r].ents if 0 <= j < keep]
                if cols:
                    _pivot(tab, basis, r, min(cols))
                else:
                    redundant.append(r)
        for r in reversed(redundant):
            del tab[r]
            del basis[r]
        m = len(tab)
        # drop the artificial columns
        for r, row in enumerate(tab):
            tab[r] = _Row({j: v for j, v in row.ents.items() if j < keep}, row.den)

    obj = _integer_row(dict(enumerate(c)))
    for r in range(m):
        if basis[r] < n and basis[r] in obj.ents:
            obj = _eliminate(obj, basis[r], tab[r])
    tab.append(obj)
    status = _run_simplex(tab, basis)
    if status == "unbounded":
        return LpResult("unbounded", [], None)
    x = [ZERO] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(tab[r].ents.get(RHS, 0), tab[r].den)
    objective = sum((ci * xi for ci, xi in zip(c, x)), ZERO)
    return LpResult("optimal", x, objective)
