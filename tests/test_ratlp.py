import contextlib
import io
import random
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

import vsp.ratlp as ratlp
import vsp.routing as routing
from vsp.cli import main
from vsp.graph import subdivide_boundary, write_graph
from vsp.gen import gen_capacitated
from vsp.ratlp import solve_lp

from util import bench_workloads, flow_router_graph, fraction_simplex

F = Fraction


def csr(rows):
    """Dense rows as the CSR triple (indptr, indices, data) solve_lp reads,
    zero coefficients dropped: a row of zeros has no entries."""
    entries = [[(j, v) for j, v in enumerate(row) if v] for row in rows]
    indptr = np.cumsum([0] + [len(r) for r in entries])
    return indptr, [j for r in entries for j, _ in r], [v for r in entries for _, v in r]


def dense(block, n):
    """A CSR triple as dense rows of n entries."""
    indptr, indices, data = block
    out = []
    for i, k in zip(indptr, indptr[1:]):
        vals = [F(0)] * n
        for j, v in zip(indices[i:k], data[i:k]):
            vals[j] = v
        out.append(vals)
    return out


def test_tiny_known_optimum():
    # min -x - y  s.t.  x + y <= 4, x <= 3, y <= 2
    res = solve_lp(
        c=[F(-1), F(-1)],
        a_ub=csr([[F(1), F(1)], [F(1), F(0)], [F(0), F(1)]]),
        b_ub=[F(4), F(3), F(2)],
    )
    assert res.status == "optimal"
    assert res.objective == -4


def test_equality_constraints():
    # min x + 2y  s.t.  x + y == 3, x - y <= 1
    res = solve_lp(
        c=[F(1), F(2)],
        a_ub=csr([[F(1), F(-1)]]),
        b_ub=[F(1)],
        a_eq=csr([[F(1), F(1)]]),
        b_eq=[F(3)],
    )
    assert res.status == "optimal"
    assert res.objective == F(4)  # x=2, y=1


def test_infeasible():
    res = solve_lp(c=[F(1)], a_eq=csr([[F(1)]]), b_eq=[F(-2)])
    assert res.status == "infeasible"


def test_unbounded():
    res = solve_lp(c=[F(-1)], a_ub=csr([[F(-1)]]), b_ub=[F(0)])
    assert res.status == "unbounded"


def test_redundant_equalities():
    res = solve_lp(
        c=[F(1), F(1)],
        a_eq=csr([[F(1), F(1)], [F(2), F(2)]]),
        b_eq=[F(2), F(4)],
    )
    assert res.status == "optimal"
    assert res.objective == F(2)


def test_degenerate_cycling_guard():
    # classic Beale-style degeneracy; Bland's rule must terminate
    res = solve_lp(
        c=[F(-3, 4), F(150), F(-1, 50), F(6)],
        a_ub=csr([
            [F(1, 4), F(-60), F(-1, 25), F(9)],
            [F(1, 2), F(-90), F(-1, 50), F(3)],
            [F(0), F(0), F(1), F(0)],
        ]),
        b_ub=[F(0), F(0), F(1)],
    )
    assert res.status == "optimal"
    assert res.objective == F(-1, 20)


def test_matches_scipy_on_random_instances():
    rng = random.Random(99)
    for _ in range(25):
        n, mu, me = rng.randint(2, 6), rng.randint(1, 4), rng.randint(0, 2)
        c = [F(rng.randint(-5, 5)) for _ in range(n)]
        a_ub = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(mu)]
        b_ub = [F(rng.randint(0, 8)) for _ in range(mu)]
        a_eq = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(me)]
        # make equalities feasible by construction at a random point
        x0 = [F(rng.randint(0, 3)) for _ in range(n)]
        b_eq = [sum(r[j] * x0[j] for j in range(n)) for r in a_eq]
        b_ub = [max(b, sum(r[j] * x0[j] for j in range(n))) for r, b in zip(a_ub, b_ub)]
        res = solve_lp(c, csr(a_ub), b_ub, csr(a_eq), b_eq)
        ref = linprog(
            np.array([float(v) for v in c]),
            A_ub=np.array([[float(v) for v in r] for r in a_ub]),
            b_ub=np.array([float(v) for v in b_ub]),
            A_eq=np.array([[float(v) for v in r] for r in a_eq]) if me else None,
            b_eq=np.array([float(v) for v in b_eq]) if me else None,
            bounds=(0, None),
            method="highs",
        )
        if res.status == "optimal":
            assert ref.status == 0
            assert abs(float(res.objective) - ref.fun) < 1e-7
            # exact feasibility of the returned point
            for r, b in zip(a_ub, b_ub):
                assert sum(ri * xi for ri, xi in zip(r, res.x)) <= b
            for r, b in zip(a_eq, b_eq):
                assert sum(ri * xi for ri, xi in zip(r, res.x)) == b
        elif res.status == "unbounded":
            assert ref.status == 3
        else:
            assert ref.status == 2


# --------------------------------------------------------------------------
# differential tests against the Fraction-tableau oracle in tests/util.py:
# the integer numpy tableau (int64, or Python ints once an update might
# overflow) must take the same pivots, so status, point and objective are
# identical, not merely equally optimal


def _same_as_oracle(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    res = solve_lp(c, csr(a_ub), b_ub, csr(a_eq), b_eq)
    assert (res.status, res.x, res.objective) == fraction_simplex(c, a_ub, b_ub, a_eq, b_eq)
    return res


_coef = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 4, 7]))


@st.composite
def _lps(draw, coef=_coef):
    n = draw(st.integers(1, 6))
    mu = draw(st.integers(0, 4))
    me = draw(st.integers(0, 3))
    row = st.lists(coef, min_size=n, max_size=n)
    c = draw(row)
    a_ub = draw(st.lists(row, min_size=mu, max_size=mu))
    b_ub = draw(st.lists(coef, min_size=mu, max_size=mu))
    a_eq = draw(st.lists(row, min_size=me, max_size=me))
    b_eq = draw(st.lists(coef, min_size=me, max_size=me))
    if me and draw(st.booleans()):
        # a redundant equality: a rational multiple of the first one
        k = draw(coef.filter(bool))
        a_eq.append([k * v for v in a_eq[0]])
        b_eq.append(k * b_eq[0])
    return c, a_ub, b_ub, a_eq, b_eq


@settings(max_examples=400, deadline=None)
@given(_lps())
@example((  # Beale-style degeneracy
    [F(-3, 4), F(150), F(-1, 50), F(6)],
    [[F(1, 4), F(-60), F(-1, 25), F(9)], [F(1, 2), F(-90), F(-1, 50), F(3)], [F(0), F(0), F(1), F(0)]],
    [F(0), F(0), F(1)], [], [],
))
@example(([F(1)], [], [], [[F(1)]], [F(-2)]))  # infeasible
@example(([F(-1)], [[F(-1)]], [F(0)], [], []))  # unbounded
@example(([F(1), F(1)], [], [], [[F(1), F(1)], [F(2), F(2)]], [F(2), F(4)]))  # redundant
@example((  # fractional coefficients, a negative right-hand side
    [F(1, 3), F(-2)], [[F(-1), F(1, 2)]], [F(-5, 2)], [[F(1, 2), F(1)]], [F(7, 3)],
))
@example((  # a ratio tie whose break decides which optimal vertex is returned
    [F(-1), F(1), F(1), F(0), F(-1)],
    [[F(0), F(1), F(-2), F(-1), F(3)], [F(0), F(2), F(-2), F(-2), F(2)], [F(1), F(0), F(0), F(3), F(-2)]],
    [F(2), F(1), F(1)],
    [[F(2), F(0), F(0), F(-1, 2), F(2)], [F(3), F(1), F(-1), F(2), F(-2)]],
    [F(2), F(0)],
))
@example((  # the column chosen to drive an artificial out decides the vertex
    [F(-1), F(-1), F(-1)],
    [[F(1), F(1, 2), F(1)], [F(0), F(-1), F(-2)]],
    [F(1), F(2)],
    [[F(-1), F(2), F(-1)], [F(1), F(-2), F(1)]],
    [F(0), F(0)],
))
def test_identical_to_fraction_oracle(lp):
    _same_as_oracle(*lp)


# numerators and denominators up to 2^70: the tableau starts as int64 when
# its entries are small and as Python ints when one reaches 2^62, and it is
# widened in the middle of a solve once an update might overflow int64
_huge = st.builds(Fraction, st.integers(-2**70, 2**70), st.integers(1, 2**70))
_K = 2**30


# rows are divided by their gcd only once an entry reaches 2^30; a row that
# stays at or above it after the division makes the pivot bound its update
# exactly before it decides to widen
_CROSSES = ([F(-3), F(0)], [[F(475), F(-1298, 3)], [F(-11), F(1248, 7)]], [F(1999), F(1168)],
            [], [])
_STAYS_LARGE = ([F(-2), F(1)],
                [[F(-35317), F(16448, 7)], [F(8908), F(31326, 7)], [F(8602), F(-35292)]],
                [F(23856), F(30467), F(20870)], [], [])


@settings(max_examples=150, deadline=None)
@given(_lps(st.one_of(_coef, _huge)))
@example(_CROSSES)  # an update takes a row to 2^37: divided, and int64 throughout
@example(_STAYS_LARGE)  # a row stays at 2^60 after its division: the exact bound keeps int64
@example((  # int64 for the first pivot, widened for the second
    [F(-1), F(-1), F(-1)],
    [[F(_K + 1), F(3), F(_K - 5)], [F(7), F(_K + 3), F(11)], [F(_K - 9), F(13), F(_K + 7)]],
    [F(_K), F(_K), F(_K)], [], [],
))
@example((  # Python ints from the start, three pivots from phase 1 on
    [F(2**70 - 1, 3), F(-5)],
    [[F(-1), F(-(2**69), 7**20)], [F(0), F(1)]],
    [F(-(2**70), 2**70 - 1), F(2**64)],
    [[F(3, 2**70), F(1)]],
    [F(2**63)],
))
@example((  # one row's lcm, 2^40 * 3^25, passes 2^62: Python ints from the start
    [F(-1), F(-1)],
    [[F(1, 2**40), F(1, 3**25)], [F(1), F(1)]],
    [F(1), F(2**40)], [], [],
))
def test_huge_entries_identical_to_fraction_oracle(lp):
    _same_as_oracle(*lp)


def _bounds_and_divided_rows(monkeypatch, lp):
    """Every bound `_fit` decided on and the largest entry of every block of
    rows divided by its gcd, while `lp` is solved."""
    fits, divided = [], []
    fit, reduced = ratlp._fit, ratlp._reduced
    monkeypatch.setattr(ratlp, "_fit", lambda t, bound: fits.append(bound) or fit(t, bound))
    monkeypatch.setattr(ratlp, "_reduced",
                        lambda rows: divided.append(int(np.abs(rows).max(initial=0)))
                        or reduced(rows))
    _same_as_oracle(*lp)
    return fits, divided


def test_rows_are_divided_once_they_reach_2_30(monkeypatch):
    fits, divided = _bounds_and_divided_rows(monkeypatch, _CROSSES)
    # one update reached 2^36..2^37 and was divided; every bound stayed small
    assert max(divided).bit_length() == 37
    assert max(fits) < ratlp._BIG
    fits, divided = _bounds_and_divided_rows(monkeypatch, _STAYS_LARGE)
    # a primitive row at 2^60 forced the exact bound, which fits int64
    assert max(divided).bit_length() == 60
    assert 2**60 <= max(fits) < ratlp._LIMIT


def test_flow_router_pass_never_widens(tmp_path, monkeypatch):
    # every LP of a build-and-verify pass over the benchmark's flow_router
    # workload (seed 1) stays int64 from the first pivot to the last
    dtypes = []
    run = ratlp._run_simplex

    def recorded(t, basis):
        dtypes.append(t.dtype)
        status, t = run(t, basis)
        dtypes.append(t.dtype)
        return status, t

    monkeypatch.setattr(ratlp, "_run_simplex", recorded)
    for inst in bench_workloads().flow_router(1):
        g, prefix = tmp_path / f"{inst.name}.vsp", str(tmp_path / f"{inst.name}-h")
        write_graph(inst.graph, g)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["build", str(g), "--mode", "flow", *inst.build_flags,
                         "--out", prefix]) == 0
            assert main(["verify", str(g), prefix]) == 0
    assert dtypes and set(dtypes) == {np.dtype(np.int64)}


# wider, mostly-zero LPs: about 70% of the coefficients are zero, and some
# rows are empty (zero-length CSR rows, as `csr` drops zeros) or repeat an
# earlier row up to a factor, so entries cancel to zero and phase 1 leaves
# redundant rows to delete
_sparse_coef = st.tuples(st.integers(0, 9), _coef).map(lambda p: p[1] if p[0] < 3 else F(0))


@st.composite
def _sparse_lps(draw):
    n = draw(st.integers(1, 12))
    row = st.lists(_sparse_coef, min_size=n, max_size=n)
    c = draw(row)
    rows = []  # (is_equality, coefficients, right-hand side)
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(["fresh", "fresh", "empty", "repeat"]))
        if shape == "empty":
            vals, b = [F(0)] * n, draw(st.sampled_from([F(0), F(0), F(0), F(1), F(-1)]))
        elif shape == "repeat" and rows:
            _, vals, b = draw(st.sampled_from(rows))
            k = draw(_coef.filter(bool))
            vals, b = [k * v for v in vals], k * b
        else:
            vals, b = draw(row), draw(_sparse_coef)
        rows.append((draw(st.booleans()), vals, b))
    ub = [(vals, b) for is_eq, vals, b in rows if not is_eq]
    eq = [(vals, b) for is_eq, vals, b in rows if is_eq]
    return c, [v for v, _ in ub], [b for _, b in ub], [v for v, _ in eq], [b for _, b in eq]


@settings(max_examples=300, deadline=None)
@given(_sparse_lps())
@example(([F(1), F(0)], [[F(1), F(-1)]], [F(2)], [[F(0), F(0)]], [F(-1)]))  # 0 == -1: infeasible
@example((  # 0 == 0: redundant, deleted after phase 1
    [F(-1), F(1)], [[F(1), F(1)]], [F(3)], [[F(0), F(0)], [F(1), F(-1)]], [F(0), F(1)],
))
def test_sparse_identical_to_fraction_oracle(lp):
    _same_as_oracle(*lp)


def _router_lps_match_oracle(monkeypatch, g):
    calls = []

    def checked(c, a_ub, b_ub, a_eq, b_eq):
        # solve the rows routing passes as they are; the oracle reads them dense
        calls.append(len(c))
        res = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
        n = len(c)
        oracle = fraction_simplex(c, dense(a_ub, n), b_ub, dense(a_eq, n), b_eq)
        assert (res.status, res.x, res.objective) == oracle
        return res

    monkeypatch.setattr(routing, "solve_lp", checked)
    members = [v for v in g.vertices if v not in g.terminals]
    ok, res = routing.uniform_router_check(subdivide_boundary(g, members))
    assert ok and res.exact_lp
    return calls


def test_router_lp_identical_flow_router_graph(monkeypatch):
    calls = _router_lps_match_oracle(monkeypatch, flow_router_graph(3))
    assert calls == [153]


def test_router_lp_identical_capacitated_graph(monkeypatch):
    calls = _router_lps_match_oracle(monkeypatch, gen_capacitated(n=8, k=3, seed=0))
    assert calls == [89]
