import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from vsp.decompose import strong_decompose
from vsp.errors import BudgetExceeded
from vsp.flow import Net, TerminalCuts
from vsp.graph import CapGraph, out_capacity, subdivide_boundary
from vsp.sparsecut import (
    is_well_linked,
    sparsest_cut_exact,
    sparsest_cut_heuristic,
)

from util import (
    brute_force_bundle_sweep,
    brute_force_sparsest,
    random_unit_graph,
    recheck_decomposition,
)

F = Fraction


def _split(inst, side):
    """The split of G_S along the vertex side `side`, recomputed: its cut
    value, the bundle weights on the side and off it, and its sparsity."""
    w_a = sum((inst.weight(t) for t in inst.terminals if t in side), F(0))
    w_b = sum((inst.weight(t) for t in inst.terminals if t not in side), F(0))
    value = out_capacity(inst.graph, side)
    return value, w_a, w_b, value / min(w_a, w_b)


def _dumbbell():
    # two triangles joined by one bridge, two pendant terminals per side
    edges = [
        (1, 2, 1), (2, 3, 1), (1, 3, 1),
        (4, 5, 1), (5, 6, 1), (4, 6, 1),
        (3, 4, 1),
        (1, 7, 1), (2, 8, 1), (5, 9, 1), (6, 10, 1),
    ]
    return CapGraph(range(1, 11), edges)


def test_two_terminals_one_internal_vertex():
    g = CapGraph([1, 2, 3], [(1, 2, 1), (1, 3, 1)])
    inst = subdivide_boundary(g, {1})
    res = sparsest_cut_exact(inst)
    assert res.sparsity == 1


def test_dumbbell_bridge_is_sparsest():
    g = _dumbbell()
    inst = subdivide_boundary(g, set(range(1, 7)))
    res = sparsest_cut_exact(inst)
    assert res.sparsity == F(1, 2)
    assert out_capacity(inst.graph, res.cut) == 1


def test_single_vertex_cluster_sentinel():
    # z <= 1 admits no nontrivial terminal bipartition: well-linked at every alpha
    g = CapGraph([1, 2], [(1, 2, 1)])
    inst = subdivide_boundary(g, {1})
    assert sparsest_cut_exact(inst).trivially_well_linked
    g2 = CapGraph([1], [])
    inst2 = subdivide_boundary(g2, {1})
    assert sparsest_cut_exact(inst2).trivially_well_linked


def test_exact_matches_vertex_bipartition_oracle():
    rng = random.Random(17)
    checked = 0
    for _ in range(25):
        g = random_unit_graph(rng, n=8, m=12)
        size = rng.randint(2, 5)
        members = set(rng.sample(list(g.vertices), size))
        inst = subdivide_boundary(g, members)
        if inst.graph.n > 12 or not inst.terminals:
            continue
        oracle = brute_force_sparsest(inst.graph)
        res = sparsest_cut_exact(inst)
        if oracle is None:
            assert res.trivially_well_linked or res.sparsity >= 1
        else:
            assert res.sparsity == min(oracle, 1)
            checked += 1
    assert checked >= 10


def test_exact_matches_oracles_on_fractional_bundles():
    # non-integer bundle weights exercise the integer weight sums: the
    # optimum is the weighted brute force capped at 1, and the certificate
    # (with no threshold or an early exit) is the brute-force sweep's
    rng = random.Random(53)
    caps = (F(1, 2), F(2, 3), F(3, 4), F(1), F(3, 2))
    checked = 0
    for _ in range(80):
        n = rng.randint(4, 7)
        edges = [(rng.randint(1, i - 1), i, rng.choice(caps)) for i in range(2, n + 1)]
        edges += [(*rng.sample(range(1, n + 1), 2), rng.choice(caps)) for _ in range(n)]
        g = CapGraph(range(1, n + 1), edges)
        inst = subdivide_boundary(g, set(rng.sample(range(1, n + 1), rng.randint(2, n - 2))))
        weights = {t: inst.weight(t) for t in inst.terminals}
        if (inst.graph.n > 11 or len(weights) < 2 or inst.z <= 1
                or all(w.denominator == 1 for w in weights.values())):
            continue
        res = sparsest_cut_exact(inst)
        assert res.sparsity == min(brute_force_sparsest(inst.graph, weights), 1)
        for stop in (None, F(1, 2), F(1)):
            res = sparsest_cut_exact(inst, stop_below=stop)
            (sparsity, value, _side), side_a = brute_force_bundle_sweep(inst, stop)
            if stop is not None and sparsity >= stop:
                # a threshold verdict: the least sparsity and no cut
                assert (res.sparsity, res.cut) == (sparsity, None)
            elif sparsity <= 1 or (stop is not None and sparsity < stop):
                assert res.cut is not None
                cut_value, w_a, w_b, cut_sparsity = _split(inst, res.cut)
                assert (res.sparsity, cut_value, res.cut) == (sparsity, value, side_a)
                assert w_a == sum(w for t, w in weights.items() if t in side_a)
                assert w_a + w_b == inst.z
                assert cut_sparsity == value / min(w_a, w_b) == res.sparsity
            else:
                assert (res.sparsity, res.cut) == (1, None)
        checked += 1
    assert checked >= 15


# primes just below 2^31: weights over them have a common denominator near
# 2^62, so cut values and side weights as integers overflow int64 products
Q1, Q2 = 2147483647, 2147483629


def _hub_instance(spokes, hub):
    """G_S of the cluster {hub 1, spoke vertices 2, 3, ...}: spoke i + 2
    joins the hub at capacity spokes[i][0] and carries pendant terminals of
    the weights spokes[i][1]; the hub carries pendants of the weights
    `hub`.  Pendant ids ascend in that order."""
    edges, outside = [], 100
    for i, (cap, weights) in enumerate(spokes):
        edges.append((1, i + 2, cap))
        for w in weights:
            edges.append((i + 2, outside, w))
            outside += 1
    for w in hub:
        edges.append((1, outside, w))
        outside += 1
    g = CapGraph(range(1, outside), edges)
    return subdivide_boundary(g, set(range(1, len(spokes) + 2)))


def _check_against_sweep(inst, stops):
    """The brute-force sweep's least sparsity at each threshold, and its cut
    unless the threshold has nothing below it: that verdict carries none.
    The instances here leave every threshold to the sweep: their capacities
    are fractional or their thresholds exceed 2 / floor(z/2)."""
    for stop in stops:
        res = sparsest_cut_exact(inst, stop_below=stop)
        (sparsity, value, _side), side_a = brute_force_bundle_sweep(inst, stop)
        assert res.sparsity == sparsity, stop
        if stop is not None and sparsity >= stop:
            assert res.cut is None, stop
            continue
        assert res.cut is not None, stop
        cut_value, w_a, w_b, cut_sparsity = _split(inst, res.cut)
        assert (cut_value, res.cut) == (value, side_a), stop
        assert cut_sparsity == sparsity
        assert w_a + w_b == inst.z


def test_exact_sweep_compares_exactly_past_int64():
    x, y = 1 + F(1, Q1), 1 - F(1, Q2)
    near = F(1, 2) + F(1, 4 * Q1 * Q2)  # between 1/2 and 1 / (x + y)
    # spoke 2 costs 1 for weight x + y, a sparsity 1 / (x + y) within
    # 2^-61 above 1/2: in floats it ties the splits of exactly 1/2 (spokes
    # 3 and 4, and both together) and wins on value.  Exactly, the 1/2
    # splits tie and the least value, spoke 3 alone, wins.
    inst = _hub_instance([(1, [x, y]), (2, [4]), (3, [6])], [5, 7])
    assert len(inst.terminals) == 6
    res = sparsest_cut_exact(inst)
    assert (res.sparsity, out_capacity(inst.graph, res.cut)) == (F(1, 2), 2)
    _check_against_sweep(inst, (None, near, F(1, 2), F(2, 3), F(1, 10)))
    # spokes 2 and 3 tie exactly at 1 / (2x) with value 1.  Pendants a, d
    # on spoke 2 and b, c on spoke 3 have ids 19 < 20 < 21 < 22, so the mask
    # order meets a, d on side b first, but side a is smaller in sorted
    # order with b, c on side b
    g = CapGraph(range(1, 18), [(1, 10, 5), (2, 11, x), (3, 12, x), (3, 13, x), (2, 14, x),
                                (1, 2, 1), (1, 3, 1), (1, 4, 2), (4, 15, 4), (1, 16, 7)])
    inst = subdivide_boundary(g, {1, 2, 3, 4})
    res = sparsest_cut_exact(inst)
    assert (res.sparsity, out_capacity(inst.graph, res.cut)) == (1 / (2 * x), 1)
    assert res.cut.isdisjoint({3, 20, 21}) and {2, 18, 19, 22} <= res.cut
    _check_against_sweep(inst, (None, 1 / (2 * x) + F(1, Q1 * Q2), F(1, 2), F(1, 3)))
    # integer weights priced in compiled code, against thresholds whose
    # denominators alone overflow int64 products
    inst = _hub_instance([(1, [1, 1]), (2, [4]), (3, [6])], [5, 7])
    _check_against_sweep(inst, (F(1, 2) + F(1, 2**70), F(1, 2) - F(1, 2**70), F(2**70 + 1, 2**71)))


def _counted(calls, name, method):
    """`method`, counting its calls under `name` in the Counter `calls`."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return method(*args, **kwargs)
    return wrapper


def test_enumerated_sweep_solves_one_split_in_python(monkeypatch):
    # 3 bundles give 3 splits, priced by enumerating the sides of the 3
    # cluster vertices; only the chosen split is solved in Python, for its
    # side
    inst = subdivide_boundary(_dumbbell(), {1, 2, 3})
    assert len(inst.terminals) == 3
    calls = Counter()
    monkeypatch.setattr(TerminalCuts, "_enum_values",
                        _counted(calls, "enumerated", TerminalCuts._enum_values))
    monkeypatch.setattr(TerminalCuts, "min_cut", _counted(calls, "min_cut", TerminalCuts.min_cut))
    monkeypatch.setattr(Net, "max_flow", _counted(calls, "max_flow", Net.max_flow))
    res = sparsest_cut_exact(inst)
    assert calls == {"enumerated": 1, "min_cut": 1, "max_flow": 1}
    (sparsity, value, _side), side_a = brute_force_bundle_sweep(inst)
    assert (res.sparsity, out_capacity(inst.graph, res.cut), res.cut) == (sparsity, value, side_a)
    assert sparsity == value == 1 and res.cut is not None


# the hub instance with a boundary of z = 64: a split of value 2 may have
# sparsity 2/32, below every threshold here, so the bridge test leaves
# every threshold to the sweep
WIDE_HUB = ([(1, [1, 1]), (2, [4]), (3, [6])], [25, 27])


def test_threshold_verdict_solves_no_certificate(monkeypatch):
    # the 31 splits of 6 bundles are enumerated; a threshold with no split
    # below it gets its verdict without a Python solve, and a split below
    # the threshold gets one, for its side
    inst = _hub_instance(*WIDE_HUB)
    assert (len(inst.terminals), inst.z) == (6, 64)
    calls = []
    min_cut = TerminalCuts.min_cut
    monkeypatch.setattr(TerminalCuts, "min_cut",
                        lambda *a, **kw: calls.append(1) or min_cut(*a, **kw))
    res = sparsest_cut_exact(inst, stop_below=F(1, 10))
    (least, _value, _side), _side_a = brute_force_bundle_sweep(inst)
    assert (res.sparsity, res.cut, len(calls)) == (least, None, 0)
    res = sparsest_cut_exact(inst, stop_below=F(2, 3))
    (sparsity, value, _side), side_a = brute_force_bundle_sweep(inst, F(2, 3))
    assert sparsity < F(2, 3)
    assert (res.sparsity, out_capacity(inst.graph, res.cut), res.cut, len(calls)) == (
        sparsity, value, side_a, 1)


def test_bridge_verdict_prices_no_split(monkeypatch):
    # the same hub with z = 24: a split of value at least 2 has sparsity at
    # least 2/12, and the capacity-1 bridges are the pendants of weight 1
    # and spoke 2 above weight 2, so 1/6 bounds every split from below and
    # the threshold 1/10 gets its verdict from one bridge search
    inst = _hub_instance([(1, [1, 1]), (2, [4]), (3, [6])], [5, 7])
    assert (len(inst.terminals), inst.z) == (6, 24)
    calls = Counter()
    monkeypatch.setattr(TerminalCuts, "values", _counted(calls, "values", TerminalCuts.values))
    monkeypatch.setattr(TerminalCuts, "min_cut", _counted(calls, "min_cut", TerminalCuts.min_cut))
    res = sparsest_cut_exact(inst, stop_below=F(1, 10))
    assert (res.sparsity, res.cut, calls) == (F(1, 6), None, Counter())
    (least, _value, _side), _side_a = brute_force_bundle_sweep(inst)
    assert F(1, 10) <= res.sparsity <= least == F(1, 2)


def test_compiled_value_must_match_the_certificate(monkeypatch):
    # a sweep that misprices its splits, whichever way `values` priced
    # them, is caught by the Python Dinic solve behind the returned side
    inst = _hub_instance([(1, [1, 1]), (2, [4]), (3, [6])], [5, 7])
    assert out_capacity(inst.graph, sparsest_cut_exact(inst).cut) == 1
    values = TerminalCuts.values
    monkeypatch.setattr(TerminalCuts, "values", lambda cuts, a, b: values(cuts, a, b) + 1)
    with pytest.raises(RuntimeError, match="sweep 7, Python Dinic 6"):
        sparsest_cut_exact(inst)


def test_split_below_the_threshold_must_match_the_certificate(monkeypatch):
    # with a threshold, a split the sweep misprices below it is returned,
    # so it is re-solved in Python and the mispricing is caught
    inst = _hub_instance(*WIDE_HUB)
    assert sparsest_cut_exact(inst, stop_below=F(1, 10)).cut is None
    values = TerminalCuts.values
    monkeypatch.setattr(TerminalCuts, "values", lambda cuts, a, b: values(cuts, a, b) - 1)
    with pytest.raises(RuntimeError, match="sweep"):
        sparsest_cut_exact(inst, stop_below=F(1, 10))


def test_exact_budget_refusal():
    rng = random.Random(2)
    g = random_unit_graph(rng, n=30, m=64)
    members = set(list(g.vertices)[:15])
    inst = subdivide_boundary(g, members)
    if len(inst.terminals) > 5:
        with pytest.raises(BudgetExceeded):
            sparsest_cut_exact(inst, budget=5)


def test_heuristic_validity_vs_exact():
    rng = random.Random(29)
    for _ in range(20):
        g = random_unit_graph(rng, n=9, m=14)
        members = set(rng.sample(list(g.vertices), rng.randint(2, 6)))
        inst = subdivide_boundary(g, members)
        if not inst.terminals:
            continue
        exact = sparsest_cut_exact(inst)
        heur = sparsest_cut_heuristic(inst)
        if exact.trivially_well_linked:
            assert heur.trivially_well_linked
        else:
            assert heur.sparsity >= exact.sparsity
            # the heuristic's side re-evaluates to its claimed sparsity; a
            # single bundle answers sparsity 1 with no side
            if heur.cut is not None:
                assert _split(inst, heur.cut)[3] == heur.sparsity
            else:
                assert heur.sparsity == 1


def test_heuristic_finds_dumbbell_bridge():
    g = _dumbbell()
    inst = subdivide_boundary(g, set(range(1, 7)))
    res = sparsest_cut_heuristic(inst)
    assert res.sparsity == F(1, 2)


def test_well_linked_k4_with_pendants():
    edges = [(u, v, 1) for u in range(1, 5) for v in range(u + 1, 5)]
    edges += [(i, i + 4, 1) for i in range(1, 5)]
    g = CapGraph(range(1, 9), edges)
    ok, cert = is_well_linked(subdivide_boundary(g, {1, 2, 3, 4}), F(1, 3))
    assert ok and cert is None


def test_well_linked_path_cases():
    # path of 6 with a boundary edge at each end: 1-well-linked
    edges = [(i, i + 1, 1) for i in range(1, 6)] + [(1, 7, 1), (6, 8, 1)]
    g = CapGraph(range(1, 9), edges)
    ok, _ = is_well_linked(subdivide_boundary(g, set(range(1, 7))), F(1, 3))
    assert ok
    # a pendant on every vertex: at length 6 the middle cut hits 1/3 exactly
    # (so the predicate still holds); at length 8 it drops to 1/4 and fails
    edges = [(i, i + 1, 1) for i in range(1, 6)] + [(i, i + 10, 1) for i in range(1, 7)]
    g = CapGraph(list(range(1, 7)) + list(range(11, 17)), edges)
    ok, _ = is_well_linked(subdivide_boundary(g, set(range(1, 7))), F(1, 3))
    assert ok
    edges = [(i, i + 1, 1) for i in range(1, 8)] + [(i, i + 10, 1) for i in range(1, 9)]
    g = CapGraph(list(range(1, 9)) + list(range(11, 19)), edges)
    inst = subdivide_boundary(g, set(range(1, 9)))
    ok, side = is_well_linked(inst, F(1, 3))
    assert not ok
    assert side is not None and _split(inst, side)[3] < F(1, 3)


def test_single_bundle_answers_sparsity_one_with_no_side():
    # cluster {1, 2} leaves through one edge of capacity 3: G_S has one
    # bundle of weight 3, which only its own pendant units split, each at
    # sparsity 1.  Both solvers answer so, and the strong decomposition
    # keeps the cluster whole
    g = CapGraph([1, 2, 3], [(1, 2, 1), (2, 3, 3)])
    inst = subdivide_boundary(g, {1, 2})
    assert (len(inst.terminals), inst.z) == (1, 3)
    for res in (sparsest_cut_exact(inst), sparsest_cut_heuristic(inst)):
        assert (res.sparsity, res.cut) == (1, None)
    assert is_well_linked(inst, F(1, 3)) == (True, None)
    dec = strong_decompose(g, {1, 2})
    assert [c.members for c in dec.clusters] == [frozenset({1, 2})] and dec.events == []
    assert recheck_decomposition(g, dec, {1, 2}) == []


def test_well_linked_single_vertex_cluster():
    g = CapGraph([1, 2, 3], [(1, 2, 1), (1, 3, 1)])
    ok, _ = is_well_linked(subdivide_boundary(g, {1}), F(1))
    assert ok


def test_bucketed_matches_explicit_parallels():
    # same instance, bucketed vs explicit parallel edges
    gb = CapGraph([1, 2, 3, 4], [(1, 2, 3), (2, 3, 1), (2, 4, 2)])
    ge = CapGraph(
        [1, 2, 3, 4],
        [(1, 2, 1)] * 3 + [(2, 3, 1)] + [(2, 4, 1)] * 2,
    )
    ib = subdivide_boundary(gb, {2})
    ie = subdivide_boundary(ge, {2})
    rb = sparsest_cut_exact(ib)
    re = sparsest_cut_exact(ie)
    assert rb.sparsity == re.sparsity


@st.composite
def _integer_specs(draw):
    """A member set 1..n with integer capacities: inner edges, self-loops and
    parallels included, and at least two boundary edges of weight 1 to 3,
    each to its own outside vertex."""
    n = draw(st.integers(1, 4))
    cap = st.integers(1, 3)
    inner = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n), cap), max_size=6))
    boundary = draw(st.lists(st.tuples(st.integers(1, n), cap), min_size=2, max_size=5))
    return n, inner, boundary


def _integer_instance(n, inner, boundary):
    edges = inner + [(v, n + 1 + i, c) for i, (v, c) in enumerate(boundary)]
    return subdivide_boundary(CapGraph(range(1, n + len(boundary) + 1), edges), range(1, n + 1))


@settings(max_examples=200, deadline=None)
# two members and no inner edge: the search from member 1 sees one
# capacity-1 bridge and nothing to refute, but G_S splits at value 0
@example((2, [], [(1, 1), (2, 1)]))
# a capacity-1 bridge with weight 2 on each side: sparsity 1/2, a
# verdict at 1/3 and 1/2 and a split at 1
@example((2, [(1, 2, 1)], [(1, 1), (1, 1), (2, 1), (2, 1)]))
@given(_integer_specs())
def test_bridge_verdicts_agree_with_the_sweep(spec):
    # a threshold verdict is a lower bound between the threshold and the
    # least sparsity, and a returned split is the sweep's
    inst = _integer_instance(*spec)
    (least, _value, _side), _side_a = brute_force_bundle_sweep(inst)
    for alpha in (F(1, 3), F(1, 2), F(1)):
        res = sparsest_cut_exact(inst, stop_below=alpha)
        if res.cut is None:
            assert alpha <= res.sparsity <= least, alpha
            continue
        (sparsity, value, _side), side_a = brute_force_bundle_sweep(inst, alpha)
        assert (res.sparsity, out_capacity(inst.graph, res.cut), res.cut) == (
            sparsity, value, side_a), alpha
