import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vsp.errors import InputError
from vsp.flow import Net, TerminalCuts, max_flow
from vsp.gen import gen_grid
from vsp.graph import CapGraph, out_capacity

from util import brute_force_min_cut, brute_force_min_cut_side, path_graph, random_unit_graph


def test_unit_path():
    g = path_graph(3)
    val, sol, side = max_flow(g, [1], [3])
    assert val == 1
    assert out_capacity(g, side) == 1


def test_three_parallel_edges():
    g = CapGraph([1, 2], [(1, 2, 1)] * 3)
    val, _, _ = max_flow(g, [1], [2])
    assert val == 3


def test_bucketed_equals_explicit_parallel():
    g1 = CapGraph([1, 2], [(1, 2, 3)])
    g2 = CapGraph([1, 2], [(1, 2, 1)] * 3)
    assert max_flow(g1, [1], [2])[0] == max_flow(g2, [1], [2])[0]


def test_rational_capacities():
    g = CapGraph([1, 2, 3], [(1, 2, Fraction(3, 2)), (2, 3, Fraction(2, 3))])
    val, sol, side = max_flow(g, [1], [3])
    assert val == Fraction(2, 3)
    assert out_capacity(g, side) == Fraction(2, 3)


def test_duality_and_oracle_random():
    rng = random.Random(23)
    for _ in range(30):
        g = random_unit_graph(rng, n=9, m=16)
        s, t = rng.sample(list(g.vertices), 2)
        val, sol, side = max_flow(g, [s], [t])
        assert val == brute_force_min_cut(g, {s}, {t})
        assert out_capacity(g, side) == val
        assert s in side and t in frozenset(g.vertices) - side
        # flow never exceeds capacity
        for eid, f in sol.edge_flow.items():
            assert abs(f) <= g.edges[eid].cap


def test_min_cut_between_single_edge():
    g = CapGraph([1, 2], [(1, 2, 1)], [1, 2])
    val, _side = TerminalCuts(g, [1, 2]).min_cut([1], [2])
    assert val == 1


def test_min_cut_between_disconnected():
    g = CapGraph([1, 2, 3, 4], [(1, 2, 1), (3, 4, 1)], [1, 3])
    val, _ = TerminalCuts(g, [1, 3]).min_cut([1], [3])
    assert val == 0


def test_min_cut_between_overlap_rejected():
    g = path_graph(3)
    with pytest.raises(InputError):
        TerminalCuts(g, [1, 3]).min_cut([1], [1, 3])


def test_min_cut_between_oracle_groups():
    rng = random.Random(31)
    for _ in range(20):
        g = random_unit_graph(rng, n=10, m=15)
        verts = list(g.vertices)
        rng.shuffle(verts)
        ta, tb = verts[:2], verts[2:4]
        val, side = TerminalCuts(g, ta + tb).min_cut(ta, tb)
        assert val == brute_force_min_cut(g, ta, tb)
        assert out_capacity(g, side) == val


def test_net_path_decomposition():
    # two unit paths through "b" and the direct edge: the walk takes the
    # arcs added last first, and each path is edge-disjoint from the others
    net = Net()
    net.undirected(net.source, "b", 1, key="sb1")
    net.undirected(net.source, "b", 1, key="sb2")
    net.undirected("b", net.sink, 1, key="bt1")
    net.undirected("b", net.sink, 1, key="bt2")
    net.undirected(net.source, net.sink, 1, key="st")
    assert net.max_flow() == 3
    assert net.unit_edge_paths() == [(net.sink, ["st"]), ("b", ["sb2", "bt2"]),
                                     ("b", ["sb1", "bt1"])]


def test_net_takes_integer_capacities():
    # 3/2 + 2/3 in series with 1/4 in parallel, times 12: 18, 8 and 3
    net = Net()
    net.undirected(net.source, "b", 18, key="ab")
    net.undirected("b", net.sink, 8, key="bc")
    net.undirected(net.source, net.sink, 3, key="ac")
    value = net.max_flow()
    assert value == 11 and type(value) is int
    flows = net.flow_by_key()
    assert flows == {"ab": 8, "bc": 8, "ac": 3}
    assert all(type(f) is int for f in flows.values())


def test_net_refuses_capacities_off_the_integers():
    for add in (lambda net: net.arc(net.source, 1, Fraction(1, 2)),
                lambda net: net.undirected(1, 2, Fraction(1, 5), key="e"),
                lambda net: net.split_edge(1, 2, 1, "e", Fraction(1, 8)),
                lambda net: net.undirected(1, 2, 1.0, key="e")):
        net = Net()
        with pytest.raises(InputError, match="is not an integer"):
            add(net)
    # a Fraction on the integers is taken as its int
    net = Net()
    net.arc(net.source, net.sink, Fraction(3))
    assert net.max_flow() == 3


def test_cut_side_excludes_auxiliary_nodes():
    # edge 1-2 split at a midpoint that drains one unit to the sink: the
    # residual source side is {source, 1, midpoint, 2}
    net = Net()
    net.arc(net.source, 1, 5)
    net.split_edge(1, 2, 5, "e12", 1)
    assert net.max_flow() == 1
    assert net.cut_side() == frozenset({1, 2})


def test_split_target_edge_decodes_to_one_traversal():
    # one path ends on split edge "b", the other crosses both of its halves
    net = Net()
    net.arc(net.source, 1, 2)
    net.undirected(1, 2, 2, key="a")
    net.split_edge(2, 3, 2, "b", 1)
    net.undirected(3, 4, 1, key="c")
    net.arc(4, net.sink, 1)
    assert net.max_flow() == 2
    paths = sorted(net.unit_edge_paths(), key=lambda p: len(p[1]))
    assert paths == [(1, ["a", "b"]), (1, ["a", "b", "c"])]


def test_unit_paths_walk_through_a_flow_cycle():
    # Dinic's first phase sends S-a->b-T through arc a->b, the arc that a
    # lists first; the second phase's one augmenting path S-x-y-z-b->a-c-T
    # leaves b through arc b->a, not through a->b's residual.  The final
    # flow holds the cycle a->b->a, and the walk of its second path, S-a->b
    # after the first path took b-T, dead-ends at b unless it may return to
    # a.  Unkeyed arcs leave no key in the path
    net = Net()
    net.undirected("a", "c", 1, key="ac")
    net.undirected(net.source, "a", 1, key="sa")
    net.arc("a", "b", 1)
    net.undirected(net.source, "x", 1, key="sx")
    net.arc("b", "a", 1)
    net.undirected("b", net.sink, 1, key="bt")
    net.undirected("x", "y", 1, key="xy")
    net.undirected("z", "b", 1, key="zb")
    net.undirected("y", "z", 1, key="yz")
    net.undirected("c", net.sink, 1, key="ct")
    assert net.max_flow() == 2
    assert net.unit_edge_paths() == [("x", ["sx", "xy", "yz", "zb", "bt"]),
                                     ("a", ["sa", "ac", "ct"])]

def test_min_cut_between_matches_max_flow():
    rng = random.Random(41)
    for _ in range(20):
        g = random_unit_graph(rng, n=10, m=16)
        verts = list(g.vertices)
        rng.shuffle(verts)
        ta, tb = verts[:3], verts[3:5]
        val, side = TerminalCuts(g, ta + tb).min_cut(ta, tb)
        fval, _sol, fside = max_flow(g, ta, tb)
        assert val == fval
        rest = frozenset(g.vertices)
        assert side == fside and rest - side == rest - fside


@given(seed=st.integers(0, 10**6), fractional=st.booleans())
@settings(max_examples=80, deadline=None)
def test_terminal_cuts_reuse_matches_fresh_and_brute_force(seed, fractional):
    # one `TerminalCuts` answers a shuffled sequence of splits, repeats
    # included, exactly as a fresh one and the brute force do
    rng = random.Random(seed)
    caps = (Fraction(1, 2), Fraction(2, 3), 1, Fraction(3, 2), 2) if fractional else (1,)
    n = rng.randint(2, 8)
    verts = list(range(1, n + 2))  # vertex n + 1 stays isolated
    edges = [(*rng.sample(verts[:-1], 2), rng.choice(caps)) for _ in range(rng.randint(0, 2 * n))]
    if rng.random() < 0.3:
        edges.append((1, 1, rng.choice(caps)))  # a self-loop carries no flow
    g = CapGraph(verts, edges)
    terms = rng.sample(verts, rng.randint(2, min(5, len(verts))))
    cuts = TerminalCuts(g, terms)
    splits = []
    for _ in range(rng.randint(1, 6)):
        placed = [rng.randrange(3) for _ in terms]  # side a, side b or neither
        placed[0], placed[1] = 0, 1
        rng.shuffle(placed)
        splits.append(([t for t, p in zip(terms, placed) if p == 0],
                       [t for t, p in zip(terms, placed) if p == 1]))
    # repeats, all priced in one `values` call
    splits += rng.choices(splits, k=8)
    rng.shuffle(splits)
    values = cuts.values(*_side_matrices(terms, splits))
    assert len(values) == len(splits) and values.dtype == np.int64
    for (ta, tb), stacked in zip(splits, values):
        scaled, side = cuts.min_cut(ta, tb)
        fresh_scaled, fresh = TerminalCuts(g, ta + tb).min_cut(ta, tb)
        assert type(scaled) is int and stacked == scaled
        assert (scaled, side) == (fresh_scaled, fresh)
        value = Fraction(scaled, g.den)
        assert (value, side) == brute_force_min_cut_side(g, ta, tb)
        assert set(ta) <= side and set(tb) <= frozenset(g.vertices) - side
        assert out_capacity(g, side) == value


@given(seed=st.integers(0, 10**6), scale=st.sampled_from([1, 2**30, 2**62]))
@settings(max_examples=80, deadline=None)
@example(seed=0, scale=2**62)
def test_every_pricing_path_matches_min_cut_and_brute_force(seed, scale):
    # `values` enumerates the sides of the non-terminals, stacks one SciPy
    # solve or runs `_flow` per row.  Each path is forced in turn: a
    # bound of 0 turns enumeration off, a row with a terminal on neither
    # side is never enumerated, and a scale of 2^30 or more takes G past
    # int32.  At 2^62 the scaled total passes 2^63, and the enumeration
    # sums in Python ints.  Every path prices every row as `min_cut` and
    # the brute force do, on G's scale
    rng = random.Random(seed)
    caps = (Fraction(1, 2), Fraction(2, 3), 1, Fraction(3, 2), 2)
    n = rng.randint(2, 7)
    verts = list(range(1, n + 2))  # vertex n + 1 stays isolated
    edges = [(*rng.sample(verts[:-1], 2), scale * rng.choice(caps))
             for _ in range(rng.randint(1, 2 * n))]
    if rng.random() < 0.3:
        edges.append((1, 1, scale * rng.choice(caps)))  # a self-loop carries no flow
    g = CapGraph(verts, edges)
    terms = rng.sample(verts, rng.randint(2, min(5, len(verts))))
    partial = rng.random() < 0.3  # rows may leave a terminal on neither side
    splits = []
    for _ in range(rng.randint(1, 8)):
        placed = [0, 1] + [rng.randrange(3 if partial else 2) for _ in terms[2:]]
        rng.shuffle(placed)
        splits.append(([t for t, p in zip(terms, placed) if p == 0],
                       [t for t, p in zip(terms, placed) if p == 1]))
    side_a, side_b = _side_matrices(terms, splits)
    cuts = TerminalCuts(g, terms)
    fits_int32, fits_int64 = 2 * cuts._big < 2**31, cuts._big - g.den < 2**63
    expected = []
    for enum in ((side_a | side_b).all(), False):
        if enum:
            expected.append(("_enum_values", np.int64 if fits_int64 else object))
        else:
            expected.append(("_stack_values", np.int64) if fits_int32 else ("_flow", object))
    with pytest.MonkeyPatch.context() as mp:
        taken = []
        for name in ("_enum_values", "_stack_values", "_flow"):
            def spied(*args, name=name, method=getattr(TerminalCuts, name)):
                taken.append(name)
                return method(*args)

            mp.setattr(TerminalCuts, name, spied)
        for bound, (path, dtype) in zip((1 << 62, 0), expected):
            mp.setattr("vsp.flow._ENUM_SIZE", bound)
            taken.clear()
            values = cuts.values(side_a, side_b)
            assert (set(taken), values.dtype) == ({path}, dtype)
            for (ta, tb), scaled in zip(splits, values, strict=True):
                assert scaled == cuts.min_cut(ta, tb)[0]
                assert Fraction(int(scaled), g.den) == brute_force_min_cut(g, ta, tb)


def _side_matrices(terms, splits):
    # side a and side b of every split, a column per terminal in id order
    order = sorted(terms)
    return (np.array([[t in ta for t in order] for ta, _ in splits], dtype=bool),
            np.array([[t in tb for t in order] for _, tb in splits], dtype=bool))


def _every_split(terms):
    # every split of the terminals into side a, side b and neither
    for placed in itertools.product(range(3), repeat=len(terms)):
        ta = [t for t, p in zip(terms, placed) if p == 0]
        tb = [t for t, p in zip(terms, placed) if p == 1]
        if ta and tb:
            yield ta, tb


def test_terminal_cuts_values_beyond_int32():
    # scaled capacities of 2^31 and more are priced exactly: an edge of
    # 10^12, and small capacities whose common denominator exceeds 2^31
    for caps in ((10**12, 1, 2), (Fraction(1, 65537), Fraction(1, 65539), Fraction(2, 3))):
        edges = [(1, 2, caps[0]), (2, 3, caps[1]), (3, 4, caps[2]), (1, 4, caps[1]),
                 (2, 5, caps[2]), (5, 4, caps[0])]
        g = CapGraph([1, 2, 3, 4, 5], edges, [1, 3, 4, 5])
        cuts = TerminalCuts(g, g.terminals)
        assert cuts._big >= 2**31
        splits = list(_every_split(g.terminals))
        values = cuts.values(*_side_matrices(g.terminals, splits))
        # some rows leave a terminal on neither side, so none is enumerated:
        # every row is priced in Python, in exact ints
        assert values.dtype == object
        for (ta, tb), value in zip(splits, values, strict=True):
            assert value == cuts.min_cut(ta, tb)[0]
            assert Fraction(value, g.den) == brute_force_min_cut(g, ta, tb)
    # a scaled total between 2^30 and 2^31: twice it reaches 2^31, so no
    # row goes to SciPy, and as above none is enumerated.  Every row is
    # priced in Python: a looser bound, such as 2 * _big < 2^32, sends the
    # rows to SciPy and fails the dtype check
    d, c = 1_300_000_000, 80_000_000
    edges = [(1, 4, d), (1, 2, c), (2, 3, c), (3, 4, c), (1, 5, c), (5, 6, c), (6, 3, c),
             (2, 7, c), (7, 8, c), (8, 4, c)]
    g = CapGraph(list(range(1, 9)), edges, [1, 4, 6, 7])
    cuts = TerminalCuts(g, g.terminals)
    assert 2**30 <= cuts._big < 2**31
    splits = list(_every_split(g.terminals))
    assert ([1], [4]) in splits and brute_force_min_cut(g, [1], [4]) == d + 2 * c
    values = cuts.values(*_side_matrices(g.terminals, splits))
    assert values.dtype == object
    for (ta, tb), value in zip(splits, values, strict=True):
        assert Fraction(value, g.den) == brute_force_min_cut(g, ta, tb)
        assert value == cuts.min_cut(ta, tb)[0]


def test_python_priced_rows_build_no_cut_side(monkeypatch):
    # a graph past int32 whose rows leave a terminal on neither side is
    # priced in Python, one `_flow` per row: the values come straight off
    # the flows, with no `min_cut` and no residual search for a side
    g = CapGraph([1, 2, 3, 4], [(1, 2, 10**12), (2, 3, 1), (3, 4, 2), (1, 4, 3)], [1, 2, 3, 4])
    cuts = TerminalCuts(g, g.terminals)
    assert 2 * cuts._big >= 2**31
    splits = [([1], [3]), ([2], [4]), ([1, 2], [3])]
    calls = []
    for cls, name in ((Net, "cut_side"), (TerminalCuts, "min_cut"), (TerminalCuts, "_flow")):
        def spied(*args, name=name, method=getattr(cls, name)):
            calls.append(name)
            return method(*args)

        monkeypatch.setattr(cls, name, spied)
    values = cuts.values(*_side_matrices(g.terminals, splits))
    assert calls == ["_flow"] * 3
    assert values.tolist() == [3, 4, 3]


def test_terminal_cuts_isolated_terminal():
    g = CapGraph([1, 2, 3, 4], [(1, 2, Fraction(1, 2)), (2, 3, Fraction(2, 3))], [1, 3, 4])
    cuts = TerminalCuts(g, g.terminals)
    value, side = cuts.min_cut([4], [1, 3])
    assert value == 0 and side == {4}
    value, side = cuts.min_cut([1], [3, 4])
    assert Fraction(value, g.den) == Fraction(1, 2) and side == {1}
    value, side = cuts.min_cut([3, 4], [1])
    assert Fraction(value, g.den) == Fraction(1, 2) and side == {2, 3, 4}


def test_terminal_cuts_input_errors():
    g = path_graph(3)
    with pytest.raises(InputError, match="unknown vertex"):
        TerminalCuts(g, [1, 9])
    cuts = TerminalCuts(g, [1, 3])
    for ta, tb, msg in (([], [3], "empty"), ([1], [], "empty"),
                        ([1], [1, 3], "overlap"), ([1], [2], "not a compiled terminal")):
        with pytest.raises(InputError, match=msg):
            cuts.min_cut(ta, tb)
    for ta, tb, msg in (([[0, 0]], [[0, 1]], "empty"), ([[1, 0]], [[0, 0]], "empty"),
                        ([[1, 0]], [[1, 1]], "overlap")):
        with pytest.raises(InputError, match=msg):
            cuts.values(np.array(ta, dtype=bool), np.array(tb, dtype=bool))
    # a refused split leaves the terminal cuts usable
    value, side = cuts.min_cut([1], [3])
    assert value == 1 and side == {1}


def test_terminal_cuts_match_networkx_on_grid():
    import networkx as nx

    g = gen_grid(8, 8, k=8)
    base = nx.DiGraph()
    for e in g.edges:
        for u, v in ((e.u, e.v), (e.v, e.u)):
            cap = base.edges[u, v]["capacity"] if base.has_edge(u, v) else 0
            base.add_edge(u, v, capacity=cap + int(e.cap))
    terms = list(g.terminals)
    cuts = TerminalCuts(g, terms)
    for mask in range((1 << (len(terms) - 1)) - 1):
        ta = [terms[0]] + [t for i, t in enumerate(terms[1:]) if mask >> i & 1]
        tb = [t for t in terms if t not in ta]
        net = base.copy()
        net.add_edges_from(("S", t) for t in ta)  # no capacity: unbounded
        net.add_edges_from((t, "T") for t in tb)
        value, side = cuts.min_cut(ta, tb)
        assert value == nx.minimum_cut_value(net, "S", "T")
        assert out_capacity(g, side) == value
