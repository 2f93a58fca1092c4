"""Tests for the outside-in tracer: self-time arithmetic, finding every
binding of a target, and restoring the originals.

    python3 -m pytest bench/tests -q
"""

import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from tracer import Target, Tracer, self_times  # noqa: E402


class Clock:
    """A clock that only moves when the code under test advances it."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


@pytest.fixture
def fakepkg():
    """fakepkg.core defines leaf, outer and Box.size; fakepkg.user re-binds
    leaf under two names; outsider binds it outside the package."""
    clock = Clock()
    core = types.ModuleType("fakepkg.core")
    exec(
        "def leaf(n):\n"
        "    CLOCK.now += 4\n"
        "    return n\n"
        "def outer():\n"
        "    CLOCK.now += 1\n"
        "    leaf(1)\n"
        "    CLOCK.now += 2\n"
        "    leaf(2)\n"
        "    CLOCK.now += 3\n"
        "    return 'done'\n"
        "class Box:\n"
        "    def size(self):\n"
        "        CLOCK.now += 5\n"
        "        return leaf(7)\n",
        core.__dict__,
    )
    core.CLOCK = clock
    user = types.ModuleType("fakepkg.user")
    user.renamed_leaf = core.leaf
    user.leaf_again = core.leaf
    outsider = types.ModuleType("outsider")
    outsider.leaf = core.leaf
    pkg = types.ModuleType("fakepkg")
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user, "outsider": outsider}
    sys.modules.update(mods)
    yield core, user, outsider, clock
    for name in mods:
        sys.modules.pop(name, None)


def _targets():
    return [
        Target("core.leaf", "fakepkg.core", "leaf", lambda a, k, r: r),
        Target("core.outer", "fakepkg.core", "outer"),
        Target("core.size", "fakepkg.core", "Box.size"),
    ]


def test_self_time_of_nested_calls(fakepkg):
    core, _user, _outsider, clock = fakepkg
    with Tracer(_targets(), package="fakepkg", clock=clock) as tr:
        assert core.outer() == "done"
    names = [s.name for s in tr.spans]
    assert names == ["core.outer", "core.leaf", "core.leaf"]
    outer, leaf1, leaf2 = tr.spans
    assert (outer.parent, leaf1.parent, leaf2.parent) == (-1, 0, 0)
    assert [s.duration for s in tr.spans] == [14, 4, 4]
    assert self_times(tr.spans) == [6, 4, 4]
    assert [leaf1.info, leaf2.info] == [1, 2]


def test_method_and_request_are_recorded(fakepkg):
    core, _user, _outsider, clock = fakepkg
    with Tracer(_targets(), package="fakepkg", clock=clock) as tr:
        tr.request = "r1"
        assert core.Box().size() == 7
    size, leaf = tr.spans
    assert (size.name, leaf.name, leaf.parent) == ("core.size", "core.leaf", 0)
    assert self_times(tr.spans) == [5, 4]
    assert {s.request for s in tr.spans} == {"r1"}


def test_every_binding_in_the_package_is_wrapped(fakepkg):
    core, user, outsider, clock = fakepkg
    original = core.leaf
    with Tracer(_targets(), package="fakepkg", clock=clock) as tr:
        assert core.leaf is not original
        assert user.renamed_leaf is core.leaf and user.leaf_again is core.leaf
        assert outsider.leaf is original  # outside the package: left alone
        user.renamed_leaf(3)
        user.leaf_again(4)
        outsider.leaf(5)
    assert [s.info for s in tr.spans] == [3, 4]


def test_uninstall_restores_every_original(fakepkg):
    core, user, outsider, clock = fakepkg
    before = (core.leaf, core.outer, core.Box.__dict__["size"], user.renamed_leaf,
              user.leaf_again, outsider.leaf)
    tr = Tracer(_targets(), package="fakepkg", clock=clock)
    tr.install()
    tr.uninstall()
    after = (core.leaf, core.outer, core.Box.__dict__["size"], user.renamed_leaf,
             user.leaf_again, outsider.leaf)
    assert all(a is b for a, b in zip(before, after))
    core.outer()
    assert tr.spans == []


def test_spans_close_when_the_call_raises(fakepkg):
    core, _user, _outsider, clock = fakepkg
    with Tracer([Target("core.outer", "fakepkg.core", "outer")], "fakepkg", clock) as tr:
        with pytest.raises(TypeError):
            core.outer(1)
        assert core.outer() == "done"
    assert [s.parent for s in tr.spans] == [-1, -1]


def test_vsp_call_sites_are_all_covered():
    import scipy.optimize

    import layers
    import vsp.cli
    from vsp import decompose, flow, graph, routing, sparsecut, verify

    originals = {
        "decompose.sparsest_cut_exact": decompose.sparsest_cut_exact,
        "routing.solve_lp": routing.solve_lp,
        "routing.linprog": routing.linprog,
        "cli.save_sparsifier": vsp.cli.save_sparsifier,
        "Net.max_flow": flow.Net.__dict__["max_flow"],
    }
    with Tracer(layers.TARGETS, package="vsp") as tr:
        assert decompose.sparsest_cut_exact is sparsecut.sparsest_cut_exact
        assert decompose.sparsest_cut_exact is not originals["decompose.sparsest_cut_exact"]
        assert routing.solve_lp is not originals["routing.solve_lp"]
        assert routing.linprog is not originals["routing.linprog"]
        assert scipy.optimize.linprog is originals["routing.linprog"]
        assert vsp.cli.save_sparsifier is not originals["cli.save_sparsifier"]
        g = graph.CapGraph([1, 2, 3], [(1, 2, 1), (2, 3, 2)], [1, 3])
        value, _cert = verify.min_cut_between(g, [1], [3])
    assert value == 1
    assert [(s.name, s.parent) for s in tr.spans] == [
        ("flow.max_flow", -1), ("flow.solve", 0), ("flow.extract", 0)]
    assert decompose.sparsest_cut_exact is originals["decompose.sparsest_cut_exact"]
    assert routing.solve_lp is originals["routing.solve_lp"]
    assert routing.linprog is originals["routing.linprog"]
    assert vsp.cli.save_sparsifier is originals["cli.save_sparsifier"]
    assert flow.Net.__dict__["max_flow"] is originals["Net.max_flow"]
