from fractions import Fraction

import pytest

from vsp.flowsparse import (
    verify_witness1,
    verify_witness2,
    witness_to_flow,
)
from vsp.graph import subdivide_boundary
from vsp.sparsecut import is_well_linked

from fixtures import witness1_fixture, witness2_fixture

F = Fraction


def test_witness1_fixture_verifies():
    g, w = witness1_fixture()
    assert verify_witness1(g, w, g.k) == []
    # the families really are well-linked at their claimed level
    for fam in w.families:
        ok, _ = is_well_linked(subdivide_boundary(g, fam["members"]), fam["alpha"])
        assert ok


def test_witness1_flow_congestion_and_exchange():
    g, w = witness1_fixture()
    wf = witness_to_flow(g, w)
    assert wf.eta <= 10
    assert wf.rate == F(1, g.k)
    # every terminal's pendant carries exactly its in+out mass
    for t in g.terminals:
        (pend,) = g.incident(t)
        assert wf.edge_flow[pend.eid] == 2 * F(g.k - 1, g.k)


def test_witness2_fixture_verifies():
    g, w = witness2_fixture()
    assert verify_witness2(g, w, g.k) == []
    ok, _ = is_well_linked(subdivide_boundary(g, w.members), w.alpha)
    assert ok


def test_witness2_flow_congestion_and_exchange():
    g, w = witness2_fixture()
    wf = witness_to_flow(g, w)
    assert wf.eta <= 34
    assert wf.rate == F(1, g.k)
    for t in g.terminals:
        (pend,) = g.incident(t)
        assert wf.edge_flow[pend.eid] == 2 * F(g.k - 1, g.k)


def test_witness1_detects_corruption():
    g, w = witness1_fixture()
    # repeat a terminal in one family's path system
    bad = w.families[0]["paths"][0]
    w.families[0]["paths"][1] = bad
    assert verify_witness1(g, w, g.k) != []


def _edit_witness1(w, how):
    fam0, fam1 = w.families
    if how == "overlap":
        fam1["members"] = fam1["members"] | {11}
    elif how == "terminal":
        fam0["members"] = fam0["members"] | {31}
    else:
        fam0["paths"] = fam0["paths"][:1]


@pytest.mark.parametrize("how, fails", [
    ("overlap", ["family 1 overlaps an earlier family"]),
    ("terminal", ["family 0 contains terminals"]),
    ("short", ["family 0 has 1 paths < 2"]),
])
def test_witness1_recheck_names_each_violation(how, fails):
    g, w = witness1_fixture()
    _edit_witness1(w, how)
    assert verify_witness1(g, w, g.k) == fails


def _edit_witness2(w, how):
    (e1,), (e2,) = w.edge_groups
    if how == "terminals":
        w.term_star = (31, 32)
    elif how == "r":
        w.r = 3
    elif how == "group size":
        w.edge_groups = [[e1, e2 + 1], [e2]]  # e2 + 1 joins hub 3 to the blob
    elif how == "shared group":
        w.edge_groups = [[e1], [e1]]
    else:
        w.paths[0] = w.paths[0] * 3


@pytest.mark.parametrize("how, fails", [
    ("terminals", ["terminal set has 2 != 1", "path system 0 does not start at the terminal set",
                   "path system 1 does not start at the terminal set"]),
    ("r", ["2 edge groups != r = 3"]),
    ("group size", ["edge group of wrong size"]),
    ("shared group", ["edge groups are not disjoint boundary subsets",
                      "path system 1 does not end in its edge group"]),
    ("congestion", ["path system 0 exceeds congestion 2",
                    "path system 0 does not start at the terminal set"]),
])
def test_witness2_recheck_names_each_violation(how, fails):
    g, w = witness2_fixture()
    _edit_witness2(w, how)
    assert verify_witness2(g, w, g.k) == fails
