from fractions import Fraction

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
