import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vsp import cli
from vsp.cutsparse import build_cut_sparsifier
from vsp.errors import InputError
from vsp.flowsparse import FlowParams, build_flow_sparsifier
from vsp.gen import gen_capacitated, gen_dumbbell, gen_grid
from vsp.graph import CapGraph, contract, write_graph
from vsp.serialize import RouterCertificate, Sparsifier, assemble_flow_sparsifier
from vsp.serialize import capacitated_unit_reduction, load_sparsifier, save_sparsifier

from util import derived_router_fields, edit_sidecar, rewire_to_terminal, shift_map_line

F = Fraction
AGG = FlowParams(profile="aggressive")


def _fractional_graph():
    g = gen_capacitated(n=10, k=4, seed=1)
    edges = [(e.u, e.v, e.cap + F(e.eid % 2, 2)) for e in g.edges]
    return CapGraph(g.vertices, edges, g.terminals)


def _capacitated_router_graph():
    core = [(u, v, 2) for u in range(1, 5) for v in range(u + 1, 5)]
    core += [(1, 10, 1), (2, 11, 1), (3, 12, 2)]
    return CapGraph(list(range(1, 5)) + [10, 11, 12], core, [10, 11, 12])


@pytest.fixture(scope="module")
def built():
    grid = gen_grid(5, 5, k=6)
    dumbbell = gen_dumbbell(k=6, seed=2)
    fractional = _fractional_graph()
    capacitated = _capacitated_router_graph()
    return [
        ("cut-unit", grid, build_cut_sparsifier(grid)),
        ("cut-capacitated", fractional, build_cut_sparsifier(fractional)),
        ("flow-unit", dumbbell, build_flow_sparsifier(dumbbell, params=AGG)[0]),
        ("flow-eps", capacitated, build_flow_sparsifier(capacitated, F(1, 2), AGG)[0]),
    ]


def _edges(h):
    return [(e.u, e.v, e.cap) for e in h.edges]


def test_roundtrip_rebuilds_the_saved_sparsifier(tmp_path, built):
    for name, g, sp in built:
        prefix = str(tmp_path / name)
        paths = [Path(p) for p in save_sparsifier(sp, prefix)]
        before = [p.read_bytes() for p in paths]
        sp2 = load_sparsifier(g, prefix)
        assert (sp2.graph.vertices, _edges(sp2.graph)) == (sp.graph.vertices, _edges(sp.graph))
        assert sp2.graph.terminals == sp.graph.terminals
        assert sp2.cmap.clusters == sp.cmap.clusters
        assert sp2.quality == sp.quality and sp2.eps_input == sp.eps_input
        save_sparsifier(sp2, prefix)
        assert [p.read_bytes() for p in paths] == before


def _comparable(value):
    if isinstance(value, CapGraph):
        return value.vertices, _edges(value), value.terminals
    return value


def test_loaded_sparsifier_equals_the_built_one(tmp_path, built):
    # the record holds exactly what the two files state, so every field of
    # a cut, a unit flow and an eps flow build survives save and load
    for name, g, sp in built:
        save_sparsifier(sp, str(tmp_path / name))
        sp2 = load_sparsifier(g, str(tmp_path / name))
        for f in dataclasses.fields(Sparsifier):
            got, want = getattr(sp2, f.name), getattr(sp, f.name)
            assert _comparable(got) == _comparable(want), (name, f.name)


def _lines(edit):
    def apply(text):
        lines = text.splitlines()
        edit(lines)
        return "\n".join(lines) + "\n"

    return apply


def _sidecar(edit):
    def apply(text):
        payload = json.loads(text)
        edit(payload)
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"

    return apply


CORRUPTIONS = {
    "rewire-to-terminal": (".vsp", _lines(rewire_to_terminal)),
    "edit-map-line": (".vsp", _lines(shift_map_line)),
    "raise-quality": (".cert.json", _sidecar(lambda p: p.update(quality="1000"))),
    "missing-key": (".cert.json", _sidecar(lambda p: p.pop("eps_input"))),
    "kind-unknown": (".cert.json", _sidecar(lambda p: p.update(kind="other"))),
    "not-json": (".cert.json", lambda text: text[: len(text) // 2]),
    "trailing-space": (".vsp", lambda text: text + " "),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_load_rejects_corrupted_files(tmp_path, built, corruption):
    suffix, edit = CORRUPTIONS[corruption]
    for name, g, sp in built:
        prefix = str(tmp_path / name)
        save_sparsifier(sp, prefix)
        path = tmp_path / f"{name}{suffix}"
        path.write_text(edit(path.read_text()))
        with pytest.raises(InputError):
            load_sparsifier(g, prefix)


def _schema_leaves(node, path=(), at=(), collapse=False):
    """(schema path, concrete path, value) of every scalar in a sidecar.
    The schema path collapses list indices to "[]" and, below
    `commodities`, every key to "*"."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _schema_leaves(
                child, path + ("*" if collapse else key,), at + (key,),
                collapse or key == "commodities",
            )
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _schema_leaves(child, path + ("[]",), at + (i,), collapse)
    else:
        yield path, at, node


def _mutated(value):
    if isinstance(value, bool):
        return not value
    if value is None:
        return "1"
    if isinstance(value, int):
        return value + 1
    try:
        return str(F(value) + 1)
    except ValueError:
        return value + "-edited"


def _set(payload, at, value):
    for step in at[:-1]:
        payload = payload[step]
    payload[at[-1]] = value


def _verify_exit(tmp_path, name, g, sp, edit):
    """Save `sp`, apply `edit` to its parsed sidecar and return the exit code
    of `vsp verify` on the pair."""
    gpath, prefix = str(tmp_path / f"{name}.vsp"), str(tmp_path / f"{name}.sp")
    write_graph(g, gpath)
    save_sparsifier(sp, prefix)
    edit_sidecar(prefix, edit)
    return cli.main(["verify", gpath, prefix, "--mode", sp.kind, "--samples", "1"])


def test_verify_rejects_every_schema_path_edit(tmp_path, built, capsys):
    # one type-directed edit at the first occurrence of every schema path;
    # a field added to the sidecar later is covered without a new case
    for name, g, sp in built:
        save_sparsifier(sp, str(tmp_path / "probe"))
        payload = json.loads((tmp_path / "probe.cert.json").read_text())
        first = {}
        for path, at, value in _schema_leaves(payload):
            first.setdefault(path, (at, value))
        assert ("quality",) in first and ("clusters", "[]", "[]") in first
        if sp.kind == "flow":
            assert ("certificates", "[]", "commodities", "*", "*") in first
        for path, (at, value) in sorted(first.items()):
            code = _verify_exit(tmp_path, name, g, sp, lambda p: _set(p, at, _mutated(value)))
            assert code in (cli.EXIT_VERIFY_FAIL, cli.EXIT_INPUT), (name, path)
    capsys.readouterr()


REMOVED_TOP_KEYS = {"params": {"profile": "aggressive"}, "size_bound_met": True}


def test_load_rejects_readded_keys(tmp_path, built, capsys):
    # fields the sidecar no longer holds are not accepted back, not even
    # with the values G and the clusters give them
    for name, g, sp in built:
        for key, value in REMOVED_TOP_KEYS.items():
            code = _verify_exit(tmp_path, name, g, sp, lambda p: p.update({key: value}))
            assert code == cli.EXIT_INPUT, (name, key)
        if sp.kind != "flow":
            continue
        fields = derived_router_fields(sp.unit_graph, sp.certificates[0].members)
        for key, value in fields.items():
            code = _verify_exit(
                tmp_path, name, g, sp, lambda p: p["certificates"][0].update({key: value})
            )
            assert code == cli.EXIT_INPUT, (name, key)
    capsys.readouterr()


def test_verify_rejects_a_cut_file_with_an_eps(tmp_path, built, capsys):
    # a cut file that states an eps and a 3 + eps claim is not what its
    # clusters assemble to, so it is an input error
    name, g, sp = next(entry for entry in built if entry[0] == "cut-capacitated")
    assert sp.quality == 3 and sp.eps_input is None
    capsys.readouterr()
    code = _verify_exit(tmp_path, name, g, sp,
                        lambda p: p.update(eps_input="1/2", quality="7/2"))
    assert code == cli.EXIT_INPUT
    assert json.loads(capsys.readouterr().err)["error"] == "input"


@st.composite
def _reduction_cases(draw):
    """A graph on 1..n plus vertex n + 1, which no edge touches, with
    capacities in half-units >= 1; its terminals, n + 1 alone (so C = 0)
    or any vertices; at most one terminal-free cluster; and eps."""
    n = draw(st.integers(2, 6))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    caps = st.integers(2, 12).map(lambda h: F(h, 2))
    edges = draw(st.lists(st.tuples(pairs, caps), min_size=1, max_size=10))
    edges = [(u, v, c) for (u, v), c in edges]
    if draw(st.booleans()):
        terminals = [n + 1]
    else:
        terminals = draw(st.lists(st.integers(1, n + 1), unique=True, max_size=3))
    free = [v for v in range(1, n + 2) if v not in terminals]
    cluster = draw(st.lists(st.sampled_from(free), unique=True, min_size=1)) if free else []
    # s = 68 / eps times a half-unit is an integer for eps = 1/2, 1/3 and
    # 2/3; eps = 3/4 makes the rounding up show
    eps = draw(st.sampled_from([F(1, 2), F(1, 3), F(2, 3), F(3, 4)]))
    return CapGraph(range(1, n + 2), edges, terminals), [cluster] if cluster else [], eps


@settings(max_examples=150, deadline=None)
@given(_reduction_cases())
def test_unit_reduction_and_scale_back(case):
    # the reduction is ceil(2 eta* / eps min(c, max(C, 1))) with C the
    # terminal-incident capacity, and H is the contracted reduction over s
    g, clusters, eps = case
    s = 2 * 34 / eps
    cap_bound = max(sum(c for u, v, c in _edges(g) if {u, v} & set(g.terminals)), 1)
    gunit = capacitated_unit_reduction(g, eps)
    assert [e.cap for e in gunit.edges] == [math.ceil(s * min(e.cap, cap_bound)) for e in g.edges]
    sp = assemble_flow_sparsifier(g, eps, [RouterCertificate(frozenset(c), F(1), {})
                                           for c in clusters])
    hu, _ = contract(gunit, clusters)
    assert [(u, v, c * s) for u, v, c in _edges(sp.graph)] == _edges(hu)
    assert (_edges(sp.unit_graph), sp.quality) == (_edges(gunit), 68 + eps)
