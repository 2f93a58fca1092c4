import json
from fractions import Fraction

import pytest

from vsp.cutsparse import build_cut_sparsifier, build_cut_sparsifier_unit
from vsp.errors import InputError
from vsp.flowsparse import FlowParams, build_flow_sparsifier, build_flow_sparsifier_unit
from vsp.gen import gen_dumbbell, gen_grid
from vsp.graph import CapGraph
from vsp.serialize import load_sparsifier, save_sparsifier

from util import rewire_to_terminal, shift_map_line

F = Fraction
AGG = FlowParams(profile="aggressive")


def _capacitated_router_graph():
    core = [(u, v, 2) for u in range(1, 5) for v in range(u + 1, 5)]
    core += [(1, 10, 1), (2, 11, 1), (3, 12, 2)]
    return CapGraph(list(range(1, 5)) + [10, 11, 12], core, [10, 11, 12])


@pytest.fixture(scope="module")
def built():
    grid = gen_grid(5, 5, k=6)
    dumbbell = gen_dumbbell(k=6, seed=2)
    capacitated = _capacitated_router_graph()
    return [
        ("cut-unit", grid, build_cut_sparsifier_unit(grid)),
        ("cut-eps", grid, build_cut_sparsifier(grid, F(1, 2))),
        ("flow-unit", dumbbell, build_flow_sparsifier_unit(dumbbell, AGG)),
        ("flow-eps", capacitated, build_flow_sparsifier(capacitated, F(1, 2), AGG)),
    ]


def _edges(h):
    return [(e.u, e.v, e.cap) for e in h.edges]


def test_roundtrip_rebuilds_the_saved_sparsifier(tmp_path, built):
    for name, g, sp in built:
        prefix = str(tmp_path / name)
        paths = save_sparsifier(sp, prefix)
        before = [open(p, "rb").read() for p in paths]
        sp2 = load_sparsifier(g, prefix)
        assert (sp2.graph.vertices, _edges(sp2.graph)) == (sp.graph.vertices, _edges(sp.graph))
        assert sp2.graph.terminals == sp.graph.terminals
        assert sp2.cmap.clusters == sp.cmap.clusters
        assert sp2.quality == sp.quality and sp2.eps_input == sp.eps_input
        save_sparsifier(sp2, prefix)
        assert [open(p, "rb").read() for p in paths] == before


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
