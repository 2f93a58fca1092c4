"""Sparsifier serialization.

The main file is the graph text format followed by `map <supernode>
<original vertices>` lines and, for flow sparsifiers, `cert <supernode> eta
<value>` summary lines.  The JSON sidecar holds only what the source graph
G cannot supply:

- `kind` ("cut" or "flow") picks the assembly.
- `quality` is the claim the assembly derives for that kind and eps; it is
  kept so the file states its claim, and a different value is rejected.
- `eps_input` is a flow build's input, not a function of G: null in unit
  mode and in every cut file, since cut mode takes no eps.
- `clusters` are the contracted vertex sets, which the builder chose.
- `certificates` (flow only): entry i is the router witness of clusters[i],
  its `eta` and its per-source fan-out flows, `commodities`
  (`{source edge: {"edge:direction": flow}}`).  The flows are the search's
  result, and eta is rechecked against them.

Nothing that G and the clusters determine is stored: a cluster's boundary,
its bundle weights and z, its well-linkedness claim and its hairpin loads
are derived by the verifier.  Nor are the build parameters and whether the
size bound was met: they describe how the clusters were found, not what the
files claim, so `vsp build` reports them and a loaded sparsifier has
`size_bound_met` None.

A pair of files is accepted only if it is byte for byte what
`save_sparsifier` writes for the sparsifier it describes.  Loading parses
the sidecar, rebuilds H from the source graph through the builders' own
assembly (`assemble_cut_sparsifier`, `assemble_flow_sparsifier`), renders
the rebuilt sparsifier and compares the result with both files.  The
claimed quality is derived, never read, so a changed claim, edge, capacity,
terminal, map or cert line, or an extra sidecar key, is rejected before
anything is verified.
"""

from __future__ import annotations

import json

from .cutsparse import assemble_cut_sparsifier
from .errors import InputError
from .flowsparse import RouterCertificate, assemble_flow_sparsifier
from .graph import CapGraph, _format_cap, _parse_cap, graph_lines


def _render(sp) -> tuple[str, str]:
    """The `.vsp` text and the JSON sidecar text of a sparsifier."""
    h = sp.graph
    flow = sp.kind == "flow"
    ids = {v: i + 1 for i, v in enumerate(h.vertices)}
    lines = graph_lines(h)
    for cset, snode in zip(sp.cmap.clusters, sp.cmap.supernode):
        verts = " ".join(str(v) for v in sorted(cset))
        lines.append(f"map {ids[snode]} {verts}")
    if flow:
        for snode, cert in zip(sp.cmap.supernode, sp.certificates):
            lines.append(f"cert {ids[snode]} eta {_format_cap(cert.eta)}")
    payload = {
        "kind": sp.kind,
        "quality": _format_cap(sp.quality),
        "eps_input": None if sp.eps_input is None else _format_cap(sp.eps_input),
        "clusters": [sorted(c) for c in sp.cmap.clusters],
    }
    if flow:
        payload["certificates"] = [
            {
                "eta": _format_cap(c.eta),
                "commodities": {
                    str(src): {
                        f"{eid}:{d}": _format_cap(v) for (eid, d), v in sorted(arcs.items())
                    }
                    for src, arcs in sorted(c.commodity_arcs.items())
                },
            }
            for c in sp.certificates
        ]
    return "\n".join(lines) + "\n", json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _paths(path_prefix: str) -> tuple[str, str]:
    return f"{path_prefix}.vsp", f"{path_prefix}.cert.json"


def save_sparsifier(sp, path_prefix: str) -> tuple[str, str]:
    """Write `<prefix>.vsp` (graph + map + cert lines) and
    `<prefix>.cert.json`.  Returns the two paths."""
    paths = _paths(path_prefix)
    for path, text in zip(paths, _render(sp)):
        with open(path, "w") as fh:
            fh.write(text)
    return paths


def _certificate(members: frozenset[int], c: dict) -> RouterCertificate:
    arcs = {}
    for src, d in c["commodities"].items():
        flows = arcs[int(src)] = {}
        for key, v in d.items():
            eid, direction = key.split(":")
            flows[(int(eid), int(direction))] = _parse_cap(v)
    return RouterCertificate(members, _parse_cap(c["eta"]), arcs)


def _rebuild(g: CapGraph, payload: dict):
    clusters = [frozenset(map(int, c)) for c in payload["clusters"]]
    if payload["kind"] == "cut":
        return assemble_cut_sparsifier(g, clusters)
    if payload["kind"] != "flow":
        raise InputError(f"unknown sparsifier kind {payload['kind']!r}")
    eps = None if payload["eps_input"] is None else _parse_cap(payload["eps_input"])
    certs = [
        _certificate(ms, c) for ms, c in zip(clusters, payload["certificates"], strict=True)
    ]
    return assemble_flow_sparsifier(g, eps, certs)


def load_sparsifier(g: CapGraph, path_prefix: str):
    """Rebuild the sparsifier saved under `path_prefix` from its source graph
    G and its sidecar.  Raises InputError unless both files are exactly what
    `save_sparsifier` writes for the rebuilt sparsifier."""
    texts = []
    for path in _paths(path_prefix):
        with open(path, "rb") as fh:
            texts.append(fh.read())
    try:
        sp = _rebuild(g, json.loads(texts[1]))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed sparsifier sidecar: {exc!r}") from exc
    if [text.encode() for text in _render(sp)] != texts:
        raise InputError("sparsifier files differ from the sparsifier their sidecar describes")
    return sp
