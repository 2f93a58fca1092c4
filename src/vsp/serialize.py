"""Sparsifier serialization.

The main file is the graph text format followed by `map <supernode>
<original vertices>` lines and, for flow sparsifiers, `cert <supernode> eta
<value>` summary lines.  Full certificates (per-commodity flows) go into a
JSON sidecar so the verifier can re-check them without rebuilding.  Loading
re-derives the contraction from the source graph, which both restores exact
edge correspondence and cross-checks the shipped H for tampering.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction

from .cutsparse import CutSparsifier
from .errors import InputError
from .flowsparse import (
    FlowParams,
    RouterCertificate,
    RouterSparsifier,
    capacitated_unit_reduction,
)
from .graph import (
    CapGraph,
    contract,
    merge_vertices,
    read_graph,
    unit_expand,
    _format_cap,
)


def _fr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _unfr(s) -> Fraction:
    if isinstance(s, (int, float)):
        return Fraction(s)
    return Fraction(*map(int, s.split("/"))) if "/" in s else Fraction(int(s))


def save_sparsifier(sp, path_prefix: str) -> tuple[str, str]:
    """Write `<prefix>.vsp` (graph + map + cert lines) and
    `<prefix>.cert.json`.  Returns the two paths."""
    h = sp.graph
    gpath = f"{path_prefix}.vsp"
    jpath = f"{path_prefix}.cert.json"
    ids = {v: i + 1 for i, v in enumerate(h.vertices)}
    lines = [f"p vsp {h.n} {h.m} {h.k}"]
    for e in h.edges:
        lines.append(f"e {ids[e.u]} {ids[e.v]} {_format_cap(e.cap)}")
    for t in h.terminals:
        lines.append(f"t {ids[t]}")
    for cset, snode in zip(sp.cmap.clusters, sp.cmap.supernode):
        verts = " ".join(str(v) for v in sorted(cset))
        sid = ids.get(snode, 0)  # capacitated flow mode renames supernodes away
        lines.append(f"map {sid} {verts}")
    if isinstance(sp, RouterSparsifier):
        by_members = {c.members: c for c in sp.certificates}
        for cset, snode in zip(sp.cmap.clusters, sp.cmap.supernode):
            cert = by_members.get(frozenset(cset))
            if cert is not None:
                lines.append(f"cert {ids.get(snode, 0)} eta {_fr(cert.eta)}")
    with open(gpath, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    payload = {
        "kind": "flow" if isinstance(sp, RouterSparsifier) else "cut",
        "quality": _fr(sp.quality),
        "eps_input": None if sp.eps_input is None else _fr(sp.eps_input),
        "clusters": [sorted(c) for c in sp.cmap.clusters],
    }
    if isinstance(sp, RouterSparsifier):
        payload["params"] = sp.params.describe()
        payload["size_bound_met"] = sp.size_bound_met
        payload["certificates"] = [
            {
                "members": sorted(c.members),
                "boundary": list(c.boundary),
                "z": _fr(c.z),
                "eta": _fr(c.eta),
                "wl_alpha": None if c.wl_alpha is None else _fr(c.wl_alpha),
                "wl_source": c.wl_source,
                "hairpin": {str(k): _fr(v) for k, v in sorted(c.hairpin.items())},
                "commodities": {
                    str(src): {f"{eid}:{d}": _fr(v) for (eid, d), v in sorted(arcs.items())}
                    for src, arcs in sorted(c.commodity_arcs.items())
                },
            }
            for c in sp.certificates
        ]
    with open(jpath, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return gpath, jpath


def read_sparsifier_graph(path) -> CapGraph:
    """Read just the graph part of a sparsifier file (map/cert lines
    skipped); capacities below 1 are legal here."""
    plain = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith(("map ", "cert ")):
                continue
            plain.append(raw.rstrip("\n"))
    fd, name = tempfile.mkstemp(suffix=".vsp")
    try:
        with os.fdopen(fd, "w") as tmp:
            tmp.write("\n".join(plain) + "\n")
        return read_graph(name, require_min_capacity=False)
    finally:
        os.unlink(name)


def _same_shape(a: CapGraph, b: CapGraph) -> bool:
    if (a.n, a.m, a.k) != (b.n, b.m, b.k):
        return False
    return sorted(e.cap for e in a.edges) == sorted(e.cap for e in b.edges)


def load_sparsifier(g: CapGraph, path_prefix: str):
    """Reconstruct a sparsifier against its source graph G, re-deriving the
    contraction for exact edge correspondence and validating the shipped H
    file against it."""
    with open(f"{path_prefix}.cert.json") as fh:
        payload = json.load(fh)
    h_file = read_sparsifier_graph(f"{path_prefix}.vsp")
    clusters = [frozenset(c) for c in payload["clusters"]]
    eps = None if payload["eps_input"] is None else _unfr(payload["eps_input"])

    if payload["kind"] == "cut":
        if eps is None:
            ug = g
            scale = Fraction(1)
        else:
            ug, _prov = unit_expand(g, eps / 3)
            scale = eps / 3
        h2, cmap = contract(ug, clusters)
        h = CapGraph(h2.vertices, [(e.u, e.v, e.cap * scale) for e in h2.edges], h2.terminals)
        if not _same_shape(h, h_file):
            raise InputError("sparsifier file does not match its certificate sidecar")
        return CutSparsifier(h, cmap, _unfr(payload["quality"]), ug, [], eps_input=eps)

    params = FlowParams(
        profile=payload["params"]["profile"],
        c_beta=_unfr(payload["params"]["c_beta"]),
        c_f=payload["params"]["c_f"],
        r_override=payload["params"]["r_override"],
        enum_budget=payload["params"]["enum_budget"],
    )
    certs = []
    for c in payload["certificates"]:
        arcs = {}
        for src, d in c["commodities"].items():
            arcs[int(src)] = {
                (int(k.split(":")[0]), int(k.split(":")[1])): _unfr(v)
                for k, v in d.items()
            }
        certs.append(
            RouterCertificate(
                frozenset(c["members"]),
                tuple(c["boundary"]),
                _unfr(c["z"]),
                _unfr(c["eta"]),
                None if c["wl_alpha"] is None else _unfr(c["wl_alpha"]),
                c["wl_source"],
                arcs,
                {int(k): _unfr(v) for k, v in c["hairpin"].items()},
            )
        )
    if eps is None:
        gunit = g
        h2, cmap = contract(gunit, clusters)
        h = h2
        quality = _unfr(payload["quality"])
        scale_back = None
    else:
        gunit, bundles = capacitated_unit_reduction(g, eps, params.eta_star)
        h2, cmap = contract(gunit, clusters)
        h1 = merge_vertices(
            h2, [bundles[t] for t in g.terminals], list(g.terminals), as_terminals=True
        )
        scale_back = eps / (2 * params.eta_star)
        h = CapGraph(
            h1.vertices, [(e.u, e.v, e.cap * scale_back) for e in h1.edges], g.terminals
        )
        quality = _unfr(payload["quality"])
    if not _same_shape(h, h_file):
        raise InputError("sparsifier file does not match its certificate sidecar")
    sp = RouterSparsifier(
        h, cmap, certs, quality, params, eps_input=eps, capacity_scale=scale_back
    )
    sp.size_bound_met = payload.get("size_bound_met", True)
    sp.unit_graph = gunit
    return sp
