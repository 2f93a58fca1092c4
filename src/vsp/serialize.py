"""What a sparsifier file is: the record, its two assemblies and the codec.

A `Sparsifier` (H, a contraction of G, with its claim, plus one
`RouterCertificate` per cluster in flow mode) is made only by
`assemble_cut_sparsifier` or `assemble_flow_sparsifier`: a builder calls one
once after its search, and `load_sparsifier` calls it on the sidecar.  No
search code is imported here, so `vsp verify` trusts only the contraction
and its certificates.

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
files claim, so the record does not hold them and `vsp build` reports them.

A pair of files is accepted only if it is byte for byte what
`save_sparsifier` writes for the sparsifier it describes.  Loading parses
the sidecar, rebuilds H from the source graph through the assembly of its
kind, renders the rebuilt sparsifier and compares the result with both
files.  The claimed quality is derived, never read, so a changed claim,
edge, capacity, terminal, map or cert line, or an extra sidecar key, is
rejected before anything is verified.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import InputError, ParamError
from .graph import CapGraph, ContractionMap, _format_cap, _parse_cap, contract, graph_lines
from .graph import unit_expand
from .params import ETA_STAR


@dataclass
class RouterCertificate:
    """A good-router certificate for one cluster, holding only the witness:
    the cluster's members, the congestion eta its exchange flow attains, and
    the flow itself.  What G_S = `subdivide_boundary(g, members)` determines
    is derived wherever it is needed: the bundle weights w_e and their total
    z, the 1/3 well-linkedness claim when z > 1, and the hairpin load
    2 w_e (w_e - 1) / z on every bundle with w_e > 1."""

    members: frozenset[int]
    eta: Fraction
    # per-source fan-out arc flows on G_S, keyed by the source boundary edge
    # id; arcs are (parent edge id of the instance edge, direction on the
    # instance edge).  When z > 1 there is one entry for every boundary edge
    # e with w_e < z; a lone bundle (w_e = z) exchanges nothing and has none.
    commodity_arcs: dict[int, dict[tuple[int, int], Fraction]]


@dataclass
class Sparsifier:
    """H, a contraction of G, with its claimed quality.  A flow sparsifier is
    a cut sparsifier plus one router certificate per cluster of `cmap`, in
    the same order; `kind` reads the mode off `certificates`.  A cut
    sparsifier's `unit_graph` is G itself.  A flow build's `eps_input`
    derives `unit_graph` from G (the capacitated unit reduction): G's
    vertices, terminals and edge ids, with the integer capacities the build
    used.  H's capacities are then the unit graph's times eps / (2 eta*)."""

    graph: CapGraph  # H, terminals preserved
    cmap: ContractionMap
    quality: Fraction  # claimed q
    unit_graph: CapGraph  # the graph the clusters (and certificates) live on
    eps_input: Fraction | None = None  # flow only
    certificates: list[RouterCertificate] | None = None  # None for a cut sparsifier

    @property
    def kind(self) -> str:
        return "cut" if self.certificates is None else "flow"

    @property
    def steiner_count(self) -> int:
        return self.graph.n - self.graph.k


def assemble_cut_sparsifier(g: CapGraph, clusters: Iterable[Iterable[int]]) -> Sparsifier:
    """The cut sparsifier of G that contracts `clusters`, claiming quality 3."""
    h, cmap = contract(g, clusters)
    return Sparsifier(h, cmap, Fraction(3), g)


def capacitated_unit_reduction(g: CapGraph, eps: Fraction) -> CapGraph:
    """G with every capacity capped at C, rescaled by 2 eta* / eps and
    rounded up: `unit_expand(g, eps / (2 eta*))`, so G's vertices, terminals
    and edge ids, each edge's multiplicity as its integer capacity."""
    if not (0 < eps < 1):
        raise ParamError(f"eps must be in (0,1), got {eps}")
    scale = 2 * ETA_STAR / eps
    g2 = unit_expand(g, 1 / scale)
    cap_bound = g.terminal_capacity()
    for e, e2 in zip(g.edges, g2.edges):
        c = min(e.cap, cap_bound)
        if not scale * c <= e2.cap <= (2 * ETA_STAR + eps) / eps * c:
            raise AssertionError("capacity rescaling left its bracket")
    return g2


def assemble_flow_sparsifier(
    g: CapGraph, eps: Fraction | None, certificates: list[RouterCertificate]
) -> Sparsifier:
    """The flow sparsifier of G that contracts every certificate's cluster.
    Without eps G is the unit graph and the claimed quality is 2 eta*.  With
    it, the clusters are contracted in G's capacitated unit reduction, H's
    capacities are scaled back by eps / (2 eta*) and the claimed quality is
    2 eta* + eps.  An eps build, which searched the same reduction, thus
    computes it twice: an O(n+m) cost kept so that load shares this code."""
    clusters = [c.members for c in certificates]
    if eps is None:
        h, cmap = contract(g, clusters)
        gunit, quality = g, 2 * ETA_STAR
    else:
        gunit = capacitated_unit_reduction(g, eps)
        hu, cmap = contract(gunit, clusters)
        back = eps / (2 * ETA_STAR)
        h = CapGraph(hu.vertices, [(e.u, e.v, e.cap * back) for e in hu.edges], g.terminals)
        quality = 2 * ETA_STAR + eps
    return Sparsifier(h, cmap, quality, gunit, eps, certificates)


def _render(sp: Sparsifier) -> tuple[str, str]:
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


def save_sparsifier(sp: Sparsifier, path_prefix: str) -> tuple[str, str]:
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


def _rebuild(g: CapGraph, payload: dict) -> Sparsifier:
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


def load_sparsifier(g: CapGraph, path_prefix: str) -> Sparsifier:
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
