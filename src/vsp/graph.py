"""Capacitated undirected multigraph with terminals, and the structural
primitives everything else is built on: boundaries, boundary subdivision,
cluster contraction, and text-file IO.

Conventions
-----------
* Vertex ids are arbitrary ints (1-based in files); edge ids are dense ints
  assigned in construction order.  All iteration is keyed on ids so results
  are deterministic.
* Capacities are exact `Fraction`s.  A graph whose capacities are all
  positive integers is treated as a *unit multigraph*: capacity m stands for
  m parallel unit edges (an explicit bucketed representation; counts such as
  |out(S)| are capacity sums).
* Every graph holds one integer scale for its capacities, worked out when it
  is built: `den`, the lcm of the capacity denominators (1 with no edges),
  and `scaled`, cap * den per edge id.  Code that prices cuts in integers
  reads these and derives no scale of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Collection, Iterable, Mapping, Sequence

from .errors import ContractError, InputError, ParseError


@dataclass(frozen=True)
class Edge:
    eid: int
    u: int
    v: int
    cap: Fraction

    def other(self, w: int) -> int:
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise KeyError(w)


class CapGraph:
    """Immutable capacitated multigraph with an ordered terminal subset."""

    # _lp_skeleton: the routing LP's graph part, which `vsp.routing` compiles
    # on the first routing over the graph
    __slots__ = ("vertices", "edges", "terminals", "den", "scaled", "_adj", "_vset", "_tset",
                 "_lp_skeleton")

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple[int, int, Fraction | int | str]],
        terminals: Iterable[int] = (),
    ):
        vs = tuple(sorted(set(vertices)))
        es = []
        nums, dens = [], []
        for i, (u, v, c) in enumerate(edges):
            cap = c if isinstance(c, Fraction) else Fraction(c)
            if cap <= 0:
                raise InputError(f"edge ({u},{v}) has non-positive capacity {cap}")
            es.append(Edge(i, u, v, cap))
            nums.append(cap.numerator)
            dens.append(cap.denominator)
        ts = tuple(terminals)
        if len(set(ts)) != len(ts):
            raise InputError("duplicate terminal")
        vset = frozenset(vs)
        for t in ts:
            if t not in vset:
                raise InputError(f"terminal {t} not a vertex")
        for e in es:
            if e.u not in vset or e.v not in vset:
                raise InputError(f"edge {e.eid} endpoint not a vertex")
        self.vertices = vs
        self.edges = tuple(es)
        self.terminals = ts
        self.den = den = lcm(*dens)
        self.scaled = tuple(nums) if den == 1 else tuple(n * (den // d) for n, d in zip(nums, dens))
        self._vset = vset
        self._tset = frozenset(ts)
        adj: dict[int, list[Edge]] = {v: [] for v in vs}
        for e in es:
            adj[e.u].append(e)
            if e.v != e.u:
                adj[e.v].append(e)
        self._adj = {v: tuple(lst) for v, lst in adj.items()}
        self._lp_skeleton = None

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def k(self) -> int:
        return len(self.terminals)

    def is_terminal(self, v: int) -> bool:
        return v in self._tset

    def has_vertex(self, v: int) -> bool:
        return v in self._vset

    def incident(self, v: int) -> tuple[Edge, ...]:
        return self._adj[v]

    def degree(self, v: int) -> Fraction:
        """Capacity-weighted degree; a self-loop counts twice."""
        d = Fraction(0)
        for e in self._adj[v]:
            d += e.cap * (2 if e.u == e.v else 1)
        return d

    @property
    def is_unit(self) -> bool:
        """True iff every capacity is a positive integer (bucketed unit edges)."""
        return self.den == 1

    def terminal_capacity(self) -> Fraction:
        """Total capacity of edges incident on terminals (each edge once)."""
        return sum(
            (e.cap for e in self.edges if e.u in self._tset or e.v in self._tset),
            Fraction(0),
        )

    def total_terminal_degree(self) -> Fraction:
        """Sum of capacity-weighted terminal degrees."""
        return sum((self.degree(t) for t in self.terminals), Fraction(0))

    # -- connectivity ------------------------------------------------------

    def components(self, within: Iterable[int] | None = None) -> list[tuple[int, ...]]:
        """Connected components (sorted tuples), optionally of an induced subgraph."""
        allowed = self._vset if within is None else frozenset(within)
        seen: set[int] = set()
        comps = []
        for start in sorted(allowed):
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            stack = [start]
            while stack:
                w = stack.pop()
                for e in self._adj[w]:
                    x = e.other(w)
                    if x in allowed and x not in seen:
                        seen.add(x)
                        comp.append(x)
                        stack.append(x)
            comps.append(tuple(sorted(comp)))
        return comps

    def is_connected_subset(self, members: Iterable[int]) -> bool:
        ms = frozenset(members)
        if not ms:
            return True
        return len(self.components(within=ms)) == 1

    def __repr__(self) -> str:
        return f"CapGraph(n={self.n}, m={self.m}, k={self.k})"


def out_edges(g: CapGraph, members: Iterable[int]) -> list[Edge]:
    """Edges with exactly one endpoint in `members`, in edge-id order."""
    ms = frozenset(members)
    for v in ms:
        if not g.has_vertex(v):
            raise InputError(f"unknown vertex id {v}")
    return [e for e in g.edges if (e.u in ms) != (e.v in ms)]


def out_capacity(g: CapGraph, members: Iterable[int]) -> Fraction:
    """Total capacity of out(members), the boundary edges of the set."""
    return sum((e.cap for e in out_edges(g, members)), Fraction(0))


def congestion(g: CapGraph, load: Mapping[int, Fraction]) -> Fraction:
    """max over the loaded edges of load / capacity; 0 when nothing is loaded."""
    return max((f / g.edges[eid].cap for eid, f in load.items()), default=Fraction(0))


@dataclass(frozen=True)
class SubdividedInstance:
    """G_S, the instance of a cluster S on which its well-linkedness and its
    router property are defined: G[S] plus one degree-1 boundary terminal
    per boundary edge (per bundle in bucketed form)."""

    graph: CapGraph
    members: frozenset[int]  # S, vertices of the parent graph
    terminals: tuple[int, ...]  # t_e vertices, ordered by original edge id
    pendant_of: Mapping[int, int]  # t_e vertex -> original boundary edge id
    # every instance edge id -> original edge id; a pendant edge maps to the
    # boundary edge it subdivides
    parent_edge: Mapping[int, int]

    @property
    def z(self) -> Fraction:
        return sum((self.weight(t) for t in self.terminals), Fraction(0))

    def weight(self, t: int) -> Fraction:
        """Bundle weight of a boundary terminal = original edge capacity."""
        (e,) = self.graph.incident(t)
        return e.cap

    def pendant_edge(self, t: int) -> Edge:
        (e,) = self.graph.incident(t)
        return e


def subdivide_boundary(
    g: CapGraph, members: Iterable[int], edge_ids: Collection[int] | None = None
) -> SubdividedInstance:
    """Build G_S for S = members: subdivide every boundary edge (only those
    whose ids are in `edge_ids`, when given) by a new degree-1 vertex and
    induce on S plus the new vertices."""
    ms = frozenset(members)
    if not ms:
        raise InputError("empty vertex set")
    boundary = [e for e in out_edges(g, ms) if edge_ids is None or e.eid in edge_ids]
    next_v = (max(g.vertices) + 1) if g.vertices else 1
    pendant_of = {}
    edges = []
    parent_edge = {}
    for e in g.edges:
        if e.u in ms and e.v in ms:
            parent_edge[len(edges)] = e.eid
            edges.append((e.u, e.v, e.cap))
    terminals = []
    for e in boundary:
        te = next_v
        next_v += 1
        inside = e.u if e.u in ms else e.v
        pendant_of[te] = e.eid
        terminals.append(te)
        parent_edge[len(edges)] = e.eid
        edges.append((inside, te, e.cap))
    gs = CapGraph(sorted(ms) + terminals, edges, terminals)
    return SubdividedInstance(gs, ms, tuple(terminals), pendant_of, parent_edge)


@dataclass(frozen=True)
class ContractionMap:
    """Correspondence between a graph and its cluster contraction."""

    clusters: tuple[frozenset[int], ...]
    supernode: tuple[int, ...]  # supernode id per cluster
    vertex_map: Mapping[int, int]  # original vertex -> contracted vertex
    edge_map: Mapping[int, int]  # contracted edge id -> original edge id
    dropped: tuple[int, ...]  # self-loop original edge ids removed

    def preimage(self, contracted_vertices: Iterable[int]) -> set[int]:
        """Expand supernodes back to original vertices."""
        by_super = dict(zip(self.supernode, self.clusters))
        out: set[int] = set()
        for v in contracted_vertices:
            if v in by_super:
                out |= by_super[v]
            else:
                out.add(v)
        return out


def contract(
    g: CapGraph, clusters: Sequence[Iterable[int]]
) -> tuple[CapGraph, ContractionMap]:
    """Contract each cluster into a supernode.  Self-loops are removed,
    parallel edges kept.  Clusters must be disjoint, terminal-free subsets."""
    csets = [frozenset(c) for c in clusters]
    seen: set[int] = set()
    for c in csets:
        if not c:
            raise ContractError("empty cluster")
        if c & seen:
            raise ContractError("overlapping clusters")
        seen |= c
        for v in c:
            if not g.has_vertex(v):
                raise InputError(f"unknown vertex id {v}")
            if g.is_terminal(v):
                raise ContractError(f"cluster contains terminal {v}")
    next_v = (max(g.vertices) + 1) if g.vertices else 1
    supernode = []
    vmap: dict[int, int] = {}
    for c in csets:
        sid = next_v
        next_v += 1
        supernode.append(sid)
        for v in c:
            vmap[v] = sid
    for v in g.vertices:
        vmap.setdefault(v, v)
    new_vertices = sorted(set(vmap.values()))
    new_edges = []
    edge_map: dict[int, int] = {}
    dropped = []
    for e in g.edges:
        nu, nv = vmap[e.u], vmap[e.v]
        if nu == nv:
            dropped.append(e.eid)
            continue
        edge_map[len(new_edges)] = e.eid
        new_edges.append((nu, nv, e.cap))
    h = CapGraph(new_vertices, new_edges, g.terminals)
    cmap = ContractionMap(tuple(csets), tuple(supernode), vmap, edge_map, tuple(dropped))
    return h, cmap


# -- text format ------------------------------------------------------------


def _format_cap(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _parse_cap(tok: str, lineno: int | None = None) -> Fraction:
    try:
        if tok.isdecimal():  # the common case, parsed without Fraction's regex
            return Fraction(int(tok))
        if "/" in tok:
            num, den = tok.split("/")
            return Fraction(int(num), int(den))
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad capacity {tok!r}", lineno) from exc


def graph_lines(g: CapGraph) -> list[str]:
    """The text-format lines of g (header, edges, terminals), vertex v
    written as its 1-based position in g.vertices."""
    lines = [f"p vsp {g.n} {g.m} {g.k}"]
    ids = {v: i + 1 for i, v in enumerate(g.vertices)}
    for e in g.edges:
        lines.append(f"e {ids[e.u]} {ids[e.v]} {_format_cap(e.cap)}")
    for t in g.terminals:
        lines.append(f"t {ids[t]}")
    return lines


def write_graph(g: CapGraph, path) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(graph_lines(g)) + "\n")


def read_graph(path) -> CapGraph:
    """Parse the documented text format of an input graph, whose capacities
    must be c_e >= 1.  A sparsifier file, whose H may have smaller
    capacities and holds `map` and `cert` lines, is read by `load_sparsifier`."""
    header = None
    edges = []
    terminals = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            if toks[0] == "p":
                if header is not None:
                    raise ParseError("duplicate header", lineno)
                if len(toks) != 5 or toks[1] != "vsp":
                    raise ParseError("header must be 'p vsp <n> <m> <k>'", lineno)
                try:
                    header = tuple(int(x) for x in toks[2:])
                except ValueError as exc:
                    raise ParseError("non-integer header field", lineno) from exc
                if min(header) < 0:
                    raise ParseError("negative header count", lineno)
                header_line = lineno
            elif toks[0] == "e":
                if header is None:
                    raise ParseError("edge before header", lineno)
                if len(toks) != 4:
                    raise ParseError("edge line must be 'e <u> <v> <cap>'", lineno)
                try:
                    u, v = int(toks[1]), int(toks[2])
                except ValueError as exc:
                    raise ParseError("non-integer vertex id", lineno) from exc
                cap = _parse_cap(toks[3], lineno)
                if cap < 1:
                    raise ParseError(f"capacity {cap} < 1", lineno)
                n = header[0]
                if not (1 <= u <= n and 1 <= v <= n):
                    raise ParseError("vertex id out of range", lineno)
                edges.append((u, v, cap))
            elif toks[0] == "t":
                if header is None:
                    raise ParseError("terminal before header", lineno)
                if len(toks) != 2:
                    raise ParseError("terminal line must be 't <v>'", lineno)
                try:
                    t = int(toks[1])
                except ValueError as exc:
                    raise ParseError("non-integer terminal id", lineno) from exc
                if not (1 <= t <= header[0]):
                    raise ParseError(f"terminal {t} out of range", lineno)
                if t in terminals:
                    raise ParseError(f"duplicate terminal {t}", lineno)
                terminals.append(t)
            else:
                raise ParseError(f"unknown record {toks[0]!r}", lineno)
    if header is None:
        raise ParseError("missing header", 0)
    n, m, k = header
    if len(edges) != m:
        raise ParseError(f"expected {m} edges, found {len(edges)}", header_line)
    if len(terminals) != k:
        raise ParseError(f"expected {k} terminals, found {len(terminals)}", header_line)
    return CapGraph(range(1, n + 1), edges, terminals)
