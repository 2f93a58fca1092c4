"""Exact maximum flow / minimum cut.

All capacities are rationals; internally every instance is scaled by the
common denominator so Dinic runs on integers and both the flow value and
the cut certificate are exact.

`Net` is the pure-Python Dinic network.  It returns flows, paths and the
minimal source side of a minimum cut.

`bipartitions` enumerates the terminal bipartitions of a sweep as integer
masks, and `side_matrix` decodes a run of masks into a boolean side matrix,
one row per split and one column per terminal.  `TerminalCuts` serves the
sweeps of the sparsest cut and of cut verification, many splits of one
graph's terminals.  It scales G's arcs once.  `chunks` cuts a sweep's
masks into side matrices of one stacked solve each, and `values` prices one
such chunk and returns the scaled integer values as an array; it alone
picks how.  A chunk small enough for it is priced from the definition of a
min cut, the least cut over the sides of the non-terminal vertices.
Otherwise one call of SciPy's compiled Dinic prices it on a block-diagonal
stack of copies of G.  SciPy holds capacities, flows and residuals in int32
and silently truncates wider capacities.  A residual can reach twice the
scaled total capacity, so a graph for which that doubled total reaches
2^31 never goes to SciPy: its splits are priced one by one in Python by
`min_cut`, which runs `Net` and also gives the certificate of the one split
a caller needs.  SciPy is imported on the first stacked solve, not with
this module.

This module alone wires flow networks: it names the super-source and the
super-sink, encodes arc keys (including the halves of a split edge), filters
auxiliary nodes out of cut sides and decodes unit paths back to edge ids.
Callers state only the arcs of their own construction.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import InputError
from .graph import CapGraph

# SciPy's maximum_flow holds capacities, flows and residuals as int32
_INT32_LIMIT = 1 << 31
# nodes plus arcs of one stacked network: bounds the memory of a solve
_CHUNK_SIZE = 1 << 16
# 2^s sides of the s non-terminals times a chunk's rows times G's vertices
# plus edges: bounds the side and cut matrices of a chunk priced by
# enumeration, which the product copies into int64.  2^20 raised the peak
# memory of the benchmark's cut corpus by 13%; 2^16 leaves it flat
_ENUM_SIZE = 1 << 16


class Net:
    """A directed flow network over arbitrary hashable node names.

    Graph vertices are ints; auxiliary nodes, namely the super-terminals
    `source` and `sink` that every network has and the midpoints of split
    edges, are tuples.  Undirected edges become arc pairs sharing residual
    capacity and carry a caller key, so flows and paths map back to edges.
    """

    source = ("S",)
    sink = ("T",)

    def __init__(self):
        self._nodes: dict[Hashable, int] = {}
        self._names: list[Hashable] = []
        self._head: list[int] = []
        self._to: list[int] = []
        self._cap: list[int] = []
        self._next: list[int] = []
        self._key: list[Hashable] = []
        self._den = 1  # common capacity denominator
        self._flowed = False
        self._node(self.source)
        self._node(self.sink)

    def _node(self, name: Hashable) -> int:
        idx = self._nodes.get(name)
        if idx is None:
            idx = len(self._names)
            self._nodes[name] = idx
            self._names.append(name)
            self._head.append(-1)
        return idx

    def _push_arc(self, u: int, v: int, cap: int, key: Hashable):
        self._to.append(v)
        self._cap.append(cap)
        self._key.append(key)
        self._next.append(self._head[u])
        self._head[u] = len(self._to) - 1

    def _rescale(self, den: int):
        if den == self._den:
            return
        g = den // self._den
        self._cap = [c * g for c in self._cap]
        self._den = den

    def _scaled(self, cap: Fraction | int) -> int:
        cap = cap if isinstance(cap, Fraction) else Fraction(cap)
        if self._den % cap.denominator:
            self._rescale(lcm(self._den, cap.denominator))
        return cap.numerator * (self._den // cap.denominator)

    def arc(self, u: Hashable, v: Hashable, cap: Fraction | int):
        """Directed arc u->v without a key; the implicit reverse residual has
        capacity 0."""
        c = self._scaled(cap)
        ui, vi = self._node(u), self._node(v)
        self._push_arc(ui, vi, c, None)
        self._push_arc(vi, ui, 0, None)

    def undirected(self, u: Hashable, v: Hashable, cap: Fraction | int, key: Hashable = None):
        """Undirected edge: arc pair, each side with the full capacity, both
        carrying `key`."""
        c = self._scaled(cap)
        ui, vi = self._node(u), self._node(v)
        self._push_arc(ui, vi, c, key)
        self._push_arc(vi, ui, c, key)

    def split_edge(self, u: Hashable, v: Hashable, cap: Fraction | int, key: Hashable,
                   sink_cap: Fraction | int):
        """Edge `key` split at a midpoint node: undirected halves u-mid and
        mid-v of capacity `cap`, both carrying `key`, and an arc mid->sink of
        capacity `sink_cap`, so a path may end on the edge."""
        mid = ("mid", key)
        self.undirected(u, mid, cap, key)
        self.undirected(mid, v, cap, key)
        self.arc(mid, self.sink, sink_cap)

    def max_flow(self, s: Hashable, t: Hashable) -> Fraction:
        if s not in self._nodes or t not in self._nodes:
            return Fraction(0)
        si, ti = self._nodes[s], self._nodes[t]
        if si == ti:
            raise InputError("source equals sink")
        self._orig_cap = list(self._cap)
        n = len(self._names)
        total = 0
        level = [0] * n
        it = [0] * n
        while True:
            for i in range(n):
                level[i] = -1
            level[si] = 0
            dq = deque([si])
            while dq:
                u = dq.popleft()
                a = self._head[u]
                while a != -1:
                    v = self._to[a]
                    if self._cap[a] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        dq.append(v)
                    a = self._next[a]
            if level[ti] < 0:
                break
            for i in range(n):
                it[i] = self._head[i]
            while True:
                f = self._dfs(si, ti, level, it)
                if f == 0:
                    break
                total += f
        self._flowed = True
        self._last = (si, ti)
        return Fraction(total, self._den)

    def _dfs(self, s: int, t: int, level, it) -> int:
        # one augmenting path in the level graph, iteratively
        nodes = [s]
        path: list[int] = []
        while True:
            u = nodes[-1]
            if u == t:
                amt = min(self._cap[a] for a in path)
                for a in path:
                    self._cap[a] -= amt
                    self._cap[a ^ 1] += amt
                return amt
            a = it[u]
            while a != -1:
                if self._cap[a] > 0 and level[self._to[a]] == level[u] + 1:
                    break
                a = self._next[a]
            it[u] = a
            if a == -1:
                level[u] = -1
                nodes.pop()
                if not nodes:
                    return 0
                path.pop()
            else:
                path.append(a)
                nodes.append(self._to[a])

    def cut_side(self) -> frozenset:
        """The graph vertices (auxiliary nodes left out) reachable from the
        source in the residual graph; call after max_flow.  The arcs leaving
        this side form a minimum cut, and every maximum flow gives the same
        side."""
        assert self._flowed
        si, _ = self._last
        seen = {si}
        dq = deque([si])
        while dq:
            u = dq.popleft()
            a = self._head[u]
            while a != -1:
                v = self._to[a]
                if self._cap[a] > 0 and v not in seen:
                    seen.add(v)
                    dq.append(v)
                a = self._next[a]
        return frozenset(
            name for name in (self._names[i] for i in seen) if not isinstance(name, tuple)
        )

    def flow_by_key(self) -> dict[Hashable, Fraction]:
        """Signed net flow per caller key, positive in the u->v direction of
        the `undirected(u, v, ...)` call that added the edge."""
        assert self._flowed
        out: dict[Hashable, Fraction] = {}
        for a in range(0, len(self._to), 2):
            key = self._key[a]
            if key is None:
                continue
            pushed = Fraction(self._orig_cap[a] - self._cap[a], self._den)
            out[key] = out.get(key, Fraction(0)) + pushed
        return out

    def decompose_paths(
        self, s: Hashable, t: Hashable
    ) -> list[tuple[Fraction, list[Hashable], list[Hashable]]]:
        """Peel the current flow into (amount, [node names], [arc keys]) paths
        from s to t.  On unit-capacity instances the paths are edge-disjoint."""
        assert self._flowed
        si, ti = self._nodes[s], self._nodes[t]
        # net flow through an arc pair is orig - cap on the even arc (the
        # shared-residual trick already nets opposite pushes)
        flow = [0] * len(self._to)
        for a in range(0, len(self._to), 2):
            net = self._orig_cap[a] - self._cap[a]
            if net >= 0:
                flow[a], flow[a + 1] = net, 0
            else:
                flow[a], flow[a + 1] = 0, -net
        paths = []
        while True:
            # walk greedily from s along positive-flow arcs
            path_arcs = []
            u = si
            seen_nodes = {si}
            while u != ti:
                a = self._head[u]
                chosen = -1
                while a != -1:
                    if flow[a] > 0 and self._to[a] not in seen_nodes:
                        chosen = a
                        break
                    a = self._next[a]
                if chosen == -1:
                    # allow revisits only to break out of dead ends via cycles
                    a = self._head[u]
                    while a != -1:
                        if flow[a] > 0:
                            chosen = a
                            break
                        a = self._next[a]
                if chosen == -1:
                    break
                path_arcs.append(chosen)
                u = self._to[chosen]
                seen_nodes.add(u)
            if u != ti or not path_arcs:
                break
            amt = min(flow[a] for a in path_arcs)
            for a in path_arcs:
                flow[a] -= amt
            paths.append(
                (
                    Fraction(amt, self._den),
                    [self._names[self._to[a]] for a in path_arcs],
                    [self._key[a] for a in path_arcs],
                )
            )
        return paths

    def unit_edge_paths(self) -> list[tuple[Hashable, list[Hashable]]]:
        """The source-to-sink flow as unit paths, each (first node after the
        source, [keys of the edges traversed]); call after max_flow(source,
        sink) on a network whose flow decomposes into unit paths.  Unkeyed
        arcs are skipped, and consecutive arcs with one key (the halves of a
        split edge) count as one traversal."""
        out = []
        for amt, nodes, keys in self.decompose_paths(self.source, self.sink):
            assert amt == 1
            path: list[Hashable] = []
            for key in keys:
                if key is not None and (not path or path[-1] != key):
                    path.append(key)
            out.append((nodes[0], path))
        return out


@dataclass(frozen=True)
class CutCertificate:
    """A vertex bipartition with its exactly re-checkable cut value.  For
    sparsest cuts the terminal weights per side and the sparsity are set."""

    side_a: frozenset[int]
    side_b: frozenset[int]
    value: Fraction
    term_a: Fraction | None = None
    term_b: Fraction | None = None
    sparsity: Fraction | None = None


@dataclass
class FlowSolution:
    """Edge flows of one routing plus enough structure to re-verify it.

    edge_flow maps edge id -> total (unsigned) flow through the edge;
    paths, when present, are (amount, (src, dst), [edge ids]).
    """

    edge_flow: dict[int, Fraction]
    paths: list[tuple[Fraction, tuple, list[int]]] = field(default_factory=list)


class TerminalCuts:
    """Minimum cuts between disjoint groups of the given terminals of one
    graph G, for any number of splits.

    G's capacities are scaled once to integers over their common
    denominator `den`.  `_big`, the scaled total capacity plus one, exceeds
    every arc (summed parallel arcs included) and every cut, so a split
    wires its terminals to the super-source and the super-sink at `_big`.

    A sweep is a pair of boolean side matrices: one row per split, one
    column per terminal in ascending id order, True where the terminal is on
    that side.  `chunks` decodes the masks of `bipartitions` into side-a
    matrices of as many rows as one stacked solve takes, and `values` prices
    the rows of one chunk's side pair, by the first of three ways that
    applies:
    - Enumeration, when every row puts every terminal on a side and 2^s
      times the rows times G's vertices plus edges is at most `_ENUM_SIZE`,
      s being the number of G's other vertices.  A split's min cut is then,
      by definition, the least cut over the 2^s sides of those vertices.
      The chunk is laid out once per side as a boolean matrix X with one
      column per vertex, and `(X[:, :, u] != X[:, :, v]) @ cap` prices
      every edge of every side at once: in int64 while the scaled total
      capacity fits, in Python ints from 2^63 on.
    - A stacked solve, when G fits int32.  One copy of G's arc set per row
      goes into a block-diagonal network whose copies share the
      super-terminals, and one call of SciPy's Dinic solves them all.  The
      copies share no arc, so a maximum flow of the stack is a maximum flow
      of every copy, and a split's value is the flow that the super-source
      sends into its copy.  SciPy's solver keeps capacities and flows in
      int32 and silently truncates wider capacities (an arc of 2^40 comes
      back as a flow of 0).  An arc u->v and its reverse both carry the
      summed capacity c < `_big`, and a residual is c minus a flow of at
      least -c, so residuals reach 2 (`_big` - 1): G fits when 2 `_big` is
      below 2^31.  SciPy (`scipy.sparse` and its `csgraph`) is imported on
      the first stacked solve, so a process whose sweeps all go elsewhere
      never loads it.
    - Otherwise `min_cut` prices the rows one by one, in Python ints.

    `min_cut` runs the pure-Python `Net`, compiled on first use with a
    zero-capacity source arc and sink arc per terminal, and returns the
    minimal source side of a minimum cut with its value.  That side is the
    same for every maximum flow, so it does not depend on which solver found
    the value."""

    def __init__(self, g: CapGraph, terminals: Iterable[int]):
        terms = sorted(set(terminals))
        for v in terms:
            if not g.has_vertex(v):
                raise InputError(f"unknown vertex id {v}")
        self._g = g
        self._terms = terms
        self._term_set = frozenset(terms)
        self._vertices = frozenset(g.vertices)
        self.den = lcm(*(e.cap.denominator for e in g.edges))
        self._big = self.den + sum(e.cap.numerator * (self.den // e.cap.denominator)
                                   for e in g.edges)
        self.net: Net | None = None
        self._others = [v for v in g.vertices if v not in self._term_set]
        self._sides: np.ndarray | None = None  # compiled on first enumeration
        self._cols: np.ndarray | None = None  # G's CSR rows, compiled on first stacked solve
        self._chunk = max(1, _CHUNK_SIZE // (g.n + 2 * g.m + 2 * len(terms)))

    def _compile_copy(self):
        # one copy of G as CSR rows over vertex positions, parallel arcs
        # summed; each terminal's row ends in an arc to column n, which
        # stands for the super-sink
        pos = {v: i for i, v in enumerate(self._g.vertices)}
        n = len(pos)
        edges = [e for e in self._g.edges if e.u != e.v]
        u = np.array([pos[e.u] for e in edges], dtype=np.int64)
        v = np.array([pos[e.v] for e in edges], dtype=np.int64)
        cap = np.array([e.cap.numerator * (self.den // e.cap.denominator) for e in edges],
                       dtype=np.int64)
        # ascending, as the ids are
        term_rows = np.array([pos[t] for t in self._terms], dtype=np.int64)
        keys, arc = np.unique(
            np.concatenate((u * (n + 1) + v, v * (n + 1) + u, term_rows * (n + 1) + n)),
            return_inverse=True,
        )
        caps = np.bincount(arc, np.concatenate((cap, cap, 0 * term_rows)), minlength=len(keys))
        self._indptr = np.searchsorted(keys // (n + 1), np.arange(n + 1)).astype(np.int32)
        self._cols = (keys % (n + 1)).astype(np.int32)
        self._caps = caps.astype(np.int32)  # exact: every sum is below 2^31
        self._term_rows = term_rows.astype(np.int32)
        self._sink_entries = self._indptr[self._term_rows + 1] - 1

    def _checked(self, term_a: Iterable[int], term_b: Iterable[int]) -> tuple[set, set]:
        ta, tb = set(term_a), set(term_b)
        if not ta or not tb:
            raise InputError("empty source or sink set")
        if ta & tb:
            raise InputError("terminal sides overlap")
        for v in ta | tb:
            if v not in self._term_set:
                raise InputError(f"vertex {v} is not a compiled terminal")
        return ta, tb

    def chunks(self, terms: Sequence[int], masks: Sequence[int]) -> Iterator[np.ndarray]:
        """The splits of `masks`, bipartition masks over `terms` (these
        terminals in the order the masks refer to, see `bipartitions`), as
        side-a matrices of at most as many rows as one stacked solve takes."""
        for lo in range(0, len(masks), self._chunk):
            yield side_matrix(terms, masks[lo:lo + self._chunk])

    def values(self, side_a: np.ndarray, side_b: np.ndarray) -> np.ndarray:
        """The minimum cut value times `den` of every split, a row of the
        side matrices (a terminal may be on neither side), in row order.
        The rows are one chunk, at most as many as `chunks` hands out, and
        are priced by the first of the three ways above that applies.  The
        values are int64, or Python ints where int64 could overflow."""
        if not (side_a.any(axis=1) & side_b.any(axis=1)).all():
            raise InputError("empty source or sink set")
        if (side_a & side_b).any():
            raise InputError("terminal sides overlap")
        size = len(side_a) * (self._g.n + self._g.m) << len(self._others)
        if size <= _ENUM_SIZE and (side_a | side_b).all():
            return self._enum_values(side_a)
        if 2 * self._big < _INT32_LIMIT:
            return self._stack_values(side_a, side_b)
        terms = np.array(self._terms)
        return np.array([int(self.min_cut(terms[a].tolist(), terms[b].tolist())[0] * self.den)
                         for a, b in zip(side_a, side_b)], dtype=object)

    def _enum_values(self, side_a: np.ndarray) -> np.ndarray:
        """The least cut over the sides of G's other vertices, per row."""
        if self._sides is None:
            col = {v: j for j, v in enumerate(self._terms + self._others)}
            self._ends = (np.array([col[e.u] for e in self._g.edges], dtype=np.intp),
                          np.array([col[e.v] for e in self._g.edges], dtype=np.intp))
            self._edge_caps = np.array(
                [e.cap.numerator * (self.den // e.cap.denominator) for e in self._g.edges],
                dtype=np.int64 if self._big - self.den < 1 << 63 else object)
            # side j puts other vertex i on side a when bit i of j is set
            s = len(self._others)
            self._sides = (np.arange(1 << s)[:, None] >> np.arange(s) & 1).astype(bool)
        u, v = self._ends
        k = len(self._terms)
        x = np.empty((len(self._sides), len(side_a), self._g.n), dtype=bool)
        x[:, :, :k] = side_a
        x[:, :, k:] = self._sides[:, None, :]
        return ((x[:, :, u] != x[:, :, v]) @ self._edge_caps).min(axis=0)

    def _stack_values(self, side_a: np.ndarray, side_b: np.ndarray) -> np.ndarray:
        """Scaled max-flow values of the rows in one stacked network: copy
        c of G wires row c's sides to the super-source and super-sink."""
        from scipy.sparse import csr_array
        from scipy.sparse.csgraph import maximum_flow

        if self._cols is None:
            self._compile_copy()
        big = np.int32(self._big)
        source_caps, sink_caps = side_a * big, side_b * big
        copies, k = source_caps.shape
        n, arcs = len(self._indptr) - 1, len(self._cols)
        source, sink = copies * n, copies * n + 1
        copy = np.arange(copies, dtype=np.int32)[:, None]
        cols = self._cols + n * copy
        cols[:, self._sink_entries] = sink
        caps = np.tile(self._caps, (copies, 1))
        caps[:, self._sink_entries] = sink_caps
        end = copies * (arcs + k)
        indptr = np.concatenate(
            ((self._indptr[:-1] + arcs * copy).ravel(), [copies * arcs, end, end])
        ).astype(np.int32)
        net = csr_array(
            (
                np.concatenate((caps.ravel(), source_caps.ravel())),
                np.concatenate((cols.ravel(), (self._term_rows + n * copy).ravel())),
                indptr,
            ),
            shape=(copies * n + 2, copies * n + 2),
        )
        flow = maximum_flow(net, source, sink, method="dinic").flow
        lo, hi = flow.indptr[source], flow.indptr[source + 1]
        # float64 sums are exact here: every copy's flow is below 2^31
        per_copy = np.bincount(flow.indices[lo:hi] // n, flow.data[lo:hi], minlength=copies)
        return per_copy.astype(np.int64)

    def _network(self) -> Net:
        if self.net is None:
            net = Net()
            net._rescale(self.den)  # before any arc: no arc is scaled twice
            for e in self._g.edges:
                if e.u != e.v:
                    net.undirected(e.u, e.v, e.cap, key=e.eid)
            self._source_arc: dict[int, int] = {}
            for v in self._terms:
                self._source_arc[v] = len(net._to)
                net.arc(net.source, v, 0)
            self._sink_arc: dict[int, int] = {}
            for v in self._terms:
                self._sink_arc[v] = len(net._to)
                net.arc(v, net.sink, 0)
            self._base = tuple(net._cap)
            self.net = net
        return self.net

    def min_cut(
        self, term_a: Iterable[int], term_b: Iterable[int]
    ) -> tuple[Fraction, CutCertificate]:
        """Capacity of the minimum cut separating term_a from term_b, with
        its minimal source side; `net` holds the flow until the next cut."""
        ta, tb = self._checked(term_a, term_b)
        net = self._network()
        cap = list(self._base)
        for side, arcs in ((ta, self._source_arc), (tb, self._sink_arc)):
            for v in side:
                cap[arcs[v]] = self._big
        net._cap = cap
        value = net.max_flow(net.source, net.sink)
        side_a = net.cut_side()
        return value, CutCertificate(side_a, self._vertices - side_a, value)


def bipartitions(terms: Sequence[int], budget: int, seed: int = 0) -> tuple[Sequence[int], bool]:
    """The masks of the terminal bipartitions with both sides nonempty, and
    whether they are all of them.  Mask m puts terms[0] and terms[i + 1] for
    every set bit i on side a and the other terminals on side b; the masks
    0 .. total - 1 give every split exactly once (mask `total` would leave
    side b empty), and are returned as a range.  Beyond the budget a seeded
    sample of 2 budget^2 distinct masks is drawn, in draw order, unless
    that many cover every split anyway.  `side_matrix` decodes masks."""
    k = len(terms)
    total = (1 << (k - 1)) - 1
    want = 2 * budget * budget
    if k <= budget or want >= total:
        return range(total), True
    rng = random.Random(seed)
    seen: dict[int, None] = {}  # insertion-ordered
    while len(seen) < want:
        seen[rng.randrange(total)] = None
    return list(seen), False


def side_matrix(terms: Sequence[int], masks: Sequence[int]) -> np.ndarray:
    """Side a of every mask of `bipartitions` over `terms`, as a boolean
    matrix with one row per mask and one column per terminal in ascending
    id order.  Masks of any width are unpacked from their little-endian
    bytes."""
    width = len(terms) - 1
    size = -(-width // 8)
    raw = np.frombuffer(
        b"".join(m.to_bytes(size, "little") for m in masks), dtype=np.uint8
    ).reshape(len(masks), size)
    bits = np.unpackbits(raw, axis=1, count=width, bitorder="little")
    column = {t: j for j, t in enumerate(sorted(terms))}
    side_a = np.empty((len(bits), len(terms)), dtype=bool)
    side_a[:, column[terms[0]]] = True
    side_a[:, [column[t] for t in terms[1:]]] = bits
    return side_a


def max_flow(
    g: CapGraph, sources: Iterable[int], sinks: Iterable[int]
) -> tuple[Fraction, FlowSolution, CutCertificate]:
    """Exact max flow between vertex sets (merged via a super source/sink).
    Returns value, a flow attaining it, and a minimum cut of equal value."""
    src, snk = set(sources), set(sinks)
    cuts = TerminalCuts(g, src | snk)
    value, cert = cuts.min_cut(src, snk)
    flows = cuts.net.flow_by_key()
    sol = FlowSolution({eid: abs(f) for eid, f in flows.items() if f != 0})
    return value, sol, cert


def flow_conserves(
    g: CapGraph, arc_flow: Mapping[tuple[int, int], Fraction], sources: Mapping[int, Fraction]
) -> bool:
    """Check exact conservation: net outflow at v equals sources[v] (negative
    for sinks), zero elsewhere.  arc_flow is keyed by (edge id, direction)."""
    net: dict[int, Fraction] = {}
    for (eid, d), f in arc_flow.items():
        e = g.edges[eid]
        u, v = (e.u, e.v) if d == 0 else (e.v, e.u)
        net[u] = net.get(u, Fraction(0)) + f
        net[v] = net.get(v, Fraction(0)) - f
    for v in g.vertices:
        if net.get(v, Fraction(0)) != sources.get(v, Fraction(0)):
            return False
    return True
