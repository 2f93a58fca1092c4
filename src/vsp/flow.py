"""Exact maximum flow / minimum cut.

All capacities are rationals; internally every instance is scaled by the
common denominator so Dinic runs on integers and both the flow value and
the cut certificate are exact.

`Net` is the pure-Python Dinic network.  It returns flows, paths and the
minimal source side of a minimum cut.

`TerminalCuts` serves the bipartition sweeps of the sparsest cut and of cut
verification, many splits of one graph's terminals.  It scales G's arcs
once.  `values` prices a whole sweep with SciPy's compiled Dinic, one call
per chunk of splits on a block-diagonal stack of copies of G, and `min_cut`
runs `Net` for the one split whose certificate a caller needs.  SciPy holds
capacities, flows and residuals in int32 and silently truncates wider
capacities.  A residual can reach twice the scaled total capacity, so a
graph for which that doubled total reaches 2^31 never goes to SciPy: its
splits are priced one by one in Python.  So are sweeps of fewer than
`_FEW_SPLITS` splits, for which one SciPy call costs more than the Python
solves.

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
from itertools import islice
from math import lcm
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_flow

from .errors import InputError
from .graph import CapGraph

# SciPy's maximum_flow holds capacities, flows and residuals as int32
_INT32_LIMIT = 1 << 31
# nodes plus arcs of one stacked network: bounds the memory of a solve
_CHUNK_SIZE = 1 << 16
# sweeps have 2^(k-1) - 1 splits; measured on the cluster graphs of the
# benchmark workloads, sweeps of 1, 3 and 7 splits run faster in pure
# Python and sweeps of 15 or more in one SciPy call
_FEW_SPLITS = 8


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
        cap = Fraction(cap)
        self._rescale(lcm(self._den, cap.denominator))
        return int(cap * self._den)

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
    eta: Fraction | None = None


class TerminalCuts:
    """Minimum cuts between disjoint groups of the given terminals of one
    graph G, for any number of splits.

    G's capacities are scaled once to integers over their common
    denominator.  `_big`, the scaled total capacity plus one, exceeds every
    arc (summed parallel arcs included) and every cut, so a split wires its
    terminals to the super-source and the super-sink at `_big`.

    `values` prices a sequence of splits in compiled code.  It stacks one
    copy of G's arc set per split into a block-diagonal network whose copies
    share the super-terminals, and one call of SciPy's Dinic solves a chunk
    of splits.  The copies share no arc, so a maximum flow of the stack is a
    maximum flow of every copy, and a split's value is the flow that the
    super-source sends into its copy.  SciPy's solver keeps capacities and
    flows in int32 and silently truncates wider capacities (an arc of 2^40
    comes back as a flow of 0).  An arc u->v and its reverse both carry the
    summed capacity c < `_big`, and a residual is c minus a flow of at least
    -c, so residuals reach 2 (`_big` - 1).  When 2 `_big` reaches 2^31 no
    network of G goes to SciPy: `values` prices the splits one by one with
    `min_cut` instead.  It does the same for a chunk of fewer than
    `_FEW_SPLITS` splits: a SciPy call costs about 0.3 ms before it solves
    anything.

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
        total = sum((e.cap for e in g.edges), Fraction(0)) + 1
        self._den = lcm(total.denominator, *(e.cap.denominator for e in g.edges))
        self._big = int(total * self._den)
        self.net: Net | None = None
        self._cols: np.ndarray | None = None  # G's CSR rows, compiled on first stacked solve
        self._chunk = max(_FEW_SPLITS, _CHUNK_SIZE // (g.n + 2 * g.m + 2 * len(terms)))

    def _compile_copy(self):
        # one copy of G as CSR rows over vertex positions; each terminal's
        # row ends in an arc to column n, which stands for the super-sink
        pos = {v: i for i, v in enumerate(self._g.vertices)}
        arcs: dict[tuple[int, int], int] = {}
        for e in self._g.edges:
            if e.u != e.v:
                c = e.cap.numerator * (self._den // e.cap.denominator)
                for a in ((pos[e.u], pos[e.v]), (pos[e.v], pos[e.u])):
                    arcs[a] = arcs.get(a, 0) + c
        n = len(pos)
        rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (u, v), c in sorted(arcs.items()):
            rows[u].append((v, c))
        term_rows = [pos[t] for t in self._terms]  # ascending, as the ids are
        for r in term_rows:
            rows[r].append((n, 0))
        self._indptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.int32)
        self._cols = np.array([v for r in rows for v, _ in r], dtype=np.int32)
        self._caps = np.array([c for r in rows for _, c in r], dtype=np.int32)
        self._term_rows = np.array(term_rows, dtype=np.int32)
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

    def values(
        self, splits: Iterable[tuple[Iterable[int], Iterable[int]]]
    ) -> Iterator[Fraction]:
        """The minimum cut value of every split (side a, side b), in order,
        solved a chunk of splits at a time as the iterator is consumed.  A
        chunk goes to SciPy when every residual (at most 2 `_big`) fits in
        int32 and the chunk holds at least `_FEW_SPLITS` splits; otherwise
        `min_cut` prices its splits."""
        splits = iter(splits)
        while chunk := [self._checked(ta, tb) for ta, tb in islice(splits, self._chunk)]:
            if 2 * self._big >= _INT32_LIMIT or len(chunk) < _FEW_SPLITS:
                yield from (self.min_cut(ta, tb)[0] for ta, tb in chunk)
            else:
                yield from (Fraction(v, self._den) for v in self._stack_values(chunk))

    def _stack_values(self, chunk: list[tuple[set, set]]) -> list[int]:
        """Scaled max-flow values of the splits in one stacked network: copy
        c of G wires split c's sides to the super-source and super-sink."""
        if self._cols is None:
            self._compile_copy()
        big = np.int32(self._big)
        source_caps = np.array([[t in ta for t in self._terms] for ta, _ in chunk]) * big
        sink_caps = np.array([[t in tb for t in self._terms] for _, tb in chunk]) * big
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
        out = np.zeros(copies, dtype=np.int64)
        np.add.at(out, flow.indices[lo:hi] // n, flow.data[lo:hi])
        return out.tolist()

    def _network(self) -> Net:
        if self.net is None:
            net = Net()
            for e in self._g.edges:
                if e.u != e.v:
                    net.undirected(e.u, e.v, e.cap, key=e.eid)
            net._rescale(self._den)
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


def bipartitions(
    terms: Sequence[int], budget: int, seed: int = 0
) -> tuple[Iterator[tuple[tuple[int, ...], tuple[int, ...]]], bool]:
    """Terminal bipartitions (side a, side b) with both sides nonempty, as a
    lazy iterator, and whether they are all of them.  Mask m puts terms[0]
    and terms[i + 1] for every set bit i on side a; the masks 0 .. total - 1
    give every split exactly once (mask `total` would leave side b empty).
    Beyond the budget a seeded sample of 2 budget^2 distinct masks is drawn,
    unless that many cover every split anyway."""
    k = len(terms)
    total = (1 << (k - 1)) - 1
    want = 2 * budget * budget
    first, rest = terms[0], terms[1:]

    def split(mask: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        a, b = [first], []
        for i, t in enumerate(rest):
            (a if mask >> i & 1 else b).append(t)
        return tuple(a), tuple(b)

    if k <= budget or want >= total:
        return map(split, range(total)), True

    def sample():
        rng = random.Random(seed)
        seen: set[int] = set()
        while len(seen) < want:
            mask = rng.randrange(total)
            if mask not in seen:
                seen.add(mask)
                yield split(mask)

    return sample(), False


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
