"""Exact maximum flow / minimum cut.

All capacities are rationals; internally every instance is scaled by the
common denominator so Dinic runs on integers and both the flow value and
the cut certificate are exact.

Terminal cuts are compiled once per graph: `TerminalCuts` turns G into
integer arc arrays with a zero-capacity source arc and sink arc per
terminal.  Each split copies the base capacities, raises its own terminals'
arcs above any cut value and reruns Dinic on the same arrays, so the
bipartition sweeps of the sparsest cut and of cut verification pay for the
`Fraction` arithmetic once, not once per split.  `min_cut_between` and
`max_flow` are one-shot uses.

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

from .errors import InputError
from .graph import CapGraph


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

    def recheck_value(self, g: CapGraph) -> Fraction:
        total = Fraction(0)
        for e in g.edges:
            if (e.u in self.side_a) != (e.v in self.side_a):
                total += e.cap
        return total


@dataclass
class FlowSolution:
    """Edge flows of one routing plus enough structure to re-verify it.

    edge_flow maps edge id -> total (unsigned) flow through the edge;
    paths, when present, are (amount, (src, dst), [edge ids]).
    """

    edge_flow: dict[int, Fraction]
    paths: list[tuple[Fraction, tuple, list[int]]] = field(default_factory=list)
    eta: Fraction | None = None
    exact: bool = True

    def congestion(self, g: CapGraph) -> Fraction:
        worst = Fraction(0)
        caps = {e.eid: e.cap for e in g.edges}
        for eid, f in self.edge_flow.items():
            worst = max(worst, abs(f) / caps[eid])
        return worst


class TerminalCuts:
    """G's flow network compiled once, for any number of minimum cuts between
    disjoint groups of the given terminals.  Source and sink arcs are added
    in sorted terminal order at capacity 0, and Dinic never traverses an arc
    of capacity 0, so every solve visits the arcs a network wired for that
    split alone would visit, in the same order."""

    def __init__(self, g: CapGraph, terminals: Iterable[int]):
        terms = sorted(set(terminals))
        for v in terms:
            if not g.has_vertex(v):
                raise InputError(f"unknown vertex id {v}")
        net = Net()
        for e in g.edges:
            if e.u != e.v:
                net.undirected(e.u, e.v, e.cap, key=e.eid)
        self._big = net._scaled(sum((e.cap for e in g.edges), Fraction(0)) + 1)
        self._source_arc: dict[int, int] = {}
        for v in terms:
            self._source_arc[v] = len(net._to)
            net.arc(net.source, v, 0)
        self._sink_arc: dict[int, int] = {}
        for v in terms:
            self._sink_arc[v] = len(net._to)
            net.arc(v, net.sink, 0)
        self.net = net
        self._base = tuple(net._cap)
        self._vertices = frozenset(g.vertices)

    def min_cut(
        self, term_a: Iterable[int], term_b: Iterable[int]
    ) -> tuple[Fraction, CutCertificate]:
        """Capacity of the minimum cut separating term_a from term_b, with
        its minimal source side; `net` holds the flow until the next cut."""
        ta, tb = set(term_a), set(term_b)
        if not ta or not tb:
            raise InputError("empty source or sink set")
        if ta & tb:
            raise InputError("terminal sides overlap")
        cap = list(self._base)
        for side, arcs in ((ta, self._source_arc), (tb, self._sink_arc)):
            for v in side:
                a = arcs.get(v)
                if a is None:
                    raise InputError(f"vertex {v} is not a compiled terminal")
                cap[a] = self._big
        net = self.net
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


def min_cut_between(
    g: CapGraph, term_a: Iterable[int], term_b: Iterable[int]
) -> tuple[Fraction, CutCertificate]:
    """Capacity of the minimum cut separating two disjoint terminal sets;
    no flow is extracted.  For many cuts on one graph, compile a
    TerminalCuts once instead."""
    ta, tb = set(term_a), set(term_b)
    return TerminalCuts(g, ta | tb).min_cut(ta, tb)


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
