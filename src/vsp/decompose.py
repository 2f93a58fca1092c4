"""Well-linked decompositions.

Both procedures maintain a partition of the input set and keep splitting
along sparse cuts; they differ in the sparsity threshold, the solver, and
the bounds they guarantee:

* weak: threshold 1/(128 log z) relative to the input boundary z, exact
  solver within budget and the spectral heuristic beyond it; final boundary
  tally at most 1.2 z; every split moves at most 0.51 of the split cluster's
  boundary to the smaller side.
* strong: threshold 1/3, exact solver only (refuses beyond budget); every
  final cluster is 1/3-well-linked, the boundary tally is at most 3 z^3 and
  level i holds at most 2^(3i+3) clusters.

Every split is recorded so certification can re-derive the claims.  A final
cluster keeps the instance G_S its solver cleared (`ClusterCert`), which the
flow builder's router search reuses together with the verdict.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .errors import BudgetExceeded, InputError
from .graph import CapGraph, SubdividedInstance, out_capacity, out_edges, subdivide_boundary
from .params import ONE_THIRD, weak_threshold
from .sparsecut import DEFAULT_ENUM_BUDGET, SparsestCut, sparsest_cut, sparsest_cut_exact


@dataclass(frozen=True)
class ClusterCert:
    """A final cluster S, its members and boundary z read off the instance
    G_S that the solver cleared.  A strong decomposition's alpha is an exact
    verdict on G_S, which the flow builder takes as the well-linked half of
    the router property and `vsp verify` rechecks."""

    inst: SubdividedInstance
    alpha: Fraction | None  # claimed well-linkedness level; None = every alpha
    source: str  # "exact" | "heuristic" | "trivial"
    level: int | None = None  # strong decomposition level index

    @property
    def members(self) -> frozenset[int]:
        return self.inst.members

    @property
    def z(self) -> Fraction:
        return self.inst.z


@dataclass(frozen=True)
class SplitEvent:
    members: frozenset[int]
    z_cluster: Fraction
    sparsity: Fraction
    side_a: frozenset[int]  # smaller-boundary-terminal side
    out_a: Fraction
    out_b: Fraction
    crossing: Fraction


@dataclass
class Decomposition:
    kind: str  # "weak" | "strong"
    parent_members: frozenset[int]
    z: Fraction
    threshold: Fraction
    clusters: list[ClusterCert]
    events: list[SplitEvent] = field(default_factory=list)
    budget: int = DEFAULT_ENUM_BUDGET

    @property
    def boundary_tally(self) -> Fraction:
        return sum((c.z for c in self.clusters), Fraction(0))

    def level_counts(self) -> dict[int, int]:
        return dict(Counter(c.level for c in self.clusters if c.level is not None))


def _level_of(z: Fraction, out_r: Fraction) -> int | None:
    """Smallest i >= 1 with out_r > z / 2^i."""
    if out_r <= 0 or z <= 0:
        return None
    i = 1
    while out_r * (1 << i) <= z:
        i += 1
    return i


def _record_split(
    g: CapGraph,
    events: list[SplitEvent],
    members: frozenset[int],
    z_cluster: Fraction,
    sparsity: Fraction,
    a: frozenset[int],
    b: frozenset[int],
) -> list[tuple[Fraction, frozenset[int]]]:
    """Append the event with a = the side carrying fewer parent-boundary
    terminals, and return [(out(a), a), (out(b), b)] in that order."""
    out_a, out_b = out_capacity(g, a), out_capacity(g, b)
    # out(a) + out(b) = z_cluster + 2 crossing, so a side's share of the
    # parent boundary, out(side) - crossing, orders the sides as out(side)
    if out_b < out_a:
        a, b, out_a, out_b = b, a, out_b, out_a
    crossing = (out_a + out_b - z_cluster) / 2
    events.append(SplitEvent(members, z_cluster, sparsity, a, out_a, out_b, crossing))
    return [(out_a, a), (out_b, b)]


def _split_until_linked(
    g: CapGraph,
    ms: frozenset[int],
    threshold: Fraction,
    solver: Callable[..., SparsestCut],
    level: Callable[[Fraction], int | None],
    budget: int,
) -> tuple[list[ClusterCert], list[SplitEvent]]:
    """Split the components of `ms` along disconnections and along cuts
    sparser than `threshold`, largest boundary first, until no cluster has
    one.  A work item is (boundary capacity, members).  A final cluster
    keeps the instance its solver cleared; its source is "exact" or
    "heuristic" by that solver and its level is `level` of its boundary."""
    events: list[SplitEvent] = []
    final: list[ClusterCert] = []
    work = [(out_capacity(g, c), frozenset(c)) for c in g.components(within=ms)]
    while work:
        z, cur = work.pop(max(range(len(work)), key=lambda i: (work[i][0], -min(work[i][1]))))
        comps = g.components(within=cur)
        if len(comps) > 1:
            first = frozenset(comps[0])
            work += _record_split(g, events, cur, z, Fraction(0), first, cur - first)
            continue
        inst = subdivide_boundary(g, cur)
        res = solver(inst, budget=budget, stop_below=threshold)
        if res.trivially_well_linked:
            final.append(ClusterCert(inst, None, "trivial", level(z)))
            continue
        if res.sparsity < threshold and res.pendant_split_edge is None:
            a = res.cut.side_a & cur
            if not a or a == cur:
                raise AssertionError("sparse cut did not split the cluster members")
            work += _record_split(g, events, cur, z, res.sparsity, a, cur - a)
            continue
        source = "exact" if res.exact else "heuristic"
        final.append(ClusterCert(inst, threshold, source, level(z)))
    final.sort(key=lambda c: min(c.members))
    return final, events


def weak_decompose(
    g: CapGraph,
    members: Iterable[int],
    budget: int = DEFAULT_ENUM_BUDGET,
) -> Decomposition:
    """Weak well-linked decomposition.  Never refuses: beyond the exact
    budget the heuristic solver drives the splitting, and surviving clusters
    are tagged source="heuristic"."""
    ms = frozenset(members)
    z = out_capacity(g, ms)
    threshold = weak_threshold(z) if z > 0 else Fraction(1, 128)
    final, events = _split_until_linked(
        g, ms, threshold, sparsest_cut, lambda _zc: None, budget
    )
    return Decomposition("weak", ms, z, threshold, final, events, budget)


def strong_decompose(
    g: CapGraph,
    members: Iterable[int],
    budget: int = DEFAULT_ENUM_BUDGET,
) -> Decomposition:
    """Strong well-linked decomposition: every final cluster exactly
    certified 1/3-well-linked on its instance, which the cluster keeps.
    Exact solver only; raises BudgetExceeded rather than silently
    degrading."""
    ms = frozenset(members)
    if not ms:
        raise InputError("empty vertex set")
    if not g.is_connected_subset(ms):
        raise InputError("strong decomposition requires a connected induced subgraph")
    z = out_capacity(g, ms)
    final, events = _split_until_linked(
        g, ms, ONE_THIRD, sparsest_cut_exact, lambda zc: _level_of(z, zc), budget
    )
    dec = Decomposition("strong", ms, z, ONE_THIRD, final, events, budget)
    _check_strong_bounds(dec)
    return dec


def interior_decompositions(
    g: CapGraph, budget: int = DEFAULT_ENUM_BUDGET
) -> list[Decomposition]:
    """Strong decompositions of the terminal-free part of g: one per
    connected piece of each component's non-terminals, components in order."""
    tset = set(g.terminals)
    return [
        strong_decompose(g, piece, budget=budget)
        for comp in g.components()
        for piece in g.components(within=[v for v in comp if v not in tset])
    ]


def _check_strong_bounds(dec: Decomposition) -> None:
    z = dec.z
    if z > 0 and dec.boundary_tally > 3 * z**3:
        raise AssertionError(
            f"strong decomposition boundary tally {dec.boundary_tally} exceeds 3z^3"
        )
    for i, count in dec.level_counts().items():
        if count > 1 << (3 * i + 3):
            raise AssertionError(f"level {i} holds {count} clusters > 2^(3i+3)")


def certify_decomposition(g: CapGraph, dec: Decomposition) -> dict:
    """Re-derive every claim of a decomposition from scratch.  Failures are
    report entries, not exceptions.  The well-linked check finds each
    cluster's least sparsity with no threshold, so the least split is
    re-solved in Python against the sweep's value.  A cluster whose check
    exceeds the decomposition's enumeration budget is not checked: its
    index is listed under "skipped" and named in the check's text, and it
    counts as work not done, not as passed."""
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str = ""):
        checks.append((name, ok, detail))

    union = frozenset().union(*(c.members for c in dec.clusters)) if dec.clusters else frozenset()
    sizes = sum(len(c.members) for c in dec.clusters)
    add("partition", union == dec.parent_members and sizes == len(dec.parent_members),
        f"{sizes} members over {len(dec.clusters)} clusters")

    z = dec.z
    ok_b = True
    for c in dec.clusters:
        real = [e.eid for e in out_edges(g, c.members)]
        real_z = out_capacity(g, c.members)
        if real != [c.inst.pendant_of[t] for t in c.inst.terminals] or real_z != c.z:
            ok_b = False
        if real_z > z:
            ok_b = False
    add("boundaries", ok_b, "per-cluster out(R) recomputed, out(R) <= out(S)")

    tally = dec.boundary_tally
    if dec.kind == "weak":
        bound = Fraction(12, 10) * z
        add("tally", tally <= bound, f"sum out(R) = {tally} <= 1.2 z = {bound}")
    else:
        bound = 3 * z**3
        add("tally", z == 0 or tally <= bound, f"sum out(R) = {tally} <= 3z^3 = {bound}")
        lc = dec.level_counts()
        add(
            "levels",
            all(n <= 1 << (3 * i + 3) for i, n in lc.items()),
            f"level counts {lc}",
        )

    ok_conn = all(g.is_connected_subset(c.members) for c in dec.clusters)
    add("connected", ok_conn, "every cluster induces a connected subgraph")

    ok_wl, detail, skipped = True, [], []
    for ci, c in enumerate(dec.clusters):
        if c.alpha is None:
            continue
        inst = subdivide_boundary(g, c.members)
        try:
            res = sparsest_cut_exact(inst, budget=dec.budget)
        except BudgetExceeded:
            skipped.append(ci)
            continue
        if not res.trivially_well_linked and res.sparsity < c.alpha:
            ok_wl = False
            detail.append(f"cluster at {min(c.members)}: sparsity {res.sparsity} < {c.alpha}")
    if skipped:
        detail.append(f"clusters {skipped}: skipped (budget)")
    add("well-linked", ok_wl, "; ".join(detail) or "all clusters at claimed alpha")

    ok_ev = True
    for ev in dec.events:
        if ev.sparsity >= dec.threshold:
            ok_ev = False
        if dec.kind == "weak" and ev.out_a > Fraction(51, 100) * ev.z_cluster:
            ok_ev = False
    add("events", ok_ev, f"{len(dec.events)} splits below threshold {dec.threshold}")

    return {"ok": all(ok for _n, ok, _d in checks), "checks": checks, "skipped": skipped}
