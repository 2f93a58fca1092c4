"""Cut sparsifiers with Steiner nodes.

The cut sparsifier contracts a strong well-linked decomposition of G's
non-terminal vertices.  Every cluster is 1/3-well-linked in G, so the
contraction has quality 3; the argument needs only capacities c_e >= 1, so
capacitated inputs are decomposed as they are, with no unit expansion.  H
of a connected G with terminals has at most 3C^3 Steiner vertices, C the
terminal capacity: every cluster's boundary is at least 1, the boundary
tally of a piece with boundary z is at most 3z^3, and the z sum to at
most C.

There is one builder, `build_cut_sparsifier(g, *, budget)`.  It finds only
the clusters, and H is contracted once by `assemble_cut_sparsifier`, as
`load_sparsifier` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .decompose import Decomposition, interior_decompositions
from .errors import InputError
from .graph import CapGraph, ContractionMap, contract, out_edges
from .sparsecut import DEFAULT_ENUM_BUDGET

if TYPE_CHECKING:
    from .flowsparse import RouterCertificate


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
    decompositions: list[Decomposition] = field(default_factory=list)
    log: list[str] = field(default_factory=list)
    size_bound_met: bool | None = None  # a flow build result; None once loaded

    @property
    def kind(self) -> str:
        return "cut" if self.certificates is None else "flow"

    @property
    def steiner_count(self) -> int:
        return self.graph.n - self.graph.k


def build_cut_sparsifier(g: CapGraph, *, budget: int = DEFAULT_ENUM_BUDGET) -> Sparsifier:
    """The quality-3 cut sparsifier of G, whose capacities must be at least
    1.  The terminal-free region is strongly decomposed per connected piece,
    and `assemble_cut_sparsifier` contracts every cluster once."""
    for e in g.edges:
        if e.cap < 1:
            raise InputError(f"edge {e.eid} has capacity {e.cap} < 1")
    decs = interior_decompositions(g, budget)
    return assemble_cut_sparsifier(g, [c.members for dec in decs for c in dec.clusters], decs)


def assemble_cut_sparsifier(
    g: CapGraph, clusters: Iterable[Iterable[int]], decompositions: Iterable[Decomposition] = ()
) -> Sparsifier:
    """The cut sparsifier of G that contracts `clusters`, claiming quality 3."""
    h, cmap = contract(g, clusters)
    return Sparsifier(h, cmap, Fraction(3), g, decompositions=list(decompositions))


@dataclass(frozen=True)
class LiftStep:
    cluster: frozenset[int]
    moved_to: str  # "X" | "Y"
    added: Fraction  # capacity the move added to the cut
    removed: Fraction  # inner cut capacity the move erased


def lift_cut(
    g: CapGraph, clusters: Iterable[frozenset[int]], side_x: Iterable[int]
) -> tuple[set[int], list[LiftStep]]:
    """Round a G-bipartition so every cluster lies wholly on one side, the
    move rule being the boundary-weight comparison with ties sent to Y.
    When every cluster is 1/3-well-linked the final cut costs at most 3x the
    original."""
    x = set(side_x)
    steps: list[LiftStep] = []
    for members in sorted(clusters, key=min):
        inter = members & x
        if not inter or inter == members:
            continue
        e_x = e_y = e_xy = e_yx = Fraction(0)
        for e in out_edges(g, members):
            u_in, v_out = (e.u, e.v) if e.u in members else (e.v, e.u)
            if u_in in x and v_out in x:
                e_x += e.cap
            elif u_in not in x and v_out not in x:
                e_y += e.cap
            elif u_in in x:
                e_xy += e.cap
            else:
                e_yx += e.cap
        inner = sum(
            (
                e.cap
                for e in g.edges
                if e.u in members and e.v in members and (e.u in x) != (e.v in x)
            ),
            Fraction(0),
        )
        if e_x + e_xy <= e_y + e_yx:
            x -= members
            steps.append(LiftStep(members, "Y", e_x, inner))
        else:
            x |= members
            steps.append(LiftStep(members, "X", e_y, inner))
    return x, steps
