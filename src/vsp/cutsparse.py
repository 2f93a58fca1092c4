"""Cut sparsifiers with Steiner nodes.

Unit mode contracts a strong well-linked decomposition of the non-terminal
vertices: every cluster being 1/3-well-linked makes the contraction a
quality-3 cut sparsifier.  General capacities reduce to unit mode by capping
at the terminal-incident total C, expanding edges into ceil(c/eps) unit
parallels with eps = eps_input/3, and scaling the result back by eps, for
quality 3 + eps_input.

There is one builder, `build_cut_sparsifier(g, eps_input=None)`.  It finds
only the clusters, and H is contracted once by `assemble_cut_sparsifier`, as
`load_sparsifier` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .decompose import Decomposition, interior_decompositions
from .errors import InputError, ParamError
from .graph import CapGraph, ContractionMap, contract, out_edges, unit_expand
from .sparsecut import DEFAULT_ENUM_BUDGET

if TYPE_CHECKING:
    from .flowsparse import RouterCertificate


@dataclass
class Sparsifier:
    """H, a contraction of G, with its claimed quality.  A flow sparsifier is
    a cut sparsifier plus one router certificate per cluster of `cmap`, in
    the same order; `kind` reads the mode off `certificates`.  With
    `eps_input`, `unit_graph` is derived from G (the cut mode's unit
    expansion, the flow mode's capacitated unit reduction), and its integer
    capacities are the edge multiplicities the build used."""

    graph: CapGraph  # H, terminals preserved
    cmap: ContractionMap
    quality: Fraction  # claimed q
    unit_graph: CapGraph  # the unit graph the clusters (and certificates) live on
    eps_input: Fraction | None = None
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


def build_cut_sparsifier(
    g: CapGraph, eps_input: Fraction | int | str | None = None, budget: int = DEFAULT_ENUM_BUDGET
) -> Sparsifier:
    """The cut sparsifier of G.  Without eps_input G must be a unit multigraph
    (integer capacities are parallel-edge multiplicities) and the quality is
    3; with it the clusters are found on G's unit expansion at eps_input/3 and
    the quality is 3 + eps_input.  The terminal-free region is strongly
    decomposed per connected piece, and `assemble_cut_sparsifier` contracts
    every cluster once, deriving the expansion from G again as a load does."""
    if eps_input is None:
        if not g.is_unit:
            raise InputError("unit mode (no eps) requires integer (multiplicity) capacities")
        ug = g
    else:
        eps_input = Fraction(eps_input)
        ug = _unit_reduction(g, eps_input)
    decs = interior_decompositions(ug, budget)
    return assemble_cut_sparsifier(g, _clusters(decs), eps_input, decs)


def _clusters(decs: list[Decomposition]) -> list[frozenset[int]]:
    return [c.members for dec in decs for c in dec.clusters]


def _unit_reduction(g: CapGraph, eps_input: Fraction) -> CapGraph:
    if not (0 < eps_input <= 1):
        raise ParamError(f"eps must be in (0,1], got {eps_input}")
    return unit_expand(g, eps_input / 3)


def assemble_cut_sparsifier(
    g: CapGraph,
    clusters: Iterable[Iterable[int]],
    eps_input: Fraction | None,
    decompositions: Iterable[Decomposition] = (),
) -> Sparsifier:
    """The cut sparsifier of G that contracts `clusters`.  Without eps_input
    G is the unit graph and the claimed quality is 3.  With it, the clusters
    live on G's unit expansion at eps_input/3, H's capacities are scaled
    back by eps_input/3 and the claimed quality is 3 + eps_input."""
    if eps_input is None:
        h, cmap = contract(g, clusters)
        return Sparsifier(h, cmap, Fraction(3), g, decompositions=list(decompositions))
    ug = _unit_reduction(g, eps_input)
    hu, cmap = contract(ug, clusters)
    eps = eps_input / 3
    h = CapGraph(hu.vertices, [(e.u, e.v, e.cap * eps) for e in hu.edges], hu.terminals)
    return Sparsifier(h, cmap, 3 + eps_input, ug, eps_input,
                      decompositions=list(decompositions))


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
