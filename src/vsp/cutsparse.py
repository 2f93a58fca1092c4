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
the clusters, and H is contracted once by `serialize.assemble_cut_sparsifier`,
as `load_sparsifier` does.  `vsp verify` checks the quality: it prices the
terminal splits in G and in H (`verify.verify_cut_quality`) and compares
their ratios with the claim.
"""

from __future__ import annotations

from .decompose import interior_decompositions
from .errors import InputError
from .graph import CapGraph
from .serialize import Sparsifier, assemble_cut_sparsifier
from .sparsecut import DEFAULT_ENUM_BUDGET


def build_cut_sparsifier(g: CapGraph, *, budget: int = DEFAULT_ENUM_BUDGET) -> Sparsifier:
    """The quality-3 cut sparsifier of G, whose capacities must be at least
    1.  The terminal-free region is strongly decomposed per connected piece,
    and `assemble_cut_sparsifier` contracts every cluster once."""
    for e in g.edges:
        if e.cap < 1:
            raise InputError(f"edge {e.eid} has capacity {e.cap} < 1")
    decs = interior_decompositions(g, budget)
    return assemble_cut_sparsifier(g, [c.members for dec in decs for c in dec.clusters])
