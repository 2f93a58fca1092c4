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
as `load_sparsifier` does.  `verify_cut_projection` replays the quality-3
rounding (`lift_cut`) split by split; `vsp verify` prices each split directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable

import numpy as np

from .decompose import interior_decompositions
from .errors import InputError
from .flow import TerminalCuts, bipartitions
from .graph import CapGraph, out_capacity, out_edges
from .serialize import Sparsifier, assemble_cut_sparsifier
from .sparsecut import DEFAULT_ENUM_BUDGET
from .verify import DEFAULT_CUT_ENUM_BUDGET, QualityReport


def build_cut_sparsifier(g: CapGraph, *, budget: int = DEFAULT_ENUM_BUDGET) -> Sparsifier:
    """The quality-3 cut sparsifier of G, whose capacities must be at least
    1.  The terminal-free region is strongly decomposed per connected piece,
    and `assemble_cut_sparsifier` contracts every cluster once."""
    for e in g.edges:
        if e.cap < 1:
            raise InputError(f"edge {e.eid} has capacity {e.cap} < 1")
    decs = interior_decompositions(g, budget)
    return assemble_cut_sparsifier(g, [c.members for dec in decs for c in dec.clusters])


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


def verify_cut_projection(sp: Sparsifier, seed: int = 0,
                          enum_budget: int = DEFAULT_CUT_ENUM_BUDGET) -> QualityReport:
    """Exercise the rounding argument directly: for every enumerated
    bipartition, project H's minimum cut to the unit graph G (equal value)
    and lift G's minimum cut to an H-cut of at most 3x the value."""
    g_unit = sp.unit_graph
    rep = QualityReport("cut", None)
    terms = list(g_unit.terminals)
    if len(terms) < 2:
        rep.q_observed = Fraction(1)
        return rep
    masks, exhaustive = bipartitions(terms, enum_budget, seed)
    rep.flags["exhaustive"] = exhaustive
    cuts_g, cuts_h = TerminalCuts(g_unit, terms), TerminalCuts(sp.graph, terms)
    ids = np.array(sorted(terms))
    worst = Fraction(1)
    for i, row in enumerate(chain.from_iterable(cuts_g.chunks(terms, masks))):
        ta, tb = ids[row].tolist(), ids[~row].tolist()
        vg, cert = cuts_g.min_cut(ta, tb)
        lifted_side, _steps = lift_cut(g_unit, sp.cmap.clusters, cert.side_a)
        lifted_val = out_capacity(g_unit, lifted_side)
        if vg > 0 and lifted_val > 3 * vg:
            rep.violations.append(f"test {i}: lift {lifted_val} > 3 x {vg}")
        # projection: H's min cut expands to a G-cut of identical value
        vh, hcert = cuts_h.min_cut(ta, tb)
        back = sp.cmap.preimage(hcert.side_a)
        if out_capacity(sp.graph, hcert.side_a) != out_capacity(g_unit, back):
            rep.violations.append(f"test {i}: projection changed the cut value")
        if vg > 0:
            worst = max(worst, lifted_val / vg)
        rep.records.append({"id": i, "g": vg, "lift": lifted_val, "h": vh})
    rep.q_observed = worst
    return rep
