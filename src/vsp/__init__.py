"""Vertex cut and flow sparsifiers with Steiner nodes."""

from .graph import CapGraph, ContractionMap, SubdividedInstance
from .graph import contract, out_edges, read_graph, subdivide_boundary
from .graph import unit_expand, write_graph

__all__ = [
    "CapGraph",
    "ContractionMap",
    "SubdividedInstance",
    "contract",
    "out_edges",
    "read_graph",
    "subdivide_boundary",
    "unit_expand",
    "write_graph",
]
