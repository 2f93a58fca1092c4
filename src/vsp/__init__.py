"""Vertex cut and flow sparsifiers with Steiner nodes."""

from .graph import CapGraph, ContractionMap, SubdividedInstance
from .graph import contract, out_edges, read_graph, subdivide_boundary, write_graph

__all__ = [
    "CapGraph",
    "ContractionMap",
    "SubdividedInstance",
    "contract",
    "out_edges",
    "read_graph",
    "subdivide_boundary",
    "write_graph",
]
