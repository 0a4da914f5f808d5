"""Odd-order split metacyclic groups and their tetravalent edge-transitive Cayley graphs."""

from metacirc.autosearch import automorphism_group, canonical_form, are_isomorphic
from metacirc.classify import ClassReport, GroupReport, classify_spec, emit_report
from metacirc.graphs import Graph, build_cayley, from_graph6, to_graph6
from metacirc.groups import Element, GroupSpec, IDENTITY
from metacirc.permgroup import PermGroup
from metacirc.predictions import standard_connection_set

__version__ = "0.1.0"

__all__ = [
    "ClassReport",
    "Element",
    "Graph",
    "GroupReport",
    "GroupSpec",
    "IDENTITY",
    "PermGroup",
    "are_isomorphic",
    "automorphism_group",
    "build_cayley",
    "canonical_form",
    "classify_spec",
    "emit_report",
    "from_graph6",
    "standard_connection_set",
    "to_graph6",
    "__version__",
]
