"""Exact combinatorics of Heegaard diagrams.

The package computes, in exact rational arithmetic, the index quantities
attached to a domain between two generators of a Heegaard diagram (Euler
measure, point multiplicities, Maslov index, embedded Euler characteristic)
and carries out the associated surface constructions as deterministic
cell-complex surgery.
"""

from hdindex.diagram import (
    ALPHA,
    BETA,
    Dart,
    DiagramError,
    HeegaardDiagram,
    Region,
    Quadrant,
    parse_diagram,
    serialize_diagram,
    trace_faces,
    validate_diagram,
)
from hdindex.domains import (
    Domain,
    Generator,
    connects,
    enumerate_generators,
    find_domains,
    is_positive,
    periodic_domain_basis,
    sigma_class,
)
from hdindex.formulas import (
    IndexReport,
    branch_budget,
    embedded_euler_char,
    euler_measure,
    generator_multiplicity,
    index_report,
    maslov_index,
    maslov_quarters,
    point_multiplicity,
)
from hdindex.builder import (
    BuiltSurface,
    PreconditionError,
    branched_cover_check,
    build_surface,
    cut_bad_corners,
    add_degenerate_corners,
    glue_copies,
    splice_boundary_circles,
    stabilized_surface,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
