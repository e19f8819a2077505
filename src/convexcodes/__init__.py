"""Exact-arithmetic toolkit for convex neural codes.

Combinatorics of codes and their simplicial complexes, three-valued
contractibility with certificates, exact rational polyhedral arrangements,
and extraction/verification of arrangement codes under open and closed
semantics.
"""

from .codes import (
    AddCodewordResult,
    MaxIntersectionCheck,
    NeuralCode,
    SimplicialComplex,
    Word,
    add_codeword,
    complex_from_faces,
    duplicate_neurons,
    full_word,
    is_max_intersection_complete,
    is_sunflower_code,
    maximal_codewords,
    members,
    neural_code,
    permute,
    restrict,
    simplicial_complex,
    word,
    word_key,
    word_label,
)
from .geometry import (
    Arrangement,
    LinearConstraint,
    Polyhedron,
    Rel,
    Topology,
    TopologyError,
    code_of_arrangement,
    constraint,
    feasible_point,
    find_atom_point,
    integer_rows,
    line_meets,
    membership_pattern,
    point_satisfies,
    polyhedron,
)
from .topology import (
    Contractibility,
    ContractibilityResult,
    FaceNotFoundError,
    LocalObstructionReport,
    contractibility,
    is_locally_good,
    link,
    mandatory_codewords,
    reduced_homology,
)

__version__ = "0.1.0"
