"""Exact-arithmetic toolkit for convex neural codes.

Combinatorics of codes and their simplicial complexes, three-valued
contractibility with certificates, exact rational polyhedral arrangements,
and extraction/verification of arrangement codes under open and closed
semantics.

Importing the package loads none of its modules: each exported name, and
each submodule, is imported on first access (PEP 562), so a process that
only extracts codes never loads ``topology``.
"""

from importlib import import_module

__version__ = "0.1.0"

# every exported name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "codes": (
            "AddCodewordResult",
            "MaxIntersectionCheck",
            "NeuralCode",
            "SimplicialComplex",
            "Word",
            "add_codeword",
            "complex_from_faces",
            "duplicate_neurons",
            "full_word",
            "is_max_intersection_complete",
            "is_sunflower_code",
            "maximal_codewords",
            "members",
            "neural_code",
            "permute",
            "restrict",
            "simplicial_complex",
            "word",
            "word_key",
            "word_label",
        ),
        "geometry": (
            "Arrangement",
            "LinearConstraint",
            "Polyhedron",
            "Rel",
            "Topology",
            "TopologyError",
            "code_of_arrangement",
            "constraint",
            "feasible_point",
            "find_atom_point",
            "integer_rows",
            "line_meets",
            "membership_pattern",
            "point_satisfies",
            "polyhedron",
        ),
        "topology": (
            "Contractibility",
            "ContractibilityResult",
            "FaceNotFoundError",
            "LocalObstructionReport",
            "contractibility",
            "is_locally_good",
            "link",
            "mandatory_codewords",
            "reduced_homology",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset({"cli", "codes", "fm", "formats", "generators", "geometry", "topology"})

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package, so this runs once
        return import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
