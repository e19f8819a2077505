"""Value semantics of the package's record classes: equal fields give equal
objects with equal hashes, fields cannot be reassigned, and each ``repr``
reads as pinned."""

from __future__ import annotations

from fractions import Fraction

import pytest

from convexcodes import (
    Arrangement,
    Contractibility,
    ContractibilityResult,
    NeuralCode,
    SimplicialComplex,
    Topology,
    constraint,
    neural_code,
    polyhedron,
    word,
)
from convexcodes.cli import AnalysisReport, build_analysis
from convexcodes.codes import AddCodewordResult, MaxIntersectionCheck
from convexcodes.generators import CorpusEntry, Expected, Family, Realization
from convexcodes.geometry import LinearConstraint, Polyhedron
from convexcodes.topology import LocalObstructionReport


def _code():
    return neural_code(3, [[], [1, 2], [3]])


def _point_arrangement():
    return Arrangement(1, Topology.CLOSED, (polyhedron(1, [((1,), "<=", 0), ((-1,), "<=", 0)]),))


def _cone():
    return ContractibilityResult(Contractibility.CONTRACTIBLE, cone_apex=2)


def _realization():
    return Realization("point", _point_arrangement(), ((Fraction(-1), Fraction(1)),))


# reprs of nested records, pinned once and reused below
_POINT_SET = (
    "Polyhedron(dim=1, constraints=("
    "LinearConstraint(coeffs=(Fraction(1, 1),), rel=<Rel.LE: '<='>, bound=Fraction(0, 1)), "
    "LinearConstraint(coeffs=(Fraction(-1, 1),), rel=<Rel.LE: '<='>, bound=Fraction(0, 1))))"
)
_ARRANGEMENT = f"Arrangement(dim=1, topology=<Topology.CLOSED: 'closed'>, sets=({_POINT_SET},))"
_CONE = (
    "ContractibilityResult(status=<Contractibility.CONTRACTIBLE: 'contractible'>, cone_apex=2, "
    "collapse_steps=None, nonzero_betti_dim=None, empty=False)"
)
_EMPTY = (
    "ContractibilityResult(status=<Contractibility.NON_CONTRACTIBLE: 'non-contractible'>, "
    "cone_apex=None, collapse_steps=None, nonzero_betti_dim=None, empty=True)"
)
_REALIZATION = (
    f"Realization(stem='point', arrangement={_ARRANGEMENT}, "
    "sample_box=((Fraction(-1, 1), Fraction(1, 1)),))"
)
_EXPECTED_FIELDS = (
    "maximal=None, max_intersection_complete=None, incompleteness_witness=None, "
    "locally_good=None, locally_good_checked=None, non_mandatory_faces=None, "
    "betti1_min=None, duplicate_pairs=None"
)

# (class, a factory of one instance, a field name, the instance's repr)
RECORDS = [
    (NeuralCode, _code, "n", "NeuralCode(n=3, {{} {1,2} {3}})"),
    (
        SimplicialComplex,
        lambda: SimplicialComplex(3, frozenset({word([1, 2]), word([3])})),
        "facets",
        "SimplicialComplex(n=3, facets={{1,2} {3}})",
    ),
    (
        LinearConstraint,
        lambda: constraint((1, -1), "<", Fraction(1, 2)),
        "rel",
        "LinearConstraint(coeffs=(Fraction(1, 1), Fraction(-1, 1)), rel=<Rel.LT: '<'>, "
        "bound=Fraction(1, 2))",
    ),
    (
        Polyhedron,
        lambda: polyhedron(2, [((1, 0), "<=", 1), ((0, 1), "=", 0)]),
        "dim",
        "Polyhedron(dim=2, constraints=("
        "LinearConstraint(coeffs=(Fraction(1, 1), Fraction(0, 1)), rel=<Rel.LE: '<='>, "
        "bound=Fraction(1, 1)), "
        "LinearConstraint(coeffs=(Fraction(0, 1), Fraction(1, 1)), rel=<Rel.EQ: '='>, "
        "bound=Fraction(0, 1))))",
    ),
    (Arrangement, _point_arrangement, "topology", _ARRANGEMENT),
    (
        MaxIntersectionCheck,
        lambda: MaxIntersectionCheck(False, (3, 5), 1),
        "complete",
        "MaxIntersectionCheck(complete=False, witness_sets=(3, 5), witness_value=1)",
    ),
    (
        AddCodewordResult,
        lambda: AddCodewordResult(_code(), True, False, True),
        "added",
        "AddCodewordResult(code=NeuralCode(n=3, {{} {1,2} {3}}), added=True, non_maximal=False, "
        "complex_preserved=True)",
    ),
    (ContractibilityResult, _cone, "status", _CONE),
    (
        LocalObstructionReport,
        lambda: LocalObstructionReport(((word([1]), _cone()),)),
        "checked",
        f"LocalObstructionReport(checked=((1, {_CONE}),))",
    ),
    (
        AnalysisReport,
        lambda: build_analysis(neural_code(2, [[1], [2]])),
        "betti",
        "AnalysisReport(code=NeuralCode(n=2, {{1} {2}}), maximal=(1, 2), "
        "max_intersection=MaxIntersectionCheck(complete=False, witness_sets=(1, 2), "
        "witness_value=0), "
        f"mandatory_table=((1, '1', {_EMPTY}, (), ()), (2, '2', {_EMPTY}, (), ())), "
        "local=LocalObstructionReport(checked=()), betti=None)",
    ),
    (Realization, _realization, "stem", _REALIZATION),
    (
        Expected,
        lambda: Expected(word_count=3, sunflower=False),
        "word_count",
        f"Expected(word_count=3, {_EXPECTED_FIELDS}, sunflower=False)",
    ),
    (
        CorpusEntry,
        lambda: CorpusEntry("point", neural_code(1, [[], [1]]), (_realization(),), Expected()),
        "name",
        "CorpusEntry(name='point', code=NeuralCode(n=1, {{} {1}}), "
        f"realizations=({_REALIZATION},), "
        f"expected=Expected(word_count=None, {_EXPECTED_FIELDS}, sunflower=None))",
    ),
    # builtins, whose reprs carry no address
    (
        Family,
        lambda: Family(len, {"r1": (abs, abs)}, str),
        "code",
        "Family(code=<built-in function len>, "
        "realizations={'r1': (<built-in function abs>, <built-in function abs>)}, "
        "expected=<class 'str'>)",
    ),
]


@pytest.mark.parametrize("cls, make, field, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, make, field, text):
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    if cls is Family:  # it holds a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert a == b
    assert repr(a) == text
