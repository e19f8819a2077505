"""Code extraction over closed nerve faces against the unpruned nerve search.

The oracle below is the extraction that visits every face of the nerve and
runs an atom search at each one, with no containment pruning.  It is slow
when many sets share a point, and it is the reference the pruned search in
``geometry.code_of_arrangement`` must agree with.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convexcodes import (
    Arrangement,
    LinearConstraint,
    Polyhedron,
    Rel,
    Topology,
    code_of_arrangement,
    feasible_point,
    integer_rows,
    neural_code,
    point_satisfies,
    polyhedron,
)
from convexcodes import geometry
from convexcodes.codes import NeuralCode
from convexcodes.geometry import interpreted_constraints

# --- oracle: every nerve face, one atom search each --------------------------------
#
# The oracle negates and evaluates the constraints as written, in Fractions,
# so it does not share the engine's row form; only its feasibility calls go
# through the integer rows.


def oracle_negation_branches(c):
    """Constraints covering the complement of c (two branches for equality)."""
    neg = tuple(-a for a in c.coeffs)
    if c.rel is Rel.LE:
        return (LinearConstraint(neg, Rel.LT, -c.bound),)
    if c.rel is Rel.LT:
        return (LinearConstraint(neg, Rel.LE, -c.bound),)
    return (
        LinearConstraint(c.coeffs, Rel.LT, c.bound),
        LinearConstraint(neg, Rel.LT, -c.bound),
    )


def oracle_atom_search(arr, interp, sigma, base_constraints, base_witness):
    pattern = sum(1 << i for i, cons in enumerate(interp) if point_satisfies(cons, base_witness))
    if pattern == sigma:
        return base_witness
    outside = [i for i in range(1, arr.n + 1) if not sigma & (1 << (i - 1))]
    levels = []
    for j in outside:
        if feasible_point(integer_rows(base_constraints + list(interp[j - 1])), arr.dim) is None:
            continue
        levels.append([nb for c in interp[j - 1] for nb in oracle_negation_branches(c)])

    def search(level, cons, witness):
        if level == len(levels):
            return witness
        for nb in levels[level]:
            if point_satisfies([nb], witness):
                found = search(level + 1, cons + [nb], witness)
            else:
                w2 = feasible_point(integer_rows(cons + [nb]), arr.dim)
                found = search(level + 1, cons + [nb], w2) if w2 is not None else None
            if found is not None:
                return found
        return None

    return search(0, base_constraints, base_witness)


def oracle_code(arr: Arrangement) -> NeuralCode:
    interp = [interpreted_constraints(p, arr.topology) for p in arr.sets]
    origin = tuple(Fraction(0) for _ in range(arr.dim))
    words = set()
    queue = [(0, 0, [], origin)]
    while queue:
        sigma, top, cons, witness = queue.pop(0)
        if oracle_atom_search(arr, interp, sigma, cons, witness) is not None:
            words.add(sigma)
        for j in range(top + 1, arr.n + 1):
            cons2 = cons + list(interp[j - 1])
            if point_satisfies(interp[j - 1], witness):
                w2 = witness
            else:
                w2 = feasible_point(integer_rows(cons2), arr.dim)
            if w2 is not None:
                queue.append((sigma | (1 << (j - 1)), j, cons2, w2))
    return NeuralCode(arr.n, frozenset(words))


# --- random small arrangements -----------------------------------------------------


@st.composite
def arrangements(draw):
    dim = draw(st.integers(1, 3))
    topology = draw(st.sampled_from(list(Topology)))
    rels = [Rel.LE] if topology is Topology.OPEN else [Rel.LE, Rel.LE, Rel.EQ]
    coeff = st.integers(-2, 2)
    sets = []
    for _ in range(draw(st.integers(1, 5))):
        rows = []
        # zero to three rows: a single row is an unbounded half-space or
        # hyperplane, no row at all is the whole space
        for _ in range(draw(st.integers(0, 3))):
            coeffs = tuple(Fraction(draw(coeff)) for _ in range(dim))
            rows.append(
                LinearConstraint(coeffs, draw(st.sampled_from(rels)), Fraction(draw(coeff)))
            )
        sets.append(Polyhedron(dim, tuple(rows)))
    # repeat some sets, as the shipped realizations do, to force containment
    for k in draw(st.lists(st.integers(0, len(sets) - 1), max_size=2)):
        sets.append(sets[k])
    return Arrangement(dim, topology, tuple(sets))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(arrangements())
def test_pruned_search_matches_oracle(arr):
    assert code_of_arrangement(arr) == oracle_code(arr)


def test_three_closed_lines_through_a_point():
    # every pair of lines meets only at the origin, which the third line holds,
    # so no pair face is a codeword; the pair faces {1,3} and {2,3} are dropped
    # with their subtrees and {1,2} skips its atom search
    lines = [((1, 0), "=", 0), ((0, 1), "=", 0), ((1, -1), "=", 0)]
    arr = Arrangement(2, Topology.CLOSED, tuple(polyhedron(2, [row]) for row in lines))
    expected = neural_code(3, [[], [1], [2], [3], [1, 2, 3]])
    assert code_of_arrangement(arr) == expected == oracle_code(arr)


# --- Fourier-Motzkin call counts ---------------------------------------------------


# the measured count per corpus arrangement, so a change of witness or of
# search that costs solves fails here; a count may fall, never rise.  The
# unpruned nerve search makes 10,628 solves on an_r2_5 and 4,168 on cn_rn_4.
FM_SOLVES = {
    "an_r2_2": 15,
    "an_r2_3": 54,
    "an_r2_4": 78,
    "an_r2_5": 147,
    "boxes6_closed": 88,
    "boxes6_open": 88,
    "cn_rn_2": 74,
    "cn_rn_3": 202,
    "cn_rn_4": 440,
    "fan6": 89,
    "fan8": 119,
    "sn_r2_2": 7,
    "sn_r2_3": 26,
    "sn_r2_4": 30,
    "sn_r2_5": 59,
    "sunflower3": 21,
}


def test_fm_call_budget_covers_the_corpus(corpus_entries):
    assert sorted(FM_SOLVES) == sorted(r.stem for e in corpus_entries for r in e.realizations)


@pytest.mark.parametrize("stem", sorted(FM_SOLVES))
def test_fm_call_budget(monkeypatch, corpus_entries, stem):
    (arr,) = [r.arrangement for e in corpus_entries for r in e.realizations if r.stem == stem]
    calls = 0
    solve = geometry._solve

    def counted(system, rows, dim):
        nonlocal calls
        calls += 1
        return solve(system, rows, dim)

    monkeypatch.setattr(geometry, "_solve", counted)
    code_of_arrangement(arr)
    assert 0 < calls <= FM_SOLVES[stem]
