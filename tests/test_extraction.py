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
from convexcodes.generators import realization_an_r2, realization_cn_rn
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


@pytest.mark.parametrize(
    "build, limit",
    [(lambda: realization_an_r2(5), 147), (lambda: realization_cn_rn(4), 444)],
    ids=["an_r2_5", "cn_rn_4"],
)
def test_fm_call_budget(monkeypatch, build, limit):
    # the limits are the measured counts, so a change of witness that costs
    # calls fails here; the unpruned nerve search makes 10,628 calls on
    # an_r2_5 and 4,168 on cn_rn_4
    calls = 0
    solve = geometry.feasible_point

    def counted(constraints, dim):
        nonlocal calls
        calls += 1
        return solve(constraints, dim)

    monkeypatch.setattr(geometry, "feasible_point", counted)
    code_of_arrangement(build())
    assert calls <= limit
