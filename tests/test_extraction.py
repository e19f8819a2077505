"""Code extraction over closed nerve faces against the unpruned nerve search.

The oracle below is the extraction that visits every face of the nerve and
runs an atom search at each one, with no containment pruning.  It is slow
when many sets share a point, and it is the reference the pruned search in
``geometry.code_of_arrangement`` must agree with.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from convexcodes import (
    Arrangement,
    LinearConstraint,
    Polyhedron,
    Rel,
    Topology,
    TopologyError,
    code_of_arrangement,
    feasible_point,
    integer_rows,
    is_locally_good,
    neural_code,
    point_satisfies,
    polyhedron,
)
from convexcodes import geometry
from convexcodes.codes import NeuralCode
from convexcodes.fm import _stored_rows
from convexcodes.generators import realization_an_r2, realization_cn_rn, realization_sn_r2
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
def rescaled(draw, p: Polyhedron) -> Polyhedron:
    """p with its rows permuted, each scaled by a positive rational: the same set."""
    rows = []
    for c in draw(st.permutations(p.constraints)):
        k = Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
        rows.append(LinearConstraint(tuple(a * k for a in c.coeffs), c.rel, c.bound * k))
    return Polyhedron(p.dim, tuple(rows))


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
    # repeat some sets, as the shipped realizations do: verbatim or rescaled,
    # which extraction merges with the set, or with one looser, redundant row,
    # which it does not, so that containment decides the repeat
    for k in draw(st.lists(st.integers(0, len(sets) - 1), max_size=2)):
        repeat = draw(st.sampled_from(["verbatim", "rescaled", "looser"]))
        if repeat == "rescaled":
            sets.append(draw(rescaled(sets[k])))
        elif repeat == "looser" and sets[k].constraints:
            c = draw(st.sampled_from(sets[k].constraints))
            looser = LinearConstraint(c.coeffs, Rel.LE, c.bound + 1)
            sets.append(Polyhedron(dim, sets[k].constraints + (looser,)))
        else:
            sets.append(sets[k])
    return Arrangement(dim, topology, tuple(sets))


# --- box chains ----------------------------------------------------------------------


def box(lo, hi, cut=None) -> Polyhedron:
    """The box [lo, hi], cut by the half-space ``a·x <= b`` when cut is (a, b)."""
    dim = len(lo)
    rows = []
    for axis in range(dim):
        e = tuple(int(i == axis) for i in range(dim))
        rows.append((e, "<=", hi[axis]))
        rows.append((tuple(-v for v in e), "<=", -lo[axis]))
    if cut is not None:
        rows.append((cut[0], "<=", cut[1]))
    return polyhedron(dim, rows)


# the unit square, the box [1/2, 2] x [0, 1] and the diamond
# |x - 1/2| + |y - 1/2| <= 3/2, which contains the square
SQUARE_BOX_DIAMOND = (
    box((0, 0), (1, 1)),
    box((Fraction(1, 2), 0), (2, 1)),
    polyhedron(
        2,
        [
            ((1, 1), "<=", Fraction(5, 2)),
            ((1, -1), "<=", Fraction(3, 2)),
            ((-1, 1), "<=", Fraction(3, 2)),
            ((-1, -1), "<=", Fraction(1, 2)),
        ],
    ),
)


@st.composite
def box_chains(draw):
    """Boxes along the first axis, each meeting (or, closed, touching) the next.

    Box j is 4 long on that axis and starts 3 or 4 after box j-1, so it
    misses box j-2; on the other axes it overlaps or touches box j-1.  Some
    boxes have a slanted cut through their centre.
    """
    dim = draw(st.integers(2, 3))
    topology = draw(st.sampled_from(list(Topology)))
    sets = []
    lo = hi = None
    for _ in range(draw(st.integers(2, 6))):
        side = [4] + [draw(st.integers(2, 4)) for _ in range(1, dim)]
        if lo is None:
            lo = [draw(st.integers(0, 2)) for _ in range(dim)]
        else:
            lo = [lo[0] + draw(st.integers(3, 4))] + [
                draw(st.integers(lo[a] - side[a], hi[a])) for a in range(1, dim)
            ]
        hi = [x + s for x, s in zip(lo, side)]
        cut = None
        if draw(st.booleans()):
            a = draw(st.tuples(*[st.integers(-2, 2)] * dim).filter(any))
            cut = (a, sum(c * Fraction(x + y, 2) for c, x, y in zip(a, lo, hi)))
        sets.append(box(lo, hi, cut))
    return Arrangement(dim, topology, tuple(sets))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(arrangements(), box_chains()))
# sets sharing rows: an atom-search branch on a shared row is implied, and skipped
@example(
    Arrangement(
        2,
        Topology.OPEN,
        (box((0, 0), (4, 2)), box((3, 0), (7, 2)), box((6, 0), (10, 2)), box((0, 0), (10, 1))),
    )
)
# the origin lies in U_1 and U_2, so {1, 2} is in the pool, found as the empty
# face's witness pattern, before its face is reached
@example(
    Arrangement(
        3,
        Topology.CLOSED,
        (
            box((-2, -1, -1), (2, 1, 1)),
            box((0, -2, 0), (4, 0, 2), ((1, 1, 0), 2)),
            box((3, -1, -1), (7, 1, 1)),
        ),
    )
)
# U_5 misses U_1, so it stays apart below {1}: {1, 2} neither solves for the
# child {1, 2, 5} nor asks whether U_5 meets it in its atom search, which U_3
# and U_4 make empty
@example(
    Arrangement(
        2,
        Topology.CLOSED,
        (
            box((0, 0), (4, 4)),
            box((2, 0), (6, 4)),
            box((1, 0), (5, 2)),
            box((1, 2), (5, 4)),
            box((5, 0), (9, 4)),
        ),
    )
)
# a repeated set: U_4 is U_2 with one looser, redundant row, so extraction
# keeps both; U_4 holds every point of U_2, so the containment test of {2}
# against U_4 proves it and no point leaves it
@example(
    Arrangement(
        2,
        Topology.CLOSED,
        (
            box((0, 0), (4, 2)),
            box((3, 1), (7, 3), ((1, -1), 4)),
            box((7, 2), (11, 4)),
            Polyhedron(
                2,
                box((3, 1), (7, 3), ((1, -1), 4)).constraints
                + (LinearConstraint((Fraction(1), Fraction(0)), Rel.LE, Fraction(8)),),
            ),
        ),
    )
)
# the diamond contains U_1 through rows neither box holds, so the face
# {1, 2} below {1} proves that containment again with solves of its own
@example(Arrangement(2, Topology.CLOSED, SQUARE_BOX_DIAMOND))
@example(Arrangement(2, Topology.OPEN, SQUARE_BOX_DIAMOND))
def test_pruned_search_matches_oracle(arr):
    assert code_of_arrangement(arr) == oracle_code(arr)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(arrangements(), box_chains()))
def test_extracted_codes_have_no_local_obstruction(arr):
    # a code realized by convex sets, open (Curto et al. 2017) or closed
    # (Cruz et al. 2019), has no local obstruction
    assert is_locally_good(code_of_arrangement(arr)).verdict is True


def old_rows(arr: Arrangement) -> tuple:
    """The arrangement's stored rows built from its interpreted constraints."""
    return tuple(
        _stored_rows(integer_rows(interpreted_constraints(p, arr.topology))) for p in arr.sets
    )


def both_topologies(arr: Arrangement) -> list[Arrangement]:
    """The arrangement's sets under each topology that admits them."""
    out = []
    for topology in Topology:
        try:
            out.append(Arrangement(arr.dim, topology, arr.sets))
        except TopologyError:
            pass
    return out


def test_rows_are_the_interpreted_rows_on_the_corpus(corpus_entries):
    for entry in corpus_entries:
        for real in entry.realizations:
            for arr in both_topologies(real.arrangement):
                assert arr._rows == old_rows(arr), (real.stem, arr.topology)


@settings(max_examples=200, deadline=None)
@given(st.one_of(arrangements(), box_chains()))
# a strict row, which only an open arrangement admits
@example(Arrangement(1, Topology.OPEN, (polyhedron(1, [((1,), "<", 2), ((-1,), "<=", 0)]),)))
def test_rows_are_the_interpreted_rows(arr):
    for a in both_topologies(arr):
        assert a._rows == old_rows(a)


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
    "an_r2_2": 7,
    "an_r2_3": 15,
    "an_r2_4": 25,
    "an_r2_5": 37,
    "boxes6_closed": 32,
    "boxes6_open": 31,
    "cn_rn_2": 18,
    "cn_rn_3": 32,
    "cn_rn_4": 51,
    "fan6": 34,
    "fan8": 34,
    "sn_r2_2": 7,
    "sn_r2_3": 15,
    "sn_r2_4": 25,
    "sn_r2_5": 37,
    "sunflower3": 4,
}

# the same for the family realizations past the corpus, where the atom search
# on closed faces that are not codewords made most of the solves
FM_SOLVES_PAST_THE_CORPUS = {
    "an_r2_6": 51,
    "an_r2_7": 67,
    "an_r2_8": 85,
    "an_r2_16": 301,
    "an_r2_31": 1051,
    "cn_rn_5": 75,
    "cn_rn_6": 104,
    "cn_rn_7": 138,
    "cn_rn_8": 177,
    "cn_rn_9": 221,
    "cn_rn_12": 383,
    "cn_rn_16": 669,
    "sn_r2_6": 51,
    "sn_r2_7": 67,
    "sn_r2_8": 85,
}

REALIZATIONS = {"an_r2": realization_an_r2, "cn_rn": realization_cn_rn, "sn_r2": realization_sn_r2}


def count_solves(arr: Arrangement) -> int:
    """The number of Fourier-Motzkin solves extracting the code of arr makes."""
    calls = 0
    solve = geometry._solve

    def counted(system, rows, dim):
        nonlocal calls
        calls += 1
        return solve(system, rows, dim)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(geometry, "_solve", counted)
        code_of_arrangement(arr)
    return calls


def test_fm_call_budget_covers_the_corpus(corpus_entries):
    assert sorted(FM_SOLVES) == sorted(r.stem for e in corpus_entries for r in e.realizations)


@pytest.mark.parametrize("stem", sorted(FM_SOLVES))
def test_fm_call_budget(corpus_entries, stem):
    (arr,) = [r.arrangement for e in corpus_entries for r in e.realizations if r.stem == stem]
    assert 0 < count_solves(arr) <= FM_SOLVES[stem]


@pytest.mark.parametrize("stem", sorted(FM_SOLVES_PAST_THE_CORPUS))
def test_fm_call_budget_past_the_corpus(stem):
    family, n = stem.rsplit("_", 1)
    arr = REALIZATIONS[family](int(n))
    assert 0 < count_solves(arr) <= FM_SOLVES_PAST_THE_CORPUS[stem]


# the copies of a set cost no solve: an_r2_n pairs each set of sn_r2_n with
# a copy, and fan8 is fan6 with copies of its sets 1 and 3


@pytest.mark.parametrize("n", range(2, 9))
def test_an_r2_costs_what_sn_r2_costs(n):
    assert count_solves(realization_an_r2(n)) == count_solves(realization_sn_r2(n))


def test_fan8_costs_what_fan6_costs(corpus_entries):
    arrs = {r.stem: r.arrangement for e in corpus_entries for r in e.realizations}
    assert count_solves(arrs["fan8"]) == count_solves(arrs["fan6"])


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_a_repeated_chain_costs_what_the_chain_costs(data):
    chain = data.draw(box_chains())
    copies = [data.draw(rescaled(p)) for p in data.draw(st.permutations(chain.sets))]
    doubled = Arrangement(chain.dim, chain.topology, chain.sets + tuple(copies))
    assert count_solves(doubled) == count_solves(chain)
