from __future__ import annotations

import gc
import hashlib
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexcodes import (
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
    members,
    neural_code,
    point_satisfies,
    polyhedron,
    restrict,
    word,
)
from convexcodes import fm, geometry
from convexcodes.cli import build_analysis
from convexcodes.formats import serialize_arrangement
from convexcodes.geometry import interpreted_constraints
from convexcodes.generators import (
    boxes6_realization,
    fan6_realization,
    realization_cn_rn,
    sunflower3_realization,
)

Q = Fraction


# --- feasibility kernel -------------------------------------------------------------


def test_feasible_point_basic():
    infeasible = [constraint([1], "<", 0), constraint([-1], "<=", 0)]
    assert feasible_point(integer_rows(infeasible), 1) is None

    open_interval = [constraint([-1], "<", 0), constraint([1], "<", 1)]
    w = feasible_point(integer_rows(open_interval), 1)
    assert w is not None and 0 < w[0] < 1


def test_feasible_point_dimension_mismatch():
    with pytest.raises(ValueError):
        feasible_point(integer_rows([constraint([1, 0], "<=", 1)]), 1)


def test_integer_bounds_stay_exact():
    # a constraint built directly with an int bound: halving it must not give a float
    w = feasible_point(integer_rows([LinearConstraint((2,), Rel.LE, 1)]), 1)
    assert w == (Q(1, 2),) and isinstance(w[0], Fraction)


def test_feasible_point_with_equalities():
    system = [
        constraint([1, 0], "=", 2),
        constraint([1, 1], "<=", 3),
        constraint([-1, -1], "<", 0),
    ]
    w = feasible_point(integer_rows(system), 2)
    assert w is not None
    assert w[0] == 2 and w[0] + w[1] <= 1 + 2 and point_satisfies(system, w)

    assert feasible_point(integer_rows([constraint([0, 0], "=", 1)]), 2) is None
    assert feasible_point(integer_rows([constraint([0, 0], "=", 0)]), 2) is not None


@pytest.mark.parametrize(
    "rows, dim, expected",
    [
        ([([1], "=", 1), ([2], "=", 2), ([-1], "=", -1)], 1, (Q(1),)),
        ([([1], "=", 1), ([Q(1, 2)], "=", Q(1, 2))], 1, (Q(1),)),
        ([([1], "=", 1), ([2], "=", 4)], 1, None),
        ([([1], "=", 1), ([1], "<", 1)], 1, None),
        ([([1], "=", 1), ([-1], "<", -1)], 1, None),
        ([([0], "=", 0)], 1, (Q(0),)),
        ([([0, 0], "=", 0), ([1, 0], "=", 3), ([0, 1], "<=", -1)], 2, (Q(3), Q(-1))),
        ([([0], "=", 1)], 1, None),
        ([([1, 1], "=", 2), ([1, -1], "=", 0)], 2, (Q(1), Q(1))),
        ([([1, 1], "=", 2), ([1, -1], "=", 0), ([1, 0], "<", 1)], 2, None),
    ],
    ids=[
        "repeated-scaled-opposite",
        "fractional-scale",
        "parallel",
        "equal-and-strict-below",
        "equal-and-strict-above",
        "zero-equals-zero",
        "zero-equals-zero-ignored",
        "zero-equals-one",
        "two-lines-meet",
        "two-lines-meet-outside",
    ],
)
def test_feasible_point_equality_cases(rows, dim, expected):
    system = [constraint(*row) for row in rows]
    assert feasible_point(integer_rows(system), dim) == expected


# --- oracle: equalities removed by substitution, then FM on Fraction rows ------------


class _OracleInfeasible(Exception):
    pass


class _OracleIneqSystem:
    def __init__(self):
        self.rows = {}

    def add(self, coeffs, bound, strict):
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in coeffs]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if g == 0:
            if bound < 0 or (bound == 0 and strict):
                raise _OracleInfeasible
            return
        key = tuple(v // g for v in ints)
        b = bound * den / g
        old = self.rows.get(key)
        if old is None or b < old[0] or (b == old[0] and strict and not old[1]):
            self.rows[key] = (b, strict)
            b_eff, s_eff = b, strict
        else:
            b_eff, s_eff = old
        opp = self.rows.get(tuple(-v for v in key))
        if opp is not None:
            if -opp[0] > b_eff or (-opp[0] == b_eff and (s_eff or opp[1])):
                raise _OracleInfeasible


def _oracle_eliminate(system, k):
    lowers, uppers, keep = [], [], []
    for key, (b, s) in system.rows.items():
        (lowers if key[k] < 0 else uppers if key[k] > 0 else keep).append((key, b, s))
    new = _OracleIneqSystem()
    for key, b, s in keep:
        new.add([Q(v) for v in key], b, s)
    for lkey, lb, ls in lowers:
        la = -lkey[k]
        for ukey, ub, us in uppers:
            ua = ukey[k]
            combined = [Q(ua * lv + la * uv) for lv, uv in zip(lkey, ukey)]
            new.add(combined, ua * lb + la * ub, ls or us)
    return lowers, uppers, new


def _oracle_substitute(row, p, e0, ej):
    coeffs = row[0]
    ap = coeffs[p]
    if ap == 0:
        return
    for j, c in ej.items():
        coeffs[j] += ap * c
    coeffs[p] = Q(0)
    row[1] = row[1] - ap * e0


def oracle_feasible_point(constraints, dim):
    ineqs, eqs = [], []
    for c in constraints:
        if c.rel is Rel.EQ:
            eqs.append([list(c.coeffs), c.bound])
        else:
            ineqs.append([list(c.coeffs), c.bound, c.rel is Rel.LT])
    subs = []
    while eqs:
        coeffs, bound = eqs.pop(0)
        p = next((i for i, a in enumerate(coeffs) if a != 0), None)
        if p is None:
            if bound != 0:
                return None
            continue
        e0 = bound / coeffs[p]
        ej = {j: -a / coeffs[p] for j, a in enumerate(coeffs) if j != p and a != 0}
        for row in eqs + ineqs:
            _oracle_substitute(row, p, e0, ej)
        subs.append((p, e0, ej))
    system = _OracleIneqSystem()
    steps = []
    try:
        for coeffs, bound, strict in ineqs:
            system.add(coeffs, bound, strict)
        while system.rows:
            active = sorted({i for key in system.rows for i, v in enumerate(key) if v})
            k = min(
                active,
                key=lambda i: (
                    sum(1 for key in system.rows if key[i] < 0)
                    * sum(1 for key in system.rows if key[i] > 0),
                    i,
                ),
            )
            lowers, uppers, system = _oracle_eliminate(system, k)
            steps.append((k, lowers, uppers))
    except _OracleInfeasible:
        return None
    values = [Q(0)] * dim
    for k, lowers, uppers in reversed(steps):
        lo = hi = None
        for key, b, s in lowers + uppers:
            rest = sum((v * values[i] for i, v in enumerate(key) if i != k), Q(0))
            cand = (b - rest) / key[k]
            if key[k] < 0 and (lo is None or cand > lo[0] or (cand == lo[0] and s)):
                lo = (cand, s)
            if key[k] > 0 and (hi is None or cand < hi[0] or (cand == hi[0] and s)):
                hi = (cand, s)
        if lo is None:
            values[k] = hi[0] - 1 if hi[1] else hi[0]
        elif hi is None:
            values[k] = lo[0] + 1 if lo[1] else lo[0]
        else:
            values[k] = (lo[0] + hi[0]) / 2
    for p, e0, ej in reversed(subs):
        values[p] = e0 + sum((c * values[j] for j, c in ej.items()), Q(0))
    return tuple(values)


@st.composite
def mixed_systems(draw):
    dim = draw(st.integers(1, 3))
    # large numerators over small denominators make large cross-products
    scalar = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 7))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        coeffs = [draw(scalar) for _ in range(dim)]
        rows.append(constraint(coeffs, draw(st.sampled_from(["<=", "<", "="])), draw(scalar)))
    return rows, dim


@settings(max_examples=400, deadline=None)
@given(mixed_systems())
def test_feasible_point_matches_substitution_oracle(system):
    rows, dim = system
    int_rows = integer_rows(rows)
    assert all(
        type(bound) is int and all(type(v) is int for v in key) for key, bound, _ in int_rows
    )
    got = feasible_point(int_rows, dim)
    want = oracle_feasible_point(rows, dim)
    assert (got is None) == (want is None)
    if got is not None:
        assert all(type(x) is Fraction for x in got)
        assert point_satisfies(rows, got) and point_satisfies(rows, want)


@st.composite
def split_row_systems(draw):
    """Integer rows cut into a base and extra rows, with the cases the kernel
    treats apart: strict rows, equality pairs, all-zero rows, a direction
    repeated with another scale and a tighter or looser bound, and variables
    no row uses."""
    dim = draw(st.integers(1, 4))
    unused = draw(st.sets(st.integers(0, dim - 1), max_size=dim - 1))
    coefficient = st.integers(-3, 3)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row", "equality", "zero", "repeat"]))
        bound = draw(st.integers(-6, 6))
        if kind == "zero":
            key = (0,) * dim
        elif kind == "repeat" and rows:
            key0, bound0, _ = draw(st.sampled_from(rows))
            m = draw(st.integers(1, 3))
            key, bound = tuple(m * v for v in key0), m * bound0 + draw(st.integers(-2, 2))
        else:
            key = tuple(0 if i in unused else draw(coefficient) for i in range(dim))
        if kind == "equality":
            rows += [(tuple(-v for v in key), -bound, False), (key, bound, False)]
        else:
            rows.append((key, bound, draw(st.booleans())))
    cut = draw(st.integers(0, len(rows)))
    return dim, rows[:cut], rows[cut:]


@settings(max_examples=400, deadline=None)
@given(split_row_systems())
@example((1, [((1,), 0, False), ((-1,), -1, False)], [((1,), 5, True)]))
@example((2, [((0, 0), -1, False)], []))
@example((2, [((1, 1), 2, False), ((-1, -1), -2, False)], [((2, 2), 4, True)]))
def test_incremental_solve_matches_solve_from_scratch(system):
    dim, base, extra = system
    fresh = feasible_point(base + extra, dim)
    # the kernel takes rows in stored form
    base, extra = fm._stored_rows(base), fm._stored_rows(extra)
    whole = fm._solve(fm._IneqSystem(), base + extra, dim)
    assert (whole is None) == (fresh is None)
    if whole is not None:
        nums, den = whole[1]
        assert tuple(Fraction(v, den) for v in nums) == fresh
    base_system = fm._extend(fm._IneqSystem(), base)
    if base_system is None:
        # the adds alone prove the base, and so the whole, empty
        assert whole is None
        return
    # the base's own rows are read off its system with no solve
    assert all(base_system.implies(row) for row in base)
    kept = list(base_system.rows.items())
    part = fm._solve(base_system, extra, dim)
    assert list(base_system.rows.items()) == kept
    assert (part is None) == (whole is None)
    if part is not None:
        assert part[1] == whole[1]
        assert list(part[0].rows.items()) == list(whole[0].rows.items())
    for row in base + extra:
        # a row the base implies leaves its negation nothing to solve
        if base_system.implies(row):
            assert fm._solve(base_system, [fm._negate(row)], dim) is None


def reference_witness(system, dim):
    """``_witness`` as it was before the last elimination became a fold: every
    variable but the last is eliminated into a stored system, and the last
    one's bounds are read off that system's rows."""
    steps = []
    try:
        while system.rows:
            lows = [0] * dim
            ups = [0] * dim
            for key in system.rows:
                for i, v in enumerate(key):
                    if v < 0:
                        lows[i] += 1
                    elif v > 0:
                        ups[i] += 1
            active = [i for i in range(dim) if lows[i] or ups[i]]
            k = min(active, key=lambda i: lows[i] * ups[i])
            if len(active) == 1:
                steps.append((k, [row[:4] for row in system.rows.values()]))
                break
            bounding, system = fm._eliminate(system, k)
            steps.append((k, [row[:4] for row in bounding]))
    except fm._Infeasible:
        return None
    nums = [0] * dim
    den = 1
    for k, bounding in reversed(steps):
        lo = hi = None
        for key, n, d, s in bounding:
            a = key[k]
            cn = n * den - d * sum(v * x for v, x in zip(key, nums))
            cd = d * den * a
            if a < 0:
                cn, cd = -cn, -cd
                if lo is None or (diff := cn * lo[1] - lo[0] * cd) > 0 or (diff == 0 and s):
                    lo = (cn, cd, s)
            elif hi is None or (diff := cn * hi[1] - hi[0] * cd) < 0 or (diff == 0 and s):
                hi = (cn, cd, s)
        if lo is None:
            vn, vd = (hi[0] - hi[1] if hi[2] else hi[0]), hi[1]
        elif hi is None:
            vn, vd = (lo[0] + lo[1] if lo[2] else lo[0]), lo[1]
        elif lo[0] * hi[1] == hi[0] * lo[1]:
            vn, vd = lo[0], lo[1]
        else:
            vn, vd = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
        g = gcd(vn, vd)
        vn //= g
        vd //= g
        if den % vd:
            scale = vd // gcd(den, vd)
            nums = [v * scale for v in nums]
            den *= scale
        nums[k] = vn * (den // vd)
    return nums, den


@settings(max_examples=500, deadline=None)
@given(split_row_systems())
# one active variable: its rows are its bounds
@example((2, [((1, 0), 3, False), ((-1, 0), 1, True)], [((2, 0), 5, True)]))
# x_1 eliminated: x_0 <= 0 from a pair, x_0 >= 0 from a row, the pair strict
@example((2, [((1, 1), 0, False), ((-1, 0), 0, False)], [((1, -1), 0, True)]))
# an opposite pair of x_1's rows cancels, and x_0 is left with one bound
@example((2, [((1, 1), 2, False), ((-1, -1), -1, False)], [((1, 0), 0, False)]))
# an equality on two variables: its pair cancels and x_0 is unbounded
@example((3, [((0, -1, -1), -1, False), ((0, 1, 1), 1, False)], []))
def test_witness_matches_always_eliminating_reference(system):
    dim, base, extra = system
    stored = fm._extend(fm._IneqSystem(), fm._stored_rows(base + extra))
    if stored is None:
        return  # the adds alone decide it; no witness is sought
    kept = list(stored.rows.items())
    assert fm._witness(stored, dim) == reference_witness(stored, dim)
    assert list(stored.rows.items()) == kept


def test_systems_hold_the_stored_rows_themselves(corpus_entries):
    # a system keeps each row as the tuple it was given, and elimination
    # hands back the system's own tuples as the rows that bound the variable
    bounding_rows = 0
    for real in (r for e in corpus_entries for r in e.realizations):
        # a fresh arrangement, so that its rows are built here
        arr = Arrangement(real.arrangement.dim, real.arrangement.topology, real.arrangement.sets)
        for rows in arr._rows:
            system = fm._extend(fm._IneqSystem(), rows)
            assert system is not None, real.stem
            assert all(any(v is row for row in rows) for v in system.rows.values()), real.stem
            held = list(system.rows.values())
            for k in range(arr.dim):
                bounding, _ = fm._eliminate(system, k)
                assert all(any(b is v for v in held) for b in bounding), real.stem
                bounding_rows += len(bounding)
    assert bounding_rows > 0


def test_plane_solves_derive_no_rows(monkeypatch, corpus_entries):
    # in the plane the last elimination is the only one, so no solve
    # eliminates into a system and _store sees only the rows integer_rows makes
    made = []
    integer = geometry.integer_rows
    store = fm._store
    stored = Counter()

    def recorded(constraints):
        rows = integer(constraints)
        made.extend(rows)
        return rows

    def counted(coeffs, num, den, strict):
        stored[id(coeffs)] += 1
        return store(coeffs, num, den, strict)

    def forbidden(system, k):
        raise AssertionError("_eliminate called on a system in the plane")

    monkeypatch.setattr(geometry, "integer_rows", recorded)
    monkeypatch.setattr(fm, "_store", counted)
    monkeypatch.setattr(fm, "_eliminate", forbidden)
    planar = [(e, r) for e in corpus_entries for r in e.realizations if r.arrangement.dim == 2]
    assert len(planar) == 14
    for entry, real in planar:
        made.clear()
        stored.clear()
        # a fresh arrangement, so that its rows are built under the patches
        arr = Arrangement(real.arrangement.dim, real.arrangement.topology, real.arrangement.sets)
        assert code_of_arrangement(arr) == entry.code, real.stem
        assert sum(stored.values()) == len(made), real.stem
        assert all(stored[id(key)] == 1 for key, _, _ in made), real.stem


def test_feasible_point_witnesses_satisfy_system():
    rng = random.Random(7)
    for _ in range(50):
        dim = rng.randint(1, 3)
        cons = []
        for _ in range(rng.randint(1, 6)):
            coeffs = [Q(rng.randint(-3, 3)) for _ in range(dim)]
            rel = rng.choice(["<=", "<", "="])
            cons.append(constraint(coeffs, rel, Q(rng.randint(-4, 4))))
        w = feasible_point(integer_rows(cons), dim)
        if w is not None:
            assert point_satisfies(cons, w)


def test_family_intersection_example():
    # the first two prism sets in dimension 2 share the point (1/2, 1/2)
    arr = realization_cn_rn(2)
    cons = list(arr.sets[0].constraints) + list(arr.sets[1].constraints)
    w = feasible_point(integer_rows(cons), 2)
    assert w is not None
    assert point_satisfies(cons, (Q(1, 2), Q(1, 2)))


def test_feasibility_never_misses_grid_points():
    # one-sided completeness oracle: whenever a half-integer grid point
    # satisfies the system, the solver must not report infeasible
    rng = random.Random(31)
    grid = [Q(k, 2) for k in range(-8, 9)]
    for _ in range(120):
        dim = rng.randint(1, 2)
        cons = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [Q(rng.randint(-2, 2)) for _ in range(dim)]
            cons.append(constraint(coeffs, rng.choice(["<=", "<", "="]), Q(rng.randint(-3, 3))))
        if dim == 1:
            grid_hit = any(point_satisfies(cons, (x,)) for x in grid)
        else:
            grid_hit = any(
                point_satisfies(cons, (x, y)) for x in grid for y in grid
            )
        w = feasible_point(integer_rows(cons), dim)
        if grid_hit:
            assert w is not None
        if w is not None:
            assert point_satisfies(cons, w)


# --- polyhedra, topology interpretation ----------------------------------------------


def unit_square():
    return polyhedron(
        2,
        [((1, 0), "<=", 1), ((-1, 0), "<=", 0), ((0, 1), "<=", 1), ((0, -1), "<=", 0)],
    )


def test_set_is_empty():
    def empty(poly, topology):
        return feasible_point(integer_rows(interpreted_constraints(poly, topology)), poly.dim) is None

    assert not empty(unit_square(), Topology.CLOSED)
    segment = polyhedron(2, [((0, 1), "=", 0), ((1, 0), "<=", 1), ((-1, 0), "<=", 0)])
    assert not empty(segment, Topology.CLOSED)
    with pytest.raises(TopologyError):
        empty(segment, Topology.OPEN)


def test_open_square_excludes_boundary():
    sq = unit_square()
    cons = interpreted_constraints(sq, Topology.OPEN)
    assert all(c.rel is Rel.LT for c in cons)
    assert not point_satisfies(cons, (Q(0), Q(0)))
    assert point_satisfies(cons, (Q(1, 2), Q(1, 2)))


def test_arrangement_validation():
    segment = polyhedron(2, [((0, 1), "=", 0)])
    with pytest.raises(TopologyError):
        Arrangement(2, Topology.OPEN, (segment,))
    strict = Polyhedron(2, (constraint([1, 0], "<", 1),))
    with pytest.raises(TopologyError):
        Arrangement(2, Topology.CLOSED, (strict,))
    with pytest.raises(ValueError):
        Arrangement(1, Topology.CLOSED, (unit_square(),))


def test_arrangement_reads_topology_by_value():
    # a topology given by its value is the topology itself, not a string that
    # matches neither member and so reads as open
    point = polyhedron(1, [((1,), "<=", 0), ((-1,), "<=", 0)])
    for value in ("closed", Topology.CLOSED):
        arr = Arrangement(1, value, (point,))
        assert arr.topology is Topology.CLOSED
        assert code_of_arrangement(arr) == neural_code(1, [[], [1]])
        assert serialize_arrangement(arr) == serialize_arrangement(
            Arrangement(1, Topology.CLOSED, (point,))
        )
    assert Arrangement(1, "open", ()).topology is Topology.OPEN
    with pytest.raises(ValueError):
        Arrangement(1, "bogus", (point,))


def test_boolean_dimension_is_rejected():
    # True == 1, but serializes as "dimension: True", which no parser reads back
    with pytest.raises(ValueError, match="got True"):
        Polyhedron(True, ())
    with pytest.raises(ValueError, match="got True"):
        Arrangement(True, Topology.CLOSED, ())


@pytest.mark.parametrize("dim", [0, -1])
def test_nonpositive_dimension_is_rejected(dim):
    # an arrangement with no sets meets no Polyhedron to reject its dimension,
    # and it would serialize to a file that parse_arrangement rejects
    with pytest.raises(ValueError, match="must be positive"):
        Polyhedron(dim, ())
    with pytest.raises(ValueError, match="must be positive"):
        Arrangement(dim, Topology.CLOSED, ())


# --- atoms and code extraction --------------------------------------------------------


def test_sunflower_atoms():
    arr = sunflower3_realization()
    center = find_atom_point(arr, word([1, 2, 3]))
    assert center is not None
    assert membership_pattern(arr, center) == word([1, 2, 3])
    assert find_atom_point(arr, word([1, 2])) is None
    assert find_atom_point(arr, 0) is not None


def test_point_satisfies_dimension_mismatch():
    # the point must have one coordinate per coefficient; a shorter or longer
    # point would otherwise be read through a truncated dot product
    cons = [constraint([1, 0], "<=", 1)]
    assert point_satisfies(cons, (Q(0), Q(9)))
    assert point_satisfies([], (Q(5),))
    for point in [(Q(5),), (Q(0), Q(0), Q(9)), ()]:
        with pytest.raises(ValueError, match="expected 2"):
            point_satisfies(cons, point)
    # a mismatch after a violated constraint is still reported
    mixed = [constraint([1, 0], "<=", -1), constraint([1, 0, 0], "<=", 1)]
    with pytest.raises(ValueError, match="expected 3"):
        point_satisfies(mixed, (Q(0), Q(0)))


def test_membership_pattern_dimension_mismatch():
    arr = sunflower3_realization()  # dimension 2
    assert membership_pattern(arr, (1, 0)) == word([1, 2, 3])
    for point in [(1,), (1, 0, 5), ()]:
        with pytest.raises(ValueError, match="expected 2"):
            membership_pattern(arr, point)


def test_single_square_code():
    arr = Arrangement(2, Topology.CLOSED, (unit_square(),))
    code = code_of_arrangement(arr)
    assert code == neural_code(1, [[1], []])


def test_unbounded_empty_atom():
    # two half-planes covering the whole plane leave no room for the empty word
    left = polyhedron(2, [((1, 0), "<=", 0)])
    right = polyhedron(2, [((-1, 0), "<=", 0)])
    arr = Arrangement(2, Topology.CLOSED, (left, right))
    code = code_of_arrangement(arr)
    assert code == neural_code(2, [[1], [2], [1, 2]])


def interval(lo, hi):
    return polyhedron(1, [((1,), "<=", hi), ((-1,), "<=", -lo)])


def test_interval_codes_enumerable_by_hand():
    overlapping = Arrangement(1, Topology.CLOSED, (interval(0, 2), interval(1, 3)))
    assert code_of_arrangement(overlapping) == neural_code(2, [[1], [1, 2], [2], []])
    nested = Arrangement(1, Topology.CLOSED, (interval(0, 3), interval(1, 2)))
    assert code_of_arrangement(nested) == neural_code(2, [[1], [1, 2], []])
    touching = Arrangement(1, Topology.CLOSED, (interval(0, 1), interval(1, 2)))
    assert code_of_arrangement(touching) == neural_code(2, [[1], [1, 2], [2], []])
    touching_open = Arrangement(1, Topology.OPEN, (interval(0, 1), interval(1, 2)))
    assert code_of_arrangement(touching_open) == neural_code(2, [[1], [2], []])


def test_extraction_limit_is_the_neuron_cap(monkeypatch):
    square = unit_square()
    arr = Arrangement(2, Topology.CLOSED, (square,) * 64)
    assert code_of_arrangement(arr) == neural_code(64, [[], range(1, 65)])

    def forbidden(*args):
        raise AssertionError("solved before the size check")

    # the check comes before the search: no solve runs on 65 sets
    monkeypatch.setattr(geometry, "_solve", forbidden)
    arr = Arrangement(2, Topology.CLOSED, (square,) * 65)
    with pytest.raises(ValueError, match="has 65 sets; its code exceeds the 64-neuron cap"):
        code_of_arrangement(arr)


def test_atom_witnesses_are_sound(corpus_entries, extracted_codes):
    for entry in corpus_entries:
        for real in entry.realizations:
            arr = real.arrangement
            for w in extracted_codes[real.stem].words:
                witness = find_atom_point(arr, w)
                assert witness is not None, (real.stem, members(w))
                assert membership_pattern(arr, witness) == w, (real.stem, members(w))


def _point_text(point) -> str:
    return "none" if point is None else ",".join(f"{x.numerator}/{x.denominator}" for x in point)


def test_atom_witnesses_are_pinned(corpus_entries, extracted_codes):
    # pinned witnesses: a change to the kernel that moves any of them shows here
    digest = hashlib.sha256()
    for entry in corpus_entries:
        for real in entry.realizations:
            arr = real.arrangement
            for w in extracted_codes[real.stem]:
                point = _point_text(find_atom_point(arr, w))
                digest.update(f"{real.stem} {members(w)} {point}\n".encode())
    assert digest.hexdigest() == "1e6ebac28f9fb71e40c55e16e086c117289d7f72a50520268403cb40cc2ca0d9"


def test_feasible_point_witnesses_are_pinned():
    # strict, weak and equality rows, zero rows among them; 247 of the 400 are feasible
    rng = random.Random(11)
    digest = hashlib.sha256()
    for _ in range(400):
        dim = rng.randint(1, 4)
        cons = [
            constraint(
                [rng.randint(-4, 4) for _ in range(dim)],
                rng.choice(["<=", "<", "="]),
                rng.randint(-6, 6) if rng.random() < 0.8 else Q(rng.randint(-6, 6), rng.randint(1, 5)),
            )
            for _ in range(rng.randint(0, 7))
        ]
        digest.update(f"{_point_text(feasible_point(integer_rows(cons), dim))}\n".encode())
    assert digest.hexdigest() == "7f3aa2ab10a5fa6bb0a1ee4dfa824646e4108fb3ddee39b6b66f25e166c1f796"


def test_each_input_row_is_normalised_once(monkeypatch, corpus_entries):
    # the rows integer_rows makes are normalised by _store once each; the rows
    # elimination derives are new lists, never an input row's key
    made = []
    integer = geometry.integer_rows
    store = fm._store
    stored = Counter()

    def recorded(constraints):
        rows = integer(constraints)
        made.extend(rows)
        return rows

    def counted(coeffs, num, den, strict):
        stored[id(coeffs)] += 1
        return store(coeffs, num, den, strict)

    monkeypatch.setattr(geometry, "integer_rows", recorded)
    monkeypatch.setattr(fm, "_store", counted)
    for entry in corpus_entries:
        for real in entry.realizations:
            made.clear()
            stored.clear()
            # a fresh arrangement, so that its rows are built under the patches
            a = real.arrangement
            code_of_arrangement(Arrangement(a.dim, a.topology, a.sets))
            assert made and all(stored[id(key)] == 1 for key, _, _ in made), real.stem


def test_arrangement_rows_are_built_once(monkeypatch):
    # membership and atom queries on one arrangement share the rows it
    # prepared on first use: integer_rows runs once per set in total
    calls = 0
    integer = geometry.integer_rows

    def counted(constraints):
        nonlocal calls
        calls += 1
        return integer(constraints)

    monkeypatch.setattr(geometry, "integer_rows", counted)
    built = sunflower3_realization()
    arr = Arrangement(built.dim, built.topology, built.sets)
    for point in [(0, 0), (1, 0), (Q(1, 2), 1), (-5, 1), (9, 9)]:
        membership_pattern(arr, point)
    for w in [0, word([1]), word([1, 2, 3]), word([1, 2])]:
        find_atom_point(arr, w)
    code_of_arrangement(arr)
    assert calls == arr.n


def test_extraction_and_collapse_leave_no_reference_cycles(corpus_entries, extracted_codes):
    # recursive closures must not outlive their call: with the collector off,
    # a cycle would keep a search's levels or the mandatory walk's rows alive
    gc.collect()
    gc.disable()
    try:
        for entry in corpus_entries:
            for real in entry.realizations:
                code_of_arrangement(real.arrangement)
                for w in extracted_codes[real.stem]:
                    find_atom_point(real.arrangement, w)
            build_analysis(entry.code, include_homology=True)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_code_invariant_under_constraint_noise():
    rng = random.Random(20240)
    for build in (sunflower3_realization, fan6_realization):
        arr = build()
        reference = code_of_arrangement(arr)
        noisy_sets = []
        for p in arr.sets:
            rows = list(p.constraints)
            rng.shuffle(rows)
            extra = []
            for c in rows[: rng.randint(1, len(rows))]:
                scale = Q(rng.randint(1, 5))
                # positively scaled copies and slackened copies are redundant
                extra.append(constraint([a * scale for a in c.coeffs], c.rel, c.bound * scale))
                extra.append(constraint(c.coeffs, c.rel, c.bound + rng.randint(0, 3)))
            noisy_sets.append(Polyhedron(p.dim, tuple(rows + extra)))
        noisy = Arrangement(arr.dim, arr.topology, tuple(noisy_sets))
        assert code_of_arrangement(noisy) == reference


def test_dropping_a_set_matches_restriction():
    for build in (sunflower3_realization, fan6_realization, boxes6_realization):
        arr = build() if build is not boxes6_realization else build(Topology.CLOSED)
        full = code_of_arrangement(arr)
        for j in range(1, arr.n + 1):
            kept = [i for i in range(1, arr.n + 1) if i != j]
            smaller = Arrangement(
                arr.dim, arr.topology, tuple(arr.sets[i - 1] for i in kept)
            )
            assert code_of_arrangement(smaller) == restrict(full, kept), (arr, j)


def test_extraction_never_evaluates_fractions(monkeypatch, corpus_entries, extracted_codes):
    def forbidden(*args):
        raise AssertionError("point_satisfies called by the engine")

    monkeypatch.setattr(geometry, "point_satisfies", forbidden)
    for entry in corpus_entries:
        for real in entry.realizations:
            assert code_of_arrangement(real.arrangement) == extracted_codes[real.stem], real.stem


def test_feasible_point_builds_only_its_witness(monkeypatch, corpus_entries):
    # elimination and back-substitution run in integers: an engine solve
    # builds no Fraction, arithmetic included, and feasible_point builds only
    # the coordinates it returns
    built = 0
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    solve = geometry._solve
    per_call = []

    def counted(system, rows, dim):
        before = built
        out = solve(system, rows, dim)
        per_call.append(built - before)
        return out

    arrangements = [real.arrangement for e in corpus_entries for real in e.realizations]
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(geometry, "_solve", counted)
    for arr in arrangements:
        code_of_arrangement(arr)
    assert per_call and not any(per_call)
    for arr in arrangements:
        sets = [integer_rows(interpreted_constraints(p, arr.topology)) for p in arr.sets]
        for sigma in range(1 << arr.n):
            before = built
            feasible_point([r for i in members(sigma) for r in sets[i - 1]], arr.dim)
            assert built - before <= arr.dim


# --- membership on integer rows against Fraction evaluation ---------------------------


@st.composite
def arrangements_and_points(draw):
    dim = draw(st.integers(1, 3))
    topology = draw(st.sampled_from(list(Topology)))
    rels = [Rel.LE] if topology is Topology.OPEN else [Rel.LE, Rel.EQ]
    # small values over mixed denominators, so that equalities and boundaries hold often
    scalar = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3]))
    zero = (Q(0),) * dim
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        rows = []
        for _ in range(draw(st.integers(0, 3))):  # a set with no rows is the whole space
            coeffs = draw(st.one_of(st.just(zero), st.tuples(*[scalar] * dim)))
            rows.append(LinearConstraint(coeffs, draw(st.sampled_from(rels)), draw(scalar)))
        sets.append(Polyhedron(dim, tuple(rows)))
    coord = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))
    points = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=4))
    return Arrangement(dim, topology, tuple(sets)), points


@settings(max_examples=300, deadline=None)
@given(arrangements_and_points())
def test_membership_pattern_matches_fraction_evaluation(case):
    arr, points = case
    interp = [interpreted_constraints(p, arr.topology) for p in arr.sets]
    for point in points:
        want = sum(1 << i for i, cons in enumerate(interp) if point_satisfies(cons, point))
        assert membership_pattern(arr, point) == want


# --- lines ----------------------------------------------------------------------------


def petal_1():
    return sunflower3_realization().sets[0]  # [-9,2] x [0,2]


def test_line_meets_examples():
    assert line_meets(petal_1(), Topology.OPEN, (0, 1), (1, 0))
    assert not line_meets(petal_1(), Topology.OPEN, (0, 5), (1, 0))
    # vertical line through the central square crosses all three petals
    arr = sunflower3_realization()
    for p in arr.sets:
        assert line_meets(p, Topology.OPEN, (1, 0), (0, 1))
    with pytest.raises(ValueError):
        line_meets(petal_1(), Topology.CLOSED, (0, 0), (0, 0))


def test_line_meets_segment_exactly():
    segment = polyhedron(2, [((0, 1), "=", 0), ((1, 0), "<=", 1), ((-1, 0), "<=", 0)])
    assert line_meets(segment, Topology.CLOSED, (Q(1, 2), -1), (0, 1))
    assert not line_meets(segment, Topology.CLOSED, (2, -1), (0, 1))
    assert line_meets(segment, Topology.CLOSED, (0, 1), (1, -1))


# --- partition property (sampled) -----------------------------------------------------


def random_rational_point(rng, box, denom=60):
    return tuple(
        Q(rng.randint(int(lo * denom), int(hi * denom)), denom) for lo, hi in box
    )


def test_partition_property_sampled(corpus_entries, extracted_codes):
    rng = random.Random(99)
    for entry in corpus_entries:
        for real in entry.realizations:
            code = extracted_codes[real.stem]
            for _ in range(120):
                q = random_rational_point(rng, real.sample_box)
                pattern = membership_pattern(real.arrangement, q)
                assert pattern in code.words, (real.stem, q, members(pattern))
