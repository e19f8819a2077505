"""Exact rational polyhedral geometry for arrangements of convex sets.

Sets are H-representations: lists of linear constraints ``a·x <= b``,
``a·x < b``, or ``a·x = b`` with Fraction coefficients, as in the files and
the API.  ``integer_rows`` scales them to integer rows: an integer
coefficient vector, an integer bound and a strict flag, an equality being
two opposite weak rows.  Feasibility is the exact Fourier-Motzkin kernel of
``fm``, which decides both open and closed semantics on these rows in
integers.  An arrangement checks its constraints against its topology when
it is built, and builds its rows from those validated constraints, every row
strict under OPEN; it hands each row to the kernel's stored form once, on
first use, and every query on it reuses them.  Membership asks the kernel,
once per set, whether the set's rows hold in integers at a kernel witness;
Fractions appear again only in the points the API returns.

An arrangement is an ordered family U_1..U_n of such sets in a common
ambient dimension, tagged open or closed.  The code of the arrangement is
the set of membership patterns sigma for which the atom
``U_sigma minus the union of the other sets`` is nonempty.  Extraction
searches once per group of equal sets, those with the same stored rows in
any order or scale, and each copy of a set joins every codeword its first
copy is in.  It searches the closed faces of the nerve, those sigma whose
region U_sigma lies in no set outside sigma: every codeword is one.  A face
whose region lies inside a skipped set of smaller index is dropped with
everything the search would add to it, so k sets through one point cost as
many faces as distinct intersection regions, not 2^k, and k copies of a set
cost as much as one.  The atom of each remaining closed face is decided by
a depth-first search over one negated row per avoided set, with
incremental infeasibility pruning.  Each face keeps the normalised system
of U_sigma, so a child, a containment test or an atom branch adds only its
own rows to it.  The points the search finds are kept, keyed by their
membership patterns: those patterns are codewords, and they answer without
a solve whether U_sigma meets a set or is not inside it.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import eq, le, lt, mul
from typing import Iterable, NamedTuple, Sequence

from .codes import MAX_NEURONS, NeuralCode, Word, _Frozen, full_word, members
from .fm import _extend, _holds, _IneqSystem, _IntPoint, _negate, _solve, _Stored, _stored_rows

Point = tuple[Fraction, ...]
# ``key · x <= bound`` (``<`` if strict), key an integer vector, bound an integer
Row = tuple[tuple[int, ...], int, bool]


class Rel(Enum):
    LE = "<="
    LT = "<"
    EQ = "="


class Topology(Enum):
    OPEN = "open"
    CLOSED = "closed"


class TopologyError(ValueError):
    """A constraint relation is incompatible with the declared topology."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class LinearConstraint(NamedTuple):
    """One constraint ``coeffs · x  rel  bound`` over Fraction scalars."""

    coeffs: tuple[Fraction, ...]
    rel: Rel
    bound: Fraction


def constraint(coeffs: Iterable, rel: Rel | str, bound) -> LinearConstraint:
    """Build a constraint, coercing ints/strings to Fractions."""
    r = rel if isinstance(rel, Rel) else Rel(rel)
    return LinearConstraint(tuple(_frac(c) for c in coeffs), r, _frac(bound))


class Polyhedron(_Frozen):
    """A convex set in R^dim given by a finite list of linear constraints."""

    _fields = ("dim", "constraints")

    def __init__(self, dim: int, constraints: tuple[LinearConstraint, ...]) -> None:
        if isinstance(dim, bool):
            raise ValueError(f"ambient dimension must be an integer, got {dim!r}")
        if dim < 1:
            raise ValueError("ambient dimension must be positive")
        for c in constraints:
            if len(c.coeffs) != dim:
                raise ValueError(f"constraint has {len(c.coeffs)} coefficients in dimension {dim}")
        self.__dict__.update(dim=dim, constraints=constraints)


def polyhedron(dim: int, rows: Iterable[tuple]) -> Polyhedron:
    """Convenience constructor: rows of (coeffs, rel, bound)."""
    return Polyhedron(dim, tuple(constraint(*row) for row in rows))


class Arrangement(_Frozen):
    """An ordered family of polyhedra with uniform topology in R^dim.

    ``topology`` may be given as a ``Topology`` or its value (``"open"`` or
    ``"closed"``); any other value raises ``ValueError``."""

    _fields = ("dim", "topology", "sets")

    def __init__(self, dim: int, topology: Topology | str, sets: tuple[Polyhedron, ...]) -> None:
        if isinstance(dim, bool):
            raise ValueError(f"ambient dimension must be an integer, got {dim!r}")
        if dim < 1:
            raise ValueError("ambient dimension must be positive")
        topology = Topology(topology)
        for k, p in enumerate(sets, start=1):
            if p.dim != dim:
                raise ValueError(f"set {k} lives in dimension {p.dim}, expected {dim}")
            for c in p.constraints:
                if topology is Topology.OPEN and c.rel is Rel.EQ:
                    raise TopologyError(
                        f"set {k}: equality constraint not allowed in an open arrangement"
                    )
                if topology is Topology.CLOSED and c.rel is Rel.LT:
                    raise TopologyError(
                        f"set {k}: strict constraint not allowed in a closed arrangement"
                    )
        self.__dict__.update(dim=dim, topology=topology, sets=sets)

    @property
    def n(self) -> int:
        return len(self.sets)

    @cached_property
    def _rows(self) -> tuple[tuple[_Stored, ...], ...]:
        """The stored rows of each set under the topology, built on first use.

        ``__init__`` already rejected the relations the topology forbids, so
        the rows come from the constraints as they are, every one strict under
        OPEN: those of ``interpreted_constraints``, without rebuilding them.
        """
        open_ = self.topology is Topology.OPEN
        return tuple(
            [_stored_rows([(key, b, open_ or s) for key, b, s in integer_rows(p.constraints)])
             for p in self.sets]
        )


def interpreted_constraints(
    poly: Polyhedron, topology: Topology
) -> tuple[LinearConstraint, ...]:
    """Constraints with the topology applied: open sets read ``<=`` strictly.

    Open convex sets are empty or full-dimensional, so equality constraints
    are rejected loudly under OPEN rather than treated as an empty set.
    ``Arrangement._rows`` repeats the open rule, so a change to one is made
    in both.
    """
    if topology is Topology.CLOSED:
        for c in poly.constraints:
            if c.rel is Rel.LT:
                raise TopologyError("strict constraint not allowed under closed topology")
        return poly.constraints
    out = []
    for c in poly.constraints:
        if c.rel is Rel.EQ:
            raise TopologyError("equality constraint not allowed under open topology")
        out.append(LinearConstraint(c.coeffs, Rel.LT, c.bound))
    return tuple(out)


def integer_rows(constraints: Iterable[LinearConstraint]) -> list[Row]:
    """The rows of the constraints, each scaled to integers by the lcm of its denominators.

    The lcm covers the bound's denominator too, so every key entry and every
    bound is an ``int``, and Fourier-Motzkin needs no Fraction.  An equality
    ``a·x = b`` becomes ``-a·x <= -b`` then ``a·x <= b``, so that the
    negations of its rows read ``a·x < b`` then ``a·x > b``.
    """
    rows: list[Row] = []
    for c in constraints:
        b = _frac(c.bound)
        den = lcm(b.denominator, *(a.denominator for a in c.coeffs))
        key = tuple([a.numerator * (den // a.denominator) for a in c.coeffs])
        bound = b.numerator * (den // b.denominator)
        if c.rel is Rel.EQ:
            rows.append((tuple([-v for v in key]), -bound, False))
        rows.append((key, bound, c.rel is Rel.LT))
    return rows


def _integer_point(point: Point) -> _IntPoint:
    den = lcm(*(x.denominator for x in point))
    return [x.numerator * (den // x.denominator) for x in point], den


def feasible_point(rows: Sequence[Row], dim: int) -> Point | None:
    """Decide a system of mixed strict/weak integer rows exactly; return a witness.

    The rows come from ``integer_rows``.  This is ``_solve`` of their stored
    form from the empty system; extraction calls ``_solve`` on each face's
    system instead, so that each test adds only its new rows.
    Fourier-Motzkin removes the variables one by one in integers, the last
    two by folding row pairs into bounds that are not stored, and a
    satisfying rational point is reconstructed by back-substitution through
    the rows that bounded each removed variable, as integer numerators over
    one common denominator; the Fractions of the returned point are the only
    ones built.  Returns None when the system is infeasible.
    """
    for key, _, _ in rows:
        if len(key) != dim:
            raise ValueError(f"row has {len(key)} coefficients, expected {dim}")
    solved = _solve(_IneqSystem(), _stored_rows(rows), dim)
    if solved is None:
        return None
    nums, den = solved[1]
    return tuple([Fraction(v, den) for v in nums])


_COMPARE = {Rel.LE: le, Rel.LT: lt, Rel.EQ: eq}


def point_satisfies(constraints: Iterable[LinearConstraint], point: Sequence[Fraction]) -> bool:
    """Whether every constraint holds at point, evaluated in Fractions.

    A check of witnesses independent of the integer rows the engine uses.
    Raises ValueError when a constraint and the point differ in dimension.
    """
    constraints = tuple(constraints)
    for c in constraints:
        if len(c.coeffs) != len(point):
            raise ValueError(f"point has {len(point)} coordinates, expected {len(c.coeffs)}")
    return all(
        _COMPARE[c.rel](sum(map(mul, c.coeffs, point), Fraction(0)), c.bound)
        for c in constraints
    )


def _pattern(sets: Sequence[Sequence[_Stored]], point: _IntPoint) -> Word:
    """The codeword of the sets, given by their rows, containing point."""
    w = 0
    for i, rows in enumerate(sets):
        if _holds(rows, point):
            w |= 1 << i
    return w


def membership_pattern(arr: Arrangement, point: Sequence[Fraction]) -> Word:
    """The codeword of sets containing the point under the arrangement topology."""
    if len(point) != arr.dim:
        raise ValueError(f"point has {len(point)} coordinates, expected {arr.dim}")
    return _pattern(arr._rows, _integer_point(tuple(_frac(x) for x in point)))


def _atom_search(
    sets: Sequence[Sequence[_Stored]],
    dim: int,
    sigma: Word,
    base: _IneqSystem,
    base_witness: _IntPoint,
    meets: Word,
    apart: Word,
) -> _IntPoint | None:
    """Find a point of U_sigma avoiding every other set, or prove there is none.

    base is the system of U_sigma and base_witness a point of it; U_sigma is
    known to meet the sets in meets and to miss those in apart, and only the
    other sets outside sigma cost a solve to decide.  One negated row is
    chosen per avoided set, depth-first; a row the base system implies has
    an empty negation and is no branch, and a branch is pruned as soon as
    its partial system is infeasible.  Witnesses are reused: a branch whose
    new row already holds at the current witness needs no new solve, and its
    row waits to be added with the next solve below it.
    """
    levels: list[list[_Stored]] = []
    for i, rows in enumerate(sets):
        bit = 1 << i
        if (sigma | apart) & bit:
            continue
        if meets & bit or _solve(base, rows, dim) is not None:
            levels.append([_negate(r) for r in rows if not base.implies(r)])

    def search(
        level: int, system: _IneqSystem, pending: list[_Stored], witness: _IntPoint
    ) -> _IntPoint | None:
        if level == len(levels):
            return witness
        for nb in levels[level]:
            if _holds((nb,), witness):
                found = search(level + 1, system, pending + [nb], witness)
            else:
                solved = _solve(system, pending + [nb], dim)
                found = None if solved is None else search(level + 1, solved[0], [], solved[1])
            if found is not None:
                return found
        return None

    found = search(0, base, [], base_witness)
    del search  # its closure holds it: a cycle keeping levels until a full collection
    return found


def find_atom_point(arr: Arrangement, sigma: Word) -> Point | None:
    """A rational point whose membership pattern is exactly sigma, or None."""
    if sigma & ~full_word(arr.n):
        raise ValueError(f"pattern uses sets beyond the arrangement's {arr.n}")
    sets = arr._rows
    solved = _solve(_IneqSystem(), [r for i in members(sigma) for r in sets[i - 1]], arr.dim)
    if solved is None:
        return None
    system, w = solved
    pattern = _pattern(sets, w)
    found = w if pattern == sigma else _atom_search(sets, arr.dim, sigma, system, w, pattern, 0)
    if found is None:
        return None
    nums, den = found
    return tuple(Fraction(v, den) for v in nums)


def code_of_arrangement(arr: Arrangement) -> NeuralCode:
    """Extract the code of the arrangement: all sigma with a nonempty atom.

    Sets with the same stored rows, in any order or scale, are one set: the
    search below runs over the first copy of each, and each pattern it finds
    is expanded so that a copy of a set is in every codeword the set is in.
    So its cost follows the number of distinct sets, not of their copies;
    an arrangement without equal sets is searched as it is.

    The search runs over the closed faces of the nerve.  A codeword sigma is
    closed: U_sigma lies in no set outside sigma, since a point of its atom
    avoids them all.  Faces are discovered breadth-first from the empty
    pattern by adding sets in increasing order, each with the normalised
    Fourier-Motzkin system of U_sigma, so that every test on a face solves
    only the rows it adds to that system.

    Points found on the way are pooled under their membership patterns, each
    a codeword: the origin, the witnesses of child solves and of failed
    containment tests, and every atom point; the code is the pool's keys.
    At each face one scan of the pool patterns P containing sigma gives two
    masks: ``meets``, the union of those P, holds sets that meet U_sigma, and
    ``leaves``, the union of their complements, holds sets that do not
    contain it; points found at the face add to both.  A face also carries
    ``apart``, the sets its own child solves or an ancestor's proved
    disjoint from its region, which no region below it meets.

    At a face sigma with largest set top, the sets j outside sigma that are
    in meets but not in leaves are tested in increasing order for U_sigma
    within U_j, up to the first that contains it:

    - j < top: sigma and every face below it in the search lack j and lie
      inside U_j, so none is a codeword and the whole subtree is dropped;
    - j > top: sigma is not a codeword, so its atom search is skipped, and
      only children adding sets up to j are kept, since the others lack j.

    Each face proves its own containing set, and apart is the only fact a
    child inherits.  A child adding a set in meets is extended by that set's
    rows with no solve, since a pool point lies in both; one adding a set in
    apart is not a face.  A sigma already in the pool skips its atom search,
    whose levels for sets in meets or apart need no solve.

    The increasing chain of prefixes of a codeword never meets either rule,
    so every codeword is still reached, and the number of faces searched
    follows the number of distinct intersection regions rather than 2^k for
    k sets through one point.  The empty codeword is decided by the same
    atom search as every other pattern.  Its one size limit is MAX_NEURONS
    sets, checked before any solve; run time has no bound yet (ROADMAP item 12).
    """
    if arr.n > MAX_NEURONS:
        raise ValueError(f"arrangement has {arr.n} sets; its code exceeds the {MAX_NEURONS}-neuron cap")
    # the copies of each distinct set as a mask, keyed by its stored rows
    groups: dict[frozenset[_Stored], Word] = {}
    for i, rows in enumerate(arr._rows):
        key = frozenset(rows)
        groups[key] = groups.get(key, 0) | 1 << i
    copies = list(groups.values())
    sets = [arr._rows[(c & -c).bit_length() - 1] for c in copies]
    n = len(sets)
    dim = arr.dim
    origin = ([0] * dim, 1)
    pool: dict[Word, _IntPoint] = {_pattern(sets, origin): origin}
    # (sigma, top, system of U_sigma, sets known to miss U_sigma)
    queue: deque[tuple[Word, int, _IneqSystem, Word]] = deque([(0, 0, _IneqSystem(), 0)])
    while queue:
        sigma, top, system, apart = queue.popleft()
        witness = None
        meets = leaves = 0
        for p, w in pool.items():
            if p & sigma == sigma:
                witness = witness or w
                meets |= p
                leaves |= ~p

        def add_point(w: _IntPoint) -> None:
            nonlocal meets, leaves
            p = _pattern(sets, w)
            pool.setdefault(p, w)
            meets |= p
            leaves |= ~p

        cover = n + 1  # the smallest set containing U_sigma, if any
        for j in members(meets & ~leaves & ~sigma):
            if leaves & (1 << (j - 1)):
                continue  # a point found by an earlier test lies outside U_j
            # U_sigma lies inside U_j when it meets the negation of no row of
            # U_j; a row the system already implies needs no solve
            for r in sets[j - 1]:
                if not system.implies(r) and (solved := _solve(system, [_negate(r)], dim)):
                    add_point(solved[1])
                    break
            else:
                cover = j
                break
        if cover < top:
            continue
        children = []
        for j in range(top + 1, min(cover, n) + 1):
            bit = 1 << (j - 1)
            if meets & bit:
                # a pool point lies in U_sigma and U_j, so the adds cannot fail
                child_system = _extend(system, sets[j - 1])
                assert child_system is not None
                children.append((j, child_system))
            elif not apart & bit:
                solved = _solve(system, sets[j - 1], dim)
                if solved is None:
                    apart |= bit
                else:
                    add_point(solved[1])
                    children.append((j, solved[0]))
        # apart is complete only now, after the last child's solve
        for j, child_system in children:
            queue.append((sigma | 1 << (j - 1), j, child_system, apart))
        if cover > n and sigma not in pool:
            assert witness is not None
            atom = _atom_search(sets, dim, sigma, system, witness, meets, apart)
            if atom is not None:
                pool[sigma] = atom
    return NeuralCode(
        arr.n, frozenset([sum(c for j, c in enumerate(copies) if p >> j & 1) for p in pool])
    )


def line_meets(
    poly: Polyhedron,
    topology: Topology,
    point: Sequence,
    direction: Sequence,
) -> bool:
    """Whether the line point + t*direction meets the topology-interpreted set.

    Substituting the parametrization turns each constraint into a one-variable
    constraint on t, decided exactly.
    """
    pt = tuple(_frac(x) for x in point)
    dr = tuple(_frac(x) for x in direction)
    if len(pt) != poly.dim or len(dr) != poly.dim:
        raise ValueError("point/direction dimension mismatch")
    if all(x == 0 for x in dr):
        raise ValueError("direction must be nonzero")
    one_d = []
    for c in interpreted_constraints(poly, topology):
        slope = sum((a * d for a, d in zip(c.coeffs, dr)), Fraction(0))
        offset = c.bound - sum((a * x for a, x in zip(c.coeffs, pt)), Fraction(0))
        one_d.append(LinearConstraint((slope,), c.rel, offset))
    return feasible_point(integer_rows(one_d), 1) is not None


__all__ = [
    "Arrangement",
    "LinearConstraint",
    "Point",
    "Polyhedron",
    "Rel",
    "Row",
    "Topology",
    "TopologyError",
    "code_of_arrangement",
    "constraint",
    "feasible_point",
    "find_atom_point",
    "integer_rows",
    "interpreted_constraints",
    "line_meets",
    "membership_pattern",
    "point_satisfies",
    "polyhedron",
]
