"""Built-in example codes, the parametric families, and their realizations.

Coordinates for the hand-built arrangements (the triangle fan, the segment
star, the rectangle sunflower, the box realization) are fixed rational
literals; their only claim to correctness is that ``code_of_arrangement``
reproduces the stored code exactly, which the test suite enforces for every
realization shipped here.

Family conventions: the duplicate partner of neuron ``i`` in the ``an``/``cn``
families is relabeled to ``n + 1 + i``, giving the universe ``1..2n+1`` with
neuron ``n + 1`` as the crossing set.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction
from typing import NamedTuple

from .codes import (
    MAX_NEURONS,
    NeuralCode,
    Word,
    add_codeword,
    neural_code,
    restrict,
    word,
)
from .geometry import Arrangement, Polyhedron, Topology, polyhedron

Q = Fraction


def barred(i: int, n: int) -> int:
    """Index of the duplicate partner of neuron i in the 2n+1 universe."""
    return n + 1 + i


def _check_family_size(n: int) -> None:
    # before anything is built: a huge n would spend seconds on lists first
    if n < 2:
        raise ValueError("the family needs n >= 2")
    if 2 * n + 1 > MAX_NEURONS:
        raise ValueError(
            f"the family on 2n+1 = {2 * n + 1} neurons exceeds the {MAX_NEURONS}-neuron cap"
        )


def gen_an(n: int) -> NeuralCode:
    """The 2n+3-word family on 2n+1 neurons: a full word, a crossing word,
    the empty word, and pair/triple words {i, i'} and {i, i', n+1}."""
    _check_family_size(n)
    full = list(range(1, n + 1)) + [barred(i, n) for i in range(1, n + 1)]
    words: list[list[int]] = [full, [n + 1], []]
    for i in range(1, n + 1):
        words.append([i, barred(i, n), n + 1])
        words.append([i, barred(i, n)])
    return neural_code(2 * n + 1, words)


def gen_sn(n: int) -> NeuralCode:
    """The restriction of the 2n+3-word family to neurons 1..n+1."""
    return restrict(gen_an(n), range(1, n + 2))


def gen_cn(n: int) -> NeuralCode:
    """The 2n+3-word family plus the non-maximal word of all duplicate partners."""
    an = gen_an(n)
    extra = word(barred(i, n) for i in range(1, n + 1))
    return add_codeword(an, extra).code


def realization_cn_rn(n: int) -> Arrangement:
    """Closed realization of gen_cn(n) in R^n.

    Set i (i in [n]) is the slab-box with x_i unbounded above intersected
    with {sum x >= 1}; its duplicate partner n+1+i drops the sum constraint;
    set n+1 is the slab 2n <= sum x <= 2n+1.  The extra codeword of all
    duplicate partners lives in the corner of the unit cube where the
    coordinate sum is below 1.
    """
    _check_family_size(n)

    def box_rows(i: int) -> list[tuple]:
        rows: list[tuple] = []
        for j in range(n):
            coeffs = [0] * n
            coeffs[j] = -1
            rows.append((coeffs, "<=", 0))
        for j in range(n):
            if j == i - 1:
                continue
            coeffs = [0] * n
            coeffs[j] = 1
            rows.append((coeffs, "<=", 1))
        return rows

    ones = [1] * n
    neg_ones = [-1] * n
    sets: list[Polyhedron] = []
    for i in range(1, n + 1):
        sets.append(polyhedron(n, box_rows(i) + [(neg_ones, "<=", -1)]))
    sets.append(polyhedron(n, [(ones, "<=", 2 * n + 1), (neg_ones, "<=", -2 * n)]))
    for i in range(1, n + 1):
        sets.append(polyhedron(n, box_rows(i)))
    return Arrangement(n, Topology.CLOSED, tuple(sets))


def realization_an_r2(n: int) -> Arrangement:
    """Closed realization of gen_an(n) in R^2 by segments.

    n segments run from the apex (0, 4) to evenly spread endpoints on the
    line y = -4; one transversal segment at y = -2 crosses them all away
    from the apex.  Each segment is shared by neuron i and its duplicate.
    """
    if not 2 <= n <= 8:
        raise ValueError("the planar segment realization supports 2 <= n <= 8")
    endpoints = [Q(-9) + Q(18) * (k - 1) / (n - 1) for k in range(1, n + 1)]
    segments = []
    for e in endpoints:
        # line through (0, 4) and (e, -4): 8x + e*y = 4e, with -4 <= y <= 4
        segments.append(
            polyhedron(
                2,
                [
                    ((8, e), "=", 4 * e),
                    ((0, 1), "<=", 4),
                    ((0, -1), "<=", 4),
                ],
            )
        )
    transversal = polyhedron(
        2,
        [((0, 1), "=", -2), ((1, 0), "<=", 9), ((-1, 0), "<=", 9)],
    )
    sets = segments + [transversal] + segments
    return Arrangement(2, Topology.CLOSED, tuple(sets))


def realization_sn_r2(n: int) -> Arrangement:
    """Closed realization of gen_sn(n): the segment star without duplicates."""
    base = realization_an_r2(n)
    return Arrangement(2, Topology.CLOSED, base.sets[: n + 1])


# --- fixed example codes ----------------------------------------------------------


def boxes6_code() -> NeuralCode:
    """Six-neuron, twelve-word code that is open and closed convex but not
    max-intersection complete."""
    return neural_code(
        6,
        [
            [1, 2, 3], [1, 2, 4], [1, 3, 5], [2, 3, 6],
            [1, 2], [1, 3], [1, 4], [2, 3], [2, 4],
            [1], [2],
            [],
        ],
    )


def boxes6_realization(topology: Topology) -> Arrangement:
    """Axis-aligned box realization of boxes6_code; valid open and closed.

    Two wide boxes overlap in the middle; two bands cross the overlap above
    and below; two small boxes sit inside the top band on either side.
    """
    rows = {
        1: [((-1, 0), "<=", 10), ((1, 0), "<=", 2), ((0, -1), "<=", 6), ((0, 1), "<=", 6)],
        2: [((-1, 0), "<=", 2), ((1, 0), "<=", 10), ((0, -1), "<=", 6), ((0, 1), "<=", 6)],
        3: [((-1, 0), "<=", 8), ((1, 0), "<=", 8), ((0, -1), "<=", -2), ((0, 1), "<=", 4)],
        4: [((-1, 0), "<=", 8), ((1, 0), "<=", 8), ((0, -1), "<=", 4), ((0, 1), "<=", -2)],
        5: [((-1, 0), "<=", 7), ((1, 0), "<=", -5), ((0, -1), "<=", Q(-5, 2)), ((0, 1), "<=", Q(7, 2))],
        6: [((-1, 0), "<=", -5), ((1, 0), "<=", 7), ((0, -1), "<=", Q(-5, 2)), ((0, 1), "<=", Q(7, 2))],
    }
    sets = tuple(polyhedron(2, rows[i]) for i in range(1, 7))
    return Arrangement(2, topology, sets)


def fan6_code() -> NeuralCode:
    """Six-neuron code realized by a fan of triangles over a split strip;
    closed convex, with the triple region forced to positive codimension."""
    return neural_code(
        6,
        [
            [2, 4, 5, 6], [1, 2, 3], [1, 4, 5], [3, 4, 6],
            [4, 5], [4, 6],
            [1], [2], [3],
            [],
        ],
    )


def _fan_triangle_rows() -> dict[int, list[tuple]]:
    # three triangles with common apex (0, 7) and bases on y = -6,
    # plus the trapezoid strip -6 <= y <= -3 they all cross
    return {
        1: [((-13, 9), "<=", 63), ((13, -5), "<=", -35), ((0, -1), "<=", 6)],
        2: [((-13, 2), "<=", 14), ((13, 2), "<=", 14), ((0, -1), "<=", 6)],
        3: [((13, 9), "<=", 63), ((-13, -5), "<=", -35), ((0, -1), "<=", 6)],
        4: [((0, 1), "<=", -3), ((0, -1), "<=", 6), ((10, 7), "<=", 48), ((-10, 7), "<=", 48)],
    }


def fan6_realization() -> Arrangement:
    """Closed realization of fan6_code.

    Sets 5 and 6 are the strip truncated along the middle triangle's right
    and left edges, so their overlap inside the strip is exactly the middle
    triangle's slice and their union covers the whole strip.
    """
    rows = _fan_triangle_rows()
    rows[5] = rows[4] + [((13, 2), "<=", 14)]
    rows[6] = rows[4] + [((-13, 2), "<=", 14)]
    sets = tuple(polyhedron(2, rows[i]) for i in range(1, 7))
    return Arrangement(2, Topology.CLOSED, sets)


def fan8_code() -> NeuralCode:
    """fan6_code with neurons 7 and 8 duplicating neurons 1 and 3."""
    return neural_code(
        8,
        [
            [1, 2, 3, 7, 8], [1, 4, 5, 7], [2, 4, 5, 6], [3, 4, 6, 8],
            [1, 7], [3, 8], [4, 5], [4, 6],
            [2],
            [],
        ],
    )


def fan8_realization() -> Arrangement:
    """Closed realization of fan8_code: the fan6 sets with sets 7 and 8
    equal to sets 1 and 3."""
    base = fan6_realization()
    sets = base.sets + (base.sets[0], base.sets[2])
    return Arrangement(2, Topology.CLOSED, sets)


def fan8_plus_code() -> NeuralCode:
    """fan8_code with the extra non-maximal word {2,7,8}; locally good but
    with no realization shipped."""
    return add_codeword(fan8_code(), [2, 7, 8]).code


def neither8_code() -> NeuralCode:
    """Eight-neuron, 21-word code that is locally good yet admits neither an
    open nor a closed convex realization; no realization exists to ship."""
    return neural_code(
        8,
        [
            [2, 3, 4, 5], [1, 2, 3], [1, 2, 4], [1, 4, 5],
            [1, 2], [1, 4], [2, 3], [2, 4], [4, 5],
            [2], [4],
            [],
            [2, 3, 7], [2, 3, 8], [3, 6, 7], [6, 7, 8],
            [2, 6], [3, 7], [6, 7],
            [6], [8],
        ],
    )


def sunflower3_code() -> NeuralCode:
    """Three petals with a common center: {123, 1, 2, 3, empty}."""
    return neural_code(3, [[1, 2, 3], [1], [2], [3], []])


def sunflower3_realization() -> Arrangement:
    """Three closed rectangles whose pairwise overlaps all equal the central square."""
    rows = {
        1: [((-1, 0), "<=", 9), ((1, 0), "<=", 2), ((0, -1), "<=", 0), ((0, 1), "<=", 2)],
        2: [((-1, 0), "<=", 0), ((1, 0), "<=", 2), ((0, -1), "<=", 0), ((0, 1), "<=", 9)],
        3: [((-1, 0), "<=", 0), ((1, 0), "<=", 11), ((0, -1), "<=", 0), ((0, 1), "<=", 2)],
    }
    sets = tuple(polyhedron(2, rows[i]) for i in range(1, 4))
    return Arrangement(2, Topology.CLOSED, sets)


# --- corpus ----------------------------------------------------------------------


Box = tuple[tuple[Fraction, Fraction], ...]


def _box2(lo: int, hi: int) -> Box:
    return ((Q(lo), Q(hi)), (Q(lo), Q(hi)))


class Realization(NamedTuple):
    """An arrangement paired with a file stem and a sampling box for the
    randomized partition checks."""

    stem: str
    arrangement: Arrangement
    sample_box: Box


class Expected(NamedTuple):
    """Optional property assertions attached to a corpus entry; tests check
    every field that is not None."""

    word_count: int | None = None
    maximal: frozenset[Word] | None = None
    max_intersection_complete: bool | None = None
    incompleteness_witness: Word | None = None
    locally_good: bool | None = None
    locally_good_checked: frozenset[Word] | None = None
    non_mandatory_faces: frozenset[Word] | None = None
    betti1_min: int | None = None
    duplicate_pairs: tuple[tuple[int, int], ...] | None = None
    sunflower: bool | None = None


class CorpusEntry(NamedTuple):
    name: str
    code: NeuralCode
    realizations: tuple[Realization, ...]
    expected: Expected


# every family code is max-intersection complete, hence locally good with no face to check
_COMPLETE = dict(max_intersection_complete=True, locally_good=True, locally_good_checked=frozenset())


class Family(NamedTuple):
    """A parametric family: its code for n, its realizations by tag (each a
    builder and the sampling box for n), and the corpus expectations for n."""

    code: Callable[[int], NeuralCode]
    realizations: dict[str, tuple[Callable[[int], Arrangement], Callable[[int], Box]]]
    expected: Callable[[int], Expected]


def _planar_box(n: int) -> Box:
    return _box2(-10, 10)


FAMILIES = {
    "an": Family(
        gen_an,
        {"r2": (realization_an_r2, _planar_box)},
        lambda n: Expected(
            word_count=2 * n + 3,
            duplicate_pairs=tuple((i, barred(i, n)) for i in range(1, n + 1)),
            **_COMPLETE,
        ),
    ),
    "sn": Family(
        gen_sn,
        {"r2": (realization_sn_r2, _planar_box)},
        lambda n: Expected(word_count=2 * n + 3, **_COMPLETE),
    ),
    "cn": Family(
        gen_cn,
        {"rn": (realization_cn_rn, lambda n: ((Q(-2), Q(2 * n + 2)),) * n)},
        lambda n: Expected(word_count=2 * n + 4, betti1_min=1, **_COMPLETE),
    ),
}


def family_entry(family: str, n: int, tags: Iterable[str] = ()) -> CorpusEntry:
    """The entry ``<family>_<n>`` with the realizations tagged ``tags``, each
    under the stem ``<family>_<tag>_<n>``.  The code is built first, so an n
    out of range is reported before a tag the family lacks."""
    spec = FAMILIES[family]
    code = spec.code(n)
    reals = []
    for tag in tags:
        if tag not in spec.realizations:
            raise ValueError(f"family {family!r} has no {tag!r} realization")
        build, box = spec.realizations[tag]
        reals.append(Realization(f"{family}_{tag}_{n}", build(n), box(n)))
    return CorpusEntry(f"{family}_{n}", code, tuple(reals), spec.expected(n))


def _family_entries() -> list[CorpusEntry]:
    # every realization for n = 2..5 but cn_rn_5; its extraction takes milliseconds,
    # but adding it would add an .arr file to the corpus that the extract
    # benchmark reads, and ROADMAP item 1 decides the corpus's next files
    return [
        family_entry(family, n, [t for t in spec.realizations if (family, t, n) != ("cn", "rn", 5)])
        for family, spec in FAMILIES.items()
        for n in range(2, 6)
    ]


def corpus() -> tuple[CorpusEntry, ...]:
    """All shipped example codes with their realizations and expectations."""
    entries = [
        CorpusEntry(
            "boxes6",
            boxes6_code(),
            (
                Realization("boxes6_open", boxes6_realization(Topology.OPEN), _box2(-12, 12)),
                Realization("boxes6_closed", boxes6_realization(Topology.CLOSED), _box2(-12, 12)),
            ),
            Expected(
                word_count=12,
                maximal=frozenset(
                    {word([1, 2, 3]), word([1, 2, 4]), word([1, 3, 5]), word([2, 3, 6])}
                ),
                max_intersection_complete=False,
                incompleteness_witness=word([3]),
                locally_good=True,
                locally_good_checked=frozenset({word([3])}),
                non_mandatory_faces=frozenset({word([3]), word([4])}),
            ),
        ),
        CorpusEntry(
            "fan6",
            fan6_code(),
            (
                Realization("fan6", fan6_realization(), _box2(-11, 11)),
            ),
            Expected(
                word_count=10,
                maximal=frozenset(
                    {word([2, 4, 5, 6]), word([1, 2, 3]), word([1, 4, 5]), word([3, 4, 6])}
                ),
                max_intersection_complete=False,
                incompleteness_witness=word([4]),
                locally_good=True,
                locally_good_checked=frozenset({word([4])}),
            ),
        ),
        CorpusEntry(
            "fan8",
            fan8_code(),
            (
                Realization("fan8", fan8_realization(), _box2(-11, 11)),
            ),
            Expected(
                word_count=10,
                maximal=frozenset(
                    {
                        word([1, 2, 3, 7, 8]),
                        word([1, 4, 5, 7]),
                        word([2, 4, 5, 6]),
                        word([3, 4, 6, 8]),
                    }
                ),
                max_intersection_complete=False,
                incompleteness_witness=word([4]),
                locally_good=True,
                locally_good_checked=frozenset({word([4])}),
                duplicate_pairs=((1, 7), (3, 8)),
            ),
        ),
        CorpusEntry(
            "fan8_plus",
            fan8_plus_code(),
            (),
            Expected(
                word_count=11,
                locally_good=True,
                locally_good_checked=frozenset({word([4])}),
            ),
        ),
        CorpusEntry(
            "neither8",
            neither8_code(),
            (),
            Expected(
                word_count=21,
                locally_good=True,
                locally_good_checked=frozenset({word([1]), word([3]), word([7])}),
            ),
        ),
        CorpusEntry(
            "sunflower3",
            sunflower3_code(),
            (
                Realization("sunflower3", sunflower3_realization(), _box2(-10, 12)),
            ),
            Expected(
                word_count=5,
                max_intersection_complete=True,
                locally_good=True,
                locally_good_checked=frozenset(),
                sunflower=True,
            ),
        ),
    ]
    entries.extend(_family_entries())
    return tuple(entries)
