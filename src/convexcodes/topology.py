"""Topology of code complexes: links, exact rational homology, collapsibility.

Contractibility of a geometric realization is undecidable in general, so the
decision procedure here is three-valued and tries, in order: an empty
realization, a cone apex, a disconnected realization, a nonzero reduced
Betti number over the rationals, and one greedy collapse down to a point.
The first three read the facets only; a disconnected complex gets its
nonzero reduced Betti number in dimension 0.  CONTRACTIBLE comes with a
checkable certificate (the cone apex, or the collapse sequence);
NON_CONTRACTIBLE comes with the Betti number, or with the observation that
the realization is empty.  UNKNOWN means the greedy collapse got stuck on a
complex with zero rational homology, as on the 6-vertex real projective
plane.

One rule reads the facets before any face is built: the vertices outside a
face f that lie in every facet above f.  For f = ∅ they are the cone apexes
of the complex; for a face of the mandatory-codeword table they are the cone
apexes of its link, so only facet intersections build a link; for a vertex
they say whether it is dominated (its link is a cone).  The table is one
depth-first walk in lexicographic order that hands the facets above each
face down to its children, builds no face set and sorts nothing; a child
f ∪ {v} with v in every facet above f keeps the facets above f unchanged.
By the block rule, a row h with cone apex a whose children draw only from
vertices in every facet above h, a not among them, has below it exactly
the rows h ∪ S, S a nonempty subset of those vertices, all with apex a; the
walk gives h with that block's table instead of descending into it: two
parallel tuples, the label suffixes of the subsets and their vertices,
shared by every block on the same vertices.  Given the code's words, a
row heads a block only when it is no proper prefix of a word, so no block
holds a codeword.  The walk only decides: ``cli.render_analysis`` writes
the rows of ``analyze``'s table straight to the output, a block in joins
of at most 256 rows.
Deleting dominated vertices keeps the homotopy type, so homology is
computed on the strong core that is left, with boundary-matrix ranks
reduced in integers.  Collapses find free faces one vertex up: sigma is
free when it has one coface sigma ∪ {v}.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from enum import Enum
from math import gcd
from typing import NamedTuple

from .codes import (
    NeuralCode,
    SimplicialComplex,
    Word,
    complex_from_faces,
    missing_intersections,
    simplicial_complex,
    word_key,
    word_label,
)

class FaceNotFoundError(ValueError):
    """Raised when an operation is asked about a face outside the complex."""


class Contractibility(Enum):
    CONTRACTIBLE = "contractible"
    NON_CONTRACTIBLE = "non-contractible"
    UNKNOWN = "unknown"


class ContractibilityResult(NamedTuple):
    """Three-valued contractibility verdict with its certificate.

    Exactly one certificate field is populated for a decided status:
    ``cone_apex`` or ``collapse_steps`` for CONTRACTIBLE, ``nonzero_betti_dim``
    or ``empty`` for NON_CONTRACTIBLE.  UNKNOWN carries none: the complex has
    zero rational homology, but the greedy collapse got stuck before a point.
    """

    status: Contractibility
    cone_apex: int | None = None
    collapse_steps: tuple[tuple[Word, Word], ...] | None = None
    nonzero_betti_dim: int | None = None
    empty: bool = False

    def describe(self) -> str:
        if self.status is Contractibility.CONTRACTIBLE:
            if self.cone_apex is not None:
                return f"contractible [cone apex {self.cone_apex}]"
            assert self.collapse_steps is not None
            return f"contractible [collapses to a point, {len(self.collapse_steps)} steps]"
        if self.status is Contractibility.NON_CONTRACTIBLE:
            if self.empty:
                return "non-contractible [empty realization]"
            return f"non-contractible [nonzero reduced betti in dimension {self.nonzero_betti_dim}]"
        return "unknown [zero rational homology, greedy collapse stuck]"


def link(cpx: SimplicialComplex, sigma: Word) -> SimplicialComplex:
    """The link of sigma: faces tau disjoint from sigma with sigma ∪ tau in cpx."""
    if not cpx.has_face(sigma):
        raise FaceNotFoundError(f"face {word_label(sigma)} is not in the complex")
    # distinct facets f, g ⊇ sigma with f∖sigma ⊆ g∖sigma would give f ⊆ g,
    # so these faces are already inclusion-maximal
    facets = frozenset(f & ~sigma for f in cpx.facets if sigma & f == sigma)
    return SimplicialComplex(cpx.n, facets)


# --- exact reduced homology over the rationals ---------------------------------
#
# An elementary collapse removes a free face sigma together with its only
# proper coface tau.  In a complex, sigma has one proper coface exactly when it
# has one coface sigma ∪ {v}: a face sigma ∪ {v, w} would put sigma ∪ {w} in
# the complex too.  So freeness is read off the cofaces one vertex up.


def _below(g: Word) -> list[Word]:
    """The faces one vertex below g."""
    out = []
    rest = g
    while rest:
        bit = rest & -rest
        out.append(g ^ bit)
        rest ^= bit
    return out


def _up_counts(faces: set[Word] | frozenset[Word]) -> dict[Word, int]:
    """For every face, the number of its cofaces sigma ∪ {v} in faces."""
    counts = dict.fromkeys(faces, 0)
    for g in faces:
        for mu in _below(g):
            counts[mu] += 1
    return counts


def _up_coface(faces: set[Word] | frozenset[Word], sigma: Word, verts: Word) -> Word:
    """The coface sigma ∪ {v} of a free face sigma; verts covers every face."""
    rest = verts & ~sigma
    while True:
        bit = rest & -rest
        if sigma | bit in faces:
            return sigma | bit
        rest ^= bit


def _vertex_mask(faces: set[Word] | frozenset[Word]) -> Word:
    verts = 0
    for f in faces:
        verts |= f
    return verts


def _apexes(facets, f: Word) -> Word:
    """The vertices outside f that lie in every facet above f."""
    common = ~0
    for g in facets:
        if g & f == f:
            common &= g
    return common & ~f


def _strong_core(cpx: SimplicialComplex) -> SimplicialComplex:
    """Delete dominated vertices one at a time until none is left.

    A vertex is dominated when its link is a cone; deleting it keeps the
    homotopy type (Barmak & Minian, *Strong homotopy types, nerves and
    collapses*, 2012).  The facets of the deletion of v are the
    inclusion-maximal sets F ∖ {v}.
    """
    rest = _vertex_mask(cpx.facets)
    while rest:
        v = rest & -rest
        rest ^= v
        if _apexes(cpx.facets, v):
            cpx = complex_from_faces(cpx.n, (f & ~v for f in cpx.facets))
            # a deletion can dominate a vertex that was already passed
            rest = _vertex_mask(cpx.facets)
    return cpx


def _greedy_collapse(faces: frozenset[Word]) -> tuple[set[Word], list[tuple[Word, Word]]]:
    """Collapse free faces greedily (lexicographically least first) until stuck.

    Elementary collapses preserve the homotopy type, so the stuck core has the
    same homology as the input.  Faces are mutated in place on a copy.  A
    collapse changes the one-vertex-up counts only of the faces one vertex
    below sigma or tau, so only those are re-examined.  Its steps are the
    collapse certificate of ``contractibility`` when they end at a point.
    """
    faces = set(faces)
    counts = _up_counts(faces)
    verts = _vertex_mask(faces)
    heap = [(word_key(f), f) for f, c in counts.items() if c == 1 and f != 0]
    heapq.heapify(heap)
    steps: list[tuple[Word, Word]] = []
    while heap:
        _, sigma = heapq.heappop(heap)
        if sigma not in faces or counts[sigma] != 1:
            continue
        tau = _up_coface(faces, sigma, verts)
        faces.discard(sigma)
        faces.discard(tau)
        steps.append((sigma, tau))
        for removed in (sigma, tau):
            for mu in _below(removed):
                if mu in faces:
                    counts[mu] -= 1
                    if counts[mu] == 1 and mu != 0:
                        heapq.heappush(heap, (word_key(mu), mu))
    return faces, steps


def _column_rank(cols: list[dict[int, int]]) -> int:
    """Rank over the rationals of a sparse integer matrix given by columns.

    Fraction-free reduction: a column whose lowest row holds a pivot becomes
    a·col − b·pivot, with b/a the ratio of their entries there in lowest
    terms, and is then divided by the gcd of its entries.  Scaling a column
    by a nonzero integer keeps its span, so the rank is exact.  Pivots are
    stored with a positive lowest entry, so a = 1 whenever that entry is ±1,
    as in every boundary matrix.
    """
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for col in cols:
        col = dict(col)
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col if col[low] > 0 else {r: -v for r, v in col.items()}
                rank += 1
                break
            g = gcd(piv[low], col[low])
            a, b = piv[low] // g, col[low] // g
            if a != 1:
                col = {r: a * v for r, v in col.items()}
            for r, v in piv.items():
                nv = col.get(r, 0) - b * v
                if nv:
                    col[r] = nv
                else:
                    col.pop(r, None)
            g = gcd(*col.values())
            if g > 1:
                col = {r: v // g for r, v in col.items()}
        # a column eliminated to zero contributes nothing
    return rank


def _betti_of_faces(faces: set[Word], top_dim: int) -> tuple[int, ...]:
    """Reduced Betti numbers of a face set, padded with zeros up to top_dim."""
    by_dim: dict[int, list[Word]] = {}
    for f in faces:
        if f:
            by_dim.setdefault(f.bit_count() - 1, []).append(f)
    # augmentation map onto the empty face
    ranks = {0: 1 if by_dim.get(0) else 0}
    for k in range(1, max(by_dim, default=-1) + 1):
        rows = {f: i for i, f in enumerate(by_dim.get(k - 1, []))}
        ranks[k] = _column_rank([
            {rows[g]: (-1) ** j for j, g in enumerate(_below(f))}
            for f in by_dim.get(k, [])
        ])
    return tuple(
        len(by_dim.get(k, [])) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        for k in range(top_dim + 1)
    )


def reduced_homology(cpx: SimplicialComplex) -> tuple[int, ...]:
    """Reduced rational Betti numbers, indexed by dimension 0..dim(cpx).

    Dominated vertices are deleted first; a strong core of one facet is a
    simplex, with zeros.  Otherwise a greedy collapse shrinks the core and the
    boundary-matrix ranks of what is left give the Betti numbers.  Both steps
    are homotopy equivalences, and all arithmetic is exact.
    """
    top_dim = cpx.dim
    if top_dim < 0:
        return ()
    core = _strong_core(cpx)
    if len(core.facets) == 1:
        return (0,) * (top_dim + 1)
    faces, _ = _greedy_collapse(core.face_set)
    return _betti_of_faces(faces, top_dim)


# --- contractibility ------------------------------------------------------------


def contractibility(cpx: SimplicialComplex) -> ContractibilityResult:
    """Decide contractibility of the geometric realization where possible.

    Decision order: empty realization (no nonempty facet), cone detection,
    disconnection, the first nonzero reduced Betti number, then one greedy
    collapse, which is CONTRACTIBLE when it ends at a point.  The first
    three read the facets only.  A disconnected complex has a nonzero
    reduced Betti number in dimension 0, the first one ``reduced_homology``
    reports, so only connected complexes reach it; it builds the faces of
    the strong core only.  A complex with zero rational homology on which
    the greedy collapse gets stuck, such as the 6-vertex real projective
    plane, stays UNKNOWN.
    """
    if not any(cpx.facets):
        return ContractibilityResult(Contractibility.NON_CONTRACTIBLE, empty=True)
    common = _apexes(cpx.facets, 0)
    if common:
        return ContractibilityResult(
            Contractibility.CONTRACTIBLE, cone_apex=(common & -common).bit_length()
        )
    # grow the vertices of one nonempty facet's component: each pass merges
    # every facet that meets them, and a pass that merges none while facets
    # are left has found a second component
    rest = [f for f in cpx.facets if f]
    reach = rest.pop()
    while rest:
        left = []
        for f in rest:
            if f & reach:
                reach |= f
            else:
                left.append(f)
        if len(left) == len(rest):
            return ContractibilityResult(Contractibility.NON_CONTRACTIBLE, nonzero_betti_dim=0)
        rest = left
    for k, b in enumerate(reduced_homology(cpx)):
        if b:
            return ContractibilityResult(Contractibility.NON_CONTRACTIBLE, nonzero_betti_dim=k)
    core, steps = _greedy_collapse(cpx.face_set)
    if len(core) == 2:
        return ContractibilityResult(Contractibility.CONTRACTIBLE, collapse_steps=tuple(steps))
    return ContractibilityResult(Contractibility.UNKNOWN)


# --- mandatory codewords and local obstructions ---------------------------------


# a block's table: the label suffixes of its rows, such as "3,5", and their vertices, in parallel
Labels = tuple[tuple[str, ...], tuple[Word, ...]]
# a row the walk reached, its label such as "1,3", its status, and the suffixes and vertices of the block below it
Entry = tuple[Word, str, ContractibilityResult, tuple[str, ...], tuple[Word, ...]]


def _label_table(up: Word, names: list[str], tables: dict[Word, Labels]) -> Labels:
    """The label suffixes and vertices of every nonempty subset of up, in ``word_key`` order.

    With v the lowest vertex of up, the subsets are {v}, then v with each
    subset of the rest, then the subsets of the rest; so each table is
    built on its suffix's, which ``tables`` keeps for the length of a walk.
    """
    table = tables.get(up)
    if table is None:
        v = up & -up
        name = names[v.bit_length()]
        suffixes, masks = _label_table(up ^ v, names, tables) if up ^ v else ((), ())
        head = name + ","
        table = tables[up] = (
            (name, *[head + s for s in suffixes], *suffixes),
            (v, *[v | b for b in masks], *masks),
        )
    return table


def _mandatory_rows(cpx: SimplicialComplex, words: Iterable[Word] = ()) -> list[Entry]:
    """The mandatory-codeword table of every nonempty face in ``word_key`` order,
    as entries: each row the walk reaches, its label, status and block.

    A face f is a node of a depth-first walk that knows the facets above it
    and their intersection ``common``.  Each vertex v above max(f) of a facet
    above f, in ascending order, gives the row f ∪ {v}, whose subtree is
    walked next; that preorder is ``word_key`` order.  When v is in
    ``common``, every facet above f holds v, so f ∪ {v} has the same facets
    above it, and they are handed down as they are; only a v outside
    ``common`` filters them.  A row with no vertex above its max is a leaf.

    The block rule: when a row h has a cone apex ``low``, every vertex its
    children draw from (``up``) lies in every facet above h, and ``low`` is
    not in ``up``, then every row below h is h ∪ S for a nonempty S ⊆ up,
    with the same facets above it and the same cone certificate.  The entry
    of h then carries the label table of ``up``, its suffixes and vertices,
    instead of being walked below (else two empty tuples).  Every row below
    h adds to h vertices above max(h), so a codeword in words lies in the
    block only if h is one of its proper prefixes in ascending member
    order; such an h is walked below instead, and no block holds a word.
    The walk only decides and writes no text.
    """
    heads: set[Word] = set()  # the proper prefixes of the words
    for w in words:
        while w & (w - 1):  # w has two members or more
            w ^= 1 << (w.bit_length() - 1)
            if w in heads:  # and so are its own prefixes
                break
            heads.add(w)
    entries: list[Entry] = []
    cones: dict[Word, ContractibilityResult] = {}  # by apex bit
    tables: dict[Word, Labels] = {}
    names = [str(i) for i in range(cpx.n + 1)]

    def walk(f: Word, head: str, above: list[Word], common: Word, rest: Word) -> None:
        # head: the label of f and a comma, "1,3,"; rest: the vertices above max(f) of facets above f
        while rest:
            v = rest & -rest
            rest ^= v
            h = f | v
            if v & common:
                sub, c, up = above, common, rest
            else:
                sub = [g for g in above if g & v]
                c, up = ~0, 0
                for g in sub:  # each contains h already
                    c &= g
                    up |= g
                up &= -(v << 1)
            apexes = c & ~h
            suffixes, masks = (), ()
            if apexes:
                low = apexes & -apexes
                res = cones.get(low)
                if res is None:
                    res = cones[low] = ContractibilityResult(
                        Contractibility.CONTRACTIBLE, cone_apex=low.bit_length()
                    )
                if up and not up & ~c and not up & low and h not in heads:
                    suffixes, masks = _label_table(up, names, tables)
            else:
                res = contractibility(link(cpx, h))
            label = head + names[v.bit_length()]
            entries.append((h, label, res, suffixes, masks))
            if up and not masks:
                walk(h, label + ",", sub, c, up)

    facets = list(cpx.facets)
    walk(0, "", facets, _apexes(facets, 0), _vertex_mask(facets))
    # walk's closure holds walk and the lists it fills: a cycle that would
    # keep them alive until a full garbage collection, after the table is dropped
    del walk
    return entries


def mandatory_codewords(cpx: SimplicialComplex) -> dict[Word, ContractibilityResult]:
    """Contractibility status of the link of every nonempty face, in ``word_key`` order.

    A face is a mandatory codeword when its link is NON_CONTRACTIBLE: every
    code with this complex that is open or closed convex must contain it.
    The link of f is a cone on every vertex of the intersection of the
    facets above f that f lacks, so only faces that are intersections of
    facets build their link (Curto et al., *What makes a neural code
    convex?*, 2017); the others share one cone certificate per apex.

    The rows come from the walk that decides ``analyze``'s table, given no
    words: by the block rule, a row h with cone apex a whose children draw
    only from vertices up in every facet above h, a not among them, has
    below it exactly the rows h ∪ S, S ⊆ up nonempty, all with apex a; the
    walk gives h with that block's vertices, and they are expanded here.
    """
    table: dict[Word, ContractibilityResult] = {}
    for h, _, res, _, masks in _mandatory_rows(cpx):
        table[h] = res
        for b in masks:
            table[h | b] = res
    return table


class LocalObstructionReport(NamedTuple):
    """Verdict of the locally-good test plus the faces it had to examine.

    ``checked`` maps each nonempty intersection of >= 2 maximal codewords
    missing from the code to the contractibility of its link.  ``verdict``
    is True/False/None (None = some needed status is UNKNOWN); the
    ``obstruction`` is the first checked face with a non-contractible link.
    """

    checked: tuple[tuple[Word, ContractibilityResult], ...]

    @property
    def obstruction(self) -> Word | None:
        return next(
            (f for f, res in self.checked if res.status is Contractibility.NON_CONTRACTIBLE),
            None,
        )

    @property
    def verdict(self) -> bool | None:
        if self.obstruction is not None:
            return False
        if any(res.status is Contractibility.UNKNOWN for _, res in self.checked):
            return None
        return True

    def checked_faces(self) -> tuple[Word, ...]:
        return tuple(f for f, _ in self.checked)


def is_locally_good(code: NeuralCode) -> LocalObstructionReport:
    """Detect local obstructions to open or closed convexity.

    The code is locally good iff every nonempty intersection of two or more
    maximal codewords that is missing from the code has a contractible link
    in the code's complex.  This is equivalent to containing every mandatory
    codeword of the complex.
    """
    cpx = simplicial_complex(code)
    return LocalObstructionReport(tuple(
        (f, contractibility(link(cpx, f)))
        for f in missing_intersections(code)
    ))


__all__ = [
    "Contractibility",
    "ContractibilityResult",
    "FaceNotFoundError",
    "LocalObstructionReport",
    "contractibility",
    "is_locally_good",
    "link",
    "mandatory_codewords",
    "reduced_homology",
]
