"""Neural codes as finite sets of codewords over a fixed neuron universe.

A codeword is stored as an integer bitmask: bit ``i - 1`` set means neuron
``i`` belongs to the word.  The universe is capped at 64 neurons, which keeps
subset and intersection tests constant-time and covers every code this
package ships.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple

MAX_NEURONS = 64

Word = int


def word(indices: Iterable[int] = ()) -> Word:
    """Build a codeword bitmask from neuron indices (1-based)."""
    w = 0
    for i in indices:
        if not isinstance(i, int) or i < 1:
            raise ValueError(f"neuron index must be a positive integer, got {i!r}")
        if i > MAX_NEURONS:
            raise ValueError(f"neuron index {i} exceeds the {MAX_NEURONS}-neuron cap")
        w |= 1 << (i - 1)
    return w


def members(w: Word) -> tuple[int, ...]:
    """Neuron indices of a codeword, ascending."""
    out = []
    i = 1
    while w:
        if w & 1:
            out.append(i)
        w >>= 1
        i += 1
    return tuple(out)


def word_label(w: Word) -> str:
    """Render a codeword as ``{1,2,3}``; the empty word as ``{}``."""
    # the binary digits, lowest first, are the membership flags of neurons 1, 2, ...
    return "{" + ",".join([str(i) for i, b in enumerate(bin(w)[:1:-1], 1) if b == "1"]) + "}"


def full_word(n: int) -> Word:
    """The codeword containing every neuron of an n-neuron universe."""
    return (1 << n) - 1


def word_key(w: Word) -> tuple[int, ...]:
    """Sort key: lexicographic on the ascending member tuple."""
    return members(w)


class _Frozen:
    """Value semantics for the records that validate or cache, which cannot be
    NamedTuples: ``__init__`` puts the fields named in ``_fields`` straight
    into the instance dict, equality and hash compare them, and no attribute
    can be assigned or deleted afterwards (a ``cached_property`` writes the
    dict directly, so it still caches)."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class NeuralCode(_Frozen):
    """A set of codewords over neurons 1..n.  Immutable; equality is set equality."""

    _fields = ("n", "words")

    def __init__(self, n: int, words: frozenset[Word]) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"neuron count must be a positive integer, got {n!r}")
        if n > MAX_NEURONS:
            raise ValueError(f"neuron count {n} exceeds the {MAX_NEURONS}-neuron cap")
        allowed = full_word(n)
        for w in words:
            if w & ~allowed:
                raise ValueError(f"codeword {word_label(w)} uses neurons beyond universe [{n}]")
        self.__dict__.update(n=n, words=words)

    def __contains__(self, w: Word) -> bool:
        return w in self.words

    def __iter__(self) -> Iterator[Word]:
        return iter(self.sorted_words())

    def __len__(self) -> int:
        return len(self.words)

    def sorted_words(self) -> list[Word]:
        return sorted(self.words, key=word_key)

    def __repr__(self) -> str:
        inner = " ".join(word_label(w) for w in self.sorted_words())
        return f"NeuralCode(n={self.n}, {{{inner}}})"


def neural_code(n: int, words: Iterable[Iterable[int]]) -> NeuralCode:
    """Convenience constructor from iterables of neuron indices."""
    return NeuralCode(n, frozenset(word(w) for w in words))


class SimplicialComplex(_Frozen):
    """A simplicial complex stored by its inclusion-maximal faces (facets).

    Faces are codeword bitmasks over an ambient universe 1..n.  The empty
    face belongs to the complex whenever there is any facet at all.
    """

    _fields = ("n", "facets")

    def __init__(self, n: int, facets: frozenset[Word]) -> None:
        self.__dict__.update(n=n, facets=facets)

    @cached_property
    def face_set(self) -> frozenset[Word]:
        faces: set[Word] = set()
        for f in self.facets:
            # enumerate all submasks of f, including 0
            sub = f
            while True:
                faces.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & f
        return frozenset(faces)

    def has_face(self, w: Word) -> bool:
        return any(w & f == w for f in self.facets)

    @property
    def dim(self) -> int:
        if not self.facets:
            return -1
        return max(f.bit_count() for f in self.facets) - 1

    def sorted_facets(self) -> list[Word]:
        return sorted(self.facets, key=word_key)

    def f_vector(self) -> tuple[int, ...]:
        """Counts of k-dimensional faces, k = 0..dim (the empty face is omitted)."""
        counts = [0] * (self.dim + 1)
        for f in self.face_set:
            if f:
                counts[f.bit_count() - 1] += 1
        return tuple(counts)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * c for k, c in enumerate(self.f_vector()))

    def __repr__(self) -> str:
        inner = " ".join(word_label(f) for f in self.sorted_facets())
        return f"SimplicialComplex(n={self.n}, facets={{{inner}}})"


def _inclusion_maximal(ws: Iterable[Word]) -> frozenset[Word]:
    # a word lies only in larger words: taken largest first, each distinct word
    # is maximal unless a maximal one already taken holds it
    kept: list[Word] = []
    for w in sorted(set(ws), key=int.bit_count, reverse=True):
        if not any(w & m == w for m in kept):
            kept.append(w)
    return frozenset(kept)


def complex_from_faces(n: int, faces: Iterable[Word]) -> SimplicialComplex:
    """The smallest complex containing the given faces."""
    return SimplicialComplex(n, _inclusion_maximal(faces))


def maximal_codewords(code: NeuralCode) -> frozenset[Word]:
    """Codewords not strictly contained in another codeword of the code."""
    return _inclusion_maximal(code.words)


def simplicial_complex(code: NeuralCode) -> SimplicialComplex:
    """The smallest simplicial complex containing every codeword of the code."""
    return SimplicialComplex(code.n, maximal_codewords(code))


class MaxIntersectionCheck(NamedTuple):
    """Outcome of the max-intersection completeness test.

    When ``complete`` is false, ``witness_sets`` is a tuple of two or more
    maximal codewords whose intersection ``witness_value`` is missing from
    the code.
    """

    complete: bool
    witness_sets: tuple[Word, ...] | None = None
    witness_value: Word | None = None

    def __bool__(self) -> bool:
        return self.complete


def _intersections(maxima: list[Word]) -> Iterator[tuple[Word, tuple[Word, ...]]]:
    """Each distinct intersection of >= 2 maximal codewords, with its sets;
    maxima holds the maximal codewords in ``word_key`` order.

    Intersections are explored breadth-first from the maximal codewords
    themselves (all pairs first, then deeper meets), so each value comes once,
    with as few maximal codewords as give it, in a deterministic order.  The
    seeds are never yielded: an intersection of two or more distinct maximal
    codewords is a proper subset of each, so never itself maximal.  The first
    level meets pairs (i, j) with i < j in index order and finds each pair with
    j <= i already seen.
    """
    seen = {m: (m,) for m in maxima}
    frontier = maxima
    while frontier:
        nxt: list[Word] = []
        for v in frontier:
            for m in maxima:
                u = v & m
                if u in seen:
                    continue
                seen[u] = seen[v] + (m,)
                nxt.append(u)
                yield u, seen[u]
        frontier = nxt


def is_max_intersection_complete(code: NeuralCode) -> MaxIntersectionCheck:
    """Check that every intersection of >= 2 maximal codewords lies in the code.

    The first missing intersection in breadth-first order is the witness, so
    it uses as few maximal codewords as possible and is deterministic.
    """
    return _max_intersection_check(sorted(maximal_codewords(code), key=word_key), code.words)


def _max_intersection_check(maxima: list[Word], words: frozenset[Word]) -> MaxIntersectionCheck:
    """``is_max_intersection_complete`` of a code with these words and, in
    ``word_key`` order, these maximal codewords."""
    for v, sets in _intersections(maxima):
        if v not in words:
            return MaxIntersectionCheck(False, sets, v)
    return MaxIntersectionCheck(True)


def missing_intersections(code: NeuralCode) -> list[Word]:
    """Nonempty intersections of >= 2 maximal codewords that are not codewords."""
    maxima = sorted(maximal_codewords(code), key=word_key)
    return sorted(
        (v for v, _ in _intersections(maxima) if v and v not in code.words), key=word_key
    )


def restrict(code: NeuralCode, tau: Word | Iterable[int]) -> NeuralCode:
    """Restrict the code to the neurons of tau and reindex them to 1..|tau|."""
    t = tau if isinstance(tau, int) else word(tau)
    if t & ~full_word(code.n):
        raise ValueError(f"restriction set {word_label(t)} is not a subset of [{code.n}]")
    if t == 0:
        raise ValueError("cannot restrict to an empty neuron set")
    remap = {old: new for new, old in enumerate(members(t), start=1)}
    new_words = frozenset(
        word(remap[i] for i in members(w & t)) for w in code.words
    )
    return NeuralCode(t.bit_count(), new_words)


def permute(code: NeuralCode, pi: Mapping[int, int]) -> NeuralCode:
    """Relabel neurons by the bijection pi on [n]."""
    if sorted(pi.keys()) != list(range(1, code.n + 1)) or sorted(pi.values()) != list(
        range(1, code.n + 1)
    ):
        raise ValueError(f"permutation must be a bijection on [{code.n}]")
    return NeuralCode(
        code.n,
        frozenset(word(pi[i] for i in members(w)) for w in code.words),
    )


class AddCodewordResult(NamedTuple):
    """Result of adding a codeword: the new code plus context flags."""

    code: NeuralCode
    added: bool
    non_maximal: bool
    complex_preserved: bool


def add_codeword(code: NeuralCode, sigma: Word | Iterable[int]) -> AddCodewordResult:
    """Return code ∪ {sigma} and whether sigma is non-maximal / preserves the complex."""
    s = sigma if isinstance(sigma, int) else word(sigma)
    if s & ~full_word(code.n):
        raise ValueError(f"codeword {word_label(s)} is not a subset of [{code.n}]")
    new = NeuralCode(code.n, code.words | {s})
    non_maximal = any(w != s and s & w == s for w in new.words)
    preserved = simplicial_complex(new) == simplicial_complex(code)
    return AddCodewordResult(new, s not in code.words, non_maximal, preserved)


def duplicate_neurons(code: NeuralCode) -> tuple[tuple[int, ...], ...]:
    """Partition [n] into classes of neurons belonging to exactly the same codewords."""
    signatures: dict[frozenset[Word], list[int]] = {}
    for i in range(1, code.n + 1):
        bit = 1 << (i - 1)
        sig = frozenset(w for w in code.words if w & bit)
        signatures.setdefault(sig, []).append(i)
    classes = [tuple(sorted(group)) for group in signatures.values()]
    return tuple(sorted(classes))


def is_sunflower_code(code: NeuralCode) -> bool:
    """True iff [n] is a codeword and every other codeword has at most one neuron."""
    full = full_word(code.n)
    if full not in code.words:
        return False
    return all(w == full or w.bit_count() <= 1 for w in code.words)
