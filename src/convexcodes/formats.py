"""Plain-text wire formats for codes and arrangements.

Code files::

    neurons: 3
    -
    1
    1 2 3

One codeword per line as space-separated increasing neuron indices; ``-``
stands for the empty codeword; ``#`` starts a comment.  Canonical form sorts
the codewords lexicographically by their index tuples.

Arrangement files::

    dimension: 2
    topology: closed
    set 1
    1 0 <= 2
    -1 0 <= 9

Each constraint line holds the coefficient row, a relation (``<=`` or ``=``),
and the bound; numbers are integers or fractions ``p/q``, optionally signed
(decimals and exponents are rejected).  Equality rows are rejected under
open topology.  Serialization never reorders constraints, so reports may
reference row positions.

The neuron count, the dimension, set indices and neuron indices are
unsigned ASCII decimal integers, ``[0-9]+``; the dimension is at most
``sys.maxsize``, the largest length of a list of coordinates.

Both serializers are deterministic (equal values give byte-identical output,
UTF-8, LF line endings), and parse∘serialize is the identity on canonical
form.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .codes import MAX_NEURONS, NeuralCode, Word, members, word, word_key
from .geometry import (
    Arrangement,
    LinearConstraint,
    Polyhedron,
    Rel,
    Topology,
)


class ParseError(ValueError):
    """Malformed input; carries the 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def _significant_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append((lineno, stripped))
    return out


def _decimal(token: str) -> int:
    # only ``[0-9]+``: int() alone also takes signs, underscores and non-ASCII digits
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise ValueError(f"{token!r} is not an unsigned decimal integer")


def _parse_count(token: str, lineno: int, what: str) -> int:
    try:
        return _decimal(token)
    except ValueError as exc:
        raise ParseError(lineno, f"{what} {exc}") from None


def parse_code(text: str) -> NeuralCode:
    """Parse a code file; raises ParseError with a line number on bad input."""
    lines = _significant_lines(text)
    if not lines:
        raise ParseError(1, "missing 'neurons:' header")
    lineno, header = lines[0]
    if not header.startswith("neurons:"):
        raise ParseError(lineno, "expected 'neurons: <n>' header")
    n = _parse_count(header.removeprefix("neurons:").strip(), lineno, "neuron count")
    if n < 1:
        raise ParseError(lineno, "neuron count must be positive")
    if n > MAX_NEURONS:
        raise ParseError(lineno, f"neuron count {n} exceeds the {MAX_NEURONS}-neuron cap")
    words: set[Word] = set()
    for lineno, line in lines[1:]:
        if line == "-":
            words.add(0)
            continue
        indices = []
        for token in line.split():
            i = _parse_count(token, lineno, "neuron index")
            if not 1 <= i <= n:
                raise ParseError(lineno, f"neuron index {i} outside 1..{n}")
            indices.append(i)
        words.add(word(indices))
    return NeuralCode(n, frozenset(words))


def serialize_code(code: NeuralCode) -> str:
    lines = [f"neurons: {code.n}"]
    for w in sorted(code.words, key=word_key):
        lines.append(" ".join(str(i) for i in members(w)) if w else "-")
    return "\n".join(lines) + "\n"


# p/q; Fraction() alone would also take decimals and exponents, and an
# exponent like 1e10000000 costs time and memory to expand
_RATIO = re.compile(r"([+-]?[0-9]+)/([0-9]+)")


def _parse_number(token: str, lineno: int) -> Fraction:
    """An integer or p/q in ASCII decimal digits, the integer sign optional."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    if digits.isascii() and digits.isdigit():
        try:
            return Fraction(int(token))
        except ValueError:  # more digits than int() converts
            raise ParseError(lineno, f"bad number {token!r}") from None
    m = _RATIO.fullmatch(token)
    if m is None:
        raise ParseError(lineno, f"bad number {token!r}")
    p, q = m.groups()
    try:
        # int() of the matched digits; Fraction(token) would parse them again
        return Fraction(int(p), int(q))
    except (ValueError, ZeroDivisionError):  # a zero denominator, or too many digits
        raise ParseError(lineno, f"bad number {token!r}") from None


def parse_arrangement(text: str) -> Arrangement:
    """Parse an arrangement file; rejects '=' rows under open topology."""
    lines = _significant_lines(text)
    if len(lines) < 2:
        raise ParseError(1, "missing 'dimension:' and 'topology:' headers")
    lineno, dim_line = lines[0]
    if not dim_line.startswith("dimension:"):
        raise ParseError(lineno, "expected 'dimension: <d>' header")
    dim = _parse_count(dim_line.removeprefix("dimension:").strip(), lineno, "dimension")
    if dim < 1:
        raise ParseError(lineno, "dimension must be positive")
    if dim > sys.maxsize:
        # a point of the arrangement is a list of dim coordinates
        raise ParseError(lineno, f"dimension {dim} exceeds the largest list size, {sys.maxsize}")
    lineno, top_line = lines[1]
    if not top_line.startswith("topology:"):
        raise ParseError(lineno, "expected 'topology: open|closed' header")
    top_name = top_line.removeprefix("topology:").strip()
    if top_name not in ("open", "closed"):
        raise ParseError(lineno, f"unknown topology {top_name!r}")
    topology = Topology(top_name)

    sets: list[Polyhedron] = []
    current: list[LinearConstraint] | None = None
    # each distinct number token is parsed once, at its first appearance
    numbers: dict[str, Fraction] = {}

    def flush() -> None:
        if current is not None:
            sets.append(Polyhedron(dim, tuple(current)))

    for lineno, line in lines[2:]:
        if line.startswith("set"):
            index = _parse_count(line.removeprefix("set").strip(), lineno, "set index")
            expected = len(sets) + (2 if current is not None else 1)
            if index != expected:
                raise ParseError(lineno, f"expected 'set {expected}', got 'set {index}'")
            flush()
            current = []
            continue
        if current is None:
            raise ParseError(lineno, "constraint before any 'set <i>' line")
        tokens = line.split()
        if len(tokens) != dim + 2:
            raise ParseError(
                lineno, f"expected {dim} coefficients, a relation, and a bound"
            )
        rel_token = tokens[dim]
        if rel_token == "<=":
            rel = Rel.LE
        elif rel_token == "=":
            if topology is Topology.OPEN:
                raise ParseError(
                    lineno, "equality row not allowed under open topology"
                )
            rel = Rel.EQ
        else:
            raise ParseError(lineno, f"unknown relation {rel_token!r}")
        del tokens[dim]
        for t in tokens:
            if t not in numbers:
                numbers[t] = _parse_number(t, lineno)
        values = [numbers[t] for t in tokens]
        current.append(LinearConstraint(tuple(values[:dim]), rel, values[dim]))
    flush()
    if not sets:
        raise ParseError(len(text.splitlines()) or 1, "arrangement has no sets")
    return Arrangement(dim, topology, tuple(sets))


def serialize_arrangement(arr: Arrangement) -> str:
    lines = [f"dimension: {arr.dim}", f"topology: {arr.topology.value}"]
    for i, p in enumerate(arr.sets, start=1):
        lines.append(f"set {i}")
        for c in p.constraints:
            if c.rel is Rel.LT:
                raise ValueError(
                    "strict rows are expressed by the open topology, not in the file grammar"
                )
            row = " ".join(str(a) for a in c.coeffs)
            lines.append(f"{row} {c.rel.value} {c.bound}")
    return "\n".join(lines) + "\n"
