"""Output checks that do not import the package under test.

Codes are handled as plain bitmask sets (bit i-1 = neuron i).  Everything
here is re-derived from the inputs: the maximal codewords, the closure of
intersections of maximal codewords, the face count and the reduced Euler
characteristic of the code complex, duplicate neurons, and the membership
pattern of a point in an arrangement (exact rational evaluation).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product


class CheckFailed(Exception):
    """An output disagrees with what the benchmark derived on its own."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def bits(indices) -> int:
    w = 0
    for i in indices:
        w |= 1 << (i - 1)
    return w


def label(w: int) -> str:
    return "{" + ",".join(str(i + 1) for i in range(w.bit_length()) if w >> i & 1) + "}"


def parse_label(text: str) -> int:
    inner = text.strip()
    expect(inner.startswith("{") and inner.endswith("}"), f"bad codeword label {text!r}")
    body = inner[1:-1]
    return bits(int(t) for t in body.split(",")) if body else 0


# --- code files ------------------------------------------------------------------


def code_text(n: int, words) -> str:
    """Canonical code file text: header, then words sorted by index tuple."""

    def members(w: int) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(w.bit_length()) if w >> i & 1)

    lines = [f"neurons: {n}"]
    for w in sorted(words, key=members):
        lines.append(" ".join(map(str, members(w))) if w else "-")
    return "\n".join(lines) + "\n"


def read_code(text: str) -> tuple[int, frozenset[int]]:
    """Parse the ``neurons:`` header and one codeword per line."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    expect(bool(lines) and lines[0].startswith("neurons:"), "code text lacks a header")
    n = int(lines[0].removeprefix("neurons:"))
    words = set()
    for ln in lines[1:]:
        words.add(0 if ln == "-" else bits(int(t) for t in ln.split()))
    return n, frozenset(words)


# --- combinatorics of a code -----------------------------------------------------


def maximal(words) -> frozenset[int]:
    ws = set(words)
    return frozenset(w for w in ws if not any(v != w and v & w == w for v in ws))


def intersection_closure(maxima) -> set[int]:
    """All intersections of two or more maximal codewords."""
    ms = sorted(maxima)
    values: set[int] = set()
    frontier = {a & b for i, a in enumerate(ms) for b in ms[i + 1:]}
    while frontier:
        values |= frontier
        frontier = {v & m for v in frontier for m in ms} - values
    return values


def facet_intersections(facets) -> dict[int, int]:
    """Map each intersection of a nonempty facet subset S to Σ (-1)^|S|."""
    acc: dict[int, int] = {}
    for f in facets:
        nxt = dict(acc)
        nxt[f] = nxt.get(f, 0) - 1
        for v, c in acc.items():
            nxt[v & f] = nxt.get(v & f, 0) - c
        acc = {v: c for v, c in nxt.items() if c}
    return acc


def reduced_euler(facets) -> int:
    """Σ_{k>=-1} (-1)^k f_k by inclusion-exclusion over the facets."""
    return facet_intersections(facets).get(0, 0)


def nonempty_face_count(facets) -> int:
    total = -sum(c << v.bit_count() for v, c in facet_intersections(facets).items())
    return total - 1


def duplicate_classes(n: int, words) -> set[tuple[int, ...]]:
    sig: dict[frozenset[int], list[int]] = {}
    for i in range(1, n + 1):
        sig.setdefault(frozenset(w for w in words if w >> (i - 1) & 1), []).append(i)
    return {tuple(g) for g in sig.values()}


def is_sunflower(n: int, words) -> bool:
    full = (1 << n) - 1
    return full in words and all(w == full or w.bit_count() <= 1 for w in words)


# --- analyze reports -------------------------------------------------------------

_STATUSES = ("contractible", "non-contractible", "unknown")
_KIND = {"contractible": "non-mandatory", "non-contractible": "mandatory", "unknown": "undetermined"}
_HEADER = re.compile(r"code: (\d+) neurons, (\d+) codewords")
_WITNESS = re.compile(r"max-intersection complete: false \(witness: (.*) = (\{[\d,]*\}) not in code\)")
_CHECKED = re.compile(r"  checked face (\{[\d,]*\}): (.*)")
_ROW = re.compile(r"  face (\{[\d,]*\}): ([a-z-]+) \((.*)\), in code: (yes|no)")


def status_of(describe: str) -> str:
    head = describe.split(" [", 1)[0]
    expect(head in _STATUSES, f"unknown verdict {describe!r}")
    return head


@dataclass
class Report:
    n: int
    word_count: int
    maximal: list[int]
    mic: bool
    witness_value: int | None
    locally_good: str
    checked: dict[int, str]
    table: dict[int, tuple[str, str, bool]]
    betti: tuple[int, ...] | None

    def verdicts(self) -> list[str]:
        """Every contractibility verdict the report prints."""
        return list(self.checked.values()) + [d for _, d, _ in self.table.values()]


def read_report(text: str) -> Report:
    lines = text.splitlines()
    expect(len(lines) >= 5, "analyze report is truncated")
    m = _HEADER.fullmatch(lines[0])
    expect(m is not None, f"bad report header {lines[0]!r}")
    n, count = int(m.group(1)), int(m.group(2))
    expect(lines[1].startswith("maximal codewords: "), "missing maximal codewords line")
    maxima = [parse_label(t) for t in lines[1].removeprefix("maximal codewords: ").split()]
    witness_value = None
    if lines[2] == "max-intersection complete: true":
        mic = True
    else:
        wm = _WITNESS.fullmatch(lines[2])
        expect(wm is not None, f"bad max-intersection line {lines[2]!r}")
        mic, witness_value = False, parse_label(wm.group(2))
    expect(lines[3].startswith("locally good: "), "missing locally-good line")
    lg = lines[3].removeprefix("locally good: ")
    expect(lg in ("true", "false", "unknown"), f"bad locally-good verdict {lg!r}")
    i = 4
    checked: dict[int, str] = {}
    if lines[i].startswith("  checked faces: none"):
        i += 1
    else:
        while i < len(lines) and (cm := _CHECKED.fullmatch(lines[i])):
            checked[parse_label(cm.group(1))] = cm.group(2)
            i += 1
    expect(lines[i] == "mandatory codewords of the code complex:", "missing table heading")
    i += 1
    table: dict[int, tuple[str, str, bool]] = {}
    while i < len(lines) and (rm := _ROW.fullmatch(lines[i])):
        table[parse_label(rm.group(1))] = (rm.group(2), rm.group(3), rm.group(4) == "yes")
        i += 1
    betti = None
    if i < len(lines):
        prefix = "reduced betti numbers of the code complex:"
        expect(lines[i].startswith(prefix), f"unexpected report line {lines[i]!r}")
        betti = tuple(int(t) for t in lines[i].removeprefix(prefix).split())
        i += 1
    expect(i == len(lines), "trailing lines in analyze report")
    return Report(n, count, maxima, mic, witness_value, lg, checked, table, betti)


def check_report(rep: Report, n: int, words: frozenset[int], homology: bool) -> None:
    """Check a report against facts derived from the input code alone."""
    expect(rep.n == n and rep.word_count == len(words), "header disagrees with the input code")
    facets = maximal(words)
    expect(sorted(rep.maximal) == sorted(facets), "maximal codewords disagree")
    closure = intersection_closure(facets)
    expect(rep.mic == (closure <= words), "max-intersection verdict disagrees")
    if rep.witness_value is not None:
        expect(rep.witness_value in closure - words, "incompleteness witness is not a missing intersection")
    missing = {v for v in closure if v and v not in words}
    expect(set(rep.checked) == missing, "checked faces are not the missing intersections")

    expect(len(rep.table) == nonempty_face_count(facets), "table does not list every nonempty face")
    for f, (kind, describe, in_code) in rep.table.items():
        status = status_of(describe)
        expect(kind == _KIND[status], f"face {label(f)}: kind {kind!r} contradicts {describe!r}")
        expect(in_code == (f in words), f"face {label(f)}: wrong in-code flag")
        above = [g for g in facets if g & f == f]
        expect(bool(above), f"face {label(f)} is not in the complex")
        is_facet = above == [f]
        expect(is_facet == (describe == "non-contractible [empty realization]"),
               f"face {label(f)}: empty-link verdict disagrees with the facets")
        if describe.startswith("contractible [cone apex "):
            v = int(describe.removeprefix("contractible [cone apex ").rstrip("]"))
            bit = 1 << (v - 1)
            expect(not f & bit and all(g & bit for g in above), f"face {label(f)}: bad cone apex {v}")

    statuses = []
    for f, describe in rep.checked.items():
        expect(f in rep.table and rep.table[f][1] == describe,
               f"checked face {label(f)} disagrees with the table")
        statuses.append(status_of(describe))
    if "non-contractible" in statuses:
        verdict = "false"
    elif "unknown" in statuses:
        verdict = "unknown"
    else:
        verdict = "true"
    expect(rep.locally_good == verdict, "locally-good verdict disagrees with the checked faces")

    expect((rep.betti is not None) == homology, "betti line presence disagrees with --homology")
    if rep.betti is not None:
        dim = max(f.bit_count() for f in facets) - 1
        expect(len(rep.betti) == dim + 1, "betti vector has the wrong length")
        if dim >= 0:
            alt = sum((-1) ** k * b for k, b in enumerate(rep.betti))
            expect(alt == reduced_euler(facets), "reduced Euler identity fails")


# --- arrangements ------------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    coeffs: tuple[int, ...]
    bound: Fraction


@dataclass(frozen=True)
class BoxSet:
    """A set given by its rows, all of whose points lie in the box [lo, hi]."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]
    rows: tuple[Row, ...]


def grid_patterns(sets: list[BoxSet], open_: bool, step: Fraction) -> dict[tuple[int, ...], int]:
    """Membership pattern of every point of the grid step·Z^d that lies in a
    set's box, keyed by the point scaled to integers by den(step).  Open sets
    read every row strictly; grid points in no box have the empty pattern.

    Exact: ``a·(p/s) <= b`` is tested as ``a·p·den(b) <= num(b)·s``.
    """
    scale, num = step.denominator, step.numerator
    patterns: dict[tuple[int, ...], int] = {}
    for i, box in enumerate(sets):
        rows = [(r.coeffs, r.bound.denominator, r.bound.numerator * scale) for r in box.rows]
        axes = [range(-(-lo * scale // num) * num, hi * scale + 1, num) for lo, hi in zip(box.lo, box.hi)]
        for pt in product(*axes):
            for coeffs, den, rhs in rows:
                v = sum(c * x for c, x in zip(coeffs, pt)) * den
                if v > rhs or (open_ and v == rhs):
                    patterns.setdefault(pt, 0)
                    break
            else:
                patterns[pt] = patterns.get(pt, 0) | 1 << i
    return patterns
