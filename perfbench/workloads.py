"""The three workloads: set-up (import plus inputs) and per-input output checks.

Each set-up imports ``convexcodes`` afresh, prepares its inputs and returns
the ``convexcodes.cli`` module together with a list of items.  An item is one
CLI invocation plus a check of its stdout that relies only on ``checks``.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
from checks import BoxSet, Row, expect


@dataclass
class Item:
    label: str
    argv: list[str]
    # raises CheckFailed; returns (verdicts printed, UNKNOWN verdicts)
    check: Callable[[str], tuple[int, int]]
    # the negative control: the same output with one codeword dropped
    corrupt: Callable[[str], str]


def fresh_import(*names: str):
    for key in [k for k in sys.modules if k == "convexcodes" or k.startswith("convexcodes.")]:
        del sys.modules[key]
    return [importlib.import_module(n) for n in names]


def write_input(path: Path, text: str) -> None:
    """Write an input file unless a repeated set-up finds it there already.

    Rewriting a file in place makes ext4 flush it to disk when it is closed
    (``auto_da_alloc``), so repeated set-ups that rewrote their inputs grew
    from 70 to 130 ms and timed the disk rather than the set-up.
    """
    if not path.exists() or path.read_text(encoding="utf-8") != text:
        path.write_text(text, encoding="utf-8", newline="\n")


def _drop_last_line(out: str) -> str:
    return "".join(out.splitlines(keepends=True)[:-1])


def _drop_last_maximal(out: str) -> str:
    lines = out.splitlines(keepends=True)
    head = lines[1].rstrip("\n").rpartition(" ")[0]
    lines[1] = head + "\n"
    return "".join(lines)


# --- extract: arrangement -> code over the shipped corpus --------------------------


def setup_extract(root: Path, work: Path, seed: int):
    cli, gen = fresh_import("convexcodes.cli", "convexcodes.generators")
    code_of_stem = {r.stem: e.name for e in gen.corpus() for r in e.realizations}
    items = []
    for arr in sorted((root / "corpus").glob("*.arr")):
        golden = (root / "corpus" / f"{code_of_stem[arr.stem]}.code").read_text(encoding="utf-8")

        def check(out: str, golden=golden) -> tuple[int, int]:
            expect(out == golden, "code differs from the golden corpus file")
            return 0, 0

        items.append(Item(arr.stem, ["code-of", str(arr)], check, _drop_last_line))
    return cli, items


# --- analyze: code -> verdict over the corpus plus three larger family codes -------


def _family_expected(gen, family: str, n: int):
    if family == "an":
        return gen.Expected(
            word_count=2 * n + 3,
            max_intersection_complete=True,
            locally_good=True,
            locally_good_checked=frozenset(),
            duplicate_pairs=tuple((i, n + 1 + i) for i in range(1, n + 1)),
        )
    return gen.Expected(
        word_count=2 * n + 4,
        max_intersection_complete=True,
        locally_good=True,
        locally_good_checked=frozenset(),
        betti1_min=1,
    )


def _check_expected(rep: checks.Report, n: int, words: frozenset[int], exp) -> None:
    """Every non-None field of a generators.Expected record."""
    if exp.word_count is not None:
        expect(rep.word_count == exp.word_count, "word count")
    if exp.maximal is not None:
        expect(set(rep.maximal) == set(exp.maximal), "maximal codewords")
    if exp.max_intersection_complete is not None:
        expect(rep.mic == exp.max_intersection_complete, "max-intersection completeness")
    if exp.incompleteness_witness is not None:
        expect(rep.witness_value == exp.incompleteness_witness, "incompleteness witness")
    if exp.locally_good is not None:
        expect(rep.locally_good == ("true" if exp.locally_good else "false"), "locally good")
    if exp.locally_good_checked is not None:
        expect(set(rep.checked) == set(exp.locally_good_checked), "locally-good checked faces")
    if exp.non_mandatory_faces is not None:
        for f in exp.non_mandatory_faces:
            expect(rep.table[f][0] == "non-mandatory", f"face {checks.label(f)} non-mandatory")
    if exp.betti1_min is not None:
        expect(rep.betti is not None and rep.betti[1] >= exp.betti1_min, "betti_1 lower bound")
    if exp.duplicate_pairs is not None:
        classes = checks.duplicate_classes(n, words)
        expect(all(p in classes for p in exp.duplicate_pairs), "duplicate neuron pairs")
    if exp.sunflower is not None:
        expect(checks.is_sunflower(n, words) == exp.sunflower, "sunflower shape")


def _analyze_item(label: str, path: Path, text: str, exp=None) -> Item:
    n, words = checks.read_code(text)

    def check(out: str) -> tuple[int, int]:
        rep = checks.read_report(out)
        checks.check_report(rep, n, words, homology=True)
        if exp is not None:
            _check_expected(rep, n, words, exp)
        verdicts = rep.verdicts()
        return len(verdicts), sum(checks.status_of(v) == "unknown" for v in verdicts)

    return Item(label, ["analyze", str(path), "--homology"], check, _drop_last_maximal)


FAMILY_CODES = (("an", 6), ("cn", 6))


def setup_analyze(root: Path, work: Path, seed: int):
    cli, gen = fresh_import("convexcodes.cli", "convexcodes.generators")
    expected = {e.name: e.expected for e in gen.corpus()}
    items = []
    for path in sorted((root / "corpus").glob("*.code")):
        text = path.read_text(encoding="utf-8")
        items.append(_analyze_item(path.stem, path, text, expected[path.stem]))
    generate = {"an": gen.gen_an, "cn": gen.gen_cn}
    for family, n in FAMILY_CODES:
        code = generate[family](n)
        text = checks.code_text(code.n, code.words)
        path = work / f"{family}_{n}.code"
        write_input(path, text)
        items.append(_analyze_item(path.stem, path, text, _family_expected(gen, family, n)))
    return cli, items


# --- random: many small seeded arrangements and codes ------------------------------

# each arrangement is followed by two codes: codes are the cheaper, more
# uniform kind, so the median input is a code and p90 an arrangement
RANDOM_ARRANGEMENTS = 150
CHAIN_SIDE = 4
GRID_STEP = {2: Fraction(1, 2), 3: Fraction(1)}  # output-check grid per dimension


def _random_arrangement(rng: random.Random, k: int) -> tuple[int, bool, list[BoxSet]]:
    """A random chain of boxes; every third box gets a slanted cut.

    Input k fixes the shape (dimension, topology, number m of boxes) by
    cycling through all 20 combinations.  Box j is 4 long on the chain axis
    and 2 + (j + axis) mod 3 on the others; it starts 3 or 4 after box j-1
    on the chain axis (so it meets box j-1, or touches it, and misses box
    j-2) and at a random offset that meets box j-1 on the other axes.  The
    seed moves every box and cut, but the nerve is a path of m vertices for
    every seed, so the work per pass barely depends on the seed.
    """
    dim = 2 + k % 2
    open_ = k // 2 % 2 == 1
    sets = []
    lo = hi = None
    for j in range(4 + k // 4 % 5):
        side = [CHAIN_SIDE if axis == 0 else 2 + (j + axis) % 3 for axis in range(dim)]
        if lo is None:
            lo = [rng.randint(0, 2) for _ in range(dim)]
        else:
            lo = [lo[0] + rng.randint(CHAIN_SIDE - 1, CHAIN_SIDE)] + [
                rng.randint(lo[a] - side[a], hi[a]) for a in range(1, dim)
            ]
        hi = [x + s for x, s in zip(lo, side)]
        rows = []
        for axis in range(dim):
            e = tuple(int(i == axis) for i in range(dim))
            rows.append(Row(e, Fraction(hi[axis])))
            rows.append(Row(tuple(-v for v in e), Fraction(-lo[axis])))
        if j % 3 == 0:
            a = (0,) * dim
            while not any(a):
                a = tuple(rng.randint(-2, 2) for _ in range(dim))
            centre = [(x + y) // 2 for x, y in zip(lo, hi)]
            rows.append(Row(a, Fraction(sum(c * x for c, x in zip(a, centre)))))
        sets.append(BoxSet(tuple(lo), tuple(hi), tuple(rows)))
    return dim, open_, sets


def _arrangement_text(dim: int, open_: bool, sets: list[BoxSet]) -> str:
    lines = [f"dimension: {dim}", f"topology: {'open' if open_ else 'closed'}"]
    for i, box in enumerate(sets, start=1):
        lines.append(f"set {i}")
        lines.extend(" ".join(map(str, r.coeffs)) + f" <= {r.bound}" for r in box.rows)
    return "\n".join(lines) + "\n"


def _code_of_item(label: str, path: Path, dim: int, open_: bool, sets: list[BoxSet]) -> Item:
    step = GRID_STEP[dim]

    def check(out: str) -> tuple[int, int]:
        n, words = checks.read_code(out)
        expect(n == len(sets), "code has the wrong neuron count")
        expect(0 in words, "points outside every set are missing from the code")
        for pt, w in checks.grid_patterns(sets, open_, step).items():
            expect(w in words, f"grid point {pt}/{step.denominator} has pattern {checks.label(w)}, not a codeword")
        return 0, 0

    def corrupt(out: str) -> str:
        n, words = checks.read_code(out)
        return checks.code_text(n, words - {max(checks.grid_patterns(sets, open_, step).values())})

    return Item(label, ["code-of", str(path)], check, corrupt)


def _random_code(rng: random.Random, k: int, n: int = 10) -> list[int]:
    """3 + k mod 5 maximal words of random neurons; word j has 2 + (j + k) mod 4
    of them and j mod 3 random subwords; the empty word when k is even."""
    words = {0} if k % 2 == 0 else set()
    for j in range(3 + k % 5):
        top = rng.sample(range(1, n + 1), 2 + (j + k) % 4)
        words.add(checks.bits(top))
        for _ in range(j % 3):
            words.add(checks.bits(rng.sample(top, rng.randint(1, len(top) - 1))))
    return sorted(words)


def setup_random(root: Path, work: Path, seed: int):
    (cli,) = fresh_import("convexcodes.cli")
    rng = random.Random(seed)
    items = []
    for k in range(RANDOM_ARRANGEMENTS):
        dim, open_, sets = _random_arrangement(rng, k)
        path = work / f"r{k:03d}.arr"
        write_input(path, _arrangement_text(dim, open_, sets))
        items.append(_code_of_item(path.name, path, dim, open_, sets))
        for c in (2 * k, 2 * k + 1):
            text = checks.code_text(10, _random_code(rng, c))
            path = work / f"r{c:03d}.code"
            write_input(path, text)
            items.append(_analyze_item(path.name, path, text))
    return cli, items


SETUPS = {"extract": setup_extract, "analyze": setup_analyze, "random": setup_random}
