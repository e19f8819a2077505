"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is exact (rational arithmetic); the two timed
criteria assert their wall-clock budgets.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from convexcodes import (
    Contractibility,
    Topology,
    add_codeword,
    code_of_arrangement,
    complex_from_faces,
    contractibility,
    is_locally_good,
    is_max_intersection_complete,
    line_meets,
    link,
    mandatory_codewords,
    maximal_codewords,
    members,
    point_satisfies,
    polyhedron,
    reduced_homology,
    restrict,
    simplicial_complex,
    word,
)
from convexcodes.cli import main as cli_main
from convexcodes.formats import (
    parse_arrangement,
    parse_code,
    serialize_arrangement,
    serialize_code,
)
from convexcodes.generators import (
    boxes6_code,
    corpus,
    gen_an,
    gen_cn,
    gen_sn,
    neither8_code,
    sunflower3_realization,
)
from convexcodes.geometry import interpreted_constraints

Q = Fraction
CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

# the realizations criterion 1 names, by file stem
ROUND_TRIP_STEMS = (
    ["boxes6_open", "boxes6_closed", "fan6", "fan8", "sunflower3"]
    + [f"an_r2_{n}" for n in range(2, 6)]
    + [f"cn_rn_{n}" for n in range(2, 5)]
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number:2d}: PASS - {description}")


def entry_of_stem(stem: str):
    return next((e, r) for e in corpus() for r in e.realizations if r.stem == stem)


def test_criterion_1_corpus_round_trip():
    with criterion(1, "corpus realizations reproduce their codes exactly, < 60 s"):
        start = time.monotonic()
        for stem in ROUND_TRIP_STEMS:
            entry, real = entry_of_stem(stem)
            assert code_of_arrangement(real.arrangement) == entry.code, stem
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"round trips took {elapsed:.1f}s"


def test_criterion_2_family_counts():
    with criterion(2, "family word counts and the restriction identity"):
        for n in range(2, 9):
            assert len(gen_an(n).words) == 2 * n + 3, n
        for n in range(2, 7):
            assert gen_sn(n) == restrict(gen_an(n), range(1, n + 2)), n


def test_criterion_3_boxes6_analysis():
    with criterion(3, "the twelve-word box code matches its frozen analysis facts"):
        code = boxes6_code()
        assert maximal_codewords(code) == {
            word([1, 2, 3]), word([1, 2, 4]), word([1, 3, 5]), word([2, 3, 6])
        }
        check = is_max_intersection_complete(code)
        assert not check.complete and check.witness_value == word([3])
        assert check.witness_sets == (word([1, 3, 5]), word([2, 3, 6]))

        cpx = simplicial_complex(code)
        lk3 = link(cpx, word([3]))
        assert lk3.facets == {word([1, 5]), word([1, 2]), word([2, 6])}
        lk4 = link(cpx, word([4]))
        assert lk4.facets == {word([1, 2])}
        assert contractibility(lk3).status is Contractibility.CONTRACTIBLE
        assert contractibility(lk4).status is Contractibility.CONTRACTIBLE

        assert is_locally_good(code).verdict is True

        table = mandatory_codewords(cpx)
        assert table[word([3])].status is Contractibility.CONTRACTIBLE
        assert table[word([4])].status is Contractibility.CONTRACTIBLE


def test_criterion_4_neither8_analysis():
    with criterion(4, "the 8-neuron no-realization code is locally good via collapses"):
        code = neither8_code()
        report = is_locally_good(code)
        assert report.checked_faces() == (word([1]), word([3]), word([7]))
        for _, res in report.checked:
            assert res.status is Contractibility.CONTRACTIBLE
            assert res.collapse_steps is not None, "expected a collapse certificate"
        assert report.verdict is True


def test_criterion_5_homology(corpus_entries):
    with criterion(5, "exact homology: hollow triangle, the 1-hole, Euler checks"):
        hollow = complex_from_faces(3, [word([1, 2]), word([1, 3]), word([2, 3])])
        assert reduced_homology(hollow) == (0, 1)
        betti = reduced_homology(simplicial_complex(gen_cn(2)))
        assert betti[1] >= 1
        for entry in corpus_entries:
            cpx = simplicial_complex(entry.code)
            b = reduced_homology(cpx)
            chi = cpx.euler_characteristic()
            assert chi == 1 + sum((-1) ** k * v for k, v in enumerate(b)), entry.name


def test_criterion_6_sampled_sunflower_property():
    with criterion(6, "1000 sampled lines through all three open petals hit the center"):
        start = time.monotonic()
        arr = sunflower3_realization()
        petals = arr.sets
        center = polyhedron(
            2,
            [((1, 0), "<=", 2), ((-1, 0), "<=", 0), ((0, 1), "<=", 2), ((0, -1), "<=", 0)],
        )
        rng = random.Random(2023)

        def rational(lo, hi, denom=60):
            return Q(rng.randint(lo * denom, hi * denom), denom)

        # every line meeting all three petals meets petals 1 and 3 in
        # particular, so lines through random points of those two petals
        # cover the whole family being quantified over
        qualifying = 0
        violations = 0
        draws = 0
        while qualifying < 1000:
            draws += 1
            assert draws < 20000, "sampling failed to produce enough qualifying lines"
            p = (rational(-9, 2), rational(0, 2))
            q = (rational(0, 11), rational(0, 2))
            direction = (q[0] - p[0], q[1] - p[1])
            if direction == (0, 0):
                continue
            if not all(line_meets(u, Topology.OPEN, p, direction) for u in petals):
                continue
            qualifying += 1
            if not line_meets(center, Topology.OPEN, p, direction):
                violations += 1
        assert qualifying >= 1000 and violations == 0
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"sunflower sampling took {elapsed:.1f}s"


def test_criterion_7_partition_property(corpus_entries, extracted_codes):
    with criterion(7, "1000 random rational points per arrangement land in coded atoms"):
        rng = random.Random(416)
        for entry in corpus_entries:
            for real in entry.realizations:
                code = extracted_codes[real.stem]
                arr = real.arrangement
                interp = [interpreted_constraints(p, arr.topology) for p in arr.sets]
                for _ in range(1000):
                    q = tuple(
                        Q(rng.randint(int(lo * 60), int(hi * 60)), 60)
                        for lo, hi in real.sample_box
                    )
                    pattern = 0
                    for i, cons in enumerate(interp, start=1):
                        if point_satisfies(cons, q):
                            pattern |= 1 << (i - 1)
                    assert pattern in code.words, (real.stem, q, members(pattern))


def test_criterion_8_monotonicity_hypothesis(corpus_entries):
    with criterion(8, "adding any face of the complex never changes the complex"):
        for entry in corpus_entries:
            if entry.code.n > 8:
                continue
            cpx = simplicial_complex(entry.code)
            for sigma in sorted(cpx.face_set):
                if sigma in entry.code.words:
                    continue
                res = add_codeword(entry.code, sigma)
                assert simplicial_complex(res.code) == cpx, (entry.name, members(sigma))
                assert res.complex_preserved


def test_criterion_9_format_round_trip(tmp_path, capsys):
    with criterion(9, "byte-exact file round-trips and verify(code-of) == ok"):
        code_files = sorted(CORPUS_DIR.glob("*.code"))
        arr_files = sorted(CORPUS_DIR.glob("*.arr"))
        assert code_files and arr_files
        for path in code_files:
            text = path.read_text(encoding="utf-8")
            assert serialize_code(parse_code(text)) == text, path.name
        for path in arr_files:
            text = path.read_text(encoding="utf-8")
            assert serialize_arrangement(parse_arrangement(text)) == text, path.name
        for path in arr_files:
            status = cli_main(["code-of", str(path)])
            out = capsys.readouterr().out
            assert status == 0, path.name
            extracted = tmp_path / (path.stem + ".code")
            extracted.write_text(out, encoding="utf-8")
            status = cli_main(["verify", str(path), str(extracted)])
            capsys.readouterr()
            assert status == 0, path.name


def test_criterion_10_negative_controls(tmp_path, capsys):
    with criterion(10, "mismatches, bad topology, and bad parameters are rejected"):
        status = cli_main(
            ["verify", str(CORPUS_DIR / "fan6.arr"), str(CORPUS_DIR / "boxes6.code")]
        )
        capsys.readouterr()
        assert status == 2

        bad = tmp_path / "bad.arr"
        bad.write_text("dimension: 1\ntopology: open\nset 1\n1 = 0\n")
        status = cli_main(["code-of", str(bad)])
        err = capsys.readouterr().err
        assert status == 1 and "equality row not allowed under open topology" in err

        status = cli_main(["gen", "an", "--n", "1", "--out", str(tmp_path)])
        capsys.readouterr()
        assert status == 1
