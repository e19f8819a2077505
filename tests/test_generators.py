from __future__ import annotations

import time
from fractions import Fraction

import pytest

from convexcodes import (
    add_codeword,
    code_of_arrangement,
    duplicate_neurons,
    is_locally_good,
    is_max_intersection_complete,
    is_sunflower_code,
    maximal_codewords,
    members,
    membership_pattern,
    reduced_homology,
    restrict,
    simplicial_complex,
    word,
)
from convexcodes.generators import (
    barred,
    boxes6_code,
    gen_an,
    gen_cn,
    gen_sn,
    neither8_code,
    realization_an_r2,
    realization_cn_rn,
    realization_sn_r2,
)

Q = Fraction


def test_gen_an_instantiation():
    a2 = gen_an(2)
    expected = {
        word([1, 2, 4, 5]),
        word([3]),
        word([]),
        word([1, 4, 3]),
        word([2, 5, 3]),
        word([1, 4]),
        word([2, 5]),
    }
    assert a2.words == expected
    with pytest.raises(ValueError):
        gen_an(1)


def test_gen_sn_values():
    s2 = gen_sn(2)
    assert s2.words == {
        word([1, 2]), word([1, 3]), word([2, 3]),
        word([1]), word([2]), word([3]), word([]),
    }
    assert maximal_codewords(gen_sn(3)) == {
        word([1, 2, 3]), word([1, 4]), word([2, 4]), word([3, 4])
    }
    for n in range(2, 7):
        assert gen_sn(n) == restrict(gen_an(n), range(1, n + 2))


def test_gen_cn_structure():
    for n in range(2, 6):
        an = gen_an(n)
        cn = gen_cn(n)
        assert len(cn.words) == 2 * n + 4
        extra = word(barred(i, n) for i in range(1, n + 1))
        res = add_codeword(an, extra)
        assert res.code == cn
        assert res.non_maximal and res.complex_preserved
        assert simplicial_complex(cn) == simplicial_complex(an)


@pytest.mark.parametrize("family", [gen_an, gen_sn, gen_cn, realization_cn_rn])
def test_families_fail_fast_at_the_neuron_cap(family):
    # 2n+1 <= 64 neurons: n = 31 is the largest family
    assert family(31) is not None
    for n in (32, 10**9):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="64-neuron cap"):
            family(n)
        assert time.perf_counter() - start < 0.1


def test_cn_realization_landmarks():
    for n in (2, 3):
        arr = realization_cn_rn(n)
        corner = tuple(Q(1, 2 * n) for _ in range(n))
        assert membership_pattern(arr, corner) == word(
            barred(i, n) for i in range(1, n + 1)
        )
        slab_point = (Q(2 * n + 5),) + (Q(-5),) + tuple(Q(0) for _ in range(n - 2))
        assert membership_pattern(arr, slab_point) == word([n + 1])
        ones = tuple(Q(1) for _ in range(n))
        full = word(list(range(1, n + 1)) + [barred(i, n) for i in range(1, n + 1)])
        assert membership_pattern(arr, ones) == full


def test_an_realization_landmarks():
    for n in (2, 4):
        arr = realization_an_r2(n)
        apex = (Q(0), Q(4))
        full = word(list(range(1, n + 1)) + [barred(i, n) for i in range(1, n + 1)])
        assert membership_pattern(arr, apex) == full
    with pytest.raises(ValueError, match="needs n >= 2"):
        realization_an_r2(1)
    with pytest.raises(ValueError, match="exceeds the 64-neuron cap"):
        realization_an_r2(32)


@pytest.mark.parametrize(
    "realization, family, n",
    [(realization_cn_rn, gen_cn, n) for n in (*range(5, 10), 12, 16)]
    + [(realization_an_r2, gen_an, n) for n in (*range(6, 10), 16, 31)]
    + [(realization_sn_r2, gen_sn, n) for n in (*range(6, 10), 19, 31)],
    ids=[f"cn_rn_{n}" for n in (*range(5, 10), 12, 16)]
    + [f"an_r2_{n}" for n in (*range(6, 10), 16, 31)]
    + [f"sn_r2_{n}" for n in (*range(6, 10), 19, 31)],
)
def test_family_realizations_past_the_corpus(realization, family, n):
    # an_r2_31 has 63 sets, the most below the 64-neuron cap; sn_r2_31 has
    # 32 and cn_rn_16 has 33, in R^16
    assert code_of_arrangement(realization(n)) == family(n)


def test_corpus_round_trip(corpus_entries, extracted_codes):
    for entry in corpus_entries:
        for real in entry.realizations:
            assert extracted_codes[real.stem] == entry.code, real.stem


def test_corpus_expected_assertions(corpus_entries):
    for entry in corpus_entries:
        exp = entry.expected
        if exp.word_count is not None:
            assert len(entry.code.words) == exp.word_count, entry.name
        if exp.maximal is not None:
            assert maximal_codewords(entry.code) == exp.maximal, entry.name
        if exp.max_intersection_complete is not None:
            check = is_max_intersection_complete(entry.code)
            assert check.complete == exp.max_intersection_complete, entry.name
            if exp.incompleteness_witness is not None:
                assert check.witness_value == exp.incompleteness_witness, entry.name
        if exp.locally_good is not None:
            report = is_locally_good(entry.code)
            assert report.verdict == exp.locally_good, entry.name
            if exp.locally_good_checked is not None:
                assert frozenset(report.checked_faces()) == exp.locally_good_checked, entry.name
        if exp.non_mandatory_faces is not None:
            from convexcodes import Contractibility, mandatory_codewords

            table = mandatory_codewords(simplicial_complex(entry.code))
            for f in exp.non_mandatory_faces:
                assert table[f].status is Contractibility.CONTRACTIBLE, (
                    entry.name,
                    members(f),
                )
        if exp.betti1_min is not None:
            betti = reduced_homology(simplicial_complex(entry.code))
            assert betti[1] >= exp.betti1_min, entry.name
        if exp.duplicate_pairs is not None:
            classes = set(duplicate_neurons(entry.code))
            for pair in exp.duplicate_pairs:
                assert pair in classes, (entry.name, pair)
        if exp.sunflower is not None:
            assert is_sunflower_code(entry.code) == exp.sunflower, entry.name


def test_fan8_is_boxes6_style_duplicate_extension(corpus_entries):
    entries = {e.name: e for e in corpus_entries}
    fan8 = entries["fan8"]
    fan6 = entries["fan6"]
    assert restrict(fan8.code, range(1, 7)) == fan6.code
    real8 = fan8.realizations[0].arrangement
    assert real8.sets[6] == real8.sets[0]
    assert real8.sets[7] == real8.sets[2]


def test_neither8_restriction_word_counts():
    c = neither8_code()
    first = restrict(c, [1, 2, 3, 4, 5])
    assert len(first.words) == 13
    assert word([3]) in first.words  # the restriction gains the missing vertex
    second = restrict(c, [2, 3, 6, 7, 8])
    assert len(second.words) == 12


def test_boxes6_code_is_stable():
    # the twelve words, frozen
    assert sorted(members(w) for w in boxes6_code().words) == [
        (),
        (1,),
        (1, 2),
        (1, 2, 3),
        (1, 2, 4),
        (1, 3),
        (1, 3, 5),
        (1, 4),
        (2,),
        (2, 3),
        (2, 3, 6),
        (2, 4),
    ]
