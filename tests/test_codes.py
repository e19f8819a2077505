from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexcodes import (
    NeuralCode,
    add_codeword,
    duplicate_neurons,
    full_word,
    is_max_intersection_complete,
    is_sunflower_code,
    maximal_codewords,
    members,
    neural_code,
    permute,
    restrict,
    simplicial_complex,
    word,
    word_label,
)
from convexcodes.generators import (
    boxes6_code,
    fan6_code,
    fan8_code,
    gen_an,
    neither8_code,
    sunflower3_code,
)


def wset(*tuples):
    return frozenset(word(t) for t in tuples)


@st.composite
def codes(draw, max_n=7, max_words=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    words = draw(
        st.frozensets(
            st.integers(min_value=0, max_value=full_word(n)), min_size=1, max_size=max_words
        )
    )
    return NeuralCode(n, words)


# --- construction and queries ---------------------------------------------------


def test_word_roundtrip():
    assert members(word([3, 1, 2])) == (1, 2, 3)
    assert members(word([])) == ()
    assert word([1, 1, 2]) == word([2, 1])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=full_word(64)))
@example(0)
@example(full_word(64))
@example(1 << 63)
@example(sum(1 << (8 * k + k) for k in range(8)))  # one bit in each byte
def test_word_label_matches_member_formula(w):
    assert word_label(w) == "{" + ",".join(map(str, members(w))) + "}"


def test_word_validation():
    with pytest.raises(ValueError):
        word([0])
    with pytest.raises(ValueError):
        word([65])
    with pytest.raises(ValueError):
        NeuralCode(2, frozenset({word([3])}))
    with pytest.raises(ValueError):
        NeuralCode(0, frozenset())


def test_boolean_neuron_count_is_rejected():
    # True == 1, but serializes as "neurons: True", which parse_code rejects
    for n in (True, False):
        with pytest.raises(ValueError, match=f"got {n}"):
            neural_code(n, [[1]])


def test_maximal_codewords_examples():
    assert maximal_codewords(boxes6_code()) == wset((1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 3, 6))
    assert maximal_codewords(neural_code(1, [[]])) == wset(())
    assert maximal_codewords(fan8_code()) == wset(
        (1, 2, 3, 7, 8), (1, 4, 5, 7), (2, 4, 5, 6), (3, 4, 6, 8)
    )


@settings(max_examples=200, deadline=None)
@given(codes(max_n=8, max_words=16))
def test_maximal_codewords_match_their_definition(code):
    assert maximal_codewords(code) == frozenset(
        w for w in code.words if not any(w != v and w & v == w for v in code.words)
    )


def oracle_max_intersection_complete(code: NeuralCode) -> bool:
    """Brute force over every subset of maximal codewords of size >= 2."""
    maxima = sorted(maximal_codewords(code))
    for r in range(2, len(maxima) + 1):
        for subset in combinations(maxima, r):
            inter = subset[0]
            for w in subset[1:]:
                inter &= w
            if inter not in code.words:
                return False
    return True


def test_max_intersection_boxes6():
    check = is_max_intersection_complete(boxes6_code())
    assert not check.complete
    assert check.witness_sets == (word([1, 3, 5]), word([2, 3, 6]))
    assert check.witness_value == word([3])
    # the witness really is an intersection of maximal words missing from the code
    assert check.witness_sets[0] & check.witness_sets[1] == check.witness_value
    assert check.witness_value not in boxes6_code().words


def test_max_intersection_trivial_cases():
    assert is_max_intersection_complete(neural_code(3, [[1, 2, 3], [1]])).complete
    assert is_max_intersection_complete(sunflower3_code()).complete


@pytest.mark.parametrize(
    "code",
    [boxes6_code(), fan6_code(), fan8_code(), neither8_code(), sunflower3_code(), gen_an(3)],
    ids=["boxes6", "fan6", "fan8", "neither8", "sunflower3", "an_3"],
)
def test_max_intersection_matches_bruteforce(code):
    assert is_max_intersection_complete(code).complete == oracle_max_intersection_complete(code)


@settings(max_examples=60)
@given(codes(max_n=5, max_words=8))
def test_max_intersection_matches_bruteforce_random(code):
    assert is_max_intersection_complete(code).complete == oracle_max_intersection_complete(code)


# --- restriction and permutation -------------------------------------------------


def test_restrict_identity():
    c = boxes6_code()
    assert restrict(c, range(1, 7)) == c


def test_restrict_rejects_bad_tau():
    with pytest.raises(ValueError):
        restrict(sunflower3_code(), [4])
    with pytest.raises(ValueError):
        restrict(sunflower3_code(), [])


def test_restrict_fan8_gives_fan6():
    assert restrict(fan8_code(), range(1, 7)) == fan6_code()


def test_restrict_neither8_first_five():
    # all 21 words intersected with {1..5}, deduplicated
    expected = neural_code(
        5,
        [
            [2, 3, 4, 5], [1, 2, 3], [1, 2, 4], [1, 4, 5],
            [1, 2], [1, 4], [2, 3], [2, 4], [4, 5],
            [2], [3], [4],
            [],
        ],
    )
    assert restrict(neither8_code(), [1, 2, 3, 4, 5]) == expected


def test_restrict_then_permute_neither8():
    # restriction to {2,3,6,7,8} reindexes those neurons to 1..5; swapping the
    # images of the second and third then matches the stored reference value
    restricted = restrict(neither8_code(), [2, 3, 6, 7, 8])
    got = permute(restricted, {1: 1, 2: 3, 3: 2, 4: 4, 5: 5})
    expected = neural_code(
        5,
        [
            [1, 3, 4], [1, 3, 5], [2, 3, 4], [2, 4, 5],
            [1, 2], [1, 3], [2, 4], [3, 4],
            [1], [2], [5],
            [],
        ],
    )
    assert got == expected


def test_permute_examples():
    c = neural_code(2, [[1, 2], [1], []])
    assert permute(c, {1: 1, 2: 2}) == c
    assert permute(c, {1: 2, 2: 1}) == neural_code(2, [[1, 2], [2], []])
    with pytest.raises(ValueError):
        permute(c, {1: 1, 2: 1})


@settings(max_examples=60)
@given(codes(max_n=6), st.randoms(use_true_random=False))
def test_permute_group_action(code, rng):
    perm1 = list(range(1, code.n + 1))
    perm2 = list(range(1, code.n + 1))
    rng.shuffle(perm1)
    rng.shuffle(perm2)
    pi = {i + 1: v for i, v in enumerate(perm1)}
    rho = {i + 1: v for i, v in enumerate(perm2)}
    composed = {i: rho[pi[i]] for i in pi}
    assert permute(permute(code, pi), rho) == permute(code, composed)


@settings(max_examples=60)
@given(codes(max_n=7), st.data())
def test_restrict_composition(code, data):
    tau = data.draw(
        st.frozensets(st.integers(1, code.n), min_size=1, max_size=code.n), label="tau"
    )
    tau_sorted = sorted(tau)
    sub = data.draw(
        st.frozensets(st.sampled_from(tau_sorted), min_size=1, max_size=len(tau_sorted)),
        label="tau_prime",
    )
    # restricting twice equals restricting once to the subset, after reindexing
    remap = {old: new for new, old in enumerate(tau_sorted, start=1)}
    inner = restrict(code, tau)
    reindexed_sub = [remap[i] for i in sorted(sub)]
    assert restrict(inner, reindexed_sub) == restrict(code, sorted(sub))


# --- adding codewords -------------------------------------------------------------


def test_add_codeword_existing_word_is_noop():
    c = sunflower3_code()
    res = add_codeword(c, [1])
    assert res.code == c
    assert not res.added


def test_add_codeword_fan8_extension():
    res = add_codeword(fan8_code(), [2, 7, 8])
    assert len(res.code.words) == 11
    assert res.added and res.non_maximal and res.complex_preserved


def test_add_codeword_new_facet_changes_complex():
    res = add_codeword(sunflower3_code(), [1, 2])
    # {1,2} is a face of the full triangle, so the complex is unchanged
    assert res.complex_preserved
    bigger = add_codeword(neural_code(3, [[1], [2]]), [1, 2])
    assert not bigger.non_maximal
    assert not bigger.complex_preserved


@settings(max_examples=60)
@given(codes(max_n=6), st.data())
def test_add_face_preserves_complex(code, data):
    cpx = simplicial_complex(code)
    faces = sorted(cpx.face_set)
    sigma = data.draw(st.sampled_from(faces), label="sigma")
    res = add_codeword(code, sigma)
    assert simplicial_complex(res.code) == cpx
    assert res.complex_preserved


# --- simplicial complex -----------------------------------------------------------


def test_simplicial_complex_examples():
    cpx = simplicial_complex(boxes6_code())
    assert cpx.facets == wset((1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 3, 6))
    empty = simplicial_complex(neural_code(1, [[]]))
    assert empty.facets == wset(())
    assert empty.dim == -1
    tri = simplicial_complex(sunflower3_code())
    assert tri.facets == wset((1, 2, 3))
    assert tri.face_set == frozenset(
        {word(t) for t in [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]}
    )


@settings(max_examples=80)
@given(codes())
def test_maximal_faces_are_codewords(code):
    cpx = simplicial_complex(code)
    assert cpx.facets <= code.words


def test_f_vector_and_euler():
    tri = simplicial_complex(sunflower3_code())
    assert tri.f_vector() == (3, 3, 1)
    assert tri.euler_characteristic() == 1


# --- duplicates and sunflowers -----------------------------------------------------


def test_duplicate_neurons_examples():
    assert duplicate_neurons(fan8_code()) == ((1, 7), (2,), (3, 8), (4,), (5,), (6,))
    for n in (2, 3, 4):
        classes = duplicate_neurons(gen_an(n))
        assert set(classes) == {(i, n + 1 + i) for i in range(1, n + 1)} | {(n + 1,)}
    lone = neural_code(3, [[1, 2], [3]])
    assert (3,) in duplicate_neurons(lone)


def test_is_sunflower_code():
    assert is_sunflower_code(sunflower3_code())
    assert is_sunflower_code(neural_code(2, [[1, 2], [1], []]))
    assert not is_sunflower_code(neural_code(3, [[1, 2], []]))
    assert not is_sunflower_code(boxes6_code())


def test_an_counts():
    for n in range(2, 9):
        assert len(gen_an(n).words) == 2 * n + 3
