from __future__ import annotations

import time
from collections import Counter
from fractions import Fraction
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexcodes import (
    Contractibility,
    ContractibilityResult,
    FaceNotFoundError,
    NeuralCode,
    SimplicialComplex,
    complex_from_faces,
    contractibility,
    full_word,
    is_locally_good,
    is_max_intersection_complete,
    link,
    mandatory_codewords,
    members,
    neural_code,
    reduced_homology,
    simplicial_complex,
    topology,
    word,
    word_key,
)
from convexcodes.cli import build_analysis
from convexcodes.codes import missing_intersections, word_label
from convexcodes.generators import boxes6_code, gen_an, gen_cn, neither8_code, sunflower3_code


def cpx_of(n, *faces):
    return complex_from_faces(n, [word(f) for f in faces])


def wset(*tuples):
    return frozenset(word(t) for t in tuples)


@st.composite
def complexes(draw, max_n=6, max_facets=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    facets = draw(
        st.frozensets(
            st.integers(min_value=0, max_value=full_word(n)), min_size=1, max_size=max_facets
        )
    )
    return complex_from_faces(n, facets)


@st.composite
def codes(draw, max_n=8, max_words=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    words = draw(
        st.frozensets(
            st.integers(min_value=0, max_value=full_word(n)), min_size=1, max_size=max_words
        )
    )
    return NeuralCode(n, words)


# --- independent homology oracle: dense elimination on the full complex -----------


def oracle_betti(cpx) -> tuple[int, ...]:
    """Reduced Betti numbers from dense rational Gaussian elimination on the
    full boundary matrices, with no collapse preprocessing."""
    faces = sorted((f for f in cpx.face_set if f), key=lambda f: (f.bit_count(), f))
    by_dim: dict[int, list[int]] = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)

    def rank(matrix: list[list[Fraction]]) -> int:
        if not matrix or not matrix[0]:
            return 0
        m = [row[:] for row in matrix]
        rows, cols = len(m), len(m[0])
        r = 0
        for c in range(cols):
            pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            inv = m[r][c]
            m[r] = [v / inv for v in m[r]]
            for i in range(rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            r += 1
            if r == rows:
                break
        return r

    dim = max(by_dim) if by_dim else -1
    ranks = {0: 1 if by_dim.get(0) else 0}
    for k in range(1, dim + 1):
        rows_idx = {f: i for i, f in enumerate(by_dim.get(k - 1, []))}
        matrix = [[Fraction(0)] * len(by_dim.get(k, [])) for _ in rows_idx]
        for j, f in enumerate(by_dim.get(k, [])):
            for pos, v in enumerate(members(f)):
                sub = f & ~(1 << (v - 1))
                matrix[rows_idx[sub]][j] = Fraction((-1) ** pos)
        ranks[k] = rank(matrix)
    out = []
    for k in range(cpx.dim + 1):
        f_k = len(by_dim.get(k, []))
        out.append(f_k - ranks.get(k, 0) - ranks.get(k + 1, 0))
    return tuple(out)


# --- link -------------------------------------------------------------------------


def test_link_examples():
    cpx = simplicial_complex(boxes6_code())
    assert link(cpx, word([3])).facets == wset((1, 5), (1, 2), (2, 6))
    assert link(cpx, word([4])).facets == wset((1, 2))
    assert link(cpx, 0) == cpx


def test_link_of_facet_is_empty_complex():
    cpx = cpx_of(3, (1, 2, 3))
    lk = link(cpx, word([1, 2, 3]))
    assert lk.facets == wset(())
    assert contractibility(lk).status is Contractibility.NON_CONTRACTIBLE
    assert contractibility(lk).empty


def test_link_missing_face():
    cpx = simplicial_complex(boxes6_code())
    with pytest.raises(FaceNotFoundError):
        link(cpx, word([5, 6]))


@settings(max_examples=60)
@given(complexes(max_n=6), st.data())
def test_link_membership_characterization(cpx, data):
    faces = sorted(cpx.face_set)
    sigma = data.draw(st.sampled_from(faces), label="sigma")
    lk = link(cpx, sigma)
    lk_faces = lk.face_set
    assert all(tau & sigma == 0 for tau in lk_faces)
    for tau in range(full_word(cpx.n) + 1):
        if tau & sigma:
            continue
        assert (tau in lk_faces) == cpx.has_face(sigma | tau)


# --- contractibility --------------------------------------------------------------


def test_path_collapses():
    path = cpx_of(6, (5, 1), (1, 2), (2, 6))
    res = contractibility(path)
    assert res.status is Contractibility.CONTRACTIBLE
    assert res.collapse_steps is not None and len(res.collapse_steps) == 3


def test_collapse_to_point_sequence_is_valid():
    # the greedy certificate is a sequence of elementary collapses down to a point
    path = cpx_of(6, (5, 1), (1, 2), (2, 6))
    assert_collapse_certificate(path, contractibility(path).collapse_steps)


def test_hollow_triangle_non_contractible():
    hollow = cpx_of(3, (1, 2), (1, 3), (2, 3))
    res = contractibility(hollow)
    assert res.status is Contractibility.NON_CONTRACTIBLE
    assert res.nonzero_betti_dim == 1


def test_full_simplex_is_cone():
    for k in (1, 2, 4):
        simplex = cpx_of(k, tuple(range(1, k + 1)))
        res = contractibility(simplex)
        assert res.status is Contractibility.CONTRACTIBLE
        assert res.cone_apex == 1


def test_single_point_contractible():
    res = contractibility(cpx_of(2, (2,)))
    assert res.status is Contractibility.CONTRACTIBLE


def test_rp2_is_unknown_with_zero_homology(rp2_facets):
    rp2 = cpx_of(6, *rp2_facets)
    assert reduced_homology(rp2) == (0, 0, 0)
    res = contractibility(rp2)
    assert res.status is Contractibility.UNKNOWN
    assert res.describe() == "unknown [zero rational homology, greedy collapse stuck]"


def test_rp2_with_pendant_edges_runs_one_collapse(rp2_facets, monkeypatch):
    # the 12 pendant edges collapse in any order, so a search over collapse
    # orders would visit 2^12 face sets before giving up on RP²
    calls = 0
    real_up_counts = topology._up_counts

    def counted(faces):
        nonlocal calls
        calls += 1
        return real_up_counts(faces)

    monkeypatch.setattr(topology, "_up_counts", counted)
    cpx = cpx_of(18, *rp2_facets, *((1, v) for v in range(7, 19)))
    assert contractibility(cpx).status is Contractibility.UNKNOWN
    # one coface count for the homology of the strong core, one for the collapse
    assert calls <= 2


def _proper_submasks(w):
    sub = (w - 1) & w
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & w


def oracle_free_pairs(faces):
    """Free pairs (sigma, tau) found by counting every proper coface of every
    face through all submasks, and tau by scanning all faces."""
    counts = dict.fromkeys(faces, 0)
    for g in faces:
        if g:
            for mu in _proper_submasks(g):
                counts[mu] += 1
    pairs = []
    for sigma, c in counts.items():
        if sigma == 0 or c != 1:
            continue
        tau = next(g for g in faces if g != sigma and sigma & g == sigma)
        pairs.append((sigma, tau))
    pairs.sort(key=lambda p: (word_key(p[0]), word_key(p[1])))
    return pairs


def collapse_leaves(faces, steps):
    """The faces left after the steps, each checked to be an elementary
    collapse: sigma has exactly one proper coface tau among the faces left."""
    faces = set(faces)
    for sigma, tau in steps:
        assert (sigma, tau) in oracle_free_pairs(faces)
        faces -= {sigma, tau}
    return faces


def assert_collapse_certificate(cpx, steps):
    left = collapse_leaves(cpx.face_set, steps)
    assert len(left) == 2 and 0 in left  # one vertex and the empty face


@settings(max_examples=100, deadline=None)
@given(complexes(max_n=8, max_facets=6))
def test_greedy_collapse_matches_coface_count_oracle(cpx):
    core, steps = topology._greedy_collapse(cpx.face_set)
    assert collapse_leaves(cpx.face_set, steps) == core
    # the greedy collapse stops only where the oracle finds no free face
    assert oracle_free_pairs(core) == []
    res = contractibility(cpx)
    if len(core) == 2:
        assert res.status is Contractibility.CONTRACTIBLE
    if res.collapse_steps is not None:
        assert_collapse_certificate(cpx, res.collapse_steps)


# --- homology ----------------------------------------------------------------------


def test_homology_examples():
    assert reduced_homology(cpx_of(3, (1, 2), (1, 3), (2, 3))) == (0, 1)
    assert reduced_homology(cpx_of(2, (1,), (2,))) == (1,)
    assert reduced_homology(cpx_of(1, (1,))) == (0,)
    assert reduced_homology(cpx_of(1, ())) == ()


def test_homology_family_one_hole():
    betti = reduced_homology(simplicial_complex(gen_cn(2)))
    assert betti == (0, 1, 0, 0)
    assert betti == oracle_betti(simplicial_complex(gen_cn(2)))
    assert reduced_homology(simplicial_complex(gen_cn(3)))[1] == 2


@settings(max_examples=40, deadline=None)
@given(complexes(max_n=8, max_facets=5))
def test_homology_matches_dense_oracle(cpx):
    assert reduced_homology(cpx) == oracle_betti(cpx)


def oracle_column_rank(cols):
    """The rank reduction in Fractions, as it was before it ran in integers."""
    pivots = {}
    rank = 0
    for col in cols:
        col = {r: Fraction(v) for r, v in col.items()}
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                inv = col[low]
                pivots[low] = {r: v / inv for r, v in col.items()}
                rank += 1
                break
            factor = col[low]
            for r, v in piv.items():
                nv = col.get(r, Fraction(0)) - factor * v
                if nv:
                    col[r] = nv
                else:
                    col.pop(r, None)
    return rank


def boundary_columns(cpx):
    """The boundary matrix of each dimension k >= 1 of the full complex, by columns."""
    by_dim = {}
    for f in sorted(cpx.face_set, key=word_key):
        if f:
            by_dim.setdefault(f.bit_count() - 1, []).append(f)
    for k in range(1, max(by_dim, default=0) + 1):
        rows = {f: i for i, f in enumerate(by_dim[k - 1])}
        yield [
            {rows[f & ~(1 << (v - 1))]: (-1) ** j for j, v in enumerate(members(f))}
            for f in by_dim[k]
        ]


sparse_integer_matrices = st.lists(
    st.dictionaries(st.integers(0, 9), st.integers(-3, 3).filter(bool), max_size=6),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(sparse_integer_matrices)
def test_integer_column_rank_matches_fraction_oracle(cols):
    # entries up to 3 in size make non-unit pivots, which take the gcd path
    before = [dict(col) for col in cols]
    assert topology._column_rank(cols) == oracle_column_rank(cols)
    assert cols == before


@settings(max_examples=60, deadline=None)
@given(complexes(max_n=8, max_facets=6))
def test_integer_ranks_keep_boundary_ranks_and_homology(cpx):
    for cols in boundary_columns(cpx):
        assert topology._column_rank(cols) == oracle_column_rank(cols)
    betti = reduced_homology(cpx)
    with mock.patch.object(topology, "_column_rank", oracle_column_rank):
        assert betti == reduced_homology(cpx)


def test_topology_computes_without_fractions():
    assert "Fraction" not in vars(topology)


@settings(max_examples=40, deadline=None)
@given(complexes(max_n=7, max_facets=5), st.integers(min_value=1, max_value=8))
def test_cone_has_trivial_homology(cpx, apex_seed):
    apex = cpx.n + 1
    cone = complex_from_faces(apex, [f | (1 << (apex - 1)) for f in cpx.facets])
    assert all(b == 0 for b in reduced_homology(cone))
    res = contractibility(cone)
    assert res.status is Contractibility.CONTRACTIBLE
    assert res.cone_apex is not None


def test_homology_of_cone_builds_no_face(monkeypatch):
    # building the faces of the 24-vertex facet would take 2^24 of them
    cpx = complex_from_faces(25, [full_word(24), word([1, 25])])
    monkeypatch.setattr(SimplicialComplex, "face_set", property(lambda _: pytest.fail("faces built")))
    t0 = time.perf_counter()
    assert reduced_homology(cpx) == (0,) * 24
    assert time.perf_counter() - t0 < 1.0


def test_homology_of_strongly_collapsible_complex_builds_no_face(monkeypatch):
    # deleting the dominated vertices 1..23 leaves the path {24,25},{25,26},{26,27},
    # which only shrinks to one facet when each deletion keeps inclusion-maximal sets
    cpx = complex_from_faces(27, [full_word(24), word([24, 25]), word([25, 26]), word([26, 27])])
    monkeypatch.setattr(SimplicialComplex, "face_set", property(lambda _: pytest.fail("faces built")))
    assert reduced_homology(cpx) == (0,) * 24


def test_loop_beside_large_facet_is_decided_fast():
    # {1,2,21} is a hollow triangle once 3..20 are deleted; a full face set has 2^20 faces
    cpx = cpx_of(21, tuple(range(1, 21)), (1, 21), (2, 21))
    t0 = time.perf_counter()
    res = contractibility(cpx)
    assert res.status is Contractibility.NON_CONTRACTIBLE
    assert res.nonzero_betti_dim == 1
    assert reduced_homology(cpx) == (0, 1) + (0,) * 18
    assert time.perf_counter() - t0 < 1.0


# --- disconnection read from the facets ---------------------------------------------


def test_connected_link_is_connected_in_every_facet_order():
    # {2,9} and {8,9} meet {3,4,5} only through {3,4,6,8}: a component that
    # skips a facet meeting it, instead of merging it, reads this as disconnected
    facets = [word(f) for f in ((2, 9), (3, 4, 5), (3, 4, 6, 8), (8, 9))]
    for order in permutations(facets):
        res = contractibility(SimplicialComplex(10, order))
        assert res.describe() == "contractible [collapses to a point, 11 steps]", order


def test_empty_facet_does_not_seed_a_component():
    for facets in (frozenset({0, word([3])}), (0, word([3])), (word([3]), 0)):
        res = contractibility(SimplicialComplex(4, facets))
        assert res == ContractibilityResult(Contractibility.CONTRACTIBLE, collapse_steps=())


def test_disconnected_complex_runs_no_homology(monkeypatch):
    # each of the two 16-vertex facets alone has 2^16 faces
    for name in ("reduced_homology", "_greedy_collapse"):
        monkeypatch.setattr(topology, name, lambda *_: pytest.fail("homology computed"))
    res = contractibility(cpx_of(32, tuple(range(1, 17)), tuple(range(17, 33))))
    assert res == ContractibilityResult(Contractibility.NON_CONTRACTIBLE, nonzero_betti_dim=0)


def decision_in_homology_order(cpx):
    """The reference decision with no disconnection test: empty, cone, the
    first nonzero reduced Betti number, one collapse."""
    if not any(cpx.facets):
        return ContractibilityResult(Contractibility.NON_CONTRACTIBLE, empty=True)
    common = ~0
    for f in cpx.facets:
        common &= f
    if common:
        return ContractibilityResult(
            Contractibility.CONTRACTIBLE, cone_apex=(common & -common).bit_length()
        )
    for k, b in enumerate(reduced_homology(cpx)):
        if b:
            return ContractibilityResult(Contractibility.NON_CONTRACTIBLE, nonzero_betti_dim=k)
    core, steps = topology._greedy_collapse(cpx.face_set)
    if len(core) == 2:
        return ContractibilityResult(Contractibility.CONTRACTIBLE, collapse_steps=tuple(steps))
    return ContractibilityResult(Contractibility.UNKNOWN)


@settings(max_examples=150, deadline=None)
@given(complexes(max_n=9, max_facets=7))
def test_contractibility_matches_homology_order(cpx):
    assert contractibility(cpx) == decision_in_homology_order(cpx)


@settings(max_examples=60, deadline=None)
@given(codes(max_n=10))
def test_contractibility_of_every_link_matches_homology_order(code):
    cpx = simplicial_complex(code)
    for f in cpx.face_set:
        lk = link(cpx, f)
        assert contractibility(lk) == decision_in_homology_order(lk), members(f)


@settings(max_examples=60, deadline=None)
@given(complexes(max_n=5, max_facets=5))
def test_no_contradictory_certificates(cpx):
    # nonzero homology must never coexist with a CONTRACTIBLE verdict
    res = contractibility(cpx)
    betti = oracle_betti(cpx)
    assert res.nonzero_betti_dim == next((k for k, b in enumerate(betti) if b), None)
    if any(betti):
        assert res.status is Contractibility.NON_CONTRACTIBLE
    if res.status is Contractibility.CONTRACTIBLE:
        assert not any(betti)


@settings(max_examples=40, deadline=None)
@given(complexes(max_n=6, max_facets=6))
def test_euler_characteristic_vs_betti(cpx):
    if not any(f for f in cpx.face_set):
        return
    betti = reduced_homology(cpx)
    chi = cpx.euler_characteristic()
    assert chi == 1 + sum((-1) ** k * b for k, b in enumerate(betti))


# --- mandatory codewords and local obstructions -------------------------------------


def test_mandatory_table_boxes6():
    cpx = simplicial_complex(boxes6_code())
    table = mandatory_codewords(cpx)
    assert table[word([3])].status is Contractibility.CONTRACTIBLE
    assert table[word([4])].status is Contractibility.CONTRACTIBLE
    for facet in cpx.facets:
        assert table[facet].status is Contractibility.NON_CONTRACTIBLE
        assert table[facet].empty


def test_mandatory_table_neither8():
    cpx = simplicial_complex(neither8_code())
    table = mandatory_codewords(cpx)
    for f in ([1], [3], [7]):
        assert table[word(f)].status is Contractibility.CONTRACTIBLE


def test_locally_good_examples():
    report = is_locally_good(boxes6_code())
    assert report.verdict is True
    assert report.checked_faces() == (word([3]),)

    report8 = is_locally_good(neither8_code())
    assert report8.verdict is True
    assert report8.checked_faces() == (word([1]), word([3]), word([7]))
    for _, res in report8.checked:
        assert res.status is Contractibility.CONTRACTIBLE
        assert res.collapse_steps is not None

    assert is_locally_good(sunflower3_code()).checked == ()


def test_locally_good_unknown_on_cone_over_rp2(rp2_facets):
    # every face of the cone over RP² with apex 7 but {7}: the one missing
    # intersection of maximal codewords is {7}, and its link is RP²
    cone = cpx_of(7, *(f + (7,) for f in rp2_facets))
    report = is_locally_good(NeuralCode(7, cone.face_set - {word([7])}))
    assert report.checked_faces() == (word([7]),)
    assert report.verdict is None
    assert report.obstruction is None


def test_locally_good_false_case():
    # hollow-triangle code: every pairwise intersection of maximal words is a
    # missing vertex whose link is two points
    bad = neural_code(3, [[1, 2], [1, 3], [2, 3], []])
    report = is_locally_good(bad)
    assert report.verdict is False
    assert report.obstruction == word([1])


def assert_table_matches_link_by_link(cpx):
    # rows answered by a cone apex without a link carry the link's verdict,
    # and the walk gives the rows in the sorted order of the face set
    expected = {
        f: contractibility(link(cpx, f))
        for f in sorted((f for f in cpx.face_set if f), key=word_key)
    }
    table = mandatory_codewords(cpx)
    assert list(table) == list(expected)
    assert table == expected


@settings(max_examples=60, deadline=None)
@given(complexes(max_n=7, max_facets=6))
def test_mandatory_table_matches_link_by_link(cpx):
    assert_table_matches_link_by_link(cpx)


def test_mandatory_table_matches_link_by_link_on_corpus(corpus_entries):
    # the corpus holds an_5 and cn_5, whose tables have 1,039 rows each
    for entry in corpus_entries:
        assert_table_matches_link_by_link(simplicial_complex(entry.code))


def test_collapse_certificates_check_on_corpus(corpus_entries):
    # every collapse certificate of a corpus table row collapses its link
    checked = 0
    for entry in corpus_entries:
        cpx = simplicial_complex(entry.code)
        for f, res in mandatory_codewords(cpx).items():
            if res.collapse_steps is not None:
                assert_collapse_certificate(link(cpx, f), res.collapse_steps)
                checked += 1
    assert checked


def test_mandatory_table_builds_no_face(monkeypatch):
    # the few links that are built may build their own faces; the complex may not
    cpx = simplicial_complex(gen_an(6))
    faces_of = SimplicialComplex.face_set.func

    def guarded(other):
        if other.facets == cpx.facets:
            pytest.fail("faces built")
        return faces_of(other)

    monkeypatch.setattr(SimplicialComplex, "face_set", property(guarded))
    table = mandatory_codewords(cpx)
    assert len(table) == 4114


def test_mandatory_table_writes_no_text(monkeypatch):
    # the walk only decides; a row's text is rendered by analyze alone
    def refuse(self):
        raise AssertionError("a status was rendered")

    monkeypatch.setattr(ContractibilityResult, "describe", refuse)
    code = gen_an(4)
    cpx = simplicial_complex(code)
    assert len(mandatory_codewords(cpx)) == len(cpx.face_set) - 1
    build_analysis(code, include_homology=True)


def test_mandatory_table_shares_cone_certificates():
    table = mandatory_codewords(simplicial_complex(gen_an(6)))
    cones = [res for res in table.values() if res.cone_apex is not None]
    by_apex = {}
    for res in cones:
        assert by_apex.setdefault(res.cone_apex, res) is res
        assert res.describe() == f"contractible [cone apex {res.cone_apex}]"
    assert len(by_apex) < len(cones)


def reference_mandatory_codewords(cpx):
    """The walk as it was before facets were handed down unchanged: every row
    filters the facets above its parent, and every row walks its subtree."""
    out = {}

    def walk(f, above, verts):
        rest = verts & -(1 << f.bit_length())
        while rest:
            v = rest & -rest
            rest ^= v
            h = f | v
            sub = [g for g in above if g & v]
            common, union = ~0, 0
            for g in sub:
                common &= g
                union |= g
            apexes = common & ~h
            if apexes:
                out[h] = ContractibilityResult(
                    Contractibility.CONTRACTIBLE, cone_apex=(apexes & -apexes).bit_length()
                )
            else:
                out[h] = contractibility(link(cpx, h))
            walk(h, sub, union)

    walk(0, list(cpx.facets), topology._vertex_mask(cpx.facets))
    return out


@settings(max_examples=150, deadline=None)
@given(codes(max_n=9, max_words=10))
@example(NeuralCode(14, frozenset({full_word(14)})))
@example(NeuralCode(13, frozenset({full_word(12), word([1, 13])})))
# blocks with apex 1 below their roots {2} and {3}, holding the codewords
# {2,4} and {3,5,7}, so that "in code" flips inside them
@example(NeuralCode(9, frozenset({full_word(8), word([2, 4]), word([3, 5, 7]), word([1, 9])})))
def test_walk_matches_reference_walk(code):
    cpx = simplicial_complex(code)
    expected = reference_mandatory_codewords(cpx)
    table = mandatory_codewords(cpx)
    assert list(table) == list(expected)
    assert table == expected
    entries = topology._mandatory_rows(cpx)
    # each entry is a row, its label and the block of rows below it, its
    # suffixes and vertices in parallel, all with its status
    assert all(len(suffixes) == len(masks) for _, _, _, suffixes, masks in entries)
    rows = [(h | b, res) for h, _, res, _, masks in entries for b in (0, *masks)]
    assert rows == list(table.items())
    statuses = [res for _, res in rows]
    labels = [
        label + s for h, label, _, suffixes, _ in entries
        for s in ("", *("," + s for s in suffixes))
    ]
    assert labels == [word_label(f)[1:-1] for f in table]
    # the missing intersections are the rows with no cone apex not in the code
    assert [
        f for f, _, res, _, _ in entries if res.cone_apex is None and f not in code.words
    ] == missing_intersections(code)
    for certificates in (table.values(), statuses):
        by_apex = {}
        for res in certificates:
            if res.cone_apex is not None:
                assert by_apex.setdefault(res.cone_apex, res) is res


@settings(max_examples=150, deadline=None)
@given(codes(max_n=9, max_words=10))
# without the words, {2} and {3} head blocks that hold {2,4} and {3,5,7}
@example(NeuralCode(9, frozenset({full_word(8), word([2, 4]), word([3, 5, 7]), word([1, 9])})))
# without the words, {1,3} heads a block that holds {1,3,5}; the codeword {3} still heads one
@example(NeuralCode(13, frozenset({full_word(12), word([1, 13]), word([1, 3, 5]), word([3])})))
def test_blocks_given_the_words_hold_no_codeword(code):
    cpx = simplicial_complex(code)
    entries = topology._mandatory_rows(cpx, code.words)
    assert not any(h | b in code.words for h, _, _, _, masks in entries for b in masks)
    rows = [(h | b, res) for h, _, res, _, masks in entries for b in (0, *masks)]
    assert rows == list(mandatory_codewords(cpx).items())


@pytest.mark.parametrize("family", [gen_an, gen_cn])
def test_analysis_builds_links_only_for_facet_intersections(family, monkeypatch):
    # both tables have 4,114 rows, but only a few faces are intersections of facets
    calls = 0
    real_link = topology.link

    def counted(cpx, sigma):
        nonlocal calls
        calls += 1
        return real_link(cpx, sigma)

    monkeypatch.setattr(topology, "link", counted)
    build_analysis(family(6), include_homology=True)
    assert calls <= 100


def test_analysis_runs_homology_only_on_connected_links(corpus_entries, monkeypatch):
    # 96 of the 106 links these tables build are disconnected, which their
    # facets decide; only the other 10 need reduced_homology
    calls = 0
    real_homology = topology.reduced_homology

    def counted(cpx):
        nonlocal calls
        calls += 1
        return real_homology(cpx)

    monkeypatch.setattr(topology, "reduced_homology", counted)
    codes = [entry.code for entry in corpus_entries] + [gen_an(6), gen_cn(6)]
    assert len(codes) == 20
    for code in codes:
        build_analysis(code, include_homology=False)
    assert calls == 10


def test_locally_good_cross_check_on_corpus(corpus_entries):
    # a locally good verdict must agree with the mandatory-codeword definition
    for entry in corpus_entries:
        report = is_locally_good(entry.code)
        if report.verdict is not True:
            continue
        table = mandatory_codewords(simplicial_complex(entry.code))
        for face, res in table.items():
            if res.status is Contractibility.NON_CONTRACTIBLE:
                assert face in entry.code.words, (entry.name, members(face))


@settings(max_examples=60, deadline=None)
@given(codes(max_n=8))
def test_analysis_locally_good_matches_is_locally_good(code):
    report = build_analysis(code)
    expected = is_locally_good(code)
    assert report.local.verdict == expected.verdict
    assert report.local.checked == expected.checked
    assert report.max_intersection == is_max_intersection_complete(code)
    # the obstruction is the first mandatory codeword the code lacks
    missing_mandatory = [
        f for f, res in mandatory_codewords(simplicial_complex(code)).items()
        if f not in code.words and res.status is Contractibility.NON_CONTRACTIBLE
    ]
    assert expected.obstruction == next(iter(missing_mandatory), None)


def test_analysis_builds_each_link_once(monkeypatch):
    built = Counter()
    real_link = topology.link

    def counted(cpx, sigma):
        built[sigma] += 1
        return real_link(cpx, sigma)

    monkeypatch.setattr(topology, "link", counted)
    report = build_analysis(neither8_code(), include_homology=True)
    assert report.local.verdict is True
    assert {word([1]), word([3]), word([7])} <= set(built)
    assert max(built.values()) == 1
