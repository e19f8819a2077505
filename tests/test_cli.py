from __future__ import annotations

import hashlib
import io
import random
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import RP2_FACETS, line_events
from convexcodes import cli, generators
from convexcodes.cli import build_analysis, main
from convexcodes.codes import (
    NeuralCode,
    complex_from_faces,
    full_word,
    members,
    simplicial_complex,
    word,
    word_key,
    word_label,
)
from convexcodes.formats import parse_code, serialize_code
from convexcodes.generators import gen_an, gen_cn
from convexcodes.topology import Contractibility, mandatory_codewords

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


# every face of the cone over RP² with apex 7 but {7}: the one missing
# intersection of maximal codewords is {7}, whose link RP² stays UNKNOWN
RP2_CONE_CODE = NeuralCode(
    7, complex_from_faces(7, (word([*f, 7]) for f in RP2_FACETS)).face_set - {word([7])}
)


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_analyze_boxes6(capsys):
    status, out, err = run(capsys, "analyze", str(CORPUS / "boxes6.code"))
    assert status == 0 and not err
    assert "code: 6 neurons, 12 codewords" in out
    assert "maximal codewords: {1,2,3} {1,2,4} {1,3,5} {2,3,6}" in out
    assert "max-intersection complete: false (witness: {1,3,5} & {2,3,6} = {3} not in code)" in out
    assert "locally good: true" in out
    assert "face {3}: non-mandatory" in out
    assert "face {4}: non-mandatory" in out
    assert "reduced betti numbers of the code complex:" not in out


def test_analyze_homology_flag(capsys):
    status, out, _ = run(capsys, "analyze", str(CORPUS / "cn_2.code"), "--homology")
    assert status == 0
    assert "reduced betti numbers of the code complex: 0 1 0 0" in out


def test_analyze_neither8(capsys):
    status, out, _ = run(capsys, "analyze", str(CORPUS / "neither8.code"))
    assert status == 0
    assert "locally good: true" in out
    assert "checked face {1}: contractible" in out
    assert "checked face {3}: contractible" in out
    assert "checked face {7}: contractible" in out


# sha256 of `analyze --homology` stdout, pinned when the table was built from
# the sorted face set; every byte of every row, and the row order, must stay
ANALYZE_HOMOLOGY_SHA256 = {
    "an_2": "4511bcea6f137f2d95b33081ad1e22db0561578aafc54cd60b98b17c368808b0",
    "an_3": "caa8c9b3f82f872239c490d1920a416de6c36c6910a9821d459bf1e79aa9cc38",
    "an_4": "4f2bf9a9a05482f6ad7f829e61ef3b4c36525d602bbfc26f0ffc1f27170fbae7",
    "an_5": "73d3e6421f221232d6b63868983fc5b75d94075abe772018add9f6927c5a64de",
    "boxes6": "0526690c92c53dbb2ff571f86e9a8507dddc4f49909d1e8de684176c0486139a",
    "cn_2": "70e7d5ef98679f79c1cc22106eec5720aec37fd76cea4c4f3082b72d90f8b0ec",
    "cn_3": "2d862039f4c4583e0332d902d9ea9b6ef5e94c435cae91745f0d427450e7b382",
    "cn_4": "a7db068c459b25322fb039bc2c559aee9cad046d36d2c30c0abbb0d333995b63",
    "cn_5": "16e7a87fa76061e56cfc4b12ed5d225c1a83eff63fa44ef5db7ef26318c11319",
    "fan6": "dd144e0c14fbfa19e9d0f39f04b146e7ca1b6488579b8e632ae668cd1cb82b9b",
    "fan8": "e71becd49961b2f28da8d2e4cbbe8d0a8719299a367dd22f85331f248ba96fc9",
    "fan8_plus": "d3ba0356d8907d9ceef762f18525b0e56828064a6f7acda54bd5485f4ade7e1d",
    "neither8": "fac990578e74a7995a3df4e533601e6a9b6031e7211f8a41ef299a63eb11a336",
    "sn_2": "c517bcaeb59ba88a7e5b27fae9c98de419518f51076aba3c63231ca357136750",
    "sn_3": "e65cb3822531edf88978e48b97fe79e7bc06124fda55072562f8354bde7eaa07",
    "sn_4": "cac63dd03691edae27adcfa6c6b02c765c50414c55fd5b3d9c1a305b5df09e20",
    "sn_5": "a1aaaabbc38858021eb6fe823f5f0470ab5ec2479813023372a96b00fc825c1d",
    "sunflower3": "95315e01c11f63ccbcdb6ae6e5af9ac7e57e5623fa6450af5d8ed51ebdc3ad24",
    "an_6": "8467b156d2475c958b2a96a2ecaa704655d5421365df06ed231c4ba1588d46f1",
    "cn_6": "f8c62a4953800b29c8904f1577da2be4419ee357bda369e98ed4a40b5fbc4178",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_analyze_output_bytes_are_pinned(tmp_path, capsys):
    paths = {p.stem: p for p in CORPUS.glob("*.code")}
    for name, code in (("an_6", gen_an(6)), ("cn_6", gen_cn(6))):
        paths[name] = tmp_path / f"{name}.code"
        paths[name].write_text(serialize_code(code), encoding="utf-8")
    assert set(paths) == set(ANALYZE_HOMOLOGY_SHA256)
    for name, path in paths.items():
        status, out, err = run(capsys, "analyze", str(path), "--homology")
        assert status == 0 and not err
        assert sha256(out) == ANALYZE_HOMOLOGY_SHA256[name], name
    _, out, _ = run(capsys, "analyze", str(CORPUS / "neither8.code"))
    assert sha256(out) == "e35fb16fa1f85d06f62a13c6422b33f7a926129f6015a066da9567239e570fa5"


# pinned from the Fraction ranks and the walk that filtered the facets at every row
def test_large_facet_report_and_neither8_links_are_pinned(tmp_path, capsys):
    path = tmp_path / "big.code"
    path.write_text("neurons: 13\n" + " ".join(map(str, range(1, 13))) + "\n1 13\n")
    status, out, err = run(capsys, "analyze", str(path), "--homology")
    assert status == 0 and not err
    assert sha256(out) == "a73410accfc03ae525be72e1e10a1d6fffb7cd9cdf6792cf550e3ba5c9f5867c"
    code_path = CORPUS / "neither8.code"
    faces = sorted(simplicial_complex(parse_code(code_path.read_text())).face_set, key=word_key)
    assert len(faces) == 40
    links = hashlib.sha256()
    for f in faces:
        status, out, err = run(capsys, "link", str(code_path), "--face", " ".join(map(str, members(f))))
        assert status == 0 and not err
        links.update(out.encode())
    assert links.hexdigest() == "dc1a503f350cffb070df78b793bb0694ffde246820b2dd80bee7f53f98ca7350"


def seeded_codes(seed, count=200, n=10):
    """Codes shaped like the benchmark's random ones: 3-7 maximal words of 2-5
    of n neurons, each with up to two subwords, half of them with the empty word."""
    rng = random.Random(seed)
    for _ in range(count):
        words = {0} if rng.random() < 0.5 else set()
        for _ in range(rng.randint(3, 7)):
            top = rng.sample(range(1, n + 1), rng.randint(2, 5))
            words.add(word(top))
            for _ in range(rng.randint(0, 2)):
                words.add(word(rng.sample(top, rng.randint(1, len(top) - 1))))
        yield NeuralCode(n, frozenset(words))


# the link of {7} has the facets {2,9} {3,4,5} {3,4,6,8} {8,9}: connected only
# through {3,4,6,8}, which a component search must merge, not just drop
CHAIN_CODE = NeuralCode(10, frozenset(word(w) for w in (
    (2, 7, 9), (3, 4, 5, 7), (3, 4, 6, 7, 8), (3, 4, 7, 8), (3, 4, 8), (3, 5, 7),
    (7, 8, 9), (7, 9), (9, 10),
)))


# pinned before disconnected links were decided from their facets
def test_analyze_bytes_of_seeded_random_codes_are_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    path = tmp_path / "c.code"
    for code in (*seeded_codes(23), CHAIN_CODE):
        path.write_text(serialize_code(code), encoding="utf-8")
        status, out, err = run(capsys, "analyze", str(path), "--homology")
        digest.update(f"{status}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == "4a710579405269c00f94a7d73e449b8cf94754cb9c502211ceb6ab28243eec89"


def test_analyze_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("")
    status, out, err = run(capsys, "analyze", str(bad))
    assert status == 1 and "error:" in err


def test_code_of_sunflower(capsys):
    status, out, _ = run(capsys, "code-of", str(CORPUS / "sunflower3.arr"))
    assert status == 0
    assert out == "neurons: 3\n-\n1\n1 2 3\n2\n3\n"


def test_code_of_rejects_open_equality(tmp_path, capsys):
    bad = tmp_path / "bad.arr"
    bad.write_text("dimension: 1\ntopology: open\nset 1\n1 = 0\n")
    status, _, err = run(capsys, "code-of", str(bad))
    assert status == 1
    assert "equality row not allowed under open topology" in err


def test_code_of_rejects_exponent_fast(tmp_path, capsys):
    bad = tmp_path / "bad.arr"
    bad.write_text("dimension: 1\ntopology: closed\nset 1\n1e10000000 <= 1\n")
    start = time.perf_counter()
    status, out, err = run(capsys, "code-of", str(bad))
    assert time.perf_counter() - start < 1
    assert status == 1 and not out
    assert "line 4: bad number '1e10000000'" in err


def test_code_of_rejects_dimension_past_an_index(tmp_path, capsys):
    # a row-less set still builds a point of dim coordinates
    bad = tmp_path / "bad.arr"
    bad.write_text("dimension: 99999999999999999999\ntopology: closed\nset 1\n")
    status, out, err = run(capsys, "code-of", str(bad))
    assert status == 1 and not out
    assert err.startswith("error: line 1: dimension 99999999999999999999 exceeds")


@pytest.mark.parametrize("command", ["code-of", "verify"])
def test_out_of_memory_is_an_error_line(tmp_path, capsys, command):
    # sys.maxsize passes the index check, and the origin's coordinate list
    # fails its size check before anything is allocated
    arr = tmp_path / "big.arr"
    arr.write_text(f"dimension: {sys.maxsize}\ntopology: closed\nset 1\n")
    code = tmp_path / "c.code"
    code.write_text("neurons: 1\n1\n")
    argv = [command, str(arr)] + ([str(code)] if command == "verify" else [])
    status, out, err = run(capsys, *argv)
    assert (status, out, err) == (1, "", "error: out of memory\n")


def test_verify_ok_and_mismatch(capsys):
    status, out, _ = run(
        capsys, "verify", str(CORPUS / "fan6.arr"), str(CORPUS / "fan6.code")
    )
    assert status == 0 and "ok" in out

    status, out, _ = run(
        capsys, "verify", str(CORPUS / "fan6.arr"), str(CORPUS / "boxes6.code")
    )
    assert status == 2
    assert "mismatch" in out
    assert "only in arrangement code:" in out and "only in given code:" in out


def test_verify_parse_error(tmp_path, capsys):
    missing = tmp_path / "nope.arr"
    status, _, err = run(capsys, "verify", str(missing), str(CORPUS / "fan6.code"))
    assert status == 1 and "error:" in err


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("family", list(generators.FAMILIES))
def test_gen_family_files(tmp_path, capsys, family, n):
    # --realization offers exactly the table's tags
    gen = next(a for a in cli.build_parser()._actions if a.dest == "command").choices["gen"]
    tags = next(a for a in gen._actions if a.dest == "realization").choices
    assert tags == sorted({t for spec in generators.FAMILIES.values() for t in spec.realizations})

    # without --realization gen writes the code alone, and it is the shipped one
    status, _, err = run(capsys, "gen", family, "--n", str(n), "--out", str(tmp_path / "code"))
    assert status == 0 and not err
    name = f"{family}_{n}.code"
    assert [p.name for p in (tmp_path / "code").iterdir()] == [name]
    data = (tmp_path / "code" / name).read_bytes()
    assert data == (CORPUS / name).read_bytes()
    word_count = generators.FAMILIES[family].expected(n).word_count
    assert len([l for l in data.decode().splitlines()[1:] if l]) == word_count

    # each tag adds its arrangement, the shipped file where the corpus has one
    for tag in generators.FAMILIES[family].realizations:
        out = tmp_path / tag
        argv = ["gen", family, "--n", str(n), "--realization", tag, "--out", str(out)]
        status, _, err = run(capsys, *argv)
        assert status == 0 and not err
        stem = f"{family}_{tag}_{n}"
        assert sorted(p.name for p in out.iterdir()) == sorted([name, f"{stem}.arr"])
        assert (out / name).read_bytes() == (CORPUS / name).read_bytes()
        if (family, tag, n) != ("cn", "rn", 5):
            assert (out / f"{stem}.arr").read_bytes() == (CORPUS / f"{stem}.arr").read_bytes()


@pytest.mark.parametrize(
    "family, n, tag", [("an", 10, "r2"), ("an", 31, "r2"), ("sn", 31, "r2"), ("cn", 16, "rn")]
)
def test_gen_writes_what_verify_accepts(tmp_path, capsys, family, n, tag):
    # past the corpus, up to an_r2_31's 63 sets: every file gen writes verifies
    argv = ["gen", family, "--n", str(n), "--realization", tag, "--out", str(tmp_path)]
    status, _, err = run(capsys, *argv)
    assert status == 0 and not err
    arr, code = tmp_path / f"{family}_{tag}_{n}.arr", tmp_path / f"{family}_{n}.code"
    status, out, err = run(capsys, "verify", str(arr), str(code))
    assert (status, err) == (0, "") and out.startswith("ok:")


def test_gen_corpus_entry(tmp_path, capsys):
    # every corpus entry regenerates its shipped files, and together they are the corpus
    for name in [e.name for e in generators.corpus()]:
        status, _, err = run(capsys, "gen", name, "--out", str(tmp_path))
        assert status == 0 and not err, name
    shipped = sorted(p.name for p in CORPUS.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    assert len(shipped) == 34
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (CORPUS / name).read_bytes(), name


def test_gen_corpus_entry_builds_the_corpus_once(tmp_path, capsys, monkeypatch):
    calls = 0
    build = generators.corpus

    def counted():
        nonlocal calls
        calls += 1
        return build()

    # counted whether cli calls it by its own name or through generators
    monkeypatch.setattr(generators, "corpus", counted)
    monkeypatch.setattr(cli, "corpus", counted, raising=False)
    status, _, err = run(capsys, "gen", "fan8", "--out", str(tmp_path))
    assert status == 0 and not err
    assert calls == 1
    assert (tmp_path / "fan8.arr").read_bytes() == (CORPUS / "fan8.arr").read_bytes()


def test_gen_errors(tmp_path, capsys):
    status, _, err = run(capsys, "gen", "an", "--n", "1", "--out", str(tmp_path))
    assert status == 1 and "error:" in err
    status, _, err = run(capsys, "gen", "nonesuch", "--out", str(tmp_path))
    assert status == 1
    status, _, err = run(capsys, "gen", "an", "--out", str(tmp_path))
    assert status == 1  # missing --n
    status, _, err = run(
        capsys, "gen", "an", "--n", "3", "--realization", "rn", "--out", str(tmp_path)
    )
    assert status == 1  # wrong realization kind for the family
    status, _, err = run(
        capsys, "gen", "fan6", "--realization", "rn", "--out", str(tmp_path)
    )
    assert status == 1 and "does not take --realization" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "nonesuch"],
        ["gen", "an"],
        ["gen", "an", "--n", "3", "--realization", "rn"],
        ["gen", "boxes6", "--n", "3"],
        ["gen", "fan6", "--realization", "rn"],
    ],
    ids=[
        "unknown-family",
        "missing-n",
        "wrong-realization",
        "corpus-with-n",
        "corpus-with-realization",
    ],
)
def test_gen_errors_write_nothing(tmp_path, capsys, argv):
    out = tmp_path / "d"
    status, _, err = run(capsys, *argv, "--out", str(out))
    assert status == 1 and "error:" in err
    assert not out.exists()


def test_main_is_reentrant(capsys):
    code = str(CORPUS / "cn_2.code")
    _, with_flag, _ = run(capsys, "analyze", code, "--homology")
    _, without, _ = run(capsys, "analyze", code)
    assert "reduced betti numbers" in with_flag and "reduced betti numbers" not in without
    arr = str(CORPUS / "fan6.arr")
    first = run(capsys, "code-of", arr)
    assert first[0] == 0 and run(capsys, "code-of", arr) == first


def test_link_command(capsys):
    status, out, _ = run(capsys, "link", str(CORPUS / "boxes6.code"), "--face", "3")
    assert status == 0
    assert "link facets: {1,2} {1,5} {2,6}" in out
    assert "contractible" in out

    status, out, _ = run(capsys, "link", str(CORPUS / "boxes6.code"), "--face", "4")
    assert status == 0
    assert "link facets: {1,2}" in out

    status, _, err = run(capsys, "link", str(CORPUS / "boxes6.code"), "--face", "6 5")
    assert status == 1 and "not in the code's simplicial complex" in err


@pytest.mark.parametrize(
    "token, face",
    [("3", "{3}"), ("03", "{3}"), ("٣", None), ("３", None), ("1_0", None), ("+3", None),
     ("-3", None), ("3.0", None), ("0x3", None), ("9" * 5000, None)],
)
def test_integer_options_are_ascii_decimal(tmp_path, capsys, token, face):
    # --face and --n follow the file grammar [0-9]+; int() would read 1_0 as 10
    status, out, err = run(capsys, "link", str(CORPUS / "boxes6.code"), "--face", token)
    if face is None:
        assert status == 1 and not out
        assert err.startswith("error: ") and "is not an unsigned decimal integer" in err
    else:
        assert status == 0 and out.startswith(f"face: {face}\n")
    status, out, err = run(capsys, "gen", "an", "--n", token, "--out", str(tmp_path / "g"))
    if face is None:
        assert status == 1 and not out
        assert err.startswith("error: ") and "is not an unsigned decimal integer" in err
        assert not (tmp_path / "g").exists()
    else:
        assert status == 0 and (tmp_path / "g" / "an_3.code").exists()


def test_link_of_face_in_large_facet(tmp_path, capsys):
    # the link of {2} is the 29-vertex simplex {1,3,...,30}: decided from its
    # facet, without materialising its 2^29 faces
    big = tmp_path / "big.code"
    big.write_text("neurons: 31\n" + " ".join(map(str, range(1, 31))) + "\n1 31\n")
    start = time.perf_counter()
    status, out, _ = run(capsys, "link", str(big), "--face", "2")
    assert time.perf_counter() - start < 5
    assert status == 0
    assert "link status: contractible [cone apex 1]" in out


def test_link_unknown_on_cone_over_rp2(tmp_path, capsys, rp2_facets):
    # the link of the apex 7 is RP²: zero rational homology, and no free face
    cone = tmp_path / "cone.code"
    cone.write_text("neurons: 7\n" + "".join(" ".join(map(str, f + (7,))) + "\n" for f in rp2_facets))
    status, out, err = run(capsys, "link", str(cone), "--face", "7")
    assert status == 0 and not err
    assert "link status: unknown [zero rational homology, greedy collapse stuck]\n" in out


def test_usage_errors_exit_1(capsys):
    status, _, err = run(capsys, "frobnicate")
    assert status == 1 and "error:" in err


def test_byte_determinism(capsys, tmp_path):
    status1, out1, _ = run(capsys, "analyze", str(CORPUS / "fan8.code"), "--homology")
    status2, out2, _ = run(capsys, "analyze", str(CORPUS / "fan8.code"), "--homology")
    assert status1 == status2 == 0 and out1 == out2

    run(capsys, "gen", "fan6", "--out", str(tmp_path / "a"))
    run(capsys, "gen", "fan6", "--out", str(tmp_path / "b"))
    assert (tmp_path / "a" / "fan6.arr").read_bytes() == (tmp_path / "b" / "fan6.arr").read_bytes()


_CODES = sorted(str(p) for p in CORPUS.glob("*.code"))
_ARRS = sorted(str(p) for p in CORPUS.glob("*.arr"))
_FAMILIES = ["an", "sn", "cn", "boxes6", "nonesuch"]
_POSITIONALS = {"analyze": [_CODES], "link": [_CODES], "code-of": [_ARRS],
                "verify": [_ARRS, _CODES], "gen": [_FAMILIES]}
_OPTIONS = {"analyze": ["--homology"], "link": ["--face"], "gen": ["--n", "--realization"]}
_TOKENS = ["3", "1 3", "0", "65", "٣", "1_0", "+3", "-3", "10000000", "9" * 5000, "", "x",
           "r2", "rn", "--homology", "--face", "--n", "-h", str(CORPUS / "nonesuch.code")]


@st.composite
def argvs(draw):
    """A subcommand, its positionals (or up to two wrong ones), some of its
    options, and perhaps one stray token; option values are edge cases or
    random text."""
    command = draw(st.sampled_from([*_POSITIONALS, "nonesuch"]))
    token = st.sampled_from(_TOKENS) | st.text(max_size=6)
    anything = st.sampled_from(_CODES + _ARRS + _FAMILIES) | token
    right = st.tuples(*(st.sampled_from(c) for c in _POSITIONALS.get(command, [])))
    argv = [command, *draw(right | st.lists(anything, max_size=2))]
    for option in _OPTIONS.get(command, []):
        if draw(st.booleans()):
            argv += [option] if option == "--homology" else [option, draw(token)]
    return argv + draw(st.lists(anything, max_size=1))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argvs())
def test_main_exits_only_with_0_1_or_2(tmp_path, capsys, argv):
    # gen writes only into the temporary directory (a later --out wins); the
    # other commands write no file
    if argv[0] == "gen":
        argv = argv + ["--out", str(tmp_path / "out")]
    try:
        status = main(argv)
    except SystemExit as exc:  # -h prints usage and exits
        status = exc.code
    capsys.readouterr()
    assert status in (0, 1, 2)


# --- the streamed analyze report ----------------------------------------------------


def render_analysis_by_lines(report):
    """The list-and-join renderer the streamed one replaced, one ``word_label``
    call per row, with rows from ``mandatory_codewords`` and the code's words;
    kept as the oracle for its bytes."""
    lines = [
        f"code: {report.code.n} neurons, {len(report.code.words)} codewords",
        "maximal codewords: " + " ".join(word_label(w) for w in report.maximal),
    ]
    if report.max_intersection.complete:
        lines.append("max-intersection complete: true")
    else:
        _, sets, value = report.max_intersection
        inter = " & ".join(word_label(w) for w in sets)
        lines.append(
            f"max-intersection complete: false (witness: {inter} = {word_label(value)} not in code)"
        )
    if report.local.verdict is True:
        verdict = "true"
    elif report.local.verdict is False:
        verdict = "false"
    else:
        verdict = "unknown"
    lines.append(f"locally good: {verdict}")
    if report.local.checked:
        for f, res in report.local.checked:
            lines.append(f"  checked face {word_label(f)}: {res.describe()}")
    else:
        lines.append("  checked faces: none (all intersections of maximal codewords present)")
    lines.append("mandatory codewords of the code complex:")
    for f, res in mandatory_codewords(simplicial_complex(report.code)).items():
        in_code = f in report.code.words
        if res.status is Contractibility.NON_CONTRACTIBLE:
            kind = "mandatory"
        elif res.status is Contractibility.CONTRACTIBLE:
            kind = "non-mandatory"
        else:
            kind = "undetermined"
        lines.append(
            f"  face {word_label(f)}: {kind} ({res.describe()}), in code: {'yes' if in_code else 'no'}"
        )
    if report.betti is not None:
        rendered = " ".join(str(b) for b in report.betti)
        lines.append(f"reduced betti numbers of the code complex: {rendered}")
    return "\n".join(lines) + "\n"


@st.composite
def small_codes(draw):
    n = draw(st.integers(1, 10))
    return NeuralCode(n, draw(st.frozensets(st.integers(0, full_word(n)), max_size=12)))


@st.composite
def large_facet_codes(draw):
    # the facet {1..m} puts most rows in blocks, a few edges may leave it,
    # and its subwords are codewords inside those blocks
    m = draw(st.integers(8, 13))
    n = m + 3
    edges = draw(st.lists(st.sets(st.integers(1, n), min_size=2, max_size=2), max_size=3))
    subwords = draw(st.lists(st.integers(1, full_word(m)), max_size=6))
    return NeuralCode(n, frozenset({full_word(m), *map(word, edges), *subwords}))


# a facet of 12 vertices and an edge that leaves it: the rows below {2} are
# a block of 1,023 rows with apex 1, those below {3} one of 511 rows, and
# those below {1,3} one of 511 rows with apex 2
FACET_12 = (full_word(12), word([1, 13]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(small_codes(), large_facet_codes()))
@example(NeuralCode(3, frozenset()))
@example(NeuralCode(3, frozenset({0})))
@example(NeuralCode(2, frozenset({word([1]), word([2])})))
# the cone on 2 is the certificate of {1} (in the code) and of {1,3} (not)
@example(NeuralCode(3, frozenset({word([1, 2, 3]), word([1])})))
# the rows below {2} and below {3} are blocks with apex 1, below their roots,
# and hold the codewords {2,4} and {3,5,7}: "in code" flips inside a block
@example(NeuralCode(9, frozenset({full_word(8), word([2, 4]), word([3, 5, 7]), word([1, 9])})))
# 4,097 rows, most of them in blocks longer than a chunk of 256 rows
@example(NeuralCode(13, frozenset({full_word(12), word([1, 13])})))
# locally good: unknown, and the undetermined row {7}
@example(RP2_CONE_CODE)
# codewords as the first and the last row of a block, and a block head
@example(NeuralCode(13, frozenset({*FACET_12, word([2, 3]), word([2, 12]), word([2])})))
# codewords at rows 255 and 256 of the block below {2}, where a slice of 256 rows ends
@example(NeuralCode(13, frozenset({*FACET_12, word([2, 3, 4, 11, 12]), word([2, 3, 4, 12])})))
# several codewords in the block of 511 rows below {3}, two of them adjacent
@example(NeuralCode(13, frozenset({*FACET_12, word([3, 4]), word([3, 4, 5]), word([3, 7, 9]), word([3, 11, 12])})))
# {1,3,5} lies in the block of {1,3}; its subword {3} heads a block that holds {3,5}, not it
@example(NeuralCode(13, frozenset({*FACET_12, word([1, 3, 5]), word([1, 3])})))
# {1,3,5} with its subword {3}, which heads no block of the walk without words
@example(NeuralCode(13, frozenset({*FACET_12, word([1, 3, 5]), word([3])})))
def test_streamed_analyze_matches_line_renderer(tmp_path, capsys, code):
    path = tmp_path / "c.code"
    path.write_text(serialize_code(code), encoding="utf-8")
    for homology in (False, True):
        flags = ["--homology"] if homology else []
        status, out, err = run(capsys, "analyze", str(path), *flags)
        assert status == 0 and not err
        assert out == render_analysis_by_lines(build_analysis(code, homology))


def test_analyze_renders_undetermined_rows(capsys, tmp_path):
    path = tmp_path / "c.code"
    path.write_text(serialize_code(RP2_CONE_CODE), encoding="utf-8")
    status, out, err = run(capsys, "analyze", str(path))
    assert status == 0 and not err
    assert "locally good: unknown\n" in out
    status_text = "unknown [zero rational homology, greedy collapse stuck]"
    assert f"  face {{7}}: undetermined ({status_text}), in code: no\n" in out


def test_shared_certificate_renders_both_tails(capsys, tmp_path):
    code = NeuralCode(3, frozenset({word([1, 2, 3]), word([1])}))
    table = mandatory_codewords(simplicial_complex(code))
    tails = {(id(res), f in code.words) for f, res in table.items()}
    assert any((key, not yes) in tails for key, yes in tails)
    path = tmp_path / "c.code"
    path.write_text(serialize_code(code), encoding="utf-8")
    _, out, _ = run(capsys, "analyze", str(path))
    assert "  face {1}: non-mandatory (contractible [cone apex 2]), in code: yes\n" in out
    assert "  face {1,3}: non-mandatory (contractible [cone apex 2]), in code: no\n" in out


def test_analyze_labels_rows_without_word_label(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "word_label", lambda w: calls.append(w) or word_label(w))
    path = tmp_path / "an_6.code"
    path.write_text(serialize_code(gen_an(6)), encoding="utf-8")
    status, out, _ = run(capsys, "analyze", str(path), "--homology")
    assert status == 0 and sha256(out) == ANALYZE_HOMOLOGY_SHA256["an_6"]
    assert len(calls) < 50  # one per row would be about 4,130


class ByteCount(io.TextIOBase):
    """A text sink that keeps only the byte count and the sha256 of what it gets."""

    def __init__(self):
        self.size = 0
        self.digest = hashlib.sha256()

    def write(self, s):
        data = s.encode()
        self.size += len(data)
        self.digest.update(data)
        return len(s)


def test_analyze_streams_a_large_table(tmp_path, monkeypatch):
    # {1..14},{1,15}: 2^14 + 1 rows, 1.35 MB; rendering holds a row, not the text
    path = tmp_path / "big.code"
    path.write_text("neurons: 15\n" + " ".join(map(str, range(1, 15))) + "\n1 15\n")
    build = cli.build_analysis

    def build_then_trace(*args, **kwargs):
        report = build(*args, **kwargs)
        tracemalloc.start()
        return report

    monkeypatch.setattr(cli, "build_analysis", build_then_trace)
    sink = ByteCount()
    monkeypatch.setattr(sys, "stdout", sink)
    try:
        status = main(["analyze", str(path), "--homology"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    # pinned from the list-and-join renderer
    assert sink.digest.hexdigest() == (
        "2f4c6e41bfed83e8a7649fb40a579c3c69c4b99b753ea606959713a96cb397d7"
    )
    assert sink.size == 1_352_229
    assert peak < sink.size / 4, (peak, sink.size)


def test_analyze_every_face_of_a_simplex(tmp_path, monkeypatch):
    # the 16,384 faces of the 14-simplex: finding their one maximal word
    # by comparing every pair of words took 7.7 s
    path = tmp_path / "simplex.code"
    path.write_text(serialize_code(NeuralCode(14, frozenset(range(1 << 14)))), encoding="utf-8")
    sink = ByteCount()
    monkeypatch.setattr(sys, "stdout", sink)
    start = time.perf_counter()
    assert main(["analyze", str(path)]) == 0
    assert time.perf_counter() - start < 1
    # pinned from the pairwise scan
    assert sink.digest.hexdigest() == (
        "ffe7c94f8f44e1df54a0b75f77f0e1c5f957fd20c603639e282ee217e3ca5374"
    )


def test_analysis_report_holds_about_its_text():
    # {1..14},{1,15}: the report keeps the walk's entries, which hold less
    # than the bytes written, and building it holds little more than them
    code = parse_code("neurons: 15\n" + " ".join(map(str, range(1, 15))) + "\n1 15\n")
    tracemalloc.start()
    try:
        report = build_analysis(code, include_homology=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sink = ByteCount()
    cli.render_analysis(report, sink)
    assert sink.size == 1_352_229
    assert peak < 2 * sink.size, (peak, sink.size)
    assert held < 1.1 * sink.size, (held, sink.size)


def test_rendering_a_large_facet_takes_steps_per_entry_not_per_row():
    # {1..16},{1,17}: 65,537 rows in 138 entries, most of them in blocks,
    # whose runs of rows are one join each; a Python step per block row
    # would give some 65,000 line events
    code = NeuralCode(17, frozenset({full_word(16), word([1, 17])}))
    report = build_analysis(code)
    sink = ByteCount()
    _, events = line_events(cli.render_analysis, report, sink)
    rows = 2**16 + 1
    assert sink.size == 5_603_914
    entries = len(report.mandatory_table)
    assert events < 20 * entries + 50 * len(code.words) + 20 * (rows // 256) + 200, events


@pytest.mark.parametrize("case", ["unparsable", "missing", "build-fails"])
def test_failed_analyze_writes_nothing(tmp_path, capsys, monkeypatch, case):
    path = tmp_path / "c.code"
    if case == "unparsable":
        path.write_text("neurons: 3\n1 4\n")
    elif case == "build-fails":
        path.write_text("neurons: 3\n1 2\n")

        def fail(*args, **kwargs):
            raise ValueError("build failed")

        monkeypatch.setattr(cli, "build_analysis", fail)
    status, out, err = run(capsys, "analyze", str(path), "--homology")
    assert status == 1 and out == "" and err.startswith("error: ")
