from __future__ import annotations

import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexcodes import Rel, Topology, formats, neural_code, word
from convexcodes.formats import (
    ParseError,
    _parse_number,
    parse_arrangement,
    parse_code,
    serialize_arrangement,
    serialize_code,
)
from convexcodes.generators import corpus, sunflower3_code, sunflower3_realization

Q = Fraction
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_parse_code_sunflower():
    text = "neurons: 3\n1 2 3\n1\n2\n3\n-\n"
    assert parse_code(text) == sunflower3_code()


def test_parse_code_single_empty_word():
    assert parse_code("neurons: 1\n-\n") == neural_code(1, [[]])


def test_parse_code_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_code("neurons: 2\n3\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_code("")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_code("neurons: x\n")
    with pytest.raises(ParseError):
        parse_code("1 2\n")
    with pytest.raises(ParseError) as err:
        parse_code("neurons: 2\n1\nfoo\n")
    assert err.value.line == 3


def test_parse_code_rejects_neuron_count_above_cap():
    with pytest.raises(ParseError) as err:
        parse_code("# header next\nneurons: 65\n1\n")
    assert err.value.line == 2 and "64" in str(err.value)
    assert parse_code("neurons: 64\n64\n").n == 64


def test_parse_code_comments_and_duplicates():
    text = "# corpus file\nneurons: 2\n1 2\n1 2  # repeated below\n2 1\n"
    code = parse_code(text)
    assert code.words == {word([1, 2])}


def test_serialize_code_canonical_order():
    code = neural_code(3, [[2], [1, 3], [], [1, 2, 3]])
    assert serialize_code(code) == "neurons: 3\n-\n1 2 3\n1 3\n2\n"


def test_code_round_trip_on_corpus():
    for entry in corpus():
        text = serialize_code(entry.code)
        assert parse_code(text) == entry.code
        assert serialize_code(parse_code(text)) == text


def test_parse_arrangement_interval():
    text = "dimension: 1\ntopology: closed\nset 1\n1 <= 1\n-1 <= 0\n"
    arr = parse_arrangement(text)
    assert arr.dim == 1 and arr.topology is Topology.CLOSED and arr.n == 1
    assert arr.sets[0].constraints[0].rel is Rel.LE
    assert serialize_arrangement(arr) == text


def test_parse_arrangement_rationals_are_canonicalized():
    text = "dimension: 1\ntopology: closed\nset 1\n2/4 <= -6/4\n"
    arr = parse_arrangement(text)
    c = arr.sets[0].constraints[0]
    assert c.coeffs == (Q(1, 2),) and c.bound == Q(-3, 2)
    assert serialize_arrangement(arr) == "dimension: 1\ntopology: closed\nset 1\n1/2 <= -3/2\n"


@pytest.mark.parametrize(
    "token",
    ["1e10000000", "1E5", "0.5", ".5", "1_000", "1/2e3", "inf", "1/"]
    # more digits than int() converts
    + [pytest.param("9" * 5000, id="9x5000")],
)
def test_parse_arrangement_rejects_numbers_outside_grammar(token):
    text = f"dimension: 1\ntopology: closed\nset 1\n1 <= 0\n{token} <= 1\n"
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_arrangement(text)
    assert time.perf_counter() - start < 0.1
    assert err.value.line == 5 and repr(token) in str(err.value)


# each template puts the token where the value 1 is valid, on the given line
COUNT_FIELDS = {
    "neurons": (parse_code, "neurons: {}\n1\n", 1),
    "neuron-index": (parse_code, "neurons: 1\n{}\n", 2),
    "dimension": (parse_arrangement, "dimension: {}\ntopology: closed\nset 1\n1 <= 0\n", 1),
    "set": (parse_arrangement, "dimension: 1\ntopology: closed\nset {}\n1 <= 0\n", 3),
}


@pytest.mark.parametrize("field", sorted(COUNT_FIELDS))
@pytest.mark.parametrize("token", ["0_1", "+1", "\u0661", "\uff11", "\u00b9", "1.0", "0x1", "1e0"])
def test_counts_and_indices_are_ascii_decimal(field, token):
    parse, template, line = COUNT_FIELDS[field]
    assert parse(template.format("01"))
    with pytest.raises(ParseError) as err:
        parse(template.format(token))
    assert err.value.line == line and repr(token) in str(err.value)


def test_parse_code_reads_ten_as_ten_only():
    with pytest.raises(ParseError) as err:
        parse_code("neurons: 1_0\n1_0\n")
    assert err.value.line == 1
    assert parse_code("neurons: 10\n10\n") == neural_code(10, [[10]])


@pytest.mark.parametrize("token", ["3", "-3", "+3", "3/7", "-6/4", "007", "1/0", "1/00"])
def test_parse_number_agrees_with_fraction(token):
    text = f"dimension: 1\ntopology: closed\nset 1\n{token} <= 1\n"
    try:
        want = Fraction(token)
    except ZeroDivisionError:
        with pytest.raises(ParseError) as err:
            parse_arrangement(text)
        assert err.value.line == 4 and f"bad number {token!r}" in str(err.value)
        return
    got = parse_arrangement(text).sets[0].constraints[0].coeffs[0]
    assert type(got) is Fraction and got == want


def oracle_number(token: str) -> Fraction | None:
    """The number grammar by hand: a sign, ASCII digits, then maybe / and ASCII digits."""
    num, slash, den = token.partition("/")
    unsigned = num[1:] if num[:1] in ("+", "-") else num

    def digits(text: str) -> bool:
        return text != "" and all(c in "0123456789" for c in text)

    if not digits(unsigned) or (slash and (not digits(den) or int(den) == 0)):
        return None
    return Fraction(int(num), int(den) if slash else 1)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="+-0123456789/_.e\u0663\uff11\u00b9", min_size=1, max_size=6))
@example("+0")
@example("-0")
@example("007")
@example("1_0")
@example("\u0663")
@example("-")
def test_parse_number_matches_the_grammar(token):
    want = oracle_number(token)
    if want is None:
        with pytest.raises(ParseError) as err:
            _parse_number(token, 4)
        assert err.value.line == 4 and f"bad number {token!r}" in str(err.value)
    else:
        got = _parse_number(token, 4)
        assert type(got) is Fraction and got == want


def test_parse_arrangement_accepts_signed_integers_and_fractions():
    arr = parse_arrangement("dimension: 2\ntopology: closed\nset 1\n+3 -1/2 <= -0\n")
    c = arr.sets[0].constraints[0]
    assert c.coeffs == (Q(3), Q(-1, 2)) and c.bound == 0


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.arr")), ids=lambda p: p.stem)
def test_each_distinct_number_is_parsed_once(monkeypatch, path):
    calls = []

    def counted(token, lineno):
        calls.append(token)
        return _parse_number(token, lineno)

    text = path.read_text(encoding="utf-8")
    numbers = {
        t
        for line in text.splitlines()
        if line and not line.startswith(("dimension:", "topology:", "set"))
        for t in line.split()
        if t not in ("<=", "=")
    }
    monkeypatch.setattr(formats, "_parse_number", counted)
    # the table lives for one call, so a second parse reads each number again
    assert parse_arrangement(text) == parse_arrangement(text)
    assert len(calls) == 2 * len(numbers) and set(calls) == numbers


def test_a_repeated_bad_number_reports_its_first_line():
    text = "dimension: 1\ntopology: closed\nset 1\n1 <= 0\n0.5 <= 1\n0.5 <= 2\n"
    with pytest.raises(ParseError) as err:
        parse_arrangement(text)
    assert err.value.line == 5


def test_parse_arrangement_rejects_open_equality():
    text = "dimension: 1\ntopology: open\nset 1\n1 = 0\n"
    with pytest.raises(ParseError) as err:
        parse_arrangement(text)
    assert "open" in str(err.value)


def test_parse_arrangement_structural_errors():
    with pytest.raises(ParseError):
        parse_arrangement("topology: closed\n")
    with pytest.raises(ParseError):
        parse_arrangement("dimension: 2\ntopology: closed\n1 0 <= 1\n")
    with pytest.raises(ParseError):
        parse_arrangement("dimension: 2\ntopology: closed\nset 2\n")
    with pytest.raises(ParseError):
        parse_arrangement("dimension: 2\ntopology: closed\nset 1\n1 <= 1\n")
    with pytest.raises(ParseError):
        parse_arrangement("dimension: 2\ntopology: sideways\nset 1\n")
    with pytest.raises(ParseError):
        parse_arrangement("dimension: 2\ntopology: closed\n")


def test_arrangement_round_trip_on_corpus():
    for entry in corpus():
        for real in entry.realizations:
            text = serialize_arrangement(real.arrangement)
            parsed = parse_arrangement(text)
            assert parsed == real.arrangement
            assert serialize_arrangement(parsed) == text


def test_serialize_preserves_constraint_order():
    arr = sunflower3_realization()
    text = serialize_arrangement(arr)
    lines = text.splitlines()
    first_block = lines[lines.index("set 1") + 1 : lines.index("set 2")]
    assert first_block == ["-1 0 <= 9", "1 0 <= 2", "0 -1 <= 0", "0 1 <= 2"]


def test_serialize_is_deterministic():
    a = serialize_arrangement(sunflower3_realization())
    b = serialize_arrangement(sunflower3_realization())
    assert a == b
    assert serialize_code(sunflower3_code()) == serialize_code(sunflower3_code())


# --- fuzzing: header-shaped text with random tokens ---------------------------------

FUZZ_TOKENS = st.one_of(
    st.sampled_from(
        ["0", "1", "2", "3", "-1", "1_0", "\u0663", "\uff13", "1/0", "1/2", "=", "<", "<=",
         "-", "#", "set", "open", "closed", "9" * 5000, "9" * 40, "-" + "9" * 5000]
    ),
    st.text(max_size=4),
)
HEADER_LINES = st.sampled_from(["neurons: {}", "dimension: {}", "topology: {}", "set {}"]).flatmap(
    lambda line: FUZZ_TOKENS.map(line.format)
)
BODY_LINES = st.one_of(
    st.builds("set {}".format, FUZZ_TOKENS), st.lists(FUZZ_TOKENS, max_size=5).map(" ".join)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(HEADER_LINES, max_size=3), st.lists(BODY_LINES, max_size=6))
def test_parsers_raise_only_parse_error(headers, body):
    text = "\n".join(headers + body) + "\n"
    for parse in (parse_code, parse_arrangement):
        try:
            parse(text)
        except ParseError:
            pass
