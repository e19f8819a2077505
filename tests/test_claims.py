"""Claims ledger: each claim of the paper's abstract as one line with its status.

Run with ``pytest -s tests/test_claims.py`` to see the lines.  A claim is
CERTIFIED when a check here verifies it, CITED when it is a published
theorem, stated with its reference in its entry's docstring, and ASSERTED
when the repository states it without proof.  Only a CERTIFIED check can
fail: the ASSERTED lines mark what the engine does not yet reproduce.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from convexcodes import Topology, code_of_arrangement, is_locally_good
from convexcodes.formats import parse_arrangement, parse_code
from convexcodes.generators import gen_an, gen_cn, realization_an_r2, realization_cn_rn

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

CERTIFIED, CITED, ASSERTED = "CERTIFIED", "CITED", "ASSERTED"
LEDGER = []


def claim(status):
    def add(fn):
        LEDGER.append((status, fn))
        return fn

    return add


def read_code(name):
    return parse_code((CORPUS / f"{name}.code").read_text(encoding="utf-8"))


def closed_realization(stem, name, dim):
    """The corpus arrangement ``stem`` is closed, in R^dim, and extracts to
    the corpus code ``name``."""
    arr = parse_arrangement((CORPUS / f"{stem}.arr").read_text(encoding="utf-8"))
    closed_code(arr, read_code(name), dim)


def closed_code(arr, code, dim):
    """The arrangement is closed, in R^dim, and extracts to ``code``."""
    assert arr.topology is Topology.CLOSED and arr.dim == dim, (arr.n, arr.dim)
    assert code_of_arrangement(arr) == code, (arr.n, arr.dim)


@claim(CITED)
def open_convexity_is_monotone():
    """adding non-maximal codewords keeps open convexity

    Cruz, Giusti, Itskov and Kronholm, *On open and closed convex codes*
    (2019): if C is open convex and C ⊆ D with the same maximal codewords,
    then D is open convex.
    """


@claim(CERTIFIED)
def fan8_is_closed_convex():
    """fan8 is closed convex (fan8.arr extracts to fan8.code)"""
    closed_realization("fan8", "fan8", 2)


@claim(ASSERTED)
def fan8_plus_is_not_closed_convex():
    """fan8_plus, fan8 with the non-maximal word {2,7,8}, is not closed convex

    The paper's proof is geometric; no check here reproduces it.
    """


@claim(CERTIFIED)
def fan8_plus_is_locally_good():
    """fan8_plus is locally good"""
    assert is_locally_good(read_code("fan8_plus")).verdict is True


@claim(CITED)
def open_dimension_rises_by_at_most_one():
    """adding non-maximal codewords raises the open embedding dimension by at most 1

    Cruz, Giusti, Itskov and Kronholm, *On open and closed convex codes*
    (2019): if C is open convex in R^d and C ⊆ D with the same maximal
    codewords, then D is open convex in R^(d+1).
    """


@claim(CERTIFIED)
def an_closed_dimension_at_most_2():
    """the closed embedding dimension of an_n is at most 2 (an_r2_n extracts to an_n, n = 2..31)"""
    for n in range(2, 6):
        closed_realization(f"an_r2_{n}", f"an_{n}", 2)
    for n in range(6, 32):
        closed_code(realization_an_r2(n), gen_an(n), 2)


@claim(CERTIFIED)
def cn_closed_dimension_at_most_n():
    """the closed embedding dimension of cn_n is at most n (cn_rn_n extracts to cn_n, n = 2..16)"""
    for n in range(2, 5):
        closed_realization(f"cn_rn_{n}", f"cn_{n}", n)
    for n in range(5, 17):
        closed_code(realization_cn_rn(n), gen_cn(n), n)


@claim(ASSERTED)
def cn_closed_dimension_is_unbounded():
    """the closed embedding dimension of cn_n grows without bound

    an_n and cn_n have the same simplicial complex, so bounds read from the
    complex cannot separate them; the paper's lower bound is an argument on
    the code that no check here reproduces.
    """


@claim(ASSERTED)
def goldrup_phillipson_conjecture_fails():
    """the conjecture of Goldrup and Phillipson fails

    The repository does not name the counterexample.
    """


@claim(ASSERTED)
def neither8_is_neither():
    """neither8 is neither open convex nor closed convex

    The paper's proof is geometric; no check here reproduces it.
    """


@claim(CERTIFIED)
def neither8_is_locally_good():
    """neither8 is locally good"""
    assert is_locally_good(read_code("neither8")).verdict is True


@pytest.mark.parametrize("status, fn", LEDGER, ids=[fn.__name__ for _, fn in LEDGER])
def test_claim(status, fn):
    text = fn.__doc__.splitlines()[0]
    if status == CERTIFIED:
        try:
            fn()
        except BaseException:
            print(f"[claims] FAILED    - {text}")
            raise
    print(f"[claims] {status:<9} - {text}")
