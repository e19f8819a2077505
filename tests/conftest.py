from __future__ import annotations

import sys

import pytest

from convexcodes import code_of_arrangement
from convexcodes.generators import corpus


@pytest.fixture(scope="session")
def corpus_entries():
    return corpus()


@pytest.fixture(scope="session")
def extracted_codes(corpus_entries):
    """Arrangement codes computed once per session, keyed by realization stem."""
    out = {}
    for entry in corpus_entries:
        for real in entry.realizations:
            out[real.stem] = code_of_arrangement(real.arrangement)
    return out


# the 6-vertex real projective plane: every edge lies in two triangles, so
# no face is free, and its reduced rational homology is zero
RP2_FACETS = (
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
)


@pytest.fixture(scope="session")
def rp2_facets():
    return RP2_FACETS


def line_events(func, *args):
    """Call func(*args) and count the line events of ``sys.settrace`` in its
    frame and in every frame it runs, its comprehensions and the functions
    it calls; a loop gives one event per pass.  Returns the result and the count."""
    code = func.__code__
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def enter(frame, event, arg):
        # a comprehension's frame, or a callee's, has func's frame below it
        while frame is not None and frame.f_code is not code:
            frame = frame.f_back
        return None if frame is None else local

    old = sys.gettrace()
    sys.settrace(enter)
    try:
        result = func(*args)
    finally:
        sys.settrace(old)
    return result, count
