"""Exact Fourier-Motzkin feasibility on integer rows, strict and weak mixed.

A row ``key · x <= bound`` (``<`` if strict) arrives as integers and is
normalised once into stored form: the primitive vector, the bound as a
reduced num/den, the strict flag and the negated vector, the key of the
opposite row.  A row's negation is that opposite row with the strictness
flipped, a swap of fields, so solves, implication tests and atom branches
normalise nothing; only rows elimination derives are normalised as they
appear.  Systems hold the stored rows as they are and every step reads
that one layout, so a record of the input rows behind a derived row would
be one more field of it.  Feasibility is Fourier-Motzkin elimination on
these rows in integers, exact with mixed strict/weak rows, which is what
lets a single engine decide both open and closed semantics.  Only
eliminations with more than two variables left store derived rows; the last
folds each row pair straight into a bound on the other variable.  One fold,
the tightest lower and upper bound with strict winning a tie, decides that
last window and picks each coordinate in back-substitution, as integers over
one common denominator.  A solve is incremental: it copies a system, adds
only its new rows (which alone may prove it empty), then eliminates, and the
extended system is kept for the solves that build on it.

Callers store rows (``_stored_rows``), extend a system, solve, ask a system
whether it ``implies`` a row, negate a row and test whether all rows of a
set hold at a point (``_holds``); the stored-row layout and a system's rows
are read only here.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Iterable, Sequence

# ``key · x <= num / den`` as a system stores it: key primitive (or zero, for
# a row that holds nowhere), den > 0 and coprime to num, and the negated key
_Stored = tuple[tuple[int, ...], int, int, bool, tuple[int, ...]]
# a point as integer numerators over one common denominator
_IntPoint = tuple[list[int], int]


def _store(coeffs: Sequence[int], num: int, den: int, strict: bool) -> _Stored | None:
    """``coeffs · x <= num / den`` (``<`` if strict, ``den > 0``) in stored form.

    None if the row holds everywhere; a zero row that holds nowhere is its own opposite.
    """
    g = gcd(*coeffs)
    if g == 0:
        if num > 0 or (num == 0 and not strict):
            return None
        return tuple(coeffs), num, den, strict, tuple(coeffs)
    if g == 1:
        key = tuple(coeffs)
    else:
        key = tuple([v // g for v in coeffs])
        den *= g
    if den != 1 and (h := gcd(num, den)) != 1:
        num //= h
        den //= h
    return key, num, den, strict, tuple([-v for v in key])


def _stored_rows(rows: Iterable[tuple[Sequence[int], int, bool]]) -> tuple[_Stored, ...]:
    """Integer rows ``(key, bound, strict)`` stored, those that hold everywhere left out."""
    return tuple([s for key, bound, strict in rows if (s := _store(key, bound, 1, strict))])


def _negate(row: _Stored) -> _Stored:
    """The row covering the complement of row."""
    key, num, den, strict, neg = row
    return neg, -num, den, not strict, key


def _holds(rows: Iterable[_Stored], point: _IntPoint) -> bool:
    """Whether every row holds at point."""
    nums, den = point
    for key, num, d, strict, _ in rows:
        lhs = sum(map(mul, key, nums)) * d
        rhs = num * den
        if lhs > rhs or (strict and lhs == rhs):
            return False
    return True


class _Infeasible(Exception):
    pass


class _IneqSystem:
    """Weak/strict rows keyed by primitive vector, with dominance pruning.

    ``add`` is the one way in, and ``rows`` maps each primitive vector to the
    stored row itself, the tuple ``_store`` made or the caller passed (a
    record of the input rows behind a derived row would be one more field of
    ``_Stored``).  For equal directions only the tightest bound is kept,
    compared by cross-multiplication.  Opposite directions are checked for an
    empty feasibility window as rows are added, which is what decides an
    equality, two opposite weak rows.
    """

    def __init__(self) -> None:
        self.rows: dict[tuple[int, ...], _Stored] = {}

    def add(self, row: _Stored) -> None:
        """Add a stored row; raise _Infeasible if it empties the system."""
        if self.implies(row):
            return
        key, num, den, strict, neg = row
        self.rows[key] = row
        opp = self.rows.get(neg)
        if opp is not None:
            # key·x <= num/den and key·x >= -opp_num/opp_den
            width = num * opp[2] + opp[1] * den
            if width < 0 or (width == 0 and (strict or opp[3])):
                raise _Infeasible

    def implies(self, row: _Stored) -> bool:
        """Whether the system keeps row's direction with a bound at least as tight.

        One dict lookup; no elimination runs, so False proves nothing.
        """
        key, num, den, strict, _ = row
        old = self.rows.get(key)
        if old is None:
            return False
        diff = num * old[2] - old[1] * den
        return diff > 0 or (diff == 0 and (old[3] or not strict))


def _split(system: _IneqSystem, k: int) -> tuple[list[_Stored], ...]:
    """The rows of system that bound x_k from below, from above, and the others."""
    lowers: list[_Stored] = []
    uppers: list[_Stored] = []
    others: list[_Stored] = []
    for row in system.rows.values():
        a = row[0][k]
        (lowers if a < 0 else uppers if a > 0 else others).append(row)
    return lowers, uppers, others


def _eliminate(system: _IneqSystem, k: int) -> tuple[list[_Stored], _IneqSystem]:
    """Remove x_k: the rows that bound it, and the system they imply without it."""
    lowers, uppers, others = _split(system, k)
    new = _IneqSystem()
    new.rows = {row[0]: row for row in others}
    for lkey, ln, ld, ls, _ in lowers:
        la = -lkey[k]
        for ukey, un, ud, us, _ in uppers:
            ua = ukey[k]
            combined = [ua * lv + la * uv for lv, uv in zip(lkey, ukey)]
            # an opposite pair cancels to 0 <= ua * (lb + ub), which add's
            # window check already decided
            if any(combined):
                new.add(_store(combined, ua * ln * ud + la * un * ld, ld * ud, ls or us))
    return lowers + uppers, new


def _extend(system: _IneqSystem, rows: Iterable[_Stored]) -> _IneqSystem | None:
    """A copy of system with rows added, or None if adding them proves it empty."""
    new = _IneqSystem()
    new.rows = system.rows.copy()
    try:
        for row in rows:
            new.add(row)
    except _Infeasible:
        return None
    return new


def _fold(bounds: Iterable[tuple[int, int, bool]]) -> tuple[int, int]:
    """A value ``vn / vd`` (reduced, ``vd > 0``) of x within bounds ``q·x <= n``, ``q != 0``.

    The tightest lower and upper bound are kept, strict winning a tie, and x
    is their midpoint, or the one bound that exists (moved inside by 1 if
    strict), or 0.  Raises _Infeasible if the two leave an empty window.
    """
    lo: tuple[int, int, bool] | None = None
    hi: tuple[int, int, bool] | None = None
    for n, q, s in bounds:
        if q < 0:
            n, q = -n, -q  # x >= n/q
            if lo is None or (diff := n * lo[1] - lo[0] * q) > 0 or (diff == 0 and s):
                lo = (n, q, s)
        elif hi is None or (diff := n * hi[1] - hi[0] * q) < 0 or (diff == 0 and s):
            hi = (n, q, s)
    if hi is None:
        if lo is None:
            return 0, 1
        vn, vd = (lo[0] + lo[1] if lo[2] else lo[0]), lo[1]
    elif lo is None:
        vn, vd = (hi[0] - hi[1] if hi[2] else hi[0]), hi[1]
    else:
        width = hi[0] * lo[1] - lo[0] * hi[1]
        if width < 0 or (width == 0 and (lo[2] or hi[2])):
            raise _Infeasible
        if width == 0:
            vn, vd = lo[0], lo[1]
        else:
            vn, vd = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
    g = gcd(vn, vd)
    return vn // g, vd // g


def _witness(system: _IneqSystem, dim: int) -> _IntPoint | None:
    """A point of the system by elimination and back-substitution, or None.

    While more than two variables are active, ``_eliminate`` removes one
    into a new system and leaves this one as it is.  The last two, x_k and
    x_j, build no system: each lower × upper pair of x_k's rows combines
    straight into a bound on x_j, and ``_fold`` picks x_j within those and
    the rows without x_k, or proves the window empty.  Then x_k (or a lone
    active variable) and the eliminated variables, last first, are picked by
    the same fold over the rows that bound each.
    """
    steps: list[tuple[int, list[_Stored]]] = []
    nums = [0] * dim
    den = 1
    try:
        while system.rows:
            # eliminate the variable with the fewest lower × upper row pairs,
            # the lowest index on a tie, in one pass over the columns
            active = []
            for i, col in enumerate(zip(*system.rows)):
                lows = ups = 0
                for v in col:
                    if v < 0:
                        lows += 1
                    elif v > 0:
                        ups += 1
                if lows or ups:
                    if not active or lows * ups < fewest:
                        k, fewest = i, lows * ups
                    active.append(i)
            if len(active) > 2:
                bounding, system = _eliminate(system, k)
                steps.append((k, bounding))
                continue
            lowers, uppers, others = _split(system, k)
            if len(active) == 2:
                # x_k's row pairs give q·x_j <= n; opposite rows cancel, as add decided
                j = active[0] + active[1] - k
                bounds = [(n, d * key[j], s) for key, n, d, s, _ in others]
                for lkey, ln, ld, ls, _ in lowers:
                    la = -lkey[k]
                    for ukey, un, ud, us, _ in uppers:
                        ua = ukey[k]
                        if q := ua * lkey[j] + la * ukey[j]:
                            bounds.append((ua * ln * ud + la * un * ld, q * ld * ud, ls or us))
                nums[j], den = _fold(bounds)
            steps.append((k, lowers + uppers))
            break
    except _Infeasible:
        return None
    # the witness is nums / den, den the lcm of the coordinates' denominators;
    # x_k is still 0 while its bounds are computed, and their window is not empty
    for k, bounding in reversed(steps):
        # key·x <= n/d bounds x_k by d·den·key[k]·x_k <= n·den - d·(key·nums)
        vn, vd = _fold(
            [(n * den - d * sum(map(mul, key, nums)), d * den * key[k], s)
             for key, n, d, s, _ in bounding]
        )
        if den % vd:
            scale = vd // gcd(den, vd)
            nums = [v * scale for v in nums]
            den *= scale
        nums[k] = vn * (den // vd)
    return nums, den


def _solve(
    system: _IneqSystem, rows: Iterable[_Stored], dim: int
) -> tuple[_IneqSystem, _IntPoint] | None:
    """Solve system with rows added: the extended system and its witness, or None.

    Every Fourier-Motzkin solve runs through here.  The witness's
    denominator is the lcm of its coordinates' reduced denominators.
    """
    extended = _extend(system, rows)
    if extended is None:
        return None
    w = _witness(extended, dim)
    return None if w is None else (extended, w)
