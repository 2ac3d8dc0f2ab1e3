"""Exponent table, sieve thresholds, the prime sieve."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvsieve import sieve
from pvsieve.spaces import CUBIC, QUARTIC


# ---------------------------------------------------------------------------
# exponent table
# ---------------------------------------------------------------------------

def test_exponent_table_values():
    rows, alpha_max, bottleneck = sieve.exponent_table(QUARTIC)
    by_j = {r.j: r for r in rows}
    assert set(by_j) == {4, 7, 8, 10, 11, 12}
    assert (by_j[4].x_exponent, by_j[4].n_exponent, by_j[4].alpha_cap) == \
        (Fraction(2, 3), 2, Fraction(1, 6))
    assert (by_j[7].x_exponent, by_j[7].n_exponent, by_j[7].alpha_cap) == \
        (Fraction(5, 12), 4, Fraction(7, 48))
    assert (by_j[8].n_exponent, by_j[8].alpha_cap) == (4, Fraction(1, 6))
    assert (by_j[10].n_exponent, by_j[10].alpha_cap) == (5, Fraction(1, 6))
    assert by_j[11].alpha_cap == Fraction(11, 60)
    assert (by_j[12].x_exponent, by_j[12].alpha_cap) == (0, Fraction(1, 5))
    assert alpha_max == Fraction(7, 48)
    assert bottleneck == 7
    # the orbit dimensions are the pair space's: no table for the cubic
    with pytest.raises(ValueError, match="pair space"):
        sieve.exponent_table(CUBIC)


def test_exponent_rows_solve_balance_equation():
    rows, _, _ = sieve.exponent_table(QUARTIC)
    for r in rows:
        assert r.x_exponent + r.alpha_cap * r.n_exponent == 1


# ---------------------------------------------------------------------------
# weighted-sieve threshold
# ---------------------------------------------------------------------------

def test_weighted_sieve_thresholds():
    assert sieve.weighted_sieve_t(Fraction(7, 48)) == 8
    assert sieve.weighted_sieve_t(Fraction(1, 2)) == 3
    assert sieve.weighted_sieve_t(1) == 2
    assert sieve.weighted_sieve_t(Fraction(7, 48), sieve.GREAVES_CONSTANT) == 7


def test_weighted_sieve_rejects_nonpositive():
    with pytest.raises(ValueError):
        sieve.weighted_sieve_t(0)
    with pytest.raises(ValueError):
        sieve.weighted_sieve_t(Fraction(-1, 3))


def test_weighted_sieve_boundary_exactness():
    """Thresholds within 1e-11 of an integer must be decided exactly."""
    import decimal
    decimal.getcontext().prec = 50
    log43 = decimal.Decimal(4).ln() / decimal.Decimal(3).ln()
    # 1/alpha a hair above / below t + 1 - log4/log3 for t = 5
    for inv_alpha in (Fraction(473814049286, 10 ** 11),
                      Fraction(473814049285, 10 ** 11)):
        thr = decimal.Decimal(inv_alpha.numerator) / inv_alpha.denominator \
            + log43 - 1
        want = int(thr) + 1          # thr is never an integer
        assert sieve.weighted_sieve_t(1 / inv_alpha) == want


@given(st.fractions(min_value=Fraction(1, 40), max_value=4, max_denominator=500))
@settings(max_examples=80, deadline=None)
def test_weighted_sieve_matches_float_away_from_boundary(alpha):
    import math
    t = sieve.weighted_sieve_t(alpha)
    thr = 1 / float(alpha) + math.log(4) / math.log(3) - 1
    assert t >= thr - 1e-6
    assert t - 1 < thr + 1e-6


@given(st.fractions(min_value=Fraction(1, 30), max_value=2, max_denominator=500),
       st.fractions(min_value=Fraction(1, 30), max_value=2, max_denominator=500))
@settings(max_examples=60, deadline=None)
def test_weighted_sieve_monotone(a1, a2):
    lo, hi = min(a1, a2), max(a1, a2)
    assert sieve.weighted_sieve_t(lo) >= sieve.weighted_sieve_t(hi)


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

def test_primes_upto():
    assert sieve.primes_upto(1).size == 0
    assert sieve.primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(sieve.primes_upto(10_000)) == 1229


def test_primes_upto_keeps_one_copy_of_its_primes():
    # the mask and one int64 array of the 664 579 primes below 10^7, and
    # nothing more than 1 MB beside them
    import tracemalloc
    n = 10 ** 7
    tracemalloc.start()
    try:
        ps = sieve.primes_upto(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ps.dtype == np.int64 and ps.size == 664579
    assert peak <= (n + 1) + ps.nbytes + 2 ** 20


def test_squarefree_upto_matches_its_mask():
    # one int64 array of the mask's indices: the same values as the
    # copying np.nonzero(mask)[0].astype(np.int64) it replaced
    for n in (0, 1, 2, 3, 4, 8, 9, 10, 97, 1000, 10 ** 4):
        mask = np.ones(n + 1, dtype=bool)
        mask[0] = False
        for d in range(2, n + 1):
            mask[d * d::d * d] = False
        got = sieve.squarefree_upto(n)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.nonzero(mask)[0].astype(np.int64))


def test_squarefree_upto_keeps_one_copy():
    # the mask and one int64 array of the 6 079 291 squarefree numbers up
    # to 10^7, and nothing more than 1 MB beside them
    import tracemalloc
    n = 10 ** 7
    tracemalloc.start()
    try:
        sq = sieve.squarefree_upto(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sq.size == 6079291
    assert peak <= (n + 1) + sq.nbytes + 2 ** 20
