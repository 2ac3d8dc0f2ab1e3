"""Exponent bookkeeping and sieve-threshold arithmetic.

Two small pieces of exact arithmetic sit underneath the counting work:

* the exponent table for the pair space: summing X^{1-j/12} N^{j+fc+1}
  over the singular orbit dimensions j and asking where each term stays
  below X forces N <= X^alpha with alpha < j / (12 (j + fc + 1)); the
  minimum over rows is 7/48, attained at j = 7.  The decay exponents fc
  are fourier.FC_BY_DIM, read off the closed forms that brute force
  verifies, so no fc is typed in here;

* the weighted-sieve prime budget t >= 1/alpha + log4/log3 - 1, decided
  by integer comparisons of powers of 3 and 4 so a threshold can never
  flip on floating-point noise.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fourier import FC_BY_DIM
from .spaces import QUARTIC

# truncation of the Greaves constant 1.124...; replaces log4/log3 when the
# sharper weighted sieve is wanted
GREAVES_CONSTANT = Fraction(1124, 1000)


@dataclass(frozen=True)
class ExponentRow:
    j: int
    x_exponent: Fraction
    n_exponent: int
    alpha_cap: Fraction


def exponent_table(space):
    """Per-dimension error exponents and the level-of-distribution cap.

    Returns (rows, alpha_max, bottleneck_j).  The orbit dimensions are the
    pair space's, so any other space is refused."""
    if space is not QUARTIC:
        raise ValueError("the exponent table is for the pair space")
    d = space.r                                 # the degree of disc
    rows = []
    for j in sorted(FC_BY_DIM.keys() - {0}):    # the singular dimensions
        n_exp = j + FC_BY_DIM[j] + 1
        row = ExponentRow(j=j,
                          x_exponent=1 - Fraction(j, d),
                          n_exponent=n_exp,
                          alpha_cap=Fraction(j, d * n_exp))
        rows.append(row)
    alpha_max = min(r.alpha_cap for r in rows)
    bottleneck = next(r.j for r in rows if r.alpha_cap == alpha_max)
    return rows, alpha_max, bottleneck


def _ge_log43(x):
    """Exact decision of x >= log4/log3 for rational x.

    Small denominators go through the bigint equivalence
    x = e/a >= log_3 4  iff  3^e >= 4^a; otherwise a certified decimal
    enclosure of log4/log3 is tightened until it excludes x (termination
    is guaranteed because the constant is irrational)."""
    if x < 1:
        return False
    if x >= 2:
        return True
    a = x.denominator
    if a <= 4096:
        return 3 ** x.numerator >= 4 ** a
    import decimal
    prec = 40
    while prec <= 4000:
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            mid = Fraction(decimal.Decimal(4).ln() / decimal.Decimal(3).ln())
        rad = Fraction(10) ** (4 - prec)
        if x >= mid + rad:
            return True
        if x < mid - rad:
            return False
        prec *= 2
    raise RuntimeError(f"could not separate {x} from log4/log3")


def weighted_sieve_t(alpha, constant=None):
    """Smallest integer t with t >= 1/alpha + c - 1, c = log4/log3.

    The defining inequality is settled exactly (never by a float): with
    alpha = a/b the condition reads (t+1)a - b >= a log_3 4, decided by
    _ge_log43.  Passing constant=GREAVES_CONSTANT (or any rational)
    replaces log4/log3 by that value, decided by cross-multiplication.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    a, b = alpha.numerator, alpha.denominator

    if constant is None:
        def ok(t):
            return _ge_log43(Fraction((t + 1) * a - b, a))
    else:
        c = Fraction(constant)

        def ok(t):
            return Fraction((t + 1) * a - b, a) >= c

    t = max(1, b // a - 1)
    while not ok(t):
        t += 1
    return t


def primes_upto(n):
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return np.flatnonzero(mask)


def squarefree_upto(n):
    """All squarefree integers in [1, n], ascending."""
    if n < 1:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[0] = False
    for p in range(2, int(n ** 0.5) + 1):
        mask[p * p::p * p] = False
    return np.flatnonzero(mask)
