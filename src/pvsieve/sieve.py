"""Exponent bookkeeping and sieve-threshold arithmetic.

Three small pieces of exact arithmetic sit underneath the counting work:

* the exponent table for the pair space: summing X^{1-j/12} N^{j+fc+1}
  over the singular orbit dimensions j and asking where each term stays
  below X forces N <= X^alpha with alpha < j / (12 (j + fc + 1)); the
  minimum over rows is 7/48, attained at j = 7;

* the weighted-sieve prime budget t >= 1/alpha + log4/log3 - 1, decided
  by integer comparisons of powers of 3 and 4 so a threshold can never
  flip on floating-point noise;

* the linear-sieve hypotheses on omega(p) = density of p | disc:
  omega(p) < 1 and |omega(p) - 1/p| < C/p^2, with the smallest C
  witnessed exactly.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fourier
from .orbits import FC_BY_DIM

SINGULAR_DIMS = (4, 7, 8, 10, 11, 12)

# truncation of the Greaves constant 1.124...; replaces log4/log3 when the
# sharper weighted sieve is wanted
GREAVES_CONSTANT = Fraction(1124, 1000)


@dataclass(frozen=True)
class ExponentRow:
    j: int
    x_exponent: Fraction
    n_exponent: int
    alpha_cap: Fraction


@dataclass
class LinearSieveReport:
    space_id: str
    p_max: int
    c_witness: Fraction       # max over tested p of p^2 |omega(p) - 1/p|
    c_witness_prime: int
    smallest_int_c: int       # least integer C with strict < at every tested p
    c3_strict: bool
    omega_below_one: bool


def exponent_table(space):
    """Per-dimension error exponents and the level-of-distribution cap.

    Returns (rows, alpha_max, bottleneck_j)."""
    d = space.d
    rows = []
    for j in SINGULAR_DIMS:
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
    return np.nonzero(mask)[0].astype(np.int64)


def squarefree_upto(n):
    """All squarefree integers in [1, n], ascending."""
    if n < 1:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[0] = False
    for p in range(2, int(n ** 0.5) + 1):
        mask[p * p::p * p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def linear_sieve_check(space, p_max=10_000):
    """Exact check of the two sieve hypotheses on omega over odd p <= p_max."""
    c_wit = Fraction(0)
    c_prime = 0
    below_one = True
    for p in primes_upto(p_max):
        p = int(p)
        if p == 2:
            continue
        w = fourier.omega(space, p)
        below_one &= (0 < w < 1)
        dev = abs(w - Fraction(1, p)) * p * p
        if dev > c_wit:
            c_wit, c_prime = dev, p
    smallest = math.floor(c_wit) + 1 if c_wit == math.floor(c_wit) else math.ceil(c_wit)
    return LinearSieveReport(space_id=space.space_id, p_max=p_max,
                             c_witness=c_wit, c_witness_prime=c_prime,
                             smallest_int_c=smallest,
                             c3_strict=c_wit < 3,
                             omega_below_one=below_one)


def sieve_product_bound(space, z_max=10_000):
    """Witnessed constant K for the one-sided product inequality

        prod_{w <= p < z, p not dividing m} (1 - omega(p))^-1  <=  K log z / log w

    over all prime endpoints 2 <= w < z <= z_max.  Returns (K, n_primes)."""
    ps = [int(p) for p in primes_upto(z_max)
          if int(p) not in space.bad_primes and int(p) != 2]
    vals = np.array([float(fourier.omega(space, p)) for p in ps])
    logs = np.log(np.array(ps, dtype=float))
    S = np.concatenate([[0.0], np.cumsum(-np.log1p(-vals))])
    # K(i, j) covers primes p_i .. p_{j-1}; sup over real w, z is reached
    # with w = p_i and z just above p_{j-1}
    n = len(ps)
    K = 0.0
    for i in range(n):
        prods = np.exp(S[i + 1:] - S[i])
        K = max(K, float(np.max(prods * logs[i] / logs[i:])))
    return K, n


def omega_squarefree(space, q):
    """Multiplicative extension of omega to squarefree q (m-part dropped)."""
    return fourier.ft_on_lattice(fourier.LocalCondition(space.space_id), q,
                                 (0,) * space.r)


def _divisors(n):
    out = []
    f = 1
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            if f != n // f:
                out.append(n // f)
        f += 1
    return sorted(out)


def gcd_sum_check(m, N):
    """(exact, majorant) for sum_{n in [N, 2N]} gcd(m, n).

    The majorant counts multiples of each divisor f of m crudely:
    #{n in [N,2N]: f | n} <= N/f + 1, so the sum is at most
    sum_{f | m, f <= 2N} f (N/f + 1) = sum (N + f)."""
    if m == 0:
        raise ValueError("m must be nonzero")
    if N < 1:
        raise ValueError("N must be >= 1")
    m = abs(m)
    ns = np.arange(N, 2 * N + 1, dtype=np.int64)
    exact = int(np.gcd(ns, m).sum())
    majorant = sum(N + f for f in _divisors(m) if f <= 2 * N)
    return exact, majorant
