"""Exact arithmetic kernels: CRT over squarefree moduli and pairing
histograms.

The central trick here is that the Fourier transform of a {0,1}-valued,
dilation-invariant function on (Z/p)^r against a fixed target y is a rational
number computable by pure counting.  Write n_k = #{x in supp : <x,y> = k mod p}.
Dilation invariance of the support forces n_1 = n_2 = ... = n_{p-1}, and since
the nonzero p-th roots of unity sum to -1,

    p^r * FT(y) = n_0 - n_1.

No floating point, no roots of unity.  The same idea works for squarefree q
via Ramanujan sums: if n_t depends only on gcd(t, q), then

    q^r * FT(y) = sum_{g | q} n_g * mu(q / g).

Everything in this module is exact (python ints / fractions.Fraction).
"""

from fractions import Fraction
from math import gcd


class InvalidModulusError(ValueError):
    pass


class NonInvariantSupportError(ValueError):
    """Histogram classes that should be equal are not; the rational FT
    shortcut does not apply to this support."""


def factor_squarefree(q):
    """Factor a positive squarefree integer into its (sorted) primes.

    Raises InvalidModulusError if q is not squarefree or q < 1.
    """
    if q < 1:
        raise InvalidModulusError(f"modulus must be positive, got {q}")
    primes = []
    n = q
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                raise InvalidModulusError(f"{q} is not squarefree (p={d})")
            primes.append(d)
        d += 1 if d == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def mobius_squarefree(q):
    """mu(q) for squarefree q."""
    return (-1) ** len(factor_squarefree(q))


def divisors_squarefree(q):
    """All divisors of squarefree q, ascending."""
    ds = [1]
    for p in factor_squarefree(q):
        ds += [d * p for d in ds]
    return sorted(ds)


def crt_combine(residues):
    """Combine residues {m_1: a_1, ..., m_k: a_k} (or an iterable of
    (a_i, m_i) pairs) into (a, m_1*...*m_k).

    Moduli must be pairwise coprime; they are processed in ascending order of
    modulus so the result is deterministic regardless of input order.
    """
    if isinstance(residues, dict):
        residues = [(a, m) for m, a in residues.items()]
    residues = sorted(residues, key=lambda t: t[1])
    a, m = 0, 1
    for r, n in residues:
        if n < 1:
            raise InvalidModulusError(f"modulus must be positive, got {n}")
        if gcd(m, n) != 1:
            raise InvalidModulusError(f"moduli not coprime: {m}, {n}")
        # a' = a mod m, r mod n
        inv = pow(m % n, -1, n) if n > 1 else 0
        a = a + m * ((r - a) * inv % n)
        m *= n
        a %= m
    return a, m


class PairingHistogram:
    """Counts of <x,y> mod p over a designated support.

    Supports partitioned accumulation: build several histograms over disjoint
    slices of the support and merge(); integer sums make the merged result
    identical to a sequential count.
    """

    def __init__(self, p, counts=None):
        self.p = p
        self.counts = list(counts) if counts is not None else [0] * p
        if len(self.counts) != p:
            raise ValueError(f"need {p} classes, got {len(self.counts)}")

    def add(self, k, n=1):
        self.counts[k % self.p] += n

    def add_counts(self, counts):
        for k, n in enumerate(counts):
            self.counts[k] += int(n)

    def merge(self, other):
        """Fold another slice's counts into this one (in place)."""
        if other.p != self.p:
            raise ValueError("mismatched p")
        self.add_counts(other.counts)
        return self

    def total(self):
        return sum(self.counts)


def ft_value_from_histogram(h, r):
    """Exact FT value (n_0 - n_1)/p^r from a pairing histogram.

    Requires counts[1] = ... = counts[p-1]; raises NonInvariantSupportError
    otherwise (the support was not dilation-invariant, or the histogram was
    built against an inconsistent target).
    """
    p = h.p
    if p > 1 and len(set(h.counts[1:])) > 1:
        raise NonInvariantSupportError(
            f"nonzero classes unequal mod {p}: {h.counts}")
    n1 = h.counts[1] if p > 1 else 0
    return Fraction(h.counts[0] - n1, p ** r)


def ft_value_from_residue_histogram(counts, q, r):
    """Squarefree-q generalization: counts[t] = #{x : <x,y> = t mod q}.

    Requires counts constant on classes {t : gcd(t,q) = g}; value is
    sum_g counts_g * mu(q/g) / q^r.
    """
    if len(counts) != q:
        raise ValueError(f"need {q} classes")
    by_gcd = {}
    for t, n in enumerate(counts):
        g = gcd(t, q)
        if g in by_gcd and by_gcd[g] != n:
            raise NonInvariantSupportError(
                f"class gcd={g} not constant mod {q}")
        by_gcd[g] = n
    num = sum(by_gcd[g] * mobius_squarefree(q // g)
              for g in divisors_squarefree(q))
    return Fraction(num, q ** r)
