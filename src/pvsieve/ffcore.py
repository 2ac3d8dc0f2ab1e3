"""Exact arithmetic kernels: squarefree factoring and pairing histograms.

The central trick here is that the Fourier transform of a {0,1}-valued,
dilation-invariant function on (Z/p)^r against a fixed target y is a rational
number computable by pure counting.  Write n_k = #{x in supp : <x,y> = k mod p}.
Dilation invariance of the support forces n_1 = n_2 = ... = n_{p-1}, and since
the nonzero p-th roots of unity sum to -1,

    p^r * FT(y) = n_0 - n_1.

No floating point, no roots of unity.  Everything in this module is exact
(python ints / fractions.Fraction).
"""

from fractions import Fraction


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


class PairingHistogram:
    """Counts of <x,y> mod p over a designated support."""

    def __init__(self, p, counts):
        self.p = p
        self.counts = list(counts)
        if len(self.counts) != p:
            raise ValueError(f"need {p} classes, got {len(self.counts)}")

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
