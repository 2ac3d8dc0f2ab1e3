"""Exact arithmetic kernels: squarefree factoring, pairing histograms and
the all-target Radon histogram.

The central trick here is that the Fourier transform of a {0,1}-valued,
dilation-invariant function on (Z/p)^r against a fixed target y is a rational
number computable by pure counting.  Write n_k = #{x in supp : <x,y> = k mod p}.
Dilation invariance of the support forces n_1 = n_2 = ... = n_{p-1}, and since
the nonzero p-th roots of unity sum to -1,

    p^r * FT(y) = n_0 - n_1.

No floating point, no roots of unity.  Everything in this module is exact
(python ints / fractions.Fraction / int64 counts); radon_histogram counts
the n_k at every target at once, and _numerators collapses them to n_0 - n_1.
"""

from fractions import Fraction

import numpy as np

from .spaces import ResourceLimitError

# Cells of one p^(r+1) Radon histogram; the kernel holds two int64 copies,
# 512 MiB together, which admits the cubic space (r = 4) up to p = 31 and a
# fibre of the pair space (r = 6) up to p = 11.
RADON_CELL_LIMIT = 2 ** 25


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


def _numerators(H):
    """n_0 - n_1 along the last axis of pairing counts, or
    NonInvariantSupportError unless n_1 = ... = n_{p-1} throughout."""
    if (H[..., 2:] != H[..., 1:2]).any():
        raise NonInvariantSupportError(
            f"nonzero classes unequal mod {H.shape[-1]}")
    return H[..., 0] - H[..., 1]


def ft_value_from_histogram(h, r):
    """Exact FT value (n_0 - n_1)/p^r from a pairing histogram."""
    return Fraction(int(_numerators(np.array(h.counts))), h.p ** r)


def check_radon(p, r):
    """Refuse a Radon histogram of p^(r+1) cells beyond RADON_CELL_LIMIT."""
    if p ** (r + 1) > RADON_CELL_LIMIT:
        raise ResourceLimitError(f"p={p}: all-target histogram beyond "
                                 f"{RADON_CELL_LIMIT} cells")


def radon_histogram(support, weights, p):
    """H[y, k] = #{x in supp : sum w_i x_i y_i = k mod p} at every target y,
    as a (p^r, p) int64 array in state-code order (r = len(weights) >= 2).
    A step replaces the front axis x_i by y_i, adding k-slices shifted by
    w_i x_i y_i, and moves y_i to the back; codes are little-endian, so w
    runs backwards."""
    r = len(weights)
    check_radon(p, r)
    n = p ** r
    H = np.zeros((p, p, n // p), dtype=np.int64)
    H[:, 0] = np.asarray(support).reshape(p, n // p)
    out = np.empty_like(H)
    for w in reversed([int(v) % p for v in weights]):
        out.fill(0)
        for y in range(p):
            for x in range(p):
                s = w * x * y % p
                out[y, s:] += H[x, :p - s]
                out[y, :s] += H[x, p - s:]
        H.reshape(p, p, -1, p)[...] = out.reshape(p, p, p, -1).transpose(
            2, 1, 3, 0)
    del out                     # two p^(r+1) buffers at most
    return np.moveaxis(H, 1, -1).reshape(n, p)
