"""Exact arithmetic kernels: squarefree factoring, residues, divisibility
tests, powers and square roots mod p over arrays, primitive roots, pairing
histograms and the all-target character sum.

The central trick here is that the Fourier transform of a {0,1}-valued,
dilation-invariant function on (Z/p)^r against a fixed target y is a rational
number computable by pure counting.  Write n_k = #{x in supp : <x,y> = k mod p}.
Dilation invariance of the support forces n_1 = n_2 = ... = n_{p-1}, and since
the nonzero p-th roots of unity sum to -1,

    p^r * FT(y) = n_0 - n_1.

Everything in this module is exact (python ints / fractions.Fraction / int64
counts).  character_sums finds n_0 - n_1 at every target at once, with an
element of order p in a prime field F_l in place of the root of unity;
_numerators collapses pairing counts to n_0 - n_1.

Every reduction of an integer array mod p in the package goes through mod,
by floor division: numpy's floor division of an integer array by a scalar
multiplies by a precomputed inverse, where % (np.remainder) divides each
element.  The float64 steps of character_sums reduce by rounding the
quotient (round_off) instead of by np.remainder.
"""

import math
from fractions import Fraction

import numpy as np

# The cell budget of the cubic finite-field sweeps: each temporary of
# fourier._cubic_support (a slab of consecutive d, p^2 fibres each),
# experiments._fibre_pair_count (primes x fibres of a d-chunk) and the
# exhaustive grading of cli.cmd_ft_verify (targets) holds at most this many
# cells, or one d-plane, one d-row or one target where those alone exceed
# it.  Read at each call.
CELL_BUDGET = 2 ** 16


class ResourceLimitError(RuntimeError):
    pass


class InvalidModulusError(ValueError):
    pass


class NonInvariantSupportError(ValueError):
    """The support is not dilation-invariant (pairing classes that should
    be equal are not); the rational FT shortcut does not apply to it."""


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


def mod(x, p, out=None):
    """x mod p, in [0, p), as a new array: x - (x // p) p, formed in the one
    array x // p allocates, as % allocates one, or in out (an array other
    than x, of the broadcast shape); x is left as it is.

    Serves integer arrays whose dtype holds p (int16, int32, int64) and
    object arrays of Python ints, exactly: the residue fits the dtype, and
    an intermediate (x // p) p that wraps round wraps back in the
    subtraction.  A dtype too narrow for p raises OverflowError.  p may also
    be an integer array that broadcasts against x."""
    q = np.floor_divide(x, p, out=out)
    q *= p
    return np.subtract(x, q, out=q)


def residues(x, p, dtype, order="C"):
    """The integer array x reduced mod p, as a new array of the given dtype
    and memory order; dtype must hold p.  Where every entry already lies in
    (-p, p) the entries are cast and the negative ones moved up by p, with
    no division; otherwise mod reduces each column of x straight into its
    column of the result, so no copy of x in a wider dtype is made."""
    x = np.asarray(x)
    out = np.empty(x.shape, dtype=dtype, order=order)
    if x.size == 0 or -p < int(x.min()) and int(x.max()) < p:
        out[...] = x
        np.add(out, p, out=out, where=out < 0)
    else:
        for i in range(x.shape[-1]):
            mod(x[..., i], p, out=out[..., i])
    return out


def divisible(vals, d):
    """Exact boolean mask of d | vals, for an integer d >= 1.

    On a signed integer array this is the multiply-by-inverse test of
    Granlund and Montgomery ("Division by invariant integers using
    multiplication", PLDI 1994) on the w-bit unsigned view, with no
    division.  Write d = 2^e m with m odd, m' = m^-1 mod 2^w and
    L = floor((2^(w-1) - 1) / m).  The multiples of m in the signed range
    are k m with |k| <= L, and v -> v m' mod 2^w is a bijection sending
    k m to k, so m | v exactly when (v m' + L) mod 2^w <= 2L; and 2^e | v
    exactly when the low e bits of v are zero.  The test holds for every
    d and every value, the dtype's minimum included.  Any other dtype is
    refused."""
    d = int(d)
    if d < 1:
        raise ValueError(f"divisor must be >= 1, got {d}")
    if vals.dtype.kind != "i":
        raise TypeError(f"divisible takes signed integers, not {vals.dtype}")
    w = 8 * vals.dtype.itemsize
    u = vals.view(f"u{vals.dtype.itemsize}")
    word = u.dtype.type
    e = (d & -d).bit_length() - 1
    m = d >> e
    if m > 1:
        L = ((1 << (w - 1)) - 1) // m
        t = u * word(pow(m, -1, 1 << w))
        t += word(L)
        ok = t <= word(2 * L)
    else:
        ok = np.ones(vals.shape, dtype=bool)
    if e:
        ok &= (u & word((1 << min(e, w)) - 1)) == 0
    return ok


def pow_mod(x, e, p):
    """x^e mod p at each x of an array (0 <= x < p < 2^31), by squaring."""
    out = np.ones_like(x)
    for bit in bin(e)[2:]:
        out = mod(out * out, p)
        if bit == "1":
            out = mod(out * x, p)
    return out


def inverses(p):
    """The inverse mod the prime p of each residue 0..p-1 (0 at 0), as
    int64: x^(p-2), by pow_mod."""
    return pow_mod(np.arange(p, dtype=np.int64), p - 2, p)


def sqrt_mod(a, p):
    """A square root mod the odd prime p of each residue of an int64 array
    (0 <= a < p < 2^31), or -1 where it is not a square.  A scatter of the
    squares mod p costs p/2 writes; Tonelli-Shanks costs O(log^2 p) passes
    over a, whatever p.  Timed per prime on the h met in the geometric-sieve
    boxes K = 5 to 58 (len(a) = 88 to 13 498), the two cost the same near
    p = 16 (len(a) + 2048), so the scatter is taken below that.
    Tonelli-Shanks: with p - 1 = q 2^S, x = a^((q+1)/2) and t = a^q
    satisfy x^2 = a t, and each step i = S-1..1 multiplies x by c and t by
    c^2 where t^(2^(i-1)) = -1, c = z^(q 2^(S-1-i)) for a non-square z;
    a is a square iff t ends at 1 (or a = 0)."""
    if p < 16 * (a.size + 2048):
        r = np.arange((p + 1) // 2, dtype=np.int64)
        sqrt = np.full(p, -1, dtype=np.int32)
        sqrt[mod(r * r, p)] = r
        return sqrt[a]
    S = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> S
    w = pow_mod(a, (q - 1) // 2, p)
    x = mod(w * a, p)
    t = mod(w * x, p)
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c = pow(z, q, p)
    for i in range(S - 1, 0, -1):
        b = t
        for _ in range(i - 1):
            b = mod(b * b, p)
        flip = b != 1
        x = np.where(flip, mod(x * c, p), x)
        c = c * c % p
        t = np.where(flip, mod(t * c, p), t)
    return np.where((t == 1) | (a == 0), x, -1)


def primitive_root(p):
    """The least generator of the units mod a prime p."""
    return next(g for g in range(1, p)
                if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)


def ntt_modulus(p, r):
    """(l, w): l the least prime l = 1 mod p with l > 2 p^r and
    p (l/2)^2 < 2^53, w of order p in F_l; ResourceLimitError when there is
    none.  That is character_sums' only cap: r = 4 up to p = 59, r = 6 up to
    p = 13."""
    # l = 1 mod p from the least past 2 p^r while p l^2 < 2^55
    for l in range(2 * p ** r + 1, math.isqrt((2 ** 55 - 1) // p) + 1, p):
        if all(l % d for d in range(2, math.isqrt(l) + 1)):
            return l, next(v for v in (pow(a, (l - 1) // p, l)
                                       for a in range(2, l)) if v != 1)
    raise ResourceLimitError(f"p={p}: no prime l = 1 mod p with 2 p^{r} < l "
                             f"and p (l/2)^2 < 2^53 for F_p^{r}")


def round_off(B, l, quot):
    """B - l rint(B / l) over B in place, quot a float64 scratch array of B's
    shape.  B holds integers with |B| + l/2 + 1 < 2^53, l odd.  The result r
    is B mod l with |r| <= (l + 1) / 2, by one division and no remainder.

    Why: fl(B / l) is correctly rounded, so it is off from B / l by at most
    2^-53 |B / l| < 1 / l.  Its nearest integer m then has
    |B / l - m| < 1/2 + 1/l, so the integer B - l m is below l/2 + 1 in size,
    hence at most (l + 1) / 2 as l is odd.  l m, an integer below
    |B| + l/2 + 1 < 2^53 in size, and B - l m are exact in float64."""
    np.divide(B, l, out=quot)
    np.rint(quot, out=quot)
    quot *= l
    B -= quot
    return B


def centre(x, l):
    """The residue of each entry of an integer array mod the odd l, in
    [-(l-1)/2, (l-1)/2]; x is shifted in place and the result is new."""
    x += l // 2
    x = mod(x, l)
    x -= l // 2
    return x


def character_sums(support, weights, p):
    """n_0 - n_1 = sum_{x in supp} w^<x, y>, <x, y> = sum weights_i x_i y_i,
    at every target y, as p^r int64 in state-code order (r = len(weights));
    NonInvariantSupportError unless S(cx) = S(x), c a primitive root mod p.

    The sum runs in F_l, (l, w) = ntt_modulus(p, r), one axis at a time: a
    float64 product of the p x p matrix w^(weight x y), centred residues
    (|v| <= (l-1)/2), with the p x p^(r-1) array, whose entries are 0 or 1
    at the first step and residues |v| <= (l+1)/2 after (round_off, the
    quotient put in A's buffer, dead until the transpose back).  Each row of
    the matrix holds w^0 = 1 at y = 0, so every partial sum is an integer
    of size at most (p-1) ((l-1)/2) ((l+1)/2) + (l+1)/2, and that plus
    l/2 + 1 is at most p (l/2)^2 < 2^53 (ntt_modulus' condition; it takes
    l^2 - 4l + p - 7 >= 0, true as l > 2 p^r >= 4).  So a step is exact
    whatever order BLAS sums in, and round_off is exact after it.  Each
    step moves the slowest axis to the fastest, so the weights run
    backwards.  sum_k n_k w^k = n_0 - n_1 mod l by invariance, and
    |n_0 - n_1| <= p^r < l/2 fixes the integer, read off once at the end
    (centre)."""
    r = len(weights)
    l, w = ntt_modulus(p, r)
    S = np.asarray(support, dtype=bool).reshape((p,) * r)
    perm = mod(np.arange(p) * primitive_root(p), p)
    if not np.array_equal(S[np.ix_(*[perm] * r)], S):
        raise NonInvariantSupportError(f"support not invariant mod {p}")
    powers = np.array([pow(w, k, l) for k in range(p)], dtype=np.float64)
    powers[powers > l // 2] -= l
    xy = np.arange(p)[:, None] * np.arange(p)
    A = S.reshape(p, -1).astype(np.float64)
    B = np.empty_like(A)
    for wi in reversed([int(v) % p for v in weights]):
        np.matmul(powers[mod(wi * xy, p)], A, out=B)
        round_off(B, l, A)
        A.reshape(-1, p)[...] = B.T
    del B                   # freed for the int64 copy and centre's quotient
    n = A.reshape(-1).astype(np.int64)
    del A
    return centre(n, l)
