"""Exact-arithmetic kernels: squarefree factoring, the one array reduction
mod p and the rounding step, square roots mod p, histograms, the all-target
character sum against a pairing-matrix oracle and its derived cap; and the
plain-Python F_{p^k} oracle (tests/fpk.py) behind the F_{p^2} base-locus
count in test_orbits."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvsieve import ffcore as fc
from pvsieve import fourier, orbits
from pvsieve.spaces import (CUBIC, QUARTIC, disc_dtype, disc_mod,
                            pairing_weights_mod, resolvent_cubic)

import fpk
from oracles import CUBIC_COND, encode_states


# ---------------------------------------------------------------------------
# squarefree factoring
# ---------------------------------------------------------------------------

def test_factor_squarefree():
    assert fc.factor_squarefree(1) == []
    assert fc.factor_squarefree(15) == [3, 5]
    assert fc.factor_squarefree(105) == [3, 5, 7]
    with pytest.raises(fc.InvalidModulusError):
        fc.factor_squarefree(12)
    with pytest.raises(fc.InvalidModulusError):
        fc.factor_squarefree(0)


# ---------------------------------------------------------------------------
# the one array reduction, and the rounding step of the character sums
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64, object])
@pytest.mark.parametrize("p", [2, 3, 59, 24439, 2 ** 31 - 1])
def test_mod_matches_python_remainder(dtype, p):
    # negative values and the dtype's extremes, elementwise against Python
    # %; an object array also carries integers far past int64
    if dtype is object:
        lo, hi = -2 ** 200, 2 ** 200
    else:
        lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    rng = np.random.default_rng(p)
    vals = [lo, lo + 1, -p - 1, -p, -p + 1, -1, 0, 1, p - 1, p, p + 1,
            hi - 1, hi]
    vals += [int(v) for v in rng.integers(max(lo, -2 ** 63),
                                          min(hi, 2 ** 63 - 1), size=200)]
    vals = [v for v in vals if lo <= v <= hi]
    x = np.array(vals, dtype=dtype)
    if dtype is not object and p > hi:
        with pytest.raises(OverflowError):      # the residues do not fit
            fc.mod(x, p)
        return
    got = fc.mod(x, p)
    assert got.dtype == x.dtype
    assert [int(v) for v in got] == [v % p for v in vals]
    assert [int(v) for v in x] == vals          # its input is left alone


def test_mod_reducers_keep_their_input():
    # no reducer writes over the array it is given: unreduced inputs
    # (negative, past p) come back unchanged, and so do pencil_counts'
    # reduced rows and resolvent coefficients
    rng = np.random.default_rng(1)
    p = 5
    X4 = rng.integers(-20, 20, size=(300, 4))
    X12 = rng.integers(-20, 20, size=(300, 12))
    C12 = X12 % p
    r = tuple((c % p).astype(disc_dtype(p - 1)) for c in resolvent_cubic(C12))
    cond = CUBIC_COND
    calls = [lambda: orbits.classify_batch(QUARTIC, X12, p),
             lambda: fourier.cubic_class_batch(X4, p),
             lambda: fourier.dual_cubic_class_batch(X4, p),
             lambda: disc_mod(CUBIC, X4, p),
             lambda: disc_mod(QUARTIC, X12, p),
             lambda: fourier.ft_histograms(cond, p, X4[:3]),
             lambda: orbits.form_frames(C12[:, 6:], p),
             lambda: orbits.pencil_counts(C12[:, :6], C12[:, 6:], r, p)]
    for call in calls:
        before = [X4.copy(), X12.copy(), C12.copy(), *(c.copy() for c in r)]
        call()
        assert all(np.array_equal(a, b)
                   for a, b in zip(before, [X4, X12, C12, *r]))


@pytest.mark.parametrize("p,r", [(59, 4), (13, 6)])
def test_round_off_at_its_bound(p, r):
    # the largest l of each space's cap, against Python ints: B at the
    # largest partial-sum size p ((l-1)/2) ((l+1)/2), the values
    # k l +- (l-1)/2 near it, where rint may land one step off, and random
    # values in between
    l = fc.ntt_modulus(p, r)[0]
    top = p * ((l - 1) // 2) * ((l + 1) // 2)
    assert top + l // 2 + 1 < 2 ** 53
    k = top // l
    near = [j * l + s * (l - 1) // 2 for j in range(k - 3, k)
            for s in (-1, 1)]
    rng = np.random.default_rng(l)
    vals = [top, top - 1, *near, *(int(v) for v in rng.integers(
        -top, top, size=1000, endpoint=True))]
    vals += [-v for v in vals]
    B = np.array(vals, dtype=np.float64)
    assert [int(v) for v in B] == vals         # exact in float64
    got = fc.round_off(B, l, np.empty_like(B))
    for b, v in zip(vals, got.tolist()):
        assert v == int(v) and (int(v) - b) % l == 0
        assert abs(v) <= (l + 1) // 2
    n = fc.centre(got.astype(np.int64), l)
    assert [int(v) % l for v in n] == [v % l for v in vals]
    assert np.abs(n).max() <= (l - 1) // 2


# ---------------------------------------------------------------------------
# square roots mod p
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [5, 101, 65537, 786433, 2 ** 31 - 1])
def test_sqrt_mod_against_euler(p):
    # a root where Euler's criterion says square, -1 elsewhere
    a = np.unique(np.r_[np.arange(min(p, 500)), p - np.arange(1, min(p, 500)),
                        np.random.default_rng(p).integers(0, p, 500)])
    s = fc.sqrt_mod(a.astype(np.int64), p)
    for x, r in zip(a.tolist(), s.tolist()):
        square = x == 0 or pow(x, (p - 1) // 2, p) == 1
        assert (r >= 0) == square and (r < 0 or (r * r - x) % p == 0), x



# ---------------------------------------------------------------------------
# pairing histograms -> Fourier values
# ---------------------------------------------------------------------------

def test_histogram_identity_small():
    # a set that is one full line {t*(1,0) : t} in F_5^2 paired against y=(1,0):
    # pairing values t -> each residue hit once
    h = fc.PairingHistogram(5, [1] * 5)
    assert h.total() == 5
    # n0=1, n1=1 -> (1-1)/25 = 0
    assert fc.ft_value_from_histogram(h, 2) == 0


def test_histogram_identity_point_mass():
    # support {0} in F_p^r: pairing always 0, FT constant p^-r
    for p, r in [(3, 4), (5, 4), (7, 2)]:
        h = fc.PairingHistogram(p, [1] + [0] * (p - 1))
        assert fc.ft_value_from_histogram(h, r) == Fraction(1, p ** r)


def test_histogram_nonuniform_rejected():
    h = fc.PairingHistogram(5, [7, 3, 3, 3, 2])   # nonzero classes unequal
    with pytest.raises(fc.NonInvariantSupportError):
        fc.ft_value_from_histogram(h, 4)


# ---------------------------------------------------------------------------
# the all-target character sums against the Radon histogram of the
# pairing-matrix oracle, collapsed to n_0 - n_1 (the test names keep "radon")
# ---------------------------------------------------------------------------

def slow_radon_histogram(support, weights, p, block=1 << 22):
    """H[y, k] = #{x in supp : sum w_i x_i y_i = k mod p} for every target
    y in state-code order: the support's rows times a block of weighted
    targets, one bincount per block."""
    r = len(weights)
    n = p ** r
    C = orbits.decode_states(np.arange(n, dtype=np.int64), p, r=r)
    C = C.astype(np.int64)
    sup = C[np.asarray(support, dtype=bool)]
    WT = C * np.asarray(weights, dtype=np.int64) % p
    H = np.empty((n, p), dtype=np.int64)
    step = max(1, block // max(len(sup), 1))
    for lo in range(0, n, step):
        P = sup @ WT[lo:lo + step].T % p              # (support, targets)
        k = P.shape[1]
        H[lo:lo + k] = np.bincount(
            (P + np.arange(k, dtype=np.int64) * p).ravel(),
            minlength=k * p).reshape(k, p)
    return H


def _disc_support(p):
    C = orbits.decode_states(np.arange(p ** 4, dtype=np.int64), p, r=4)
    return disc_mod(CUBIC, C, p) == 0


@pytest.mark.parametrize("p", [5, 7, 11])
@pytest.mark.parametrize("unit", [False, True], ids=["pairing", "unit"])
def test_radon_matches_oracle_on_disc_support(p, unit):
    w = (1, 1, 1, 1) if unit else tuple(pairing_weights_mod(CUBIC, p))
    sup = _disc_support(p)
    H = slow_radon_histogram(sup, w, p)
    assert (H[:, 1:] == H[:, 1:2]).all()
    assert np.array_equal(fc._numerators(H), H[:, 0] - H[:, 1])
    assert np.array_equal(fc.character_sums(sup, w, p), fc._numerators(H))


@pytest.mark.parametrize("p,r", [(3, 2), (5, 3), (7, 2), (3, 5), (3, 6)])
def test_radon_matches_oracle_on_random_cones(p, r):
    # a union of punctured lines through random points is dilation-invariant
    rng = np.random.default_rng(p * r)
    pts = rng.integers(0, p, size=(4, r))
    lines = (np.arange(1, p)[:, None, None] * pts[None]).reshape(-1, r) % p
    sup = np.zeros(p ** r, dtype=bool)
    sup[encode_states(lines, p)] = True
    w = rng.integers(1, p, size=r)
    assert np.array_equal(fc.character_sums(sup, w, p),
                          fc._numerators(slow_radon_histogram(sup, w, p)))


def test_radon_rejects_noninvariant_support():
    # a single point is no cone: its transform is no rational integer, and
    # both the kernel and the collapse of the oracle's counts refuse it
    sup = np.zeros(5 ** 4, dtype=bool)
    sup[1] = True                              # the single point (1, 0, 0, 0)
    with pytest.raises(fc.NonInvariantSupportError):
        fc.character_sums(sup, (1, 1, 1, 1), 5)
    with pytest.raises(fc.NonInvariantSupportError):
        fc._numerators(slow_radon_histogram(sup, (1, 1, 1, 1), 5))


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


@pytest.mark.parametrize("r,last,refused", [(4, 59, 61), (6, 13, 17)])
def test_ntt_modulus_derives_the_cap(r, last, refused):
    # the modulus alone, no transform: the least prime l = 1 mod p past
    # 2 p^r, with every float64 partial sum p (l/2)^2 below 2^53
    l, w = fc.ntt_modulus(last, r)
    assert _is_prime(l) and l % last == 1
    assert 2 * last ** r < l and last * (l / 2) ** 2 < 2 ** 53
    assert not any(_is_prime(m) for m in range(2 * last ** r + 1, l, last))
    assert w != 1 and pow(w, last, l) == 1
    with pytest.raises(fc.ResourceLimitError):
        fc.ntt_modulus(refused, r)


# ---------------------------------------------------------------------------
# the F_{p^k} test oracle: irreducible moduli and field arithmetic
# ---------------------------------------------------------------------------

def test_irreducible_poly_lex_least():
    # lowest-coefficient-first tuples (c0, c1, ..., c_{k-1}), monic x^k + ...
    assert fpk.least_irreducible(2, 2) == (1, 1)          # x^2 + x + 1
    assert fpk.least_irreducible(3, 2) == (1, 0)          # x^2 + 1
    assert fpk.least_irreducible(5, 2) == (2, 0)          # x^2 + 2
    assert fpk.least_irreducible(2, 3) == (1, 1, 0)       # x^3 + x + 1
    assert fpk.least_irreducible(2, 4) == (1, 1, 0, 0)    # x^4 + x + 1


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                 (3, 4), (5, 2), (5, 3), (5, 4), (7, 2)])
def test_irreducible_poly_has_no_small_factor(p, k):
    c = fpk.least_irreducible(p, k)
    assert len(c) == k
    # no roots in F_p
    for t in range(p):
        v = (pow(t, k, p) + sum(ci * pow(t, i, p) for i, ci in enumerate(c))) % p
        assert v != 0
    # and no monic factor of degree <= k/2, by the product of any two
    # monic polynomials of degrees d and k - d not being it
    for d in range(1, k // 2 + 1):
        for u in range(p ** d):
            for w in range(p ** (k - d)):
                g = [(u // p ** i) % p for i in range(d)] + [1]
                h = [(w // p ** i) % p for i in range(k - d)] + [1]
                prod = [0] * (k + 1)
                for i, gi in enumerate(g):
                    for j, hj in enumerate(h):
                        prod[i + j] = (prod[i + j] + gi * hj) % p
                assert tuple(prod[:k]) != c


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 4), (2, 4), (7, 2)])
def test_extfield_axioms(p, k):
    F = fpk.Fpk(p, k)
    q = p ** k
    rng = np.random.default_rng(1)
    for a, b, c in rng.integers(0, q, size=(50, 3)).tolist():
        ab = F.mul(a, b)
        assert ab == F.mul(b, a)
        assert F.mul(ab, c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(a, 1) == a


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (2, 4), (3, 3)])
def test_extfield_multiplicative_order(p, k):
    # x^(q-1) = 1 for all x != 0  (so the modulus really was irreducible)
    F = fpk.Fpk(p, k)
    q = p ** k
    assert all(F.pow(x, q - 1) == 1 for x in range(1, q))


def test_extfield_frobenius_additive():
    F = fpk.Fpk(5, 2)
    for x, y in zip(range(25), reversed(range(25))):
        assert F.pow(F.add(x, y), 5) == F.add(F.pow(x, 5), F.pow(y, 5))


def test_extfield_embeds_prime_field():
    # codes 0..p-1 are the scalars and multiply like integers mod p
    F = fpk.Fpk(7, 2)
    for a in range(7):
        for b in range(7):
            assert F.mul(a, b) == (a * b) % 7


@settings(max_examples=25)
@given(st.integers(0, 5 ** 4 - 1), st.integers(0, 5 ** 4 - 1))
def test_extfield_poly_mul_matches_sympy_style(x, y):
    # reference: multiply coefficient lists mod the modulus polynomial, slowly
    p, k = 5, 4
    F = fpk.Fpk(p, k)
    mod = fpk.least_irreducible(p, k)
    xs = [(x // p ** i) % p for i in range(k)]
    ys = [(y // p ** i) % p for i in range(k)]
    prod = [0] * (2 * k - 1)
    for i, xi in enumerate(xs):
        for j, yj in enumerate(ys):
            prod[i + j] = (prod[i + j] + xi * yj) % p
    for deg in range(2 * k - 2, k - 1, -1):
        c = prod[deg]
        if c:
            prod[deg] = 0
            for i, mi in enumerate(mod):
                prod[deg - k + i] = (prod[deg - k + i] - c * mi) % p
    want = sum(ci * p ** i for i, ci in enumerate(prod[:k]))
    assert F.mul(x, y) == want
