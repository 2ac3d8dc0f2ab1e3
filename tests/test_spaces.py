"""Space models: disc, resolvent, pairing, dual lattice, boxes."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pvsieve import spaces as sp
from pvsieve.ffcore import ResourceLimitError
from pvsieve.spaces import CUBIC, QUARTIC


def test_descriptors():
    assert (CUBIC.r, CUBIC.m) == (4, 3)
    assert (QUARTIC.r, QUARTIC.m) == (12, 2)
    assert [f.name for f in dataclasses.fields(CUBIC)] == [
        "space_id", "r", "m", "weights", "binary_cubic"]
    # the bad primes are exactly the primes dividing m
    primes = [p for p in range(2, 51) if all(p % k for k in range(2, p))]
    for space, bad in ((CUBIC, [3]), (QUARTIC, [2])):
        assert [p for p in primes if space.is_bad_prime(p)] == bad
        assert bad == [p for p in primes if space.m % p == 0]
    assert sp.space_by_name("cubic") is CUBIC
    with pytest.raises(ValueError):
        sp.space_by_name("quintic")


# ---------------------------------------------------------------------------
# disc
# ---------------------------------------------------------------------------

def test_disc_cubic_examples():
    # x*y*(x+y): roots 0, infinity-free... oracle = squared root differences
    assert sp.disc(CUBIC, (0, 1, 1, 0)) == 1
    # x(x-y)(x+y)
    assert sp.disc(CUBIC, (1, 0, -1, 0)) == 4
    # x^3 + y^3: disc = -27
    assert sp.disc(CUBIC, (1, 0, 0, 1)) == -27
    assert sp.disc(CUBIC, (0, 0, 0, 0)) == 0


def test_disc_quartic_example():
    # A = I, B = diag(1,2,3): 4 det(Ax+By) = 4(x+y)(x+2y)(x+3y),
    # disc = 4^4 * disc((x+y)(x+2y)(x+3y)) = 256 * 4
    x = (1, 1, 1, 0, 0, 0, 1, 2, 3, 0, 0, 0)
    assert sp.disc(QUARTIC, x) == 1024
    assert sp.resolvent_cubic(x) == (4, 24, 44, 24)


def test_disc_array_matches_scalar():
    rng = np.random.default_rng(2)
    X = rng.integers(-5, 6, size=(40, 12))
    d = sp.disc(QUARTIC, X)
    for i in range(40):
        assert d[i] == sp.disc(QUARTIC, tuple(int(v) for v in X[i]))


@pytest.mark.parametrize("space,row", [
    (QUARTIC, (50, -49, 48, 1, 2, 3, -47, 51, -50, 4, 5, 6)),
    (QUARTIC, (10 ** 6, -999999, 999998, 3, 5, 7,
               -10 ** 6, 999997, -999996, 11, 13, 17)),
    (CUBIC, (30000, -29999, 29998, 30000)),
], ids=["quartic", "quartic-resolvent", "cubic"])
def test_disc_array_exact_past_int64(space, row):
    # |disc| passes 2^63 on every row (the first quartic row's resolvent
    # has coefficients near 1.4e6); on the second the resolvent itself
    # passes 2^63.  int64 arrays used to wrap
    want = sp.disc(space, row)
    assert abs(want) >= 2 ** 63
    assert sp.disc(space, np.array([row, row])).tolist() == [want, want]
    if space is QUARTIC:
        got = sp.resolvent_cubic(np.array([row]))
        assert tuple(int(c[0]) for c in got) == sp.resolvent_cubic(row)


def test_arrays_at_the_int64_extremes_match_the_tuple_paths():
    # np.abs of the int64 minimum is negative, so a bound read off
    # np.abs(x).max() took these rows for small ones and wrapped them: the
    # first resolvent came out (0, 4, 8, 4), the first cubic disc -3
    lo, hi = -2 ** 63, 2 ** 63 - 1
    for row in [(lo, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0),
                (hi, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0),
                (lo, hi, 1, lo, 0, 2, hi, -1, lo, 0, 3, hi)]:
        X = np.array([row], dtype=np.int64)
        got = tuple(int(c[0]) for c in sp.resolvent_cubic(X))
        assert got == sp.resolvent_cubic(row)
        assert int(sp.disc(QUARTIC, X)[0]) == sp.disc(QUARTIC, row)
    assert sp.resolvent_cubic((lo, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0)) == (
        -36893488147419103232, -73786976294838206460,
        -36893488147419103224, 4)
    for row in [(lo, 1, 1, 1), (hi, 1, 1, 1), (lo, hi, lo, 1)]:
        X = np.array([row], dtype=np.int64)
        assert int(sp.disc(CUBIC, X)[0]) == sp.disc(CUBIC, row)
    assert sp.disc(CUBIC, np.array([(lo, 1, 1, 1)])).dtype == object


@pytest.mark.parametrize("M", [215, 216])
def test_resolvent_either_side_of_the_int32_tier(M):
    # 216 M^3 < 2^31 exactly while M <= 215; rows of +-M in mixed signs
    # and random rows in [-M, M], against Python ints
    want_dtype = np.int32 if M == 215 else np.int64
    assert sp.resolvent_dtype(M) == want_dtype
    rng = np.random.default_rng(M)
    X = np.vstack([M * rng.choice([-1, 1], size=(200, 12)),
                   rng.integers(-M, M + 1, size=(200, 12))])
    got = sp.resolvent_cubic(X)
    assert all(c.dtype == want_dtype for c in got)
    for i, row in enumerate(X.tolist()):
        assert tuple(int(c[i]) for c in got) == sp.resolvent_cubic(row)
    # the int16 rows classify_batch passes give the same columns
    assert all(np.array_equal(a, b) for a, b in
               zip(got, sp.resolvent_cubic(X.astype(np.int16))))


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30),
       st.integers(-30, 30), st.integers(-2, 2))
def test_disc_homogeneous_cubic(a, b, c, d, lam):
    base = sp.disc(CUBIC, (a, b, c, d))
    scaled = sp.disc(CUBIC, (lam * a, lam * b, lam * c, lam * d))
    assert scaled == lam ** 4 * base


@given(st.lists(st.integers(-4, 4), min_size=12, max_size=12),
       st.integers(-2, 2))
def test_disc_homogeneous_quartic(coords, lam):
    base = sp.disc(QUARTIC, tuple(coords))
    scaled = sp.disc(QUARTIC, tuple(lam * c for c in coords))
    assert scaled == lam ** 12 * base


@pytest.mark.parametrize("space,p", [(CUBIC, 5), (CUBIC, 3), (QUARTIC, 3),
                                     (QUARTIC, 5), (QUARTIC, 2)])
def test_disc_mod_matches_exact(space, p):
    # at p = 2 the quartic disc is 4^4 disc(det(Ax + By)), so 0 mod 2
    rng = np.random.default_rng(3)
    X = rng.integers(-50, 51, size=(60, space.r))
    dm = sp.disc_mod(space, X, p)
    for i in range(60):
        assert dm[i] == sp.disc(space, tuple(int(v) for v in X[i])) % p


@pytest.mark.parametrize("p", [24439, 40009, 99991])
def test_disc_mod_exact_past_int64(p):
    # 54 (p-1)^4 passes 2^63 here; int64 disc_mod gave 81701 for
    # (-1, -1, -1, 1) at p = 99991 and a nonzero value for the disc = 0
    # form (-1, 1, 1, -1) at p = 24439
    rng = np.random.default_rng(p)
    X = np.vstack([[(-1, -1, -1, 1), (-1, 1, 1, -1), (p - 1,) * 4],
                   rng.integers(0, p, size=(100, 4))])
    want = [sp.disc(CUBIC, tuple(row)) % p for row in X.tolist()]
    assert sp.disc_mod(CUBIC, X, p).tolist() == want
    Q = rng.integers(0, p, size=(20, 12))
    want = [sp.disc(QUARTIC, tuple(row)) % p for row in Q.tolist()]
    assert sp.disc_mod(QUARTIC, Q, p).tolist() == want


# ---------------------------------------------------------------------------
# pairing / dual lattice
# ---------------------------------------------------------------------------

def pairing(space, x, y):
    """The written-out pairing [x, y] = sum w_i x_i y_i over Q, an integer
    whenever y is in the image of the dual lattice."""
    v = sum(w * a * b for w, a, b in zip(space.weights, x, y))
    return int(v) if v.denominator == 1 else v


def test_pairing_examples():
    assert pairing(CUBIC, (1, 0, 0, 1), (2, 3, 3, 2)) == 4
    assert pairing(CUBIC, (5, -7, 11, 2), (0, 0, 0, 0)) == 0
    eye_zero = (1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    assert pairing(QUARTIC, eye_zero, eye_zero) == 3


def test_pairing_fractional_off_dual():
    v = pairing(CUBIC, (0, 1, 0, 0), (0, 1, 0, 0))
    assert v == Fraction(1, 3)


def test_pairing_mod_bad_prime():
    with pytest.raises(sp.BadPrimeError):
        sp.pairing_weights_mod(CUBIC, 3)
    with pytest.raises(sp.BadPrimeError):
        sp.pairing_weights_mod(QUARTIC, 2)
    w = sp.pairing_weights_mod(CUBIC, 7)
    assert (3 * w[1]) % 7 == 1


# rho : V*(Z) -> V(Z) multiplies coordinate i by RHO[i]: the image of the
# dual lattice is the forms with middle coefficients divisible by 3 (cubic),
# or the pairs with even off-diagonal entries (quartic)
RHO = {"cubic": (1, 3, 3, 1), "quartic": (1, 1, 1, 2, 2, 2) * 2}


def _rho(space, k):
    return tuple(c * m for c, m in zip(k, RHO[space.space_id]))


def _mod_p(v, p):
    """A rational with denominator prime to p, reduced mod p."""
    v = Fraction(v)
    return v.numerator * pow(v.denominator, -1, p) % p


@pytest.mark.parametrize("space", [CUBIC, QUARTIC], ids=["cubic", "quartic"])
def test_descriptor_pairing_and_rho(space):
    # the descriptor's weights against the written-out pairing [x, y], which
    # is integral on the image of the dual lattice
    rng = np.random.default_rng(6)
    for p in (5, 7, 11, 13):
        w = sp.pairing_weights_mod(space, p)
        for _ in range(200):
            x, y = rng.integers(-50, 51, size=(2, space.r))
            assert int(w @ (x * y)) % p == _mod_p(pairing(space, x, y), p)
    for _ in range(200):
        x, k = (tuple(int(v) for v in rng.integers(-20, 21, space.r))
                for _ in range(2))
        assert isinstance(pairing(space, x, _rho(space, k)), int)
    # against the rho image the cubic pairing is the plain dot product
    x, k = (3, 1, -4, 1), (2, -5, 7, 1)
    assert pairing(CUBIC, x, _rho(CUBIC, k)) == sum(
        a * b for a, b in zip(x, k))


@pytest.mark.parametrize("space", [CUBIC, QUARTIC])
def test_m_multiples_in_dual_image(space):
    rng = np.random.default_rng(4)
    for _ in range(20):
        y = tuple(int(space.m * v) for v in rng.integers(-10, 11, space.r))
        assert all(c % m == 0 for c, m in zip(y, RHO[space.space_id]))


def test_dual_disc_cubic_grading():
    # disc(rho(k)) = 27 * dual_disc_cubic(k), identically
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = tuple(int(v) for v in rng.integers(-30, 31, 4))
        assert sp.disc(CUBIC, _rho(CUBIC, k)) == 27 * sp.dual_disc_cubic(k)


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------

def test_box_counts():
    assert list(sp.box_axis(0)) == [0]
    assert len(sp.box_axis(1)) ** CUBIC.r == 81
    axis = sp.box_axis(2, x0=0, m_prog=2)
    assert len(axis) ** CUBIC.r == 81
    assert all(t % 2 == 0 for t in axis)
    assert sp.box_axis(2.9) == sp.box_axis(2)      # radius is floored


def test_box_lex_order_and_chunks_agree():
    # strictly increasing axes are what make a box traversal (one slice
    # per leading coordinate, meshgrid tail) lexicographic
    for Z, x0, m in ((2, 1, 3), (5, 2, 3), (7.5, -3, 4), (3, 0, 1)):
        axis = sp.box_axis(Z, x0, m)
        assert list(axis) == sorted(set(axis))


def test_box_progression_membership():
    for x0 in (1, 2, 0, -4, 7):
        axis = sp.box_axis(5, x0, 3)
        assert all(abs(t) <= 5 and (t - x0) % 3 == 0 for t in axis)
        assert list(axis) == [t for t in range(-5, 6) if (t - x0) % 3 == 0]


def test_box_resource_limit():
    # X = 10^9 is a 355^4-point box, beyond the box engines' point budget
    from pvsieve import experiments as ex
    with pytest.raises(ResourceLimitError):
        ex.disc_value_buckets(10 ** 9)
    with pytest.raises(ResourceLimitError):
        ex.weighted_count(1, 10 ** 9)
