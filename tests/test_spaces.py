"""Space models: disc, resolvent, pairing, dual lattice, boxes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pvsieve import spaces as sp
from pvsieve.spaces import CUBIC, QUARTIC, DualElement, VElement


def test_descriptors():
    assert (CUBIC.r, CUBIC.d, CUBIC.m) == (4, 4, 3)
    assert (QUARTIC.r, QUARTIC.d, QUARTIC.m) == (12, 12, 2)
    assert CUBIC.bad_primes == {3}
    assert QUARTIC.bad_primes == {2}
    assert sp.space_by_name("cubic") is CUBIC
    with pytest.raises(ValueError):
        sp.space_by_name("quintic")


def test_velement_roundtrip():
    x = VElement("cubic", (1, -2, 0, 7))
    assert VElement.from_line(x.to_line()) == x
    y = VElement("quartic", tuple(range(12)))
    assert VElement.from_line(y.to_line()) == y
    with pytest.raises(ValueError):
        VElement("cubic", (1, 2, 3))


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
                                     (QUARTIC, 5)])
def test_disc_mod_matches_exact(space, p):
    rng = np.random.default_rng(3)
    X = rng.integers(-50, 51, size=(60, space.r))
    dm = sp.disc_mod(space, X, p)
    for i in range(60):
        assert dm[i] == sp.disc(space, tuple(int(v) for v in X[i])) % p


def test_resolvent_mod_bad_prime():
    with pytest.raises(sp.BadPrimeError):
        sp.resolvent_cubic_mod(np.zeros((1, 12), dtype=np.int64), 2)


# ---------------------------------------------------------------------------
# pairing / dual lattice
# ---------------------------------------------------------------------------

def test_pairing_examples():
    assert sp.pairing(CUBIC, (1, 0, 0, 1), (2, 3, 3, 2)) == 4
    assert sp.pairing(CUBIC, (5, -7, 11, 2), (0, 0, 0, 0)) == 0
    eye_zero = (1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    assert sp.pairing(QUARTIC, eye_zero, eye_zero) == 3


def test_pairing_fractional_off_dual():
    from fractions import Fraction
    v = sp.pairing(CUBIC, (0, 1, 0, 0), (0, 1, 0, 0))
    assert v == Fraction(1, 3)


def test_pairing_mod_bad_prime():
    with pytest.raises(sp.BadPrimeError):
        sp.pairing_weights_mod(CUBIC, 3)
    with pytest.raises(sp.BadPrimeError):
        sp.pairing_weights_mod(QUARTIC, 2)
    w = sp.pairing_weights_mod(CUBIC, 7)
    assert (3 * w[1]) % 7 == 1


def test_rho_examples():
    assert sp.rho_image_check(CUBIC, (1, 3, 6, 2))
    assert not sp.rho_image_check(CUBIC, (1, 1, 0, 0))
    y = tuple(2 * c for c in range(12))
    assert sp.rho_image_check(QUARTIC, y)
    assert not sp.rho_image_check(QUARTIC, (0, 0, 0, 1) + (0,) * 8)


@given(st.lists(st.integers(-20, 20), min_size=4, max_size=4))
def test_rho_roundtrip_cubic(k):
    ke = DualElement("cubic", tuple(k))
    y = ke.rho()
    assert sp.rho_image_check(CUBIC, y)
    assert sp.rho_inverse(CUBIC, y) == ke
    # pairing against the rho image is the plain dot product (hence integral)
    x = (3, 1, -4, 1)
    assert sp.pairing(CUBIC, x, y) == sum(a * b for a, b in zip(x, k))


@given(st.lists(st.integers(-9, 9), min_size=12, max_size=12))
def test_rho_roundtrip_quartic(k):
    ke = DualElement("quartic", tuple(k))
    y = ke.rho()
    assert sp.rho_image_check(QUARTIC, y)
    assert sp.rho_inverse(QUARTIC, y) == ke


@pytest.mark.parametrize("space", [CUBIC, QUARTIC])
def test_m_multiples_in_dual_image(space):
    rng = np.random.default_rng(4)
    for _ in range(20):
        y = tuple(int(space.m * v) for v in rng.integers(-10, 11, space.r))
        assert sp.rho_image_check(space, y)


def test_rho_inverse_rejects():
    with pytest.raises(sp.NotInDualLatticeError):
        sp.rho_inverse(CUBIC, (1, 1, 0, 0))


def test_dual_disc_cubic_grading():
    # disc(rho(k)) = 27 * dual_disc_cubic(k), identically
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = tuple(int(v) for v in rng.integers(-30, 31, 4))
        assert sp.disc(CUBIC, sp.rho_apply(CUBIC, k)) == 27 * sp.dual_disc_cubic(k)


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------

def test_box_counts():
    assert sp.box_axis(0) == [0]
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
        assert axis == sorted(set(axis))


def test_box_progression_membership():
    for x0 in (1, 2, 0, -4, 7):
        axis = sp.box_axis(5, x0, 3)
        assert all(abs(t) <= 5 and (t - x0) % 3 == 0 for t in axis)
        assert axis == [t for t in range(-5, 6) if (t - x0) % 3 == 0]


def test_box_resource_limit():
    # X = 10^9 is a 355^4-point box, beyond the box engines' point budget
    from pvsieve import experiments as ex
    with pytest.raises(sp.ResourceLimitError):
        ex.disc_value_buckets(10 ** 9)
    with pytest.raises(sp.ResourceLimitError):
        ex.weighted_count(1, 10 ** 9)
