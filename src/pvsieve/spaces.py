"""The two lattices under study and their basic invariants.

cubic   : V(Z) = integral binary cubic forms a u^3 + b u^2 v + c u v^2 + d v^3,
          coords (a, b, c, d), r = 4, acted on by GL_2.
quartic : V(Z) = pairs (A, B) of integral symmetric 3x3 matrices, coords
          (a11,a22,a33,a12,a13,a23, b11,b22,b33,b12,b13,b23) storing matrix
          entries (so the quadratic form has cross coefficient 2*a12 etc.),
          r = 12, acted on by GL_2 x GL_3.

A SpaceDescriptor carries everything the Fourier pipeline needs to know
about its space, as data:

  space_id, r     name, dimension of V (also the degree of disc);
  m               the dual-lattice index parameter (cubic 3, quartic 2); the
                  bad primes, where the pairing degenerates, divide it;
  weights         the pairing [x, y] = sum w_i x_i y_i over Q:
                  cubic (1, 1/3, 1/3, 1), i.e. x1 y1 + (x2 y2 + x3 y3)/3
                  + x4 y4; quartic (1,1,1,2,2,2) on each matrix, i.e.
                  tr(A A') + tr(B B');
  binary_cubic    coords -> the binary cubic whose discriminant is disc(x),
                  exactly: the form itself for the cubic space, the
                  resolvent 4*det(Ax + By) for the quartic space.

disc, disc_mod and pairing_weights_mod read these fields and never branch
on the space.  Elements are plain coordinate tuples or (n, r) integer
arrays.  Work budgets are not facts about a space: each belongs to the
module whose kernel spends the work.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ffcore import mod


class BadPrimeError(ValueError):
    pass


class MismatchError(ArithmeticError):
    """An identity the computation checks failed to hold."""


# ---------------------------------------------------------------------------
# discriminants
# ---------------------------------------------------------------------------

def disc_cubic(a, b, c, d):
    """Discriminant of a u^3 + b u^2 v + c u v^2 + d v^3.  Works on ints or
    numpy arrays alike; arrays should have the dtype disc_dtype picks."""
    return (b * b * c * c - 4 * a * c * c * c - 4 * b * b * b * d
            - 27 * a * a * d * d + 18 * a * b * c * d)


def disc_dtype(M):
    """The narrowest exact dtype for disc_cubic on |coords| <= M: every
    partial sum is bounded by 54 M^4, so int32 while that is below 2^31
    (M <= 79), int64 below 2^63 (M up to ~20 000), exact object arrays
    beyond."""
    bound = 54 * M ** 4
    if bound < 2 ** 31:
        return np.int32
    return np.int64 if bound < 2 ** 63 else object


def _det3_sym(a11, a22, a33, a12, a13, a23):
    return (a11 * a22 * a33 + 2 * a12 * a13 * a23
            - a11 * a23 * a23 - a22 * a13 * a13 - a33 * a12 * a12)


def resolvent_cubic(coords):
    """Coefficients (c0, c1, c2, c3) of 4*det(Ax + By) for a quartic-space
    element.  Exact integers, on tuples and on integer arrays alike; on an
    array, in the dtype of resolvent_dtype(M), M = max |entry|.

    det(Ax+By) is cubic in (x,y); four evaluations determine it:
    det A, det B, det(A+B), det(A-B).  Each determinant is formed from
    columns cast one at a time, so no widened copy of the rows is made.
    """
    if not isinstance(coords, np.ndarray):
        x = np.array([int(c) for c in coords], dtype=object)
        return tuple(int(c) for c in resolvent_cubic(x))
    dtype = resolvent_dtype(_max_abs(coords))

    def col(i):
        return coords[..., i].astype(dtype)

    dA = _det3_sym(*(col(i) for i in range(6)))
    dB = _det3_sym(*(col(i) for i in range(6, 12)))
    dP = _det3_sym(*(col(i) + col(i + 6) for i in range(6)))
    dM = _det3_sym(*(col(i) - col(i + 6) for i in range(6)))
    c0, c3 = dA, dB
    c1 = (dP - dM) // 2 - c3
    c2 = (dP + dM) // 2 - c0
    return 4 * c0, 4 * c1, 4 * c2, 4 * c3


def resolvent_dtype(M):
    """The narrowest exact dtype for resolvent_cubic on |entries| <= M: the
    entries of A +- B are at most 2M, so each determinant and each partial
    sum is at most 48 M^3, dP - dM at most 96 M^3 and each coefficient at
    most 4 (48 + 6) M^3 = 216 M^3.  int32 while that is below 2^31
    (M <= 215), int64 below 2^63, exact object arrays beyond."""
    bound = 216 * M ** 3
    if bound < 2 ** 31:
        return np.int32
    return np.int64 if bound < 2 ** 63 else object


def _max_abs(x):
    """max |x| over an integer array as a Python int (0 when empty); taken
    from the extremes, since np.abs of the int64 minimum is negative."""
    x = np.asarray(x)
    if x.size == 0:
        return 0
    return max(int(x.max()), -int(x.min()))


def _form_itself(coords):
    """A binary cubic's own coefficients: the columns of an array, or the
    tuple as given."""
    if isinstance(coords, np.ndarray):
        return tuple(coords[..., i] for i in range(4))
    return tuple(coords)


# ---------------------------------------------------------------------------
# the descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceDescriptor:
    space_id: str
    r: int                  # dimension of V and degree of disc
    m: int                  # dual lattice index parameter
    weights: tuple          # pairing weights, as Fractions
    binary_cubic: object    # coords -> cubic with disc(x) as its disc

    def is_bad_prime(self, p):
        """p divides m: the pairing degenerates, the closed forms fail."""
        return self.m % p == 0


_PAIR_W = (1, 1, 1, 2, 2, 2) * 2

CUBIC = SpaceDescriptor("cubic", 4, 3,
                        weights=tuple(map(Fraction, (1, "1/3", "1/3", 1))),
                        binary_cubic=_form_itself)
QUARTIC = SpaceDescriptor("quartic", 12, 2,
                          weights=tuple(map(Fraction, _PAIR_W)),
                          binary_cubic=resolvent_cubic)

_SPACES = {"cubic": CUBIC, "quartic": QUARTIC}


def space_by_name(name):
    try:
        return _SPACES[name]
    except KeyError:
        raise ValueError(f"unknown space {name!r} (cubic|quartic)") from None


def disc(space, coords):
    """Exact integer discriminant of a coordinate tuple (Python ints) or an
    integer array; on arrays the binary cubic goes through disc_dtype of its
    largest coefficient, as in disc_mod."""
    cubic = space.binary_cubic(coords)
    if isinstance(coords, np.ndarray):
        M = max(_max_abs(c) for c in cubic)
        cubic = (np.asarray(c).astype(disc_dtype(M)) for c in cubic)
    return disc_cubic(*cubic)


def disc_mod(space, coords, p):
    """disc reduced mod p as int64, vectorized; exact at every p: the
    binary cubic is exact, and its coefficients, reduced mod p, go through
    disc_dtype."""
    dtype = disc_dtype(p - 1)
    cubic = (mod(c, p).astype(dtype, copy=False)
             for c in space.binary_cubic(np.asarray(coords, dtype=np.int64)))
    return mod(disc_cubic(*cubic), p).astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# pairing and the dual lattice
# ---------------------------------------------------------------------------

def pairing_weights_mod(space, p):
    """The pairing as an integer weight vector mod p (so that
    [x,y] = sum w_i x_i y_i mod p).  Bad primes are refused."""
    if space.is_bad_prime(p):
        raise BadPrimeError(f"p={p} is a bad prime for {space.space_id}")
    return np.array([w.numerator * pow(w.denominator, -1, p) % p
                     for w in space.weights], dtype=np.int64)


def dual_disc_cubic(k):
    """The discriminant polynomial seen by the dual coordinates: the dual
    lattice maps into V(Z) by rho(a, q, r, d) = (a, 3q, 3r, d), and
    disc(rho(k)) = 27 * dual_disc_cubic(k), identically.  This is the right
    grading for plain-dot-product Fourier transforms on the dual side, and
    unlike disc itself it stays meaningful mod 3.
    """
    a, q, r, d = (k[..., 0], k[..., 1], k[..., 2], k[..., 3]) if isinstance(
        k, np.ndarray) else k
    return (3 * q * q * r * r - 4 * a * r ** 3 - 4 * d * q ** 3
            - a * a * d * d + 6 * a * d * q * r)


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------

def box_axis(Z, x0=0, m_prog=1):
    """The range of integers t with |t| <= Z and t = x0 mod m_prog, in
    ascending order; its length costs nothing to take."""
    Z = int(np.floor(Z))
    if m_prog <= 1:
        return range(-Z, Z + 1)
    return range(-Z + ((x0 + Z) % m_prog), Z + 1, m_prog)
