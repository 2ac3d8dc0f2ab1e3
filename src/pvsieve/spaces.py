"""The two lattices under study and their basic invariants.

cubic   : V(Z) = integral binary cubic forms a u^3 + b u^2 v + c u v^2 + d v^3,
          coords (a, b, c, d), r = d = 4, acted on by GL_2.
quartic : V(Z) = pairs (A, B) of integral symmetric 3x3 matrices, coords
          (a11,a22,a33,a12,a13,a23, b11,b22,b33,b12,b13,b23) storing matrix
          entries (so the quadratic form has cross coefficient 2*a12 etc.),
          r = d = 12, acted on by GL_2 x GL_3.

disc(x) for the quartic space is the binary-cubic discriminant of the
resolvent 4*det(Ax + By).

The dual lattice sits inside V(Z) via the bilinear pairing:
  cubic   [x,y] = x1 y1 + (1/3)(x2 y2 + x3 y3) + x4 y4 ;  image = forms whose
          two middle coefficients are multiples of 3;  index parameter m = 3.
  quartic [x,y] = tr(A A') + tr(B B') = sum(diag*diag) + 2*sum(off*off);
          image = pairs with even off-diagonal entries;  m = 2.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class BadPrimeError(ValueError):
    pass


class NotInDualLatticeError(ValueError):
    pass


class ResourceLimitError(RuntimeError):
    pass


@dataclass(frozen=True)
class SpaceDescriptor:
    space_id: str
    r: int              # dimension of V
    d: int              # degree of disc
    m: int              # dual lattice index parameter
    bad_primes: frozenset

    def __post_init__(self):
        assert self.r == self.d, "both supported spaces have r = d"


CUBIC = SpaceDescriptor("cubic", 4, 4, 3, frozenset({3}))
QUARTIC = SpaceDescriptor("quartic", 12, 12, 2, frozenset({2}))

_SPACES = {"cubic": CUBIC, "quartic": QUARTIC}


def space_by_name(name):
    try:
        return _SPACES[name]
    except KeyError:
        raise ValueError(f"unknown space {name!r} (cubic|quartic)") from None


@dataclass(frozen=True)
class VElement:
    space_id: str
    coords: tuple
    modulus: int = 0        # 0 = over Z, else mod-q coords in [0, q)

    def __post_init__(self):
        sp = space_by_name(self.space_id)
        if len(self.coords) != sp.r:
            raise ValueError(f"{self.space_id} element needs {sp.r} coords")
        if self.modulus:
            assert all(0 <= c < self.modulus for c in self.coords)

    def to_line(self):
        return f"{self.space_id} " + ",".join(str(c) for c in self.coords)

    @classmethod
    def from_line(cls, line):
        name, _, rest = line.strip().partition(" ")
        return cls(name, tuple(int(t) for t in rest.split(",")))


@dataclass(frozen=True)
class DualElement:
    """Element of V*(Z) in dual coordinates; rho() lands it in V(Z)."""
    space_id: str
    coords: tuple

    def __post_init__(self):
        sp = space_by_name(self.space_id)
        if len(self.coords) != sp.r:
            raise ValueError(f"{self.space_id} dual element needs {sp.r} coords")

    def rho(self):
        return VElement(self.space_id,
                        rho_apply(space_by_name(self.space_id), self.coords))


# ---------------------------------------------------------------------------
# discriminants
# ---------------------------------------------------------------------------

def disc_cubic(a, b, c, d):
    """Discriminant of a u^3 + b u^2 v + c u v^2 + d v^3.  Works on ints or
    numpy arrays alike.  |disc| <= 54 M^4 for |coords| <= M, so int64
    arrays wrap once M passes ~20 000; experiments._disc_slices, the box
    traversal, picks int64 or exact object arrays from that bound."""
    return (b * b * c * c - 4 * a * c * c * c - 4 * b * b * b * d
            - 27 * a * a * d * d + 18 * a * b * c * d)


def _det3_sym(a11, a22, a33, a12, a13, a23):
    return (a11 * a22 * a33 + 2 * a12 * a13 * a23
            - a11 * a23 * a23 - a22 * a13 * a13 - a33 * a12 * a12)


def resolvent_cubic(coords):
    """Coefficients (c0, c1, c2, c3) of 4*det(Ax + By) for a quartic-space
    element.  Exact integers; array-friendly.

    det(Ax+By) is cubic in (x,y); four evaluations determine it:
    det A, det B, det(A+B), det(A-B).
    """
    if not isinstance(coords, np.ndarray):
        x = np.array([int(c) for c in coords], dtype=object)
        return tuple(int(c) for c in resolvent_cubic(x))
    A = coords[..., 0:6]
    B = coords[..., 6:12]
    dA = _det3_sym(*(A[..., i] for i in range(6)))
    dB = _det3_sym(*(B[..., i] for i in range(6)))
    dP = _det3_sym(*((A[..., i] + B[..., i]) for i in range(6)))
    dM = _det3_sym(*((A[..., i] - B[..., i]) for i in range(6)))
    c0, c3 = dA, dB
    c1 = (dP - dM) // 2 - c3
    c2 = (dP + dM) // 2 - c0
    return 4 * c0, 4 * c1, 4 * c2, 4 * c3


def resolvent_cubic_mod(coords, p):
    """Same as resolvent_cubic but entirely mod an odd prime p (int64-safe
    for p up to ~40000)."""
    if p == 2:
        raise BadPrimeError("resolvent mod 2 unsupported (bad prime)")
    inv2 = pow(2, -1, p)
    C = np.asarray(coords, dtype=np.int64) % p
    A, B = C[..., 0:6], C[..., 6:12]
    dA = _det3_sym(*(A[..., i] for i in range(6))) % p
    dB = _det3_sym(*(B[..., i] for i in range(6))) % p
    dP = _det3_sym(*((A[..., i] + B[..., i]) % p for i in range(6))) % p
    dM = _det3_sym(*((A[..., i] - B[..., i]) % p for i in range(6))) % p
    c0, c3 = dA, dB
    c1 = ((dP - dM) * inv2 - c3) % p
    c2 = ((dP + dM) * inv2 - c0) % p
    return (4 * c0) % p, (4 * c1) % p, (4 * c2) % p, (4 * c3) % p


def disc(space, coords):
    """Exact integer discriminant.  For scalar inputs prefer python ints in
    coords (no overflow); numpy arrays are fine within int64 range."""
    if isinstance(coords, (VElement, DualElement)):
        coords = coords.coords
    if space.space_id == "cubic":
        a, b, c, d = (coords[..., i] for i in range(4)) if isinstance(
            coords, np.ndarray) else coords
        return disc_cubic(a, b, c, d)
    if isinstance(coords, np.ndarray):
        return disc_cubic(*resolvent_cubic(coords))
    x = np.array([int(c) for c in coords], dtype=object)  # exact bigints
    return int(disc_cubic(*resolvent_cubic(x)))


def disc_mod(space, coords, p):
    """disc reduced mod p, vectorized, int64-safe."""
    C = np.asarray(coords, dtype=np.int64) % p
    if space.space_id == "cubic":
        return disc_cubic(C[..., 0], C[..., 1], C[..., 2], C[..., 3]) % p
    a, b, c, d = resolvent_cubic_mod(C, p)
    return disc_cubic(a, b, c, d) % p


# ---------------------------------------------------------------------------
# pairing and the dual lattice
# ---------------------------------------------------------------------------

_QUARTIC_W = np.array([1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2], dtype=np.int64)


def pairing(space, x, y):
    """[x, y] over Q (cubic) or Z (quartic).  Integer whenever y is in the
    image of the dual lattice."""
    x = x.coords if isinstance(x, VElement) else x
    y = y.coords if isinstance(y, VElement) else y
    if space.space_id == "cubic":
        v = (Fraction(x[0] * y[0]) + Fraction(x[1] * y[1], 3)
             + Fraction(x[2] * y[2], 3) + Fraction(x[3] * y[3]))
        return int(v) if v.denominator == 1 else v
    return int(sum(int(w) * a * b for w, a, b in zip(_QUARTIC_W, x, y)))


def pairing_weights_mod(space, p):
    """The pairing as an integer weight vector mod p (so that
    [x,y] = sum w_i x_i y_i mod p).  Bad primes are refused."""
    if p in space.bad_primes:
        raise BadPrimeError(f"p={p} is a bad prime for {space.space_id}")
    if space.space_id == "cubic":
        i3 = pow(3, -1, p)
        return np.array([1, i3, i3, 1], dtype=np.int64)
    return _QUARTIC_W % p


def pairing_mod(space, x, y, p):
    w = pairing_weights_mod(space, p)
    return int(np.dot(w * (np.asarray(x, dtype=np.int64) % p),
                      np.asarray(y, dtype=np.int64) % p) % p)


def rho_apply(space, dual_coords):
    """rho : V*(Z) -> V(Z).  cubic (k1,k2,k3,k4) -> (k1, 3k2, 3k3, k4);
    quartic doubles the six off-diagonal coordinates."""
    if isinstance(dual_coords, DualElement):
        dual_coords = dual_coords.coords
    k = tuple(dual_coords)
    if space.space_id == "cubic":
        return (k[0], 3 * k[1], 3 * k[2], k[3])
    return tuple(c * (2 if w == 2 else 1) for c, w in zip(k, _QUARTIC_W))


def rho_image_check(space, y):
    y = y.coords if isinstance(y, VElement) else y
    if space.space_id == "cubic":
        return y[1] % 3 == 0 and y[2] % 3 == 0
    return all(y[i] % 2 == 0 for i in (3, 4, 5, 9, 10, 11))


def rho_inverse(space, y):
    """Preimage under rho as a DualElement, or NotInDualLatticeError."""
    c = y.coords if isinstance(y, VElement) else tuple(y)
    if not rho_image_check(space, c):
        raise NotInDualLatticeError(f"{c} not in rho(V*(Z))")
    if space.space_id == "cubic":
        k = (c[0], c[1] // 3, c[2] // 3, c[3])
    else:
        k = tuple(ci // (2 if w == 2 else 1) for ci, w in zip(c, _QUARTIC_W))
    return DualElement(space.space_id, k)


def dual_disc_cubic(k):
    """The discriminant polynomial seen by the dual coordinates:
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
    """Sorted integers t with |t| <= Z and t = x0 mod m_prog."""
    Z = int(np.floor(Z))
    if m_prog <= 1:
        return list(range(-Z, Z + 1))
    lo = -Z + ((x0 + Z) % m_prog)
    return list(range(lo, Z + 1, m_prog))
