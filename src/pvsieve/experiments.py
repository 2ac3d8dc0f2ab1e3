"""Desk-scale counting engines.

The chain being exercised: a smooth box count of q | disc(x) over the
cubic space splits as

    sum_x Psi_q(x) phi(x X^{-1/4})
        = omega(q) phihat(0) X  +  E(X, q)
        = X * sum_k Psihat*_q(k) phihat(k X^{1/4} / q)      (Poisson)

so E(X, q) is both directly measurable (box minus main term) and
expressible through the dual-side transform.  The engines here measure
E(X, q) sums over q <= X^alpha, validate the Poisson identity with an
honest truncation-tail certificate, evaluate the dual-side central sum
exactly in rationals on either space (with a majorant on the cubic one),
count the reducible (disc = 0) locus through its (qx - py)^2 (ux - vy)
parametrization, and count geometric-sieve pairs (x, p) with p | disc(x)
for p in a dyadic window.

Floating-point policy: every weighted box count is served from
disc_value_buckets, which walks the slices a = 0..R of the box's
fundamental domain under its order-8 symmetry group (_disc_slices, the
one box walk of the cubic engines) in ascending order, with the tail
ordered by d, then b, then c.  Each point's weight is its bump value
times its multiplicity, a power of two, so folding the multiplicity in
is exact.  The pass sums each slice by disc value, merges every 8 slices
into a group and merges the groups as a binary counter: a new group
merges with the last one of the same level, and at the end the leftovers
merge from the newest back.  That is the tree of merging the groups pairwise level by level with an
odd last group carried up, built eagerly, so only about log2(groups)
tables are alive at once.  A merge adds the terms of each value in run
order, and a q-query sums the matching buckets in value order.  The
order of every floating-point operation is fixed, so every number here
is reproducible bit-for-bit run to run.  The bump's transform, and with
it the mass in every main term, is one trapezoid rule whose alias error
is bounded (SmoothWeight.psihat).
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as poly

from . import fourier, sieve
from .ffcore import factor_squarefree
from .spaces import (CUBIC, MismatchError, ResourceLimitError, box_axis,
                     disc, disc_cubic, disc_dtype, space_by_name)


class QuadratureError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# the smooth weight
# ---------------------------------------------------------------------------

@functools.cache
def _psi_deriv_rational(n):
    """psi^(n) = P(u) / (1-u^2)^k * psi(u), exact; returns (P, k), cached.

    Recursion: d/du [P/(1-u^2)^k psi] adds the derivative of the rational
    prefactor plus P * g' with g' = -2u/(1-u^2)^2; both land on k+2.  P is
    a tuple of Fractions, built in numpy object arrays."""
    one_minus = np.array([Fraction(1), Fraction(0), Fraction(-1)])
    P, k = np.array([Fraction(1)]), 0
    for _ in range(n):
        num = poly.polyadd(poly.polymul(poly.polyder(P), one_minus),
                           poly.polymul([0, 2 * k], P))
        P = poly.polysub(poly.polymul(num, one_minus),
                         poly.polymul([0, 2], P))
        k += 2
    return tuple(poly.polytrim(P).tolist()), k


# psihat's trapezoid rule: PSIHAT_NODES equal intervals of [-1, 1], and the
# largest |t| it serves
PSIHAT_NODES = 2 ** 12
PSIHAT_DOMAIN = 768


@dataclass(frozen=True)
class SmoothWeight:
    """Tensor bump phi(x) = prod psi(x_i / s), psi(u) = exp(1 - 1/(1-u^2)).

    The transforms of psi do not depend on s.  psihat is one trapezoid
    rule, the mass is its value at 0 (a module constant, PSI_MASS), and
    K6 = ||psi^(6)||_1 comes from the exact numerators of psi^(5) and
    psi^(6)."""
    s: float = 1.0

    @staticmethod
    def psi(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        m = np.abs(u) < 1
        out[m] = np.exp(1 - 1 / (1 - u[m] ** 2))
        return out

    @staticmethod
    def psihat(t):
        """psihat(t) = int_{-1}^{1} psi(x) cos(2 pi t x) dx at each t of an
        array, by the trapezoid rule on N = PSIHAT_NODES = 2^12 equal
        intervals.

        psi and all its derivatives vanish at +-1, so by Poisson summation
        the rule returns exactly sum_j psihat(t + j N/2): its error is the
        aliases j != 0.  With |psihat(tau)| <= K6 / (2 pi tau)^6 that error
        is at most sum_{j >= 1} K6 (2 pi)^-6 ((j N/2 - |t|)^-6
        + (j N/2 + |t|)^-6), below 6e-17 for |t| <= PSIHAT_DOMAIN = 768
        (K6 = 1.4452e7); the Poisson checks of every box within the point
        budget ask for |t| <= 8 * 66 = 528.  Any other t raises
        QuadratureError: no comparison of the rule with itself sees an
        alias (t = N/2 returns psihat(0)).  Rounding is apart from that
        bound: about 4e-16 at |t| = 768.  Each value is one dot product of
        its cosines with the node weights, so it does not depend on the
        other t of the call."""
        t = np.asarray(t, dtype=float)
        if not np.all(np.abs(t) <= PSIHAT_DOMAIN):
            raise QuadratureError(
                f"psihat serves |t| <= {PSIHAT_DOMAIN}, asked for "
                f"{float(np.max(np.abs(t)))}")
        x = np.linspace(-1, 1, PSIHAT_NODES + 1)
        w = SmoothWeight.psi(x) * (2 / PSIHAT_NODES)
        cos = np.cos(2 * np.pi * t.reshape(-1, 1) * x)
        return np.array([np.dot(c, w) for c in cos]).reshape(t.shape)

    @property
    def psi_integral(self):
        return PSI_MASS

    @property
    def phi_hat0(self):
        """phihat(0) = (s * psi mass)^4, the mass of the 4-dimensional
        bump."""
        return (self.s * self.psi_integral) ** 4

    @staticmethod
    def psi_sixth_l1():
        """K6 = ||psi^(6)||_1, for |psihat(t)| <= K6 / (2 pi t)^6.

        psi^(n) = P_n(u) / (1-u^2)^k psi(u) with P_n exact, so psi^(6)
        changes sign only at the real roots r_1 < ... < r_m of P_6 in
        (-1, 1) (m = 10), and K6 is the total variation of psi^(5):
        sum_i |psi^(5)(r_{i+1}) - psi^(5)(r_i)|, with r_0 = -1, r_{m+1} = 1
        and psi^(5)(+-1) = 0.  psi^(6) vanishes at each root, so a root's
        float error moves K6 only to second order."""
        r = poly.polyroots(np.array(_psi_deriv_rational(6)[0], dtype=float))
        r = np.sort(r.real[np.isreal(r) & (np.abs(r) < 1)])
        P5, k = _psi_deriv_rational(5)
        d5 = (poly.polyval(r, np.array(P5, dtype=float)) / (1 - r * r) ** k
              * SmoothWeight.psi(r))
        return float(np.sum(np.abs(np.diff(d5, prepend=0.0, append=0.0))))


PSI_MASS = float(SmoothWeight.psihat(0.0))


# ---------------------------------------------------------------------------
# box counts and E(X, q)
# ---------------------------------------------------------------------------

def box_radius(X, s=1.0, d=4):
    return int(np.floor(s * X ** (1 / d) - 1e-12))


def _disc_slices(axis):
    """Walk the fundamental domain of the box axis^4 (axis symmetric about
    0) under the order-8 group generated by (a,b,c,d) -> (d,c,b,a),
    (a,b,c,d) -> (-a,b,-c,d) and x -> -x, which preserves disc, the box
    and every tensor weight prod w(x_i) with w even.

    The domain is a >= 0, b >= 0, all c, |d| <= a.  Reversal carries
    |d| > |a| onto |a| > |d|, the second generator flips the sign of a and
    keeps |a|, |d| and c's axis, and the composite (a,-b,c,-d) flips the
    sign of b; so a domain point stands for w(a) w(b) v(a, d) box points,
    w(t) = 2 for t > 0 and 1 for t = 0, v = 2 for |d| < a and 1 for
    |d| = a.

    Yields (ia, disc, mult, (ib, ic, id)) for each axis[ia] >= 0 in
    ascending order: the slice's discriminants, multiplicities and indices
    into axis, with d, then b, then c ascending.  The dtype is chosen once,
    by spaces.disc_dtype from max |t|."""
    axis = np.asarray(axis, dtype=np.int64)
    n = axis.size
    if n % 2 == 0 or not np.array_equal(axis, -axis[::-1]):
        raise ValueError("the box axis must be symmetric about 0")
    z = n // 2                                 # axis[z] = 0
    dtype = disc_dtype(int(axis[-1]))
    idx = np.indices((n, n - z, n)).reshape(3, -1)
    idx[1] += z
    id_, ib, ic = idx
    D, B, C = (axis[i].astype(dtype) for i in idx)
    per_d = (n - z) * n                        # points of one d in the tail
    w_b = np.where(ib[:per_d] == z, 1, 2)      # w(b) over one d's (b, c)
    for i in range(n - z):
        rows = slice((z - i) * per_d, (z + i + 1) * per_d)
        v = np.full(2 * i + 1, 2)              # v(a, d) for d = -a..a
        v[[0, -1]] = 1
        mult = ((2 if i else 1) * v[:, None] * w_b).ravel()
        a = np.asarray(axis[z + i]).astype(dtype)
        yield (z + i, disc_cubic(a, B[rows], C[rows], D[rows]), mult,
               (ib[rows], ic[rows], id_[rows]))


def main_term(q, X, weight):
    """omega(q) phihat(0) X^{r/d} for the cubic space, squarefree q."""
    dens = 1.0
    for p in factor_squarefree(int(q)):
        dens *= float(fourier.omega(CUBIC, p))
    return dens * weight.phi_hat0 * X


def weighted_count(q, X, weight=None):
    """(lattice sum, main term, E(X,q)) for the cubic box count of
    q | disc(x) with weight phi(x X^{-1/4}), served from one
    disc_value_buckets pass."""
    weight = weight or SmoothWeight()
    total = serve_buckets(*disc_value_buckets(X, weight), q)
    main = main_term(q, X, weight)
    return total, main, total - main


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
    d and every value, the dtype's minimum included.  Other arrays
    (object, unsigned) take `% d`."""
    d = int(d)
    if d < 1:
        raise ValueError(f"divisor must be >= 1, got {d}")
    if vals.dtype.kind != "i":
        return vals % d == 0
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


def disc_value_buckets(X, weight=None):
    """One pass over the box |x_i| <= box_radius(X); returns (vals, sums):
    distinct disc values (sorted) and the total weight attached to each.
    The pass walks the box's fundamental domain (_disc_slices), and each
    point weighs w1[a] w1[b] w1[c] w1[d] times its multiplicity, a power
    of two, so the product is exact.  The values keep the walk's dtype:
    int32 within the point budget (54 R^4 < 2^31 up to R = 79).  Serving
    any q | disc query afterwards is a divisibility scan of the value
    array.  Boxes beyond the point budget are refused."""
    weight = weight or SmoothWeight()
    R = box_radius(X, weight.s)
    if (2 * R + 1) ** 4 > 3e8:
        raise ResourceLimitError(f"box radius {R} beyond the point budget")
    xs = np.arange(-R, R + 1, dtype=np.int64)
    w1 = weight.psi(xs / (weight.s * X ** 0.25))
    counter = []                    # (level, vals, sums), levels decreasing
    pend_v, pend_s = [], []
    for ia, disc, mult, (ib, ic, id_) in _disc_slices(xs):
        v, inv = np.unique(disc, return_inverse=True)
        s = np.bincount(inv, weights=w1[ia] * w1[ib] * w1[ic] * w1[id_]
                        * mult)
        pend_v.append(v)
        pend_s.append(s)
        if len(pend_v) >= 8 or ia == len(xs) - 1:     # merge every 8 slices
            level, (v, s) = 0, _merge_buckets(pend_v, pend_s)
            pend_v, pend_s = [], []
            while counter and counter[-1][0] == level:
                _, v0, s0 = counter.pop()
                level, (v, s) = level + 1, _merge_buckets([v0, v], [s0, s])
            counter.append((level, v, s))
    _, vals, sums = counter.pop()
    while counter:
        _, v0, s0 = counter.pop()
        vals, sums = _merge_buckets([v0, vals], [s0, sums])
    return vals, sums


def _merge_buckets(vs, ss):
    """Merge sorted (vals, sums) runs into one.  The stable argsort (a
    timsort, which merges sorted runs in linear time) keeps equal values
    in run order, and bincount adds each value's terms in that order."""
    v = np.concatenate(vs)
    order = np.argsort(v, kind="stable")
    v, s = v[order], np.concatenate(ss)[order]
    del order
    new = np.empty(v.size, dtype=bool)
    new[:1] = True
    np.not_equal(v[1:], v[:-1], out=new[1:])
    ids = np.cumsum(new, dtype=np.int32)    # tables stay below 2^31
    ids -= 1
    return v[new], np.bincount(ids, weights=s)


def serve_buckets(vals, sums, q):
    """Weight of the buckets whose value q divides: one exact divisibility
    scan of vals, the matching sums added in value order."""
    return float(np.sum(sums[divisible(vals, q)]))


@dataclass
class LodConfig:
    X_grid: tuple = (10 ** 5, 10 ** 6, 10 ** 7)
    alpha: float = 0.45
    s: float = 1.0


@dataclass
class LodReport:
    per_X: list          # (X, n_q, reducible mass, cum |E|, cum / X)
    fitted_c: float      # None below two distinct X
    residuals: list
    q_rows: list         # (q, lattice, main, E) at the largest X


def _fit_loglog(xs, ys):
    """(slope, intercept, residuals) of the least-squares line through
    (log x, log y) over the pairs with x, y > 0; None unless two distinct
    x remain."""
    pairs = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len({x for x, _ in pairs}) < 2:
        return None
    lx, ly = np.log(np.array(pairs, float)).T
    A = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - (slope * lx + intercept)
    return float(slope), float(intercept), resid.tolist()


def reducible_mass(vals, sums):
    """phi-weight carried by the disc = 0 bucket."""
    i = np.searchsorted(vals, 0)
    return float(sums[i]) if i < vals.size and vals[i] == 0 else 0.0


def lod_error_sum(cfg=None):
    """Cumulative sum of |E(X, q)| over squarefree q <= X^alpha for each X
    on the grid, plus the fitted growth exponent (None below two distinct
    X).

    E here is the sieve-sequence error: the weights a(n) live on n >= 1,
    n = |disc|, so the disc = 0 locus is not part of the sequence and its
    (q-independent) phi-mass is subtracted from every q-class count.  This
    is not cosmetic at these scales: the zero locus carries weight on the
    order of sqrt(X), which every q <= X^alpha "divides", so leaving it in
    floors |E(X, q)| at that mass and the normalized cumulative loses the
    distribution savings it is supposed to exhibit."""
    cfg = cfg or LodConfig()
    weight = SmoothWeight(s=cfg.s)
    per_X = []
    q_rows = []
    for X in cfg.X_grid:
        qs = [int(q) for q in sieve.squarefree_upto(int(X ** cfg.alpha))]
        vals, sums = disc_value_buckets(X, weight)
        w0 = reducible_mass(vals, sums)
        # serve each q from the values its largest prime P divides: they
        # hold every value q divides, in the same order, so each sum is
        # bit-identical to a scan of the whole table
        by_P = {}
        for q in qs:
            by_P.setdefault(max(factor_squarefree(q), default=1), []).append(q)
        lat = {}
        for P, group in by_P.items():
            keep = np.flatnonzero(divisible(vals, P))
            vP, sP = vals[keep], sums[keep]
            for q in group:
                lat[q] = serve_buckets(vP, sP, q)
        cum = 0.0
        rows = []
        for q in qs:
            mn = main_term(q, X, weight)
            rows.append((q, lat[q], mn, lat[q] - w0 - mn))
            cum += abs(lat[q] - w0 - mn)
        per_X.append((X, len(qs), w0, cum, cum / X))
        q_rows = rows
    slope, _, resid = _fit_loglog([row[0] for row in per_X],
                                  [row[3] for row in per_X]) or (None,) * 3
    return LodReport(per_X=per_X, fitted_c=slope, residuals=resid,
                     q_rows=q_rows)


# ---------------------------------------------------------------------------
# Poisson identity with a truncation certificate
# ---------------------------------------------------------------------------

@dataclass
class PoissonReport:
    q: int
    X: float
    Z: int
    lhs: float
    rhs: float
    rhs_double: float     # radius 2Z evaluation
    tail_bound: float
    @property
    def abs_gap(self):
        return abs(self.lhs - self.rhs)
    @property
    def rel_gap_double(self):
        return abs(self.lhs - self.rhs_double) / abs(self.lhs)


def _dual_value_grid(q):
    """float array over (Z/q)^4 of the dual transform, multiplicative."""
    K = np.indices((q,) * 4, dtype=np.int64).reshape(4, -1).T
    V = np.ones(K.shape[0])
    for p in factor_squarefree(int(q)):
        cls = fourier.dual_cubic_class_batch(K % p, p)
        tab = np.array([float(fourier.dual_ft_value(p, c)) for c in range(3)])
        V *= tab[cls]
    return V.reshape((q,) * 4)


def poisson_rhs(q, X, weight, Z):
    """Truncated dual side: X * sum over |k_i| <= Z of the dual transform
    times the separable phihat factor, collapsed to residues mod q."""
    Y = X ** 0.25
    V = _dual_value_grid(q)
    ks = np.arange(-Z, Z + 1)
    phv = weight.s * weight.psihat(weight.s * ks * Y / q)
    S = np.zeros(q)
    for k, v in zip(ks, phv):
        S[k % q] += v
    return X * float(np.einsum("abcd,a,b,c,d->", V, S, S, S, S))


def poisson_tail_bound(q, X, weight, Z):
    """Explicit bound on the dropped |k_i| > Z dual mass: |dual FT| <= 1
    and |psihat(t)| <= K6/(2 pi t)^6 give

        X * ((T_Z + tau)^4 - T_Z^4),
        tau = 2 s K6 (q / (2 pi s Y))^6 * Z^-5 / 5,

    T_Z the per-axis truncated |psihat| mass.  A 2% inflation of K6
    covers K6's float error (its roots and rounding, about 1e-12 relative)
    and psihat's, which moves T_Z by about 1e-16."""
    Y = X ** 0.25
    s = weight.s
    T = float(np.sum(s * np.abs(weight.psihat(s * np.arange(-Z, Z + 1)
                                              * Y / q))))
    K6 = weight.psi_sixth_l1() * 1.02
    tau = 2 * s * K6 * (q / (2 * math.pi * s * Y)) ** 6 / (5 * Z ** 5)
    return X * ((T + tau) ** 4 - T ** 4)


def poisson_check(q, X=10 ** 4, weight=None, Z=None):
    weight = weight or SmoothWeight()
    Z = Z if Z is not None else 2 + 2 * q
    lhs, _, _ = weighted_count(q, X, weight)
    return PoissonReport(q=q, X=X, Z=Z, lhs=lhs,
                         rhs=poisson_rhs(q, X, weight, Z),
                         rhs_double=poisson_rhs(q, X, weight, 2 * Z),
                         tail_bound=poisson_tail_bound(q, X, weight, Z))


# ---------------------------------------------------------------------------
# the dual-side central sum, exactly
# ---------------------------------------------------------------------------

# Budget of one dual_bound_sum.  Work: per modulus, a step per box point
# (tally) and a trial division up to sqrt(2N) (factoring); per box point
# and prime, space_kernel's cost.  A step took ~15 ns on a 2-core VM, so
# the cap is about five minutes.  Bytes: the moduli sieve, three copies of
# the box (building it, reducing it mod p) and a class byte per point and
# prime.
DUAL_BOUND_WORK = 2 * 10 ** 10
DUAL_BOUND_BYTES = 2 ** 30


@dataclass
class DualBoundReport:
    N: int
    Z: int
    total: Fraction
    disc0_part: Fraction
    nonzero_part: Fraction
    n_q: int
    n_points: int
    qsplit_checked: int    # identity verified on every q0-divisible point


def _nonzero_box(Z, r):
    """The nonzero points of the box |x_i| <= Z as an (n, r) int64 array,
    in lexicographic order."""
    side = 2 * Z + 1
    Y = np.indices((side,) * r, dtype=np.int64).reshape(r, -1).T - Z
    return np.delete(Y, side ** r // 2, axis=0)


def _box_row(X, Z):
    """Row of each nonzero point of X in _nonzero_box(Z, r)."""
    shape = (2 * Z + 1,) * X.shape[1]
    full = np.ravel_multi_index(tuple((X + Z).T), shape)
    return full - (full > np.prod(shape) // 2)


def check_dual_bound(N, Z, space):
    """The moduli of dual_bound_sum(N, Z) on the space, {q: primes of
    q / (q, m)}, or ResourceLimitError past the budget.  Nothing is graded,
    and the moduli are listed only once N + 1 of them would fit."""
    n = (2 * Z + 1) ** space.r - 1
    per_q = n + 1 + math.isqrt(2 * N)
    work, size = (N + 1) * per_q, 2 * N + 24 * space.r * n
    moduli = {}
    if work <= DUAL_BOUND_WORK and size <= DUAL_BOUND_BYTES:
        moduli = {int(q): [p for p in factor_squarefree(int(q)) if space.m % p]
                  for q in sieve.squarefree_upto(2 * N) if q >= N}
        primes = set().union(*moduli.values())
        cost = fourier.space_kernel(space).cost
        work = len(moduli) * per_q + n * sum(map(cost, primes))
        size += n * len(primes)
    if work > DUAL_BOUND_WORK or size > DUAL_BOUND_BYTES:
        raise ResourceLimitError(
            f"{n} lattice points with q in [{N}, {2 * N}]: {work:.3g} steps"
            f" and {size:.3g} bytes exceed the dual-bound budget")
    return moduli


def dual_bound_sum(N, Z, space_id="cubic"):
    """Exact sum over squarefree q in [N, 2N] and nonzero lattice x with
    |x_i| <= Z of |FT_q(x)|, split by disc(x) = 0 / != 0.

    The box is graded once per prime p of the moduli (p not dividing m) by
    fourier.target_classes.  FT_q(x) is the product over the primes of
    q / (q, m) of the closed form of x's class, so each q tallies the class
    tuples of its primes (mixed-radix codes) over the box and over its
    disc = 0 points, and sums count times value over the tuples that occur.

    Every (q, x) with q0 = gcd(q, content of x) > 1 has the split identity
    FT_q(x) = FT_{q0}(x) FT_{q/q0}(x/q0) checked, as the equality of the
    classes of x and x/q0 at the primes of q/q0 not dividing m."""
    space = space_by_name(space_id)
    moduli = check_dual_bound(N, Z, space)
    cond = fourier.LocalCondition(space.space_id)
    names = tuple(fourier.CLOSED_FORMS[space.space_id])
    Y = _nonzero_box(Z, space.r)
    d0 = disc(space, Y) == 0
    content = np.gcd.reduce(Y, axis=1)
    cls, absval = {}, {}
    for p in sorted(set().union(*moduli.values())):
        cls[p] = fourier.target_classes(space, Y, p)
        absval[p] = [abs(fourier.ft_closed_form(cond, p, n)) for n in names]
    total = disc0 = Fraction(0)
    checked = 0
    for q, ps in moduli.items():
        codes = np.zeros(len(Y), dtype=np.int64)
        values = [Fraction(1)]              # by code, most significant first
        for p in ps:
            codes = codes * len(names) + cls[p]
            values = [v * w for v in values for w in absval[p]]
        tally = np.bincount(codes, minlength=len(values))
        tally0 = np.bincount(codes[d0], minlength=len(values))
        for c in np.flatnonzero(tally):
            total += int(tally[c]) * values[c]
            disc0 += int(tally0[c]) * values[c]
        q0 = np.gcd(content, q)
        for g in np.unique(q0[q0 > 1]).tolist():
            rows = np.flatnonzero(q0 == g)
            scaled = _box_row(Y[rows] // g, Z)
            for p in (p for p in ps if g % p):
                bad = np.flatnonzero(cls[p][rows] != cls[p][scaled])
                if bad.size:
                    x = tuple(int(v) for v in Y[rows[bad[0]]])
                    raise MismatchError(
                        f"split identity fails at q0={g}, q={q}, x={x}")
            checked += rows.size
    return DualBoundReport(N=N, Z=Z, total=total, disc0_part=disc0,
                           nonzero_part=total - disc0, n_q=len(moduli),
                           n_points=len(Y), qsplit_checked=checked)


def dual_bound_majorant(N, Z):
    """Assembled upper bound for the cubic dual_bound_sum: the disc = 0
    points of the box are counted with the largest |class value| per prime
    (the y = 0 line, fourier.omega), and disc != 0 points go through
    |FT_q(x)| <= q*^-3 gcd(disc x, q*^3) and the divisor-sum bound
    sum_{f | m} f (N/f^{1/3} + 1), once per distinct |disc|, counted over
    the box's fundamental domain with multiplicities.  Exact rational
    output (maj0, maj1), within the dual_bound_sum budget."""
    moduli = check_dual_bound(N, Z, CUBIC)
    D, mult = zip(*((abs(d), m) for _, d, m, _ in _disc_slices(box_axis(Z))))
    values, inv = np.unique(np.concatenate(D), return_inverse=True)
    counts = np.bincount(inv, weights=np.concatenate(mult)).astype(np.int64)
    # values[0] = 0 always, and the origin is not a point of the sum
    maj0 = (int(counts[0]) - 1) * sum(
        (math.prod((fourier.omega(CUBIC, p) for p in ps), start=1)
         for ps in moduli.values()), Fraction(0))
    values, counts = values[1:], counts[1:]
    n_star = max(1, -(-N // 3))        # least possible q* = q / (q,3)
    weights = {}       # icbrt(f) -> sum of count * f over f | disc, f <= 8N^3
    for value, count in zip(values.tolist(), counts.tolist()):
        for f in sieve._divisors(value):
            if f <= (2 * N) ** 3:
                c = _icbrt(f)
                weights[c] = weights.get(c, 0) + count * f
    # q squarefree, f | q^3  =>  rad(f) | q and f <= rad(f)^3, so the
    # interval holds at most N / f^(1/3) + 1 <= N / c + 1 such q
    maj1 = sum((w * (Fraction(N, c) + 1) for c, w in weights.items()),
               Fraction(0)) / n_star ** 3
    return maj0, maj1


def _icbrt(f):
    """The largest integer whose cube is <= f."""
    c = round(f ** (1 / 3))
    while c ** 3 > f:
        c -= 1
    while (c + 1) ** 3 <= f:
        c += 1
    return c


# ---------------------------------------------------------------------------
# geometric-sieve pair counts
# ---------------------------------------------------------------------------

GEO_CODIM = {"disc0": 1, "all": 0}     # the codimension a of each scheme


@dataclass
class GeoSieveQuery:
    lam: int
    m: int = 1
    window: tuple = None      # (P, 2P); default P = 2*lam/m + 1
    scheme: str = "disc0"     # "disc0": p | disc(x); "all": every x
    x0 = (0, 0, 0, 0)         # the box centre, fixed: the walk needs symmetry

    def prime_window(self):
        if self.window is not None:
            return self.window
        P = 2 * self.lam // self.m + 1
        return (P, 2 * P)


@dataclass
class GeoPairReport:
    query: GeoSieveQuery
    count: int
    n_primes: int
    bound_shape: float        # (lam/m)^(r-a) * P * lam^0.1
    @property
    def ratio(self):
        return self.count / self.bound_shape


def geo_pair_count(query):
    """Exact count of pairs (x, p): x in the lam-box on the progression
    m Z^4, p prime in the window, p not dividing m, disc(x) = 0 mod p
    (every x for the scheme "all").  The fundamental domain of the box is
    walked once; each slice counts its primes per point by divisible (a
    multiply-by-inverse on int32 and int64 discriminants, `%` on the exact
    object path), and one dot product with the multiplicities adds them
    up."""
    if query.scheme not in GEO_CODIM:
        raise ValueError(f"unknown scheme {query.scheme!r}")
    axis = box_axis(query.lam, 0, query.m)
    n_pts = len(axis) ** 4
    if n_pts > 2e8:
        raise ResourceLimitError(f"{n_pts} progression points in the box")
    P, P2 = query.prime_window()
    ps = [int(p) for p in sieve.primes_upto(P2)
          if P <= p <= P2 and query.m % p != 0]
    count = 0
    if ps:
        if query.scheme == "all":
            count = n_pts * len(ps)
        else:
            for _, disc, mult, _ in _disc_slices(axis):
                hits = np.zeros(disc.shape, dtype=np.int32)
                for p in ps:
                    hits += divisible(disc, p)
                count += int(np.dot(hits, mult))
    lam_over_m = query.lam / query.m
    bound = lam_over_m ** (4 - GEO_CODIM[query.scheme]) * P * query.lam ** 0.1
    return GeoPairReport(query=query, count=count, n_primes=len(ps),
                         bound_shape=bound)


GEO_GRID = ((20, 1), (50, 1), (100, 5), (200, 5))


def geo_sweep(grid=GEO_GRID):
    """The disc = 0 pair count over the standard (lam, m) ladder, with the
    witnessed constant (the lam = 20 ratio) and the fitted exponent of
    count/(P lam^0.1) against lam/m, which the codimension-1 bound caps at
    r - a = 3."""
    reports = [geo_pair_count(GeoSieveQuery(lam=lam, m=m)) for lam, m in grid]
    xs = [r.query.lam / r.query.m for r in reports]
    ys = [r.count / (r.query.prime_window()[0] * r.query.lam ** 0.1)
          for r in reports]
    slope, _, _ = _fit_loglog(xs, ys)
    return reports, slope


# ---------------------------------------------------------------------------
# the reducible locus
# ---------------------------------------------------------------------------

def reducible_count(Y):
    """#{binary cubics, disc = 0, all |coeffs| <= Y}, exactly.

    Every nonzero such form factors as (qx - py)^2 (ux - vy) with (q, p)
    primitive and sign-normalized, uniquely, so the enumeration is a loop
    over root directions times a rectangle of (u, v); the zero form adds 1."""
    Y = int(Y)
    if Y < 0:
        raise ValueError("Y must be >= 0")
    count = 1                                # the zero form
    rt = int(math.isqrt(Y))
    for qq in range(0, rt + 1):
        for pp in range(-rt, rt + 1):
            if math.gcd(qq, pp) != 1 or (qq == 0 and pp != 1):
                continue
            if qq == 0 and pp <= 0:
                continue
            u_cap = Y // (qq * qq) if qq else Y
            v_cap = Y // (pp * pp) if pp else Y
            u = np.arange(-u_cap, u_cap + 1, dtype=np.int64)
            v = np.arange(-v_cap, v_cap + 1, dtype=np.int64)
            U, W = np.meshgrid(u, v, indexing="ij")
            c0 = qq * qq * U
            c1 = -(2 * pp * qq * U + qq * qq * W)
            c2 = pp * pp * U + 2 * pp * qq * W
            c3 = -pp * pp * W
            ok = ((np.abs(c0) <= Y) & (np.abs(c1) <= Y)
                  & (np.abs(c2) <= Y) & (np.abs(c3) <= Y)
                  & ((U != 0) | (W != 0)))
            count += int(np.count_nonzero(ok))
    return count


def reducible_exponent(Y_grid=(25, 50, 100, 200, 400)):
    """(counts, fitted exponent, residuals); the fit is None below two
    distinct positive Y."""
    counts = [reducible_count(Y) for Y in Y_grid]
    slope, _, resid = _fit_loglog(Y_grid, counts) or (None,) * 3
    return counts, slope, resid
