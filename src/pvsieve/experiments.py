"""Desk-scale counting engines for the cubic space.

The chain being exercised: a smooth box count of q | disc(x) splits as

    sum_x Psi_q(x) phi(x X^{-1/4})
        = omega(q) phihat(0) X  +  E(X, q)
        = X * sum_k Psihat*_q(k) phihat(k X^{1/4} / q)      (Poisson)

so E(X, q) is both directly measurable (box minus main term) and
expressible through the dual-side transform.  The engines here measure
E(X, q) sums over q <= X^alpha, validate the Poisson identity with an
honest truncation-tail certificate, evaluate the dual-side central sum
exactly in rationals, count the reducible (disc = 0) locus through its
(qx - py)^2 (ux - vy) parametrization, and count geometric-sieve pairs
(x, p) with p | disc(x) for p in a dyadic window.

Floating-point policy: every box engine walks the box through one
traversal, slice by slice of the leading coordinate in ascending order
with the tail in lexicographic order.  weighted_count accumulates the
slices with Kahan compensation; disc_value_buckets sums each slice by
disc value and merges the slices in a fixed pairwise tree.  Either way
the order of every floating-point operation is fixed, so every number
here is reproducible bit-for-bit run to run.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from . import fourier, orbits, sieve
from .spaces import (CUBIC, ResourceLimitError, box_axis, disc,
                     disc_cubic, space_by_name)


class QuadratureError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# the smooth weight
# ---------------------------------------------------------------------------

def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_add(a, b):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


def _poly_der(a):
    return [i * c for i, c in enumerate(a)][1:] or [Fraction(0)]


def _psi_deriv_rational(n):
    """psi^(n) = P(u) / (1-u^2)^k * psi(u), exact; returns (P, k).

    Recursion: d/du [P/(1-u^2)^k psi] adds the derivative of the rational
    prefactor plus P * g' with g' = -2u/(1-u^2)^2; both land on k+2."""
    one_minus = [Fraction(1), Fraction(0), Fraction(-1)]
    P, k = [Fraction(1)], 0
    for _ in range(n):
        num = _poly_add(_poly_mul(_poly_der(P), one_minus),
                        _poly_mul([Fraction(0), Fraction(2 * k)], P))
        P = _poly_add(_poly_mul(num, one_minus),
                      _poly_mul([Fraction(0), Fraction(-2)], P))
        k += 2
    while len(P) > 1 and P[-1] == 0:
        P.pop()
    return P, k


@dataclass
class SmoothWeight:
    """Tensor bump phi(x) = prod psi(x_i / s), psi(u) = exp(1 - 1/(1-u^2))."""
    s: float = 1.0
    _hat_cache: dict = field(default_factory=dict, repr=False)

    @staticmethod
    def psi(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        m = np.abs(u) < 1
        out[m] = np.exp(1 - 1 / (1 - u[m] ** 2))
        return out

    @staticmethod
    def _psi1(x):
        w = 1 - x * x
        return math.exp(1 - 1 / w) if w > 1e-15 else 0.0

    @property
    def psi_integral(self):
        if "I" not in self._hat_cache:
            v, err = quad(self._psi1, 0, 1,
                          epsabs=1e-14, epsrel=1e-12, limit=200)
            if err > 1e-10:
                raise QuadratureError(f"psi mass uncertain by {err}")
            self._hat_cache["I"] = 2 * v
        return self._hat_cache["I"]

    def psihat(self, t):
        """One-dimensional transform 2 int_0^1 psi(x) cos(2 pi t x) dx."""
        t = abs(float(t))
        key = round(t, 12)
        if key not in self._hat_cache:
            if t < 1e-12:
                val = self.psi_integral
            elif t < 0.5:
                # not yet oscillatory; the plain adaptive rule is sharper
                # than the QAWO error estimate here
                v, err = quad(lambda x: self._psi1(x)
                              * math.cos(2 * math.pi * t * x),
                              0, 1, epsabs=1e-14, epsrel=1e-12, limit=200)
                if err > 1e-10:
                    raise QuadratureError(f"psihat({t}) uncertain by {err}")
                val = 2 * v
            else:
                v, err = quad(self._psi1, 0, 1,
                              weight="cos", wvar=2 * math.pi * t,
                              epsabs=1e-14, limit=300)
                if err > 1e-9:
                    raise QuadratureError(f"psihat({t}) uncertain by {err}")
                val = 2 * v
            self._hat_cache[key] = val
        return self._hat_cache[key]

    def phi_hat0(self, r=4):
        return (self.s * self.psi_integral) ** r

    def psi_sixth_l1(self):
        """||psi^(6)||_1, for the rapid-decay constant |psihat(t)| <=
        K6 / (2 pi t)^6; the prefactor polynomial is exact."""
        if "K6" not in self._hat_cache:
            P, k = _psi_deriv_rational(6)
            coeffs = np.array([float(c) for c in P])

            def integrand(u):
                w = 1 - u * u
                if w < 1e-12:
                    return 0.0
                log_scale = 1 - 1 / w - k * math.log(w)
                if log_scale < -700:
                    return 0.0
                return abs(np.polynomial.polynomial.polyval(u, coeffs)) \
                    * math.exp(log_scale)

            v, err = quad(integrand, -1, 1, epsabs=1e-4, epsrel=1e-9,
                          limit=400)
            if err > 1e-5 * abs(v):
                raise QuadratureError(f"K6 uncertain by {err}")
            self._hat_cache["K6"] = v
        return self._hat_cache["K6"]


# ---------------------------------------------------------------------------
# box counts and E(X, q)
# ---------------------------------------------------------------------------

def box_radius(X, s=1.0, d=4):
    return int(np.floor(s * X ** (1 / d) - 1e-12))


def _box_weights(X, weight):
    """(xs, w1, W3) for the box |x_i| <= box_radius(X): the axis, its bump
    weights, and the weights of the three tail coordinates flattened in
    lexicographic order.  Boxes beyond the point budget are refused."""
    R = box_radius(X, weight.s)
    if (2 * R + 1) ** 4 > 3e8:
        raise ResourceLimitError(f"box radius {R} beyond the point budget")
    xs = np.arange(-R, R + 1, dtype=np.int64)
    w1 = weight.psi(xs / (weight.s * X ** 0.25))
    W3 = (w1[:, None, None] * w1[None, :, None] * w1[None, None, :]).ravel()
    return xs, w1, W3


def _disc_slices(axes):
    """Yield (i, disc) for each leading coordinate axes[0][i], with disc
    taken over the meshgrid of axes[1:] in lexicographic order.

    |disc| <= 54 M^4 (M the largest |coordinate|) bounds every partial sum
    of disc_cubic, so the dtype is chosen once from that bound: int64 when
    it fits, exact Python-int object arrays when it does not."""
    M = max((abs(int(t)) for ax in axes for t in ax), default=0)
    dtype = np.int64 if 54 * M ** 4 < 2 ** 63 else object
    tail = np.meshgrid(*(np.asarray(ax, dtype=np.int64).astype(dtype)
                         for ax in axes[1:]), indexing="ij")
    B, C, D = (t.ravel() for t in tail)
    for i, a in enumerate(axes[0]):
        yield i, disc_cubic(np.full_like(B, int(a)), B, C, D)


def main_term(q, X, weight):
    """omega(q) phihat(0) X^{r/d} for the cubic space, squarefree q."""
    dens = 1.0
    for p in ffactor(q):
        dens *= float(fourier.omega(CUBIC, p))
    return dens * weight.phi_hat0(4) * X


def ffactor(q):
    from .ffcore import factor_squarefree
    return factor_squarefree(int(q))


def weighted_count(q, X, weight=None):
    """(lattice sum, main term, E(X,q)) for the cubic box count of
    q | disc(x) with weight phi(x X^{-1/4}): one pass, Kahan-compensated
    over slices of the leading coordinate in ascending order."""
    weight = weight or SmoothWeight()
    xs, w1, W3 = _box_weights(X, weight)
    total = 0.0
    comp = 0.0
    for ia, disc in _disc_slices((xs,) * 4):
        contrib = float(np.sum(W3[disc % q == 0])) * w1[ia]
        y = contrib - comp                          # Kahan step
        t = total + y
        comp = (t - total) - y
        total = t
    main = main_term(q, X, weight)
    return total, main, total - main


def disc_value_buckets(X, weight=None):
    """One box pass; returns (vals, sums): distinct disc values (sorted)
    and the total weight attached to each.  Serving any q | disc query
    afterwards is a divisibility scan of the value array."""
    weight = weight or SmoothWeight()
    xs, w1, W3 = _box_weights(X, weight)
    groups = []
    pend_v, pend_s = [], []
    for ia, disc in _disc_slices((xs,) * 4):
        v, inv = np.unique(disc, return_inverse=True)
        s = np.bincount(inv, weights=W3 * w1[ia])
        pend_v.append(v)
        pend_s.append(s)
        if len(pend_v) >= 8 or ia == len(xs) - 1:     # merge every 8 slices
            groups.append(_merge_buckets(pend_v, pend_s))
            pend_v, pend_s = [], []
    while len(groups) > 1:                  # fixed pairwise merge tree
        groups = [_merge_buckets([a[0], b[0]], [a[1], b[1]])
                  for a, b in zip(groups[::2], groups[1::2])] + \
                 ([groups[-1]] if len(groups) % 2 else [])
    vals, sums = groups[0]
    if vals.size and max(-int(vals[0]), int(vals[-1])) < 2 ** 31:
        vals = vals.astype(np.int32)        # halves the q-serving cost
    return vals, sums


def _merge_buckets(vs, ss):
    vals, inv = np.unique(np.concatenate(vs), return_inverse=True)
    sums = np.bincount(inv, weights=np.concatenate(ss))
    return vals, sums


def serve_buckets(vals, sums, q):
    if q == 1:
        return float(np.sum(sums))
    if q >= np.iinfo(vals.dtype).max:
        return float(np.sum(sums[vals.astype(np.int64) % q == 0]))
    return float(np.sum(sums[vals % vals.dtype.type(q) == 0]))


@dataclass
class LodConfig:
    X_grid: tuple = (10 ** 5, 10 ** 6, 10 ** 7)
    alpha: float = 0.45
    s: float = 1.0


@dataclass
class LodReport:
    config: LodConfig
    per_X: list          # (X, n_q, reducible mass, cum |E|, cum / X)
    fitted_c: float
    residuals: list
    q_rows: list         # (q, lattice, main, E) at the largest X

    def to_file(self, path, version="1"):
        cfg = self.config
        with open(path, "w") as fh:
            fh.write(f"# lod-report v{version} alpha={cfg.alpha} "
                     f"s={cfg.s} fitted_c={self.fitted_c:.6f} "
                     f"residuals={','.join(f'{r:.3e}' for r in self.residuals)}\n")
            fh.write("# X\tn_q\tdisc0_mass\tcum_abs_E\tcum_over_X\n")
            for X, n_q, w0, cum, ratio in self.per_X:
                fh.write(f"{X}\t{n_q}\t{w0:.10e}\t{cum:.10e}\t{ratio:.10e}\n")
            fh.write("# q\tlattice\tmain\tE\n")
            for q, lat, mn, err in self.q_rows:
                fh.write(f"{q}\t{lat:.10e}\t{mn:.10e}\t{err:.10e}\n")


def _fit_loglog(xs, ys):
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
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
    on the grid, plus the fitted growth exponent.

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
        qs = sieve.squarefree_upto(int(X ** cfg.alpha))
        vals, sums = disc_value_buckets(X, weight)
        w0 = reducible_mass(vals, sums)
        cum = 0.0
        rows = []
        for q in qs:
            lat = serve_buckets(vals, sums, int(q))
            mn = main_term(int(q), X, weight)
            rows.append((int(q), lat, mn, lat - w0 - mn))
            cum += abs(lat - w0 - mn)
        per_X.append((X, len(qs), w0, cum, cum / X))
        q_rows = rows
    slope, _, resid = _fit_loglog([row[0] for row in per_X],
                                  [row[3] for row in per_X])
    return LodReport(config=cfg, per_X=per_X, fitted_c=slope,
                     residuals=resid, q_rows=q_rows)


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
    t = np.arange(q, dtype=np.int64)
    grids = np.meshgrid(t, t, t, t, indexing="ij")
    K = np.stack([g.ravel() for g in grids], axis=1)
    V = np.ones(K.shape[0])
    for p in ffactor(q):
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
    phv = weight.s * np.array([weight.psihat(weight.s * k * Y / q)
                               for k in ks])
    S = np.zeros(q)
    for k, v in zip(ks, phv):
        S[k % q] += v
    return X * float(np.einsum("abcd,a,b,c,d->", V, S, S, S, S))


def poisson_tail_bound(q, X, weight, Z):
    """Explicit bound on the dropped |k_i| > Z dual mass: |dual FT| <= 1
    and |psihat(t)| <= K6/(2 pi t)^6 give

        X * ((T_Z + tau)^4 - T_Z^4),
        tau = 2 s K6 (q / (2 pi s Y))^6 * Z^-5 / 5,

    T_Z the per-axis truncated |psihat| mass.  A 2% inflation covers the
    quadrature error in K6."""
    Y = X ** 0.25
    s = weight.s
    T = sum(s * abs(weight.psihat(s * k * Y / q))
            for k in range(-Z, Z + 1))
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


def dual_bound_sum(N, Z, space_id="cubic", check_qsplit=True):
    """Exact sum over squarefree q in [N, 2N] and nonzero lattice x with
    |x_i| <= Z of |FT_q(x)|, split by disc(x) = 0 / != 0.

    Every (q, x) with x in q0 V(Z) for some q0 | q, q0 > 1 also gets the
    split identity verified when check_qsplit is set."""
    space = space_by_name(space_id)
    cond = fourier.LocalCondition(space_id)
    qs = [int(q) for q in sieve.squarefree_upto(2 * N) if q >= N]
    axis = box_axis(Z)
    pts = [p for p in _box_points(axis, space.r) if any(p)]
    total = Fraction(0)
    d0 = Fraction(0)
    checked = 0
    for x in pts:
        dz = int(disc(space, np.array([x], dtype=np.int64))[0]) == 0
        for q in qs:
            v = abs(fourier.ft_on_lattice(cond, q, x))
            total += v
            if dz:
                d0 += v
            if check_qsplit:
                q0 = math.gcd(q, math.gcd(*[abs(c) for c in x])) if any(x) else 1
                q0 = _squarefree_part_dividing(q0, q)
                if q0 > 1:
                    assert fourier.ft_qsplit_check(cond, q0, q // q0, x)
                    checked += 1
    return DualBoundReport(N=N, Z=Z, total=total, disc0_part=d0,
                           nonzero_part=total - d0, n_q=len(qs),
                           n_points=len(pts), qsplit_checked=checked)


def _box_points(axis, r):
    import itertools
    return itertools.product(axis, repeat=r)


def _squarefree_part_dividing(g, q):
    """Largest divisor of q dividing g (q squarefree)."""
    out = 1
    for p in ffactor(q):
        if g % p == 0:
            out *= p
    return out


def dual_bound_majorant(N, Z):
    """Assembled upper bound for the cubic dual_bound_sum: the disc = 0
    points are counted through the reducible-locus parametrization with the
    largest class value per prime, and disc != 0 points go through
    |FT_q(x)| <= q*^-3 gcd(disc x, q*^3) and the divisor-sum bound
    sum_{f | m} f (N/f^{1/3} + 1).  Exact rational output (maj0, maj1)."""
    qs = [int(q) for q in sieve.squarefree_upto(2 * N) if q >= N]
    n_disc0 = reducible_count(Z) - 1
    maj0 = Fraction(0)
    for q in qs:
        m0 = Fraction(1)
        for p in ffactor(q):
            if p != 3:
                m0 *= Fraction(p ** 2 + p - 1, p ** 3)
        maj0 += m0 * n_disc0
    axis = box_axis(Z)
    maj1 = Fraction(0)
    n_star = max(1, -(-N // 3))        # least possible q* = q / (q,3)
    for x in _box_points(axis, 4):
        if not any(x):
            continue
        D = abs(disc_cubic(*x))
        if D == 0:
            continue
        gs = Fraction(0)
        for f in sieve._divisors(D):
            if f <= (2 * N) ** 3:
                # q squarefree, f | q^3  =>  rad(f) | q and f <= rad(f)^3,
                # so the interval holds at most N / f^(1/3) + 1 such q
                gs += Fraction(f) * (N * Fraction(_icbrt_floor_inv(f)) + 1)
        maj1 += gs / n_star ** 3
    return maj0, maj1


def _icbrt_floor_inv(f):
    """Rational upper bound for f^(-1/3): with c the largest integer whose
    cube is <= f, 1/c >= f^(-1/3)."""
    c = round(f ** (1 / 3))
    while c ** 3 > f:
        c -= 1
    while (c + 1) ** 3 <= f:
        c += 1
    return Fraction(1, max(c, 1))


# ---------------------------------------------------------------------------
# geometric-sieve pair counts
# ---------------------------------------------------------------------------

@dataclass
class GeoSieveQuery:
    lam: int
    m: int = 1
    x0: tuple = (0, 0, 0, 0)
    window: tuple = None      # (P, 2P); default P = 2*lam/m + 1
    a: int = 1                # codimension of the scheme
    scheme: str = "disc0"     # "disc0": p | disc(x); "all": every x (a = 0)

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
    x0 + m Z^4, p prime in the window, p not dividing m, disc(x) = 0 mod p."""
    P, P2 = query.prime_window()
    ps = [int(p) for p in sieve.primes_upto(P2)
          if P <= p <= P2 and query.m % p != 0]
    axes = [box_axis(query.lam, query.x0[i], query.m) for i in range(4)]
    n_pts = int(np.prod([len(ax) for ax in axes]))
    if n_pts > 2e8:
        raise ResourceLimitError(f"{n_pts} progression points in the box")
    count = 0
    if ps:
        if query.scheme == "all":
            count = n_pts * len(ps)
        elif query.scheme == "disc0":
            for _, disc in _disc_slices(axes):
                for p in ps:
                    count += int(np.count_nonzero(disc % p == 0))
        else:
            raise ValueError(f"unknown scheme {query.scheme!r}")
    lam_over_m = query.lam / query.m
    bound = lam_over_m ** (4 - query.a) * P * query.lam ** 0.1
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


def reducible_count_bruteforce(Y):
    """Oracle: disc over the whole (2Y+1)^4 grid.  Small Y only."""
    xs = np.arange(-Y, Y + 1, dtype=np.int64)
    A, B, C, D = np.meshgrid(xs, xs, xs, xs, indexing="ij")
    return int(np.count_nonzero(disc_cubic(A, B, C, D) == 0))


def reducible_exponent(Y_grid=(25, 50, 100, 200, 400)):
    counts = [reducible_count(Y) for Y in Y_grid]
    slope, _, resid = _fit_loglog(Y_grid, counts)
    return counts, slope, resid
