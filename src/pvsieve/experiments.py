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
parametrization, one interval of v per root direction and u, and count
geometric-sieve pairs (x, p) with p | disc(x) for p in a dyadic window by
the roots mod p of disc, a quadratic in a, on each fibre (b, c, d).

Floating-point policy: every weighted box count is served from
disc_value_buckets, which walks the slices a = 0..R of the box's
fundamental domain under its order-8 symmetry group (_disc_slices, the
one box walk of the weighted counts, the majorant and the dual-side sum;
on the pair space that sum halves the box by x -> -x) in ascending order,
with the tail ordered by d, then b, then c.  Each point's weight is its bump
value times its multiplicity, a power of two, so folding the
multiplicity in is exact.  The walk is kept, and its value range is cut
into shards of at most _SHARD_POINTS points (a value with more keeps a
shard of its own); each shard is built from its own points, in walk
order.  Within a shard the pass sorts every group of 8 slices once,
by disc value, then slice, then point (_group_buckets), sums each slice
by value in point order and then the group by value in slice order, and
merges the groups as a binary counter: a new group merges with the last
one of the same level, and at the end the leftovers merge from the
newest back.  That is the tree of merging the groups pairwise level by
level with an odd last group carried up, built eagerly, so only about
log2(groups) tables are alive at once.  Every group enters the counter
of every shard, with or without points there, and a value's points all
lie in one shard, so its sum is the expression one unsharded build would
evaluate, and the shard tables concatenate in value order.  A merge adds
the terms of each value in run order, and a q-query sums the matching
buckets in value order: one q through serve_buckets, every squarefree
q <= Q of an E(X, q) sum through _serve_squarefree, whose prime pass and
divisor-tree descent select the same buckets in the same order.  The
order of every floating-point operation is fixed, so every number here
is reproducible bit-for-bit run to run.  The bump's transform, and with
it the mass in every main term, is one trapezoid rule whose alias error
is bounded (SmoothWeight.psihat).
"""

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as poly

from . import fourier, sieve
from .ffcore import factor_squarefree, mod, sqrt_mod
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
    psi^(6).  A weight keeps the widest psihat row evaluated for each
    (q, X) of the Poisson checks (_psihat_row)."""
    s: float = 1.0
    _rows: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

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


_SHARD_POINTS = 2 ** 21      # domain points of one value-range shard, at most
_SAMPLE_STRIDE = 64          # every 64th point of a slice places the cuts


def _bucket_radius(X, s):
    """box_radius(X, s) of a disc_value_buckets box, or ResourceLimitError
    past the point budget (2R + 1)^4 <= 3e8."""
    R = box_radius(X, s)
    if (2 * R + 1) ** 4 > 3e8:
        raise ResourceLimitError(f"box radius {R} beyond the point budget")
    return R


def disc_value_buckets(X, weight=None):
    """One pass over the box |x_i| <= box_radius(X); returns (vals, sums):
    distinct disc values (sorted) and the total weight attached to each.
    The pass walks the box's fundamental domain (_disc_slices), and each
    point weighs w1[a] w1[b] w1[c] w1[d] times its multiplicity, a power
    of two, so the product is exact.  The values keep the walk's dtype:
    int32 within the point budget (54 R^4 < 2^31 up to R = 79).  Serving
    any q | disc query afterwards is a divisibility scan of the value
    array.  Boxes beyond the point budget are refused.

    The walk runs once and keeps each slice's discriminants and its
    multiplicities (int8).  The value range is then cut into shards of at
    most _SHARD_POINTS points (_shard_cuts; a value with more keeps a
    shard of its own), each shard's table is built from its points alone
    (_shard_buckets), and the tables concatenate in value order.  A
    value's terms all fall in one shard, in walk order, and every group
    of 8 slices enters each shard's merge tree, empty or not, so each sum
    is the floating-point expression of one unsharded build, bit for bit.
    Only one shard is being built at a time, beside the finished tables
    and the walk, and the walk is freed before the concatenation."""
    weight = weight or SmoothWeight()
    R = _bucket_radius(X, weight.s)
    xs = np.arange(-R, R + 1, dtype=np.int64)
    w1 = weight.psi(xs / (weight.s * X ** 0.25))
    walk = [(ia, disc, mult.astype(np.int8), tail)
            for ia, disc, mult, tail in _disc_slices(xs)]
    cuts = _shard_cuts([disc for _, disc, _, _ in walk])
    tables = [_shard_buckets(walk, w1, lo, hi)
              for lo, hi in zip([None, *cuts], [*cuts, None])]
    del walk
    if len(tables) == 1:
        return tables[0]
    vals, sums = zip(*tables)
    return np.concatenate(vals), np.concatenate(sums)


def _shard_cuts(discs):
    """The values cutting the walked discriminants into value ranges of at
    most _SHARD_POINTS points each; a value with more points than that
    keeps a range of its own.

    The first cuts are the S - 1 quantiles of a sample of every
    _SAMPLE_STRIDE-th point of each slice, S = ceil(n / _SHARD_POINTS)
    for the n points (equal quantiles collapse).  The points below each
    cut are then counted exactly, and a range that the sample left too
    large is cut again at exact ranks of its own sorted values."""
    n = sum(d.size for d in discs)
    S = -(-n // _SHARD_POINTS)
    sample = np.sort(np.concatenate([d[::_SAMPLE_STRIDE] for d in discs]))
    cuts = np.unique(sample[np.arange(1, S) * sample.size // S]).tolist()
    below = [0] + [sum(int(np.count_nonzero(d < c)) for d in discs)
                   for c in cuts] + [n]
    out = []
    for lo, hi, k in zip([None, *cuts], [*cuts, None], np.diff(below)):
        if k > _SHARD_POINTS:
            v = np.sort(np.concatenate([d[_rows_in(d, lo, hi)]
                                        for d in discs]))
            i = 0
            while v.size - i > _SHARD_POINTS:
                j = np.searchsorted(v, v[i + _SHARD_POINTS])
                if j == i:              # one value past the bound: whole
                    j = np.searchsorted(v, v[i], side="right")
                    if j == v.size:
                        break
                out.append(int(v[j]))
                i = j
        if hi is not None:
            out.append(hi)
    return out


def _rows_in(disc, lo, hi):
    """Indices of the entries with lo <= disc < hi, None leaving that side
    open; every entry (a slice) when both sides are."""
    if lo is None and hi is None:
        return slice(None)
    if lo is None:
        return np.flatnonzero(disc < hi)
    if hi is None:
        return np.flatnonzero(disc >= lo)
    return np.flatnonzero((disc >= lo) & (disc < hi))


def _shard_buckets(walk, w1, lo, hi):
    """(vals, sums) of the walked points with lo <= disc < hi (None: no
    bound on that side).  Each slice keeps its shard's points in walk
    order, and its groups of 8 slices go through _group_buckets and a
    binary counter: a new group merges with the last one of the same
    level, and at the end the leftovers merge from the newest back."""
    counter = []                    # (level, vals, sums), levels decreasing
    for g in range(0, len(walk), 8):
        discs, weights = [], []
        for ia, disc, mult, (ib, ic, id_) in walk[g:g + 8]:
            keep = _rows_in(disc, lo, hi)
            discs.append(disc[keep])
            weights.append(w1[ia] * w1[ib[keep]] * w1[ic[keep]]
                           * w1[id_[keep]] * mult[keep])
        counter.append((0, *_group_buckets(discs, weights)))
        while len(counter) > 1 and counter[-2][0] == counter[-1][0]:
            _merge_newest(counter)
    while len(counter) > 1:
        _merge_newest(counter)
    _, vals, sums = counter.pop()
    return vals, sums


def _group_buckets(discs, weights):
    """(vals, sums) of a group of at most 8 slices: the distinct values of
    the int32 disc arrays, sorted, and each value's weight, summed first
    within each slice in point order and then over the slices in order.

    One sort of the int64 keys disc << 32 | slice << 29 | position
    (position counted over the group, below 2^29) orders the points by
    value, then slice, then point; the slice sums and the group sums are
    two bincounts over the segments of that order.  Any other dtype is
    refused: the shift holds a value exactly only below 2^31 in
    magnitude.  Both lists are emptied once concatenated, so slices that
    only they hold are freed before the sort."""
    if any(d.dtype != np.int32 for d in discs):
        raise TypeError("the group sort packs int32 values only, not "
                        f"{sorted({str(d.dtype) for d in discs})}")
    key = np.concatenate(discs).astype(np.int64)
    if len(discs) > 8 or key.size >= 1 << 29:
        raise ValueError(f"{len(discs)} slices of {key.size} points do not "
                         "fit the group key")
    key <<= 32
    key |= np.repeat(np.arange(len(discs)) << 29, [d.size for d in discs])
    key |= np.arange(key.size)
    w = np.concatenate(weights)
    discs.clear()
    weights.clear()
    key.sort()
    w = w[key & ((1 << 29) - 1)]
    new_seg = _run_starts(key >> 29)                # (value, slice) runs
    key >>= 32
    new_v = _run_starts(key)
    ids = np.cumsum(new_seg, dtype=np.int32)    # tables stay below 2^31
    ids -= 1
    slice_sums = np.bincount(ids, weights=w)
    ids = np.cumsum(new_v[new_seg], dtype=np.int32)
    ids -= 1
    return (key[np.flatnonzero(new_v)].astype(np.int32),
            np.bincount(ids, weights=slice_sums))


def _run_starts(v):
    """Boolean mask of the first entry of each run of equal values."""
    new = np.empty(v.size, dtype=bool)
    new[:1] = True
    np.not_equal(v[1:], v[:-1], out=new[1:])
    return new


def _merge_newest(counter):
    """Replace the two newest (level, vals, sums) tables of the counter by
    their merge, one level up.  The stable argsort (a timsort, which
    merges two sorted runs in linear time) keeps equal values in run
    order, older run first, and bincount adds each value's terms in that
    order.  The inputs are dropped as soon as they are concatenated."""
    (level, v0, s0), (_, v1, s1) = counter[-2:]
    del counter[-2:]
    v = np.concatenate([v0, v1])
    del v0, v1
    order = np.argsort(v, kind="stable")
    v = v[order]
    s = np.concatenate([s0, s1])
    del s0, s1
    s = s[order]
    del order
    new = _run_starts(v)
    v = v[np.flatnonzero(new)]
    ids = np.cumsum(new, dtype=np.int32)    # tables stay below 2^31
    ids -= 1
    counter.append((level + 1, v, np.bincount(ids, weights=s)))


def serve_buckets(vals, sums, q):
    """Weight of the buckets whose value q divides: one exact divisibility
    scan of vals, the matching sums added in value order.  The sums are
    gathered by index: a boolean-mask gather branches on every entry, and
    on a dense mask costs several times more."""
    return float(np.sum(sums[np.flatnonzero(divisible(vals, q))]))


_SERVE_BLOCK = 1 << 17       # values per block of the prime pass


def _serve_squarefree(vals, sums, Q):
    """{q: serve_buckets(vals, sums, q)} for every squarefree q <= Q, each
    sum bit-identical to that whole-table scan.

    One pass over the values in blocks of _SERVE_BLOCK runs divisible once
    per prime P <= Q per block and keeps P's matching indices.  A
    composite q is then served from its parent q / p, p = pmin(q), down
    the divisor tree: the parent's values and sums, in value order, are
    kept while its children are served, and q's are the ones p divides.
    Those are exactly the buckets a scan of the whole table for q selects,
    in the same order, so np.sum adds the same terms in the same order."""
    ps = [int(p) for p in sieve.primes_upto(Q)]
    hits = [[] for _ in ps]
    for i0 in range(0, vals.size, _SERVE_BLOCK):
        block = vals[i0:i0 + _SERVE_BLOCK]
        for p, h in zip(ps, hits):
            keep = np.flatnonzero(divisible(block, p)).astype(np.int32)
            keep += i0                  # tables stay below 2^31
            h.append(keep)
    lat = {1: float(np.sum(sums))}

    def descend(q, v, s, i):
        """Serve q's children p q, p = ps[j] for j < i (p below pmin(q))."""
        lat[q] = float(np.sum(s))
        for j, p in enumerate(ps[:i]):
            if p * q > Q:
                break
            keep = np.flatnonzero(divisible(v, p))
            descend(p * q, v[keep], s[keep], j)

    for i, p in enumerate(ps):
        idx = np.concatenate(hits[i])
        hits[i] = None
        descend(p, vals[idx], sums[idx], i)
    return lat


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
    distribution savings it is supposed to exhibit.

    Each X builds one disc_value_buckets table and serves every q from it
    by _serve_squarefree: one blocked pass of the primes P <= X^alpha,
    then each composite q from q / pmin(q) down the divisor tree; every
    lattice value is bit-identical to serve_buckets on the whole table.
    q_rows are the rows of the largest X of the grid, wherever it
    stands.  A grid with any X past the point budget is refused before
    any table is built."""
    cfg = cfg or LodConfig()
    for X in cfg.X_grid:
        _bucket_radius(X, cfg.s)
    weight = SmoothWeight(s=cfg.s)
    per_X = []
    q_rows = []
    for X in cfg.X_grid:
        Q = int(X ** cfg.alpha)
        qs = [int(q) for q in sieve.squarefree_upto(Q)]
        vals, sums = disc_value_buckets(X, weight)
        w0 = reducible_mass(vals, sums)
        lat = _serve_squarefree(vals, sums, Q)
        cum = 0.0
        rows = []
        for q in qs:
            mn = main_term(q, X, weight)
            rows.append((q, lat[q], mn, lat[q] - w0 - mn))
            cum += abs(lat[q] - w0 - mn)
        per_X.append((X, len(qs), w0, cum, cum / X))
        if X == max(cfg.X_grid):
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


@functools.lru_cache(maxsize=1)
def _dual_value_grid(q):
    """float array over (Z/q)^4 of the dual transform, multiplicative.
    Read-only; the last q's grid is kept, so the dual sums of one
    poisson_check build it once."""
    K = np.indices((q,) * 4, dtype=np.int64).reshape(4, -1).T
    V = np.ones(K.shape[0])
    for p in factor_squarefree(int(q)):
        cls = fourier.dual_cubic_class_batch(K % p, p)
        tab = np.array([float(fourier.dual_ft_value(p, c)) for c in range(3)])
        V *= tab[cls]
    V.setflags(write=False)
    return V.reshape((q,) * 4)


def _psihat_row(q, X, weight, Z):
    """psihat(s k X^{1/4} / q) at k = -Z..Z, read-only.  The weight keeps
    the widest row asked for each (q, X), and a narrower one is its
    middle: each value depends on its own k only, so the slice has the
    bytes of its own evaluation."""
    row = weight._rows.get((q, X))
    if row is None or row.size < 2 * Z + 1:
        row = weight.psihat(weight.s * np.arange(-Z, Z + 1) * X ** 0.25 / q)
        row.setflags(write=False)
        weight._rows[q, X] = row
    mid = row.size // 2
    return row[mid - Z:mid + Z + 1]


def poisson_rhs(q, X, weight, Z):
    """Truncated dual side: X * sum over |k_i| <= Z of the dual transform
    times the separable phihat factor, collapsed to residues mod q."""
    V = _dual_value_grid(q)
    phv = weight.s * _psihat_row(q, X, weight, Z)
    S = np.zeros(q)
    for k, v in zip(range(-Z, Z + 1), phv):
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
    T = float(np.sum(s * np.abs(_psihat_row(q, X, weight, Z))))
    K6 = weight.psi_sixth_l1() * 1.02
    tau = 2 * s * K6 * (q / (2 * math.pi * s * Y)) ** 6 / (5 * Z ** 5)
    return X * ((T + tau) ** 4 - T ** 4)


def poisson_check(q, X=10 ** 4, weight=None, Z=None):
    """The Poisson identity at q: the weighted count against the dual sums
    of radius Z and 2Z, with the tail bound of radius Z.  The radius-2Z sum
    comes first, so the radius-Z sum and the tail read the middle of its
    psihat row, and all three share one dual grid: 4Z + 1 psihat values
    and one grid a check."""
    weight = weight or SmoothWeight()
    Z = Z if Z is not None else 2 + 2 * q
    lhs, _, _ = weighted_count(q, X, weight)
    rhs_double = poisson_rhs(q, X, weight, 2 * Z)
    return PoissonReport(q=q, X=X, Z=Z, lhs=lhs,
                         rhs=poisson_rhs(q, X, weight, Z),
                         rhs_double=rhs_double,
                         tail_bound=poisson_tail_bound(q, X, weight, Z))


# ---------------------------------------------------------------------------
# the dual-side central sum, exactly
# ---------------------------------------------------------------------------

# Budget of one dual_bound_sum.  Work: per modulus, a step per box point
# (tally) and a trial division up to sqrt(2N) (factoring); per box point
# and prime, space_kernel's cost.  A step took ~15 ns on a 2-core VM, so
# the cap is about five minutes.  Bytes: the moduli sieve, three copies of
# the box (building it, reducing it mod p) and a class byte per point and
# prime.  It prices the full box, not the _dual_box rows, on purpose.
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


def _dual_box(space, Z):
    """(Y, mult): the nonzero points of |x_i| <= Z up to a symmetry keeping
    disc, content and every class, with the box points each stands for.
    Cubic: _disc_slices's order-8 domain.  Pair space: the points after the
    origin in lexicographic order, each with its negative (-1 in GL_2)."""
    if space is CUBIC:
        pieces = [(np.column_stack(np.broadcast_arrays(ia, *idx)) - Z, m)
                  for ia, _, m, idx in _disc_slices(np.arange(-Z, Z + 1))]
        Y, mult = (np.concatenate(c) for c in zip(*pieces))
        keep = Y.any(axis=1)
        return Y[keep], mult[keep]
    n = (2 * Z + 1) ** space.r
    Y = np.unravel_index(np.arange(n // 2 + 1, n), (2 * Z + 1,) * space.r)
    return np.stack(Y, axis=1) - Z, np.full(n // 2, 2)


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

    The rows of _dual_box are graded once per prime p of the moduli (p not
    dividing m) by fourier.target_classes.  FT_q(x) is the product over the
    primes of q / (q, m) of the closed form of x's class, so each q tallies
    the class tuples of its primes (mixed-radix codes) by multiplicity over
    the rows and their disc = 0 part, and sums count times value.

    Every (q, x) with q0 = gcd(q, content of x) > 1 has the split identity
    FT_q(x) = FT_{q0}(x) FT_{q/q0}(x/q0) checked, as the equality of the
    classes of x and x/q0 at the primes of q/q0 not dividing m."""
    space = space_by_name(space_id)
    moduli = check_dual_bound(N, Z, space)
    cond = fourier.LocalCondition(space.space_id)
    names = tuple(fourier.CLOSED_FORMS[space.space_id])
    Y, mult = _dual_box(space, Z)
    mult0 = mult * (disc(space, Y) == 0)        # the disc = 0 points
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
        tally = np.bincount(codes, weights=mult, minlength=len(values))
        tally0 = np.bincount(codes, weights=mult0, minlength=len(values))
        for c in np.flatnonzero(tally):
            total += int(tally[c]) * values[c]
            disc0 += int(tally0[c]) * values[c]
        q0 = np.gcd(content, q)
        for g in np.unique(q0[q0 > 1]).tolist():
            rows = np.flatnonzero(q0 == g)
            for p in (p for p in ps if g % p):
                scaled = fourier.target_classes(space, Y[rows] // g, p)
                bad = np.flatnonzero(cls[p][rows] != scaled)
                if bad.size:
                    x = tuple(int(v) for v in Y[rows[bad[0]]])
                    raise MismatchError(
                        f"split identity fails at q0={g}, q={q}, x={x}")
            checked += int(mult[rows].sum())
    return DualBoundReport(N=N, Z=Z, total=total, disc0_part=disc0,
                           nonzero_part=total - disc0, n_q=len(moduli),
                           n_points=int(mult.sum()), qsplit_checked=checked)


def dual_bound_majorant(N, Z):
    """Assembled upper bound for the cubic dual_bound_sum: the disc = 0
    points of the box are counted with the largest |class value| per prime
    (the y = 0 line, fourier.omega), and disc != 0 points go through
    |FT_q(x)| <= q*^-3 gcd(disc x, q*^3) and the divisor-sum bound
    sum_{f | m} f (N/f^{1/3} + 1), once per distinct |disc|, counted over
    the rows of _dual_box with their multiplicities.  Exact rational
    output (maj0, maj1), within the dual_bound_sum budget."""
    moduli = check_dual_bound(N, Z, CUBIC)
    Y, mult = _dual_box(CUBIC, Z)
    D = np.abs(disc(CUBIC, Y))
    maj0 = int(mult[D == 0].sum()) * sum(
        (math.prod((fourier.omega(CUBIC, p) for p in ps), start=1)
         for ps in moduli.values()), Fraction(0))
    values, inv = np.unique(D[D > 0], return_inverse=True)
    counts = np.bincount(inv, weights=mult[D > 0]).astype(np.int64)
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
    x0 = (0, 0, 0, 0)         # the box centre, fixed: the count needs symmetry

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
    (every x for the scheme "all").  x = m k with |k_i| <= lam // m, and
    disc(x) = m^4 disc(k), so the disc0 count is _fibre_pair_count on the
    k-box: the roots of disc on each a-fibre.  On that fibre
    disc = alpha a^2 + beta a + gamma, whose discriminant in a is
    beta^2 - 4 alpha gamma = 16 h^3 with h = c^2 - 3bd, the y^2
    coefficient of the Hessian.  (a,b,c,d) -> (-a,b,-c,d) and
    (a,b,c,d) -> (a,-b,c,-d) keep disc and map each fibre onto a fibre, so
    only the fibres with b, c >= 0 are counted."""
    if query.scheme not in GEO_CODIM:
        raise ValueError(f"unknown scheme {query.scheme!r}")
    K = query.lam // query.m
    n_pts = len(box_axis(K)) ** 4
    if n_pts > 2e8:
        raise ResourceLimitError(f"{n_pts} progression points in the box")
    P, P2 = query.prime_window()
    if P2 >= 2 ** 31:
        raise ResourceLimitError(f"prime window up to {P2}: sieving it "
                                 f"takes a {P2 + 1}-byte mask")
    ps = [int(p) for p in sieve.primes_upto(P2)
          if P <= p <= P2 and query.m % p != 0]
    count = 0
    if ps:
        if query.scheme == "all":
            count = n_pts * len(ps)
        else:
            count = _fibre_pair_count(K, ps)
    lam_over_m = query.lam / query.m
    bound = lam_over_m ** (4 - GEO_CODIM[query.scheme]) * P * query.lam ** 0.1
    return GeoPairReport(query=query, count=count, n_primes=len(ps),
                         bound_shape=bound)


def _fibre_pair_count(K, ps):
    """Sum over the primes p of ps of #{x in [-K, K]^4 : p | disc(x)}, by
    counting the roots of disc in a on each fibre (b, c, d), b, c >= 0,
    weighted w(b) w(c) (w(t) = 2 for t > 0, 1 for t = 0).

    With alpha = -27 d^2, beta = 18bcd - 4c^3, gamma = b^2 c^2 - 4b^3 d and
    h = c^2 - 3bd:
    - p >= 5, p not dividing d: a = (-beta +- 4 h s) / (2 alpha), s^2 = h
      mod p: two roots when h is a nonzero square, one when p | h, none
      otherwise;
    - p | d: disc = c^2 (b^2 - 4ac) mod p: the one root b^2 / (4c) when p
      does not divide c, every a when it does;
    - p in {2, 3}: 2 alpha = 0 mod p, so each residue of a is tried;
    - p > 54 K^4, past every |disc| of the box: p | disc only where
      disc = 0, so each such p adds reducible_count(K).
    A root r stands for the Q + [(r + K) mod p < R] points of [-K, K] in
    its class, 2K + 1 = Q p + R.  The shift by K is folded into the
    numerator (j = a + K solves 2 alpha j = 2 alpha K - beta +- 4 h s).
    Each product is of a residue mod p with a value below 2p or with
    b^2 <= K^2, so nothing reaches p max(2p, K^2 + 1): int32 holds it for
    p < 2^15 (K <= 58 within geo_pair_count's point budget), and int64
    above, where the primes that reach the fibres are at most
    54 K^4 < 2^30.  Per prime, the square roots of the h met (sqrt_mod)
    and the inverses of 2 alpha per d and of 4c are found; the fibres are
    then counted for a block of primes at once, about 2^18 (prime, fibre)
    cells."""
    t = np.arange(-K, K + 1, dtype=np.int64)
    d, b, c = t[:, None, None], t[K:, None], t[K:]
    alpha = -27 * d * d
    beta = 18 * b * c * d - 4 * c ** 3
    gamma = b * b * c * c - 4 * b ** 3 * d
    w = (np.where(b > 0, 2, 1) * np.where(c > 0, 2, 1)).astype(np.int32)
    big = sum(p > 54 * K ** 4 for p in ps)      # past every |disc| of the box
    count = big * reducible_count(K) if big else 0
    ps = [p for p in ps if p <= 54 * K ** 4]
    for p in (p for p in ps if p < 5):
        Q, R = divmod(2 * K + 1, p)
        hits = sum((mod(alpha * r * r + beta * r + gamma, p) == 0)
                   * (Q + ((r + K) % p < R)) for r in range(p))
        count += int(np.sum(hits * w))
    ps = [p for p in ps if p >= 5]
    rows = (t.size, (K + 1) ** 2)             # fibres: d, then (b, c)
    num = (2 * K * alpha - beta).reshape(rows)
    h_at = (c * c - 3 * b * d + 3 * K * K).reshape(rows)    # h + 3K^2 >= 0
    hs = np.flatnonzero(np.bincount(h_at.ravel())) - 3 * K * K  # h met
    w = w.ravel()
    b2, c_bc = (np.broadcast_to(v, (K + 1, K + 1)).ravel() for v in (b * b, c))
    per_block = max(1, 2 ** 18 // num.size)
    for i0 in range(0, len(ps), per_block):
        block = ps[i0:i0 + per_block]
        dt = np.int32 if max(block) < 2 ** 15 else np.int64
        # per prime: s^2 = h mod p (-1 where h is not a square), and the
        # inverses of 2 alpha by |d| and of 4c by c (0 where p divides them)
        P = np.array(block, dtype=np.int64)[:, None]
        hp = mod(np.broadcast_to(hs, (len(block), hs.size)).copy(), P)
        s = np.empty(hp.shape, dtype=np.int64)
        inv2a = np.empty((len(block), K + 1), dtype=dt)
        inv4c = np.empty((len(block), K + 1), dtype=dt)
        for i, p in enumerate(block):
            s[i] = sqrt_mod(hp[i], p)
            inv = [pow(x, -1, p) if x % p else 0 for x in range(K + 1)]
            k2a, k4 = pow(-54, -1, p), pow(4, -1, p)
            inv2a[i] = [k2a * y * y % p for y in inv]
            inv4c[i] = [k4 * y % p for y in inv]
        v_of_h = np.full((len(block), 7 * K * K + 1), -1, dtype=dt)
        v_of_h[:, hs + 3 * K * K] = np.where(s < 0, -1,
                                             mod(mod(4 * hp, P) * s, P))
        P = P.astype(dt)
        Q, R = np.divmod(2 * K + 1, P)
        P3, Q3, R3 = P[:, :, None], Q[:, :, None], R[:, :, None]
        # p not dividing d: the shifted roots j = (u +- v) / (2 alpha), with
        # u = 2 alpha K - beta and v = 4 h s
        u = mod(np.broadcast_to(num.astype(dt), (len(block), *rows)).copy(),
                 P3)
        v = np.take(v_of_h, h_at, axis=1)
        k = inv2a[:, np.abs(t), None]
        x = u + v
        x *= k
        j1 = mod(x, P3) < R3
        u -= v
        u *= k
        j2 = mod(u, P3) < R3
        one, two = v >= 0, v > 0                # at least one, two roots
        hits = np.add(one & j1, two & j2, dtype=np.int8)
        if min(block) <= 2 * K + 1:             # Q >= 1 for some p
            hits += np.add(one, two, dtype=np.int8) * Q3
        per_d = np.einsum("idk,k->id", hits, w)
        count += int(np.sum(per_d * (t % P != 0)))
        # p | d: the planes d = 0 mod p, all alike
        j = mod(b2 * inv4c[:, c_bc] + K, P)
        plane = np.where(c_bc % P == 0, 2 * K + 1, Q + (j < R))
        count += int((2 * (K // P[:, 0]) + 1) @ (plane @ w))
    return count


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
    primitive and sign-normalized, uniquely.  Its coefficients are q^2 u,
    -(2pq u + q^2 v), p^2 u + 2pq v and -p^2 v: the outer two cap |u| and
    |v|, and for each root direction and each u the middle two are
    |A + B v| <= Y, an integer interval of v (a test of u alone when
    B = 0).  The count adds the lengths of the intersections over one row
    of u per direction, less the point u = v = 0, which every direction's
    u = 0 interval holds; the zero form adds 1."""
    Y = int(Y)
    if Y < 0:
        raise ValueError("Y must be >= 0")
    count = 1                                # the zero form
    rt = int(math.isqrt(Y))
    for qq in range(0, rt + 1):
        for pp in range(-rt, rt + 1):
            if math.gcd(qq, pp) != 1 or (qq == 0 and pp != 1):
                continue
            u_cap = Y // (qq * qq) if qq else Y
            v_cap = Y // (pp * pp) if pp else Y
            u = np.arange(-u_cap, u_cap + 1, dtype=np.int64)
            lo, hi = np.full(u.size, -v_cap), np.full(u.size, v_cap)
            for A, B in ((-2 * pp * qq * u, -qq * qq),
                         (pp * pp * u, 2 * pp * qq)):
                if B == 0:
                    hi[np.abs(A) > Y] = -v_cap - 1         # empty
                    continue
                if B < 0:
                    A, B = -A, -B
                np.maximum(lo, -((Y + A) // B), out=lo)
                np.minimum(hi, (Y - A) // B, out=hi)
            count += int(np.maximum(hi - lo + 1, 0).sum()) - 1
    return count


def reducible_exponent(Y_grid=(25, 50, 100, 200, 400)):
    """(counts, fitted exponent, residuals); the fit is None below two
    distinct positive Y."""
    counts = [reducible_count(Y) for Y in Y_grid]
    slope, _, resid = _fit_loglog(Y_grid, counts) or (None,) * 3
    return counts, slope, resid
