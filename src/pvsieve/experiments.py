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
into shards of at most _SHARD_POINTS // W points for W = _WORKERS, the
cores this process may run on (a value with more keeps a shard of its
own); each shard is built from its own points, in walk order.  Within a
shard the pass sorts every group of 8 slices once, by disc value, then
slice, then point (_group_buckets), sums each slice by value in point
order and then the group by value in slice order, and
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
shard builds, and the serving of each chunk of _SERVE_PRIMES consecutive
primes, are tasks run on up to W threads (_in_order).  A task reads
only arrays no task writes, evaluates its own expressions and no other
task's, and the calling thread combines the results in task order, so
the number of threads and their timing decide which thread evaluates an
expression, never the expression.  The order of every floating-point
operation is fixed, so every number here is reproducible bit-for-bit run
to run and on any number of cores.  The bump's transform, and with
it the mass in every main term, is one trapezoid rule whose alias error
is bounded (SmoothWeight.psihat).
"""

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as poly

from . import ffcore, fourier, sieve
from .ffcore import (ResourceLimitError, divisible, factor_squarefree, mod,
                     sqrt_mod)
from .spaces import (CUBIC, MismatchError, box_axis, disc, disc_cubic,
                     disc_dtype)


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
    psi^(6).  A weight is its scale s and nothing else."""
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
    def phi_hat0(self):
        """phihat(0) = (s * psi mass)^4, the mass of the 4-dimensional
        bump."""
        return (self.s * PSI_MASS) ** 4

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

def box_radius(X, s=1.0):
    return int(np.floor(s * X ** (1 / CUBIC.r) - 1e-12))


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


_SHARD_POINTS = 2 ** 21      # domain points being built at once, at most
_SAMPLE_STRIDE = 64          # every 64th point of a slice places the cuts
_WORKERS = len(os.sched_getaffinity(0))     # the cores this process may use


def _in_order(fn, tasks):
    """[fn(t) for t in tasks], the tasks run on up to _WORKERS threads.

    Inline when there is one worker or one task.  Otherwise a thread pool
    is created for the call and joined before it returns, also when a task
    raises: the first exception in task order reaches the caller as it was
    raised, and the tasks not yet started are cancelled.  The results keep
    the order of the tasks, whichever thread ran them.  A task must not
    call a function that perfbench's tracer wraps (tracer.LAYERS), since
    its span stack assumes calls on one thread."""
    tasks = list(tasks)
    if _WORKERS == 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ThreadPoolExecutor   # ~7 ms to import
    with ThreadPoolExecutor(min(_WORKERS, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


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

    The walk runs once, on the calling thread, and keeps each slice's
    discriminants and its multiplicities (int8).  The value range is then
    cut into shards of at most _SHARD_POINTS // _WORKERS points
    (_shard_cuts; a value with more keeps a shard of its own), each
    shard's table is built from its points alone (_shard_buckets) as one
    task of _in_order, _WORKERS shards at a time, and the tables
    concatenate in value order.  A value's terms all fall in one shard,
    in walk order, and every group of 8 slices enters each shard's merge
    tree, empty or not, so each sum is the floating-point expression of
    one unsharded build, bit for bit, whatever the number of shards or
    the thread that builds them.  At most _SHARD_POINTS points are being
    built at once, beside the finished tables and the walk, and the walk
    is freed before the concatenation."""
    weight = weight or SmoothWeight()
    R = _bucket_radius(X, weight.s)
    xs = np.arange(-R, R + 1, dtype=np.int64)
    w1 = weight.psi(xs / (weight.s * X ** 0.25))
    walk = [(ia, disc, mult.astype(np.int8), tail)
            for ia, disc, mult, tail in _disc_slices(xs)]
    cuts = _shard_cuts([disc for _, disc, _, _ in walk],
                       _SHARD_POINTS // _WORKERS)
    tables = _in_order(lambda cut: _shard_buckets(walk, w1, *cut),
                       zip([None, *cuts], [*cuts, None]))
    del walk
    if len(tables) == 1:
        return tables[0]
    vals, sums = zip(*tables)
    return np.concatenate(vals), np.concatenate(sums)


def _shard_cuts(discs, limit):
    """The values cutting the walked discriminants into value ranges of at
    most limit points each; a value with more points than that keeps a
    range of its own.

    The first cuts are the S - 1 quantiles of a sample of every
    _SAMPLE_STRIDE-th point of each slice, S = ceil(n / limit) for the n
    points (equal quantiles collapse).  The points below each cut are
    then counted exactly, and a range that the sample left too large is
    cut again at exact ranks of its own sorted values."""
    n = sum(d.size for d in discs)
    S = -(-n // limit)
    sample = np.sort(np.concatenate([d[::_SAMPLE_STRIDE] for d in discs]))
    cuts = sample[np.arange(1, S) * sample.size // S]       # ascending
    cuts = cuts[_run_starts(cuts)].tolist()
    below = [0] + [sum(int(np.count_nonzero(d < c)) for d in discs)
                   for c in cuts] + [n]
    out = []
    for lo, hi, k in zip([None, *cuts], [*cuts, None], np.diff(below)):
        if k > limit:
            v = np.sort(np.concatenate([d[_rows_in(d, lo, hi)]
                                        for d in discs]))
            i = 0
            while v.size - i > limit:
                j = np.searchsorted(v, v[i + limit])
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
_SERVE_PRIMES = 16           # consecutive primes of one serving task


def _serve_squarefree(vals, sums, Q):
    """{q: serve_buckets(vals, sums, q)} for every squarefree q <= Q, each
    sum bit-identical to that whole-table scan.

    The primes P <= Q are taken _SERVE_PRIMES consecutive ones at a time,
    each chunk one task of _in_order.  A task makes one pass over the
    values in blocks of _SERVE_BLOCK, runs divisible once per prime of
    its chunk per block and keeps that prime's matching indices.  It then
    serves every q whose largest prime P is in its chunk, from its parent
    q / p, p = pmin(q), down the divisor tree rooted at P: the parent's
    values and sums, in value order, are kept while its children are
    served, and q's are the ones p divides.  Those are exactly the buckets
    a scan of the whole table for q selects, in the same order, so np.sum
    adds the same terms in the same order.  No two tasks serve the same
    q, and their entries are merged in chunk order."""
    ps = [int(p) for p in sieve.primes_upto(Q)]

    def serve_chunk(k0):
        """The entries of the q whose largest prime is ps[k0 + i], i below
        _SERVE_PRIMES."""
        chunk = ps[k0:k0 + _SERVE_PRIMES]
        hits = [[] for _ in chunk]
        for i0 in range(0, vals.size, _SERVE_BLOCK):
            block = vals[i0:i0 + _SERVE_BLOCK]
            for p, h in zip(chunk, hits):
                keep = np.flatnonzero(divisible(block, p)).astype(np.int32)
                keep += i0              # tables stay below 2^31
                h.append(keep)
        served = {}

        def descend(q, v, s, i):
            """Serve q's children p q, p = ps[j] for j < i (p below
            pmin(q))."""
            served[q] = float(np.sum(s))
            for j, p in enumerate(ps[:i]):
                if p * q > Q:
                    break
                keep = np.flatnonzero(divisible(v, p))
                descend(p * q, v[keep], s[keep], j)

        for i, p in enumerate(chunk):
            idx = np.concatenate(hits[i])
            hits[i] = None
            descend(p, vals[idx], sums[idx], k0 + i)
        return served

    lat = {1: float(np.sum(sums))}
    for part in _in_order(serve_chunk, range(0, len(ps), _SERVE_PRIMES)):
        lat.update(part)
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
    by _serve_squarefree: one task per chunk of consecutive primes
    P <= X^alpha, a blocked pass for its primes and then each q whose
    largest prime is among them, from q / pmin(q) down the divisor tree;
    every lattice value is bit-identical to serve_buckets on the whole
    table.
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


def _dual_value_grid(q):
    """float array over (Z/q)^4 of the dual transform, multiplicative."""
    K = np.indices((q,) * 4, dtype=np.int64).reshape(4, -1).T
    V = np.ones(K.shape[0])
    for p in factor_squarefree(int(q)):
        cls = fourier.dual_cubic_class_batch(K, p)
        tab = np.array([float(fourier.dual_ft_value(p, c)) for c in range(3)])
        V *= tab[cls]
    return V.reshape((q,) * 4)


def _psihat_row(q, X, weight, Z):
    """s psihat(s k X^{1/4} / q) at k = -Z..Z, the row of the dual sums of
    radius Z.  Each value is one dot product of its own cosines, so the
    middle 2Z' + 1 entries have the bytes of the row of radius Z'."""
    s = weight.s
    return s * weight.psihat(s * np.arange(-Z, Z + 1) * X ** 0.25 / q)


def poisson_rhs(X, V, row):
    """Truncated dual side: X * sum over |k_i| <= Z of the dual transform
    V = _dual_value_grid(q) times the separable phihat factor, the row
    _psihat_row of radius Z = len(row) // 2 collapsed to residues mod q."""
    q = V.shape[0]
    Z = row.size // 2
    S = np.zeros(q)
    for k, v in zip(range(-Z, Z + 1), row):
        S[k % q] += v
    return X * float(np.einsum("abcd,a,b,c,d->", V, S, S, S, S))


def poisson_tail_bound(q, X, weight, row):
    """Explicit bound on the dropped |k_i| > Z dual mass, Z = len(row) // 2
    for the _psihat_row of radius Z: |dual FT| <= 1 and
    |psihat(t)| <= K6/(2 pi t)^6 give

        X * ((T_Z + tau)^4 - T_Z^4),
        tau = 2 s K6 (q / (2 pi s Y))^6 * Z^-5 / 5,

    T_Z = sum |row|, the per-axis truncated s |psihat| mass (s > 0, and
    rounding is symmetric about 0, so |s psihat| is s |psihat| to the
    bit).  A 2% inflation of K6 covers K6's float error (its roots and
    rounding, about 1e-12 relative) and psihat's, which moves T_Z by
    about 1e-16."""
    Y = X ** 0.25
    s = weight.s
    Z = row.size // 2
    T = float(np.sum(np.abs(row)))
    K6 = weight.psi_sixth_l1() * 1.02
    tau = 2 * s * K6 * (q / (2 * math.pi * s * Y)) ** 6 / (5 * Z ** 5)
    return X * ((T + tau) ** 4 - T ** 4)


def poisson_check(q, X=10 ** 4, weight=None, Z=None):
    """The Poisson identity at q: the weighted count against the dual sums
    of radius Z and 2Z, with the tail bound of radius Z.  One psihat row of
    radius 2Z and one dual grid are built and passed down; the radius-Z sum
    and the tail read the middle of the row: 4Z + 1 psihat values and one
    grid a check, and nothing is kept after it."""
    weight = weight or SmoothWeight()
    Z = Z if Z is not None else 2 + 2 * q
    lhs, _, _ = weighted_count(q, X, weight)
    V = _dual_value_grid(q)
    row = _psihat_row(q, X, weight, 2 * Z)
    mid = row[Z:3 * Z + 1]
    return PoissonReport(q=q, X=X, Z=Z, lhs=lhs,
                         rhs=poisson_rhs(X, V, mid),
                         rhs_double=poisson_rhs(X, V, row),
                         tail_bound=poisson_tail_bound(q, X, weight, mid))


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

# Bytes of geo_pair_count's prime sieve up to the window's top P2: the
# (P2 + 1)-byte mask, one int64 array of the primes (sieve.primes_upto's
# flatnonzero) and the window's list of Python ints, about 40 bytes a
# prime, so 48 bytes a prime, with pi(P2) < 1.25506 P2 / ln P2
# (Rosser-Schoenfeld).  The same gigabyte as the dual-bound budget: P2 up
# to about 2.6e8.
GEO_SIEVE_BYTES = 2 ** 30


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
    majorant: tuple        # dual_bound_majorant's; None on the pair space


def _dual_box(space, Z):
    """(Y, mult, D): the nonzero points of |x_i| <= Z up to a symmetry keeping
    disc, content and every class, the box points each stands for, and disc.
    Cubic: _disc_slices's order-8 domain and discriminants.  Pair space: the
    points after the origin in lexicographic order, each with its negative."""
    if space is CUBIC:
        pieces = [(np.column_stack(np.broadcast_arrays(ia, *idx)) - Z, m, D)
                  for ia, D, m, idx in _disc_slices(np.arange(-Z, Z + 1))]
        Y, mult, D = (np.concatenate(c) for c in zip(*pieces))
        keep = Y.any(axis=1)
        return Y[keep], mult[keep], D[keep]
    n = (2 * Z + 1) ** space.r
    Y = np.unravel_index(np.arange(n // 2 + 1, n), (2 * Z + 1,) * space.r)
    Y = np.stack(Y, axis=1) - Z
    return Y, np.full(n // 2, 2), disc(space, Y)


def check_dual_bound(N, Z, space):
    """The moduli of dual_bound_sum(N, Z) on the space, {q: primes of
    q / (q, m)}, or ResourceLimitError past the budget.  Nothing is graded,
    and the moduli are listed only once N + 1 of them would fit."""
    n = (2 * Z + 1) ** space.r - 1
    per_q = n + 1 + math.isqrt(2 * N)
    work, size = (N + 1) * per_q, 2 * N + 24 * space.r * n
    moduli = {}
    if work <= DUAL_BOUND_WORK and size <= DUAL_BOUND_BYTES:
        moduli = {int(q): [p for p in factor_squarefree(int(q))
                           if not space.is_bad_prime(p)]
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


def dual_bound_sum(N, Z, space=CUBIC):
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
    moduli = check_dual_bound(N, Z, space)
    cond = fourier.LocalCondition(space.space_id)
    names = tuple(fourier.CLOSED_FORMS[space.space_id])
    Y, mult, D = _dual_box(space, Z)
    # the majorant first, so its working set is freed before the grading
    majorant = (dual_bound_majorant(N, moduli, mult, np.abs(D))
                if space is CUBIC else None)
    mult0 = mult * (D == 0)                     # the disc = 0 points
    content = np.gcd.reduce(Y, axis=1)
    shared = np.flatnonzero(content > 1)        # the rows q0 can exceed 1 at
    content = content[shared]
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
        gs = np.sort(q0[q0 > 1])
        for g in gs[_run_starts(gs)].tolist():
            rows = shared[q0 == g]
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
                           n_points=int(mult.sum()), qsplit_checked=checked,
                           majorant=majorant)


def dual_bound_majorant(N, moduli, mult, D):
    """Upper bound (maj0, maj1), exact, for the cubic dual_bound_sum over its
    moduli and the rows of _dual_box with multiplicities mult and |disc| D:
    disc = 0 points are counted with the largest |class value| per prime
    (the y = 0 line, fourier.omega), and disc != 0 points go through
    |FT_q(x)| <= q*^-3 gcd(disc x, q*^3) and the divisor-sum bound
    sum_{f | m} f (N/f^{1/3} + 1), once per distinct |disc|.

    The distinct values are factored at once (_factor_slots), ordered by
    their number of primes, most first, and their divisors listed a chunk
    of values at a time (_divisor_rows), at most ffcore.CELL_BUDGET rows a
    chunk (or one value's divisors, if more).  Each divisor f <= 8N^3 adds
    count * f into the bucket of icbrt(f), taken from the float cube root
    and corrected by one either way in int64.  count * f < 2^62 (counts are
    box points, below 2^31, and f <= |disc| < 2^31 at the sizes
    check_dual_bound admits, Z <= 28; OverflowError otherwise), and
    bincount adds its 32-bit halves in float64, each bucket's sum below
    2^32 times the chunk's rows, far below 2^53: every sum is exact."""
    maj0 = int(mult[D == 0].sum()) * sum(
        (math.prod((fourier.omega(CUBIC, p) for p in ps), start=1)
         for ps in moduli.values()), Fraction(0))
    values, inv = np.unique(D[D > 0], return_inverse=True)
    counts = np.bincount(inv, weights=mult[D > 0]).astype(np.int64)
    n_star = max(1, -(-N // 3))        # least possible q* = q / (q,3)
    if values.size and int(counts.max()) * int(values[-1]) >= 2 ** 62:
        raise OverflowError("count * |disc| reaches 2^62")
    P, E = _factor_slots(values)
    order = np.argsort(-np.count_nonzero(E, axis=0), kind="stable")
    ends = np.cumsum(np.prod(E[:, order] + 1, axis=0, dtype=np.int64))
    weights = np.zeros(2 * N + 1, dtype=object)   # icbrt(f) -> sum count*f
    i = 0
    while i < values.size:
        j = max(i + 1, int(np.searchsorted(
            ends, ffcore.CELL_BUDGET + (ends[i - 1] if i else 0), "right")))
        cols = order[i:j]
        owner, f = _divisor_rows(P[:, cols], E[:, cols])
        keep = np.flatnonzero(f <= (2 * N) ** 3)
        owner, f = owner[keep], f[keep]
        c = np.cbrt(f).astype(np.int64)         # off by at most one
        c -= c ** 3 > f
        c += (c + 1) ** 3 <= f
        w = counts[cols][owner] * f
        lo = np.bincount(c, weights=w & 0xFFFFFFFF, minlength=weights.size)
        hi = np.bincount(c, weights=w >> 32, minlength=weights.size)
        weights += hi.astype(np.int64).astype(object) * 2 ** 32
        weights += lo.astype(np.int64)
        i = j
    # q squarefree, f | q^3  =>  rad(f) | q and f <= rad(f)^3, so the
    # interval holds at most N / f^(1/3) + 1 <= N / c + 1 such q
    maj1 = sum((w * (Fraction(N, c) + 1) for c, w in enumerate(weights)
                if w), Fraction(0)) / n_star ** 3
    return maj0, maj1


def _factor_slots(values):
    """(P, E): the prime factorizations of the positive integer values, one
    column per value, with its distinct primes ascending in the first rows
    (P, of the values' dtype) and their exponents (E, int8), both 0 in the
    unused rows.

    A table of the least prime factor of every n <= max(values), 0 where n
    is 1 or prime, is built by striking the multiples of each prime
    p <= sqrt(max) from p^2 on, the largest prime first, so each entry
    ends at the least prime whose square is at most n; a composite n's
    least prime factor always is one.  Its dtype holds sqrt(max).  Each
    value is then divided by its least prime factor until 1 is left, the
    values with factors left taken together at each step."""
    top = int(values[-1]) if values.size else 1
    root = math.isqrt(top)
    spf = np.zeros(top + 1, dtype=np.min_scalar_type(root))
    for p in sieve.primes_upto(root)[::-1].tolist():
        spf[p * p::p] = p
    # n <= top has at most as many distinct primes as the largest
    # primorial <= top; past 47 the primorials pass 2^63
    primorials = np.cumprod(sieve.primes_upto(47).astype(object))
    P = np.zeros((max(1, np.count_nonzero(primorials <= top)), values.size),
                 dtype=values.dtype)
    E = np.zeros(P.shape, dtype=np.int8)
    rem = values.astype(np.int64)
    cols = np.flatnonzero(rem > 1)
    k = np.zeros(values.size, dtype=np.int64)     # the slot being filled
    last = np.zeros(values.size, dtype=np.int64)  # its prime
    while cols.size:
        n = rem[cols]
        p = spf[n].astype(np.int64)
        p[p == 0] = n[p == 0]                    # n prime
        k[cols] += (p != last[cols]) & (last[cols] != 0)
        last[cols] = p
        P[k[cols], cols] = p
        E[k[cols], cols] += 1
        rem[cols] = n // p
        cols = cols[rem[cols] > 1]
    return P, E


def _divisor_rows(P, E):
    """(owner, f): every divisor f of each value factored as (P, E) by
    _factor_slots, with the index of its value, the rows of a value
    together.  The values must come with their number of primes
    descending, so that those with a prime in slot s are a prefix.

    Row t of a value with tau divisors, 0 <= t < tau, is the divisor whose
    exponents are the digits of t in the mixed radix (e_0 + 1, e_1 + 1, ...)
    of its exponents: one pass per slot peels a digit off the rows of the
    prefix and multiplies in that power of the slot's prime, read from a
    table of the prefix's powers."""
    tau = np.prod(E + 1, axis=0, dtype=np.int64)
    ends = np.cumsum(tau)
    owner = np.repeat(np.arange(tau.size), tau)
    t = np.arange(owner.size) - np.repeat(ends - tau, tau)
    f = np.ones(owner.size, dtype=np.int64)
    for p, e in zip(P, E):
        m = np.count_nonzero(e)
        if not m:
            break
        rows = slice(0, int(ends[m - 1]))
        o = owner[rows]
        r = e[o] + np.int64(1)
        q = t[rows] // r
        powers = p[:m, None].astype(np.int64) ** np.arange(int(e.max()) + 1)
        f[rows] *= powers[o, t[rows] - q * r]
        t[rows] = q
    return owner, f


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
    n_primes = 1.25506 * P2 / math.log(P2) if P2 > 1 else 0
    size = P2 + 1 + 48 * n_primes
    if size > GEO_SIEVE_BYTES:
        raise ResourceLimitError(f"prime window up to {P2}: sieving it "
                                 f"takes {size:.3g} bytes")
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
    - p in {2, 3}: 2 alpha = 0 mod p, so _support_pair_count counts them;
    - p > 54 K^4, past every |disc| of the box: p | disc only where
      disc = 0, so each such p adds reducible_count(K).
    A root r stands for the Q + [(r + K) mod p < R] points of [-K, K] in
    its class, 2K + 1 = Q p + R.  The shift by K is folded into the
    numerator (j = a + K solves 2 alpha j = 2 alpha K - beta +- 4 h s).
    Each product is of a residue mod p with a value below 2p or with
    b^2 <= K^2, so nothing reaches p max(2p, K^2 + 1): int32 holds it for
    p < 2^15 (K <= 58 within geo_pair_count's point budget), and int64
    above, where the primes that reach the fibres are at most
    54 K^4 < 2^30.  The fibres are taken one chunk of consecutive d at a
    time, and the primes one block at a time, so that a block's
    (prime, fibre) cells in a chunk number at most ffcore.CELL_BUDGET (or
    one d-row of one prime, if that is more); the h met, u = 2 alpha K - beta
    and each fibre's h are formed per chunk, never over the whole box.
    _chunk_root_count forms a block's residues in four work arrays of that
    many cells, allocated once per call.  The inverses of 2 alpha by |d| are
    found once per call, for every prime; per chunk, _prime_tables finds per
    prime the square roots of the h met (sqrt_mod), for as many primes at
    once as CELL_BUDGET cells over the 7K^2 + 1 values of h allow (at least
    one block).  The planes p | d are counted for blocks of primes of at
    most CELL_BUDGET (prime, (b, c)) cells."""
    t = np.arange(-K, K + 1, dtype=np.int64)
    b, c = t[K:, None], t[K:]
    w = (np.where(b > 0, 2, 1) * np.where(c > 0, 2, 1)).astype(np.int32)
    count = sum(_support_pair_count(K, p) for p in ps if 54 % p == 0)
    ps = [p for p in ps if 54 % p]              # 2 alpha = -54 d^2 invertible
    big = sum(p > 54 * K ** 4 for p in ps)      # past every |disc| of the box
    count += big * reducible_count(K) if big else 0
    ps = [p for p in ps if p <= 54 * K ** 4]
    n_d = max(1, ffcore.CELL_BUDGET // w.size)    # d-rows per chunk
    chunks = [t[i:i + n_d] for i in range(0, t.size, n_d)]
    # the fibres (b, c) of a d-row, flat
    w, b_bc, c_bc = (np.broadcast_to(v, (K + 1, K + 1)).ravel()
                     for v in (w, b, c))
    c3, bc18 = (v.astype(np.int32) for v in (4 * c_bc ** 3, 18 * b_bc * c_bc))
    cells = len(chunks[0]) * w.size                 # one prime's, per chunk
    per_block = max(1, ffcore.CELL_BUDGET // cells)
    work = {}         # dtype -> the four work arrays of a block, reused
    # the inverses of 2 alpha = -54 d^2 by |d| <= K (0 where p divides d),
    # per prime, once per call; int32 holds them, as p <= 54 K^4 < 2^30
    inv2a = np.zeros((len(ps), K + 1), dtype=np.int32)
    for i, p in enumerate(ps):
        k2a = pow(-54, -1, p)
        inv2a[i] = [k2a * pow(y, -2, p) % p if y % p else 0
                    for y in range(K + 1)]
    for d in chunks:
        # the h = c^2 - 3bd met in the chunk (hs), each fibre's index into
        # hs, and u = 2 K alpha - beta = 4c^3 - (18bc + 54Kd) d, below
        # 76 K^3 < 2^31 (K <= 58): int32
        h_at = -3 * d[:, None] * b_bc
        h_at += c_bc * c_bc + 3 * K * K             # h + 3K^2 >= 0
        met = np.bincount(h_at.ravel()) > 0
        hs = np.flatnonzero(met) - 3 * K * K
        at = (np.cumsum(met) - 1)[h_at]
        del h_at
        d32 = d[:, None].astype(np.int32)
        num = bc18 + 54 * K * d32
        num *= d32
        np.subtract(c3, num, out=num)
        # the per-prime tables for a block of primes, at most CELL_BUDGET
        # cells over the 7K^2 + 1 values of h, served to blocks of the
        # work's size
        per_table = max(per_block, ffcore.CELL_BUDGET // (7 * K * K + 1))
        for i0 in range(0, len(ps), per_table):
            primes = ps[i0:i0 + per_table]
            dt = np.int32 if max(primes) < 2 ** 15 else np.int64
            if dt not in work:
                work[dt] = np.empty((4, per_block * cells), dtype=dt)
            P, v_of_h = _prime_tables(primes, hs, dt)
            inv = inv2a[i0:i0 + per_table]
            for j in range(0, len(primes), per_block):
                count += _chunk_root_count(
                    K, d, at, num, w, work[dt], P[j:j + per_block],
                    inv[j:j + per_block], v_of_h[j:j + per_block])
        del at, num                             # before the next chunk
    # p | d: the planes d = 0 mod p, all alike, for a block of primes
    per_block = max(1, ffcore.CELL_BUDGET // w.size)
    for i0 in range(0, len(ps), per_block):
        P = np.array(ps[i0:i0 + per_block], dtype=np.int64)[:, None]
        inv4c = np.array([[pow(4 * y, -1, p) if y % p else 0
                           for y in range(K + 1)] for p in P[:, 0].tolist()])
        Q, R = np.divmod(2 * K + 1, P)
        j = mod(b_bc * b_bc * inv4c[:, c_bc] + K, P)
        plane = np.where(c_bc % P == 0, 2 * K + 1, Q + (j < R))
        count += int((2 * (K // P[:, 0]) + 1) @ (plane @ w))
    return count


def _support_pair_count(K, p):
    """#{x in [-K, K]^4 : p | disc(x)} over the support states x mod p of
    fourier._cubic_support, each standing for the prod n(x_i) box points in
    its class, n(r) = Q + [(r + K) mod p < R], 2K + 1 = Q p + R."""
    Q, R = divmod(2 * K + 1, p)
    n = Q + (mod(np.arange(p) + K, p) < R)      # box points per class
    fibre = np.multiply.outer(np.multiply.outer(n, n), n).ravel()
    return sum(int(n[a] @ fibre[f]) for _, a, f in fourier._cubic_support(p))


def _prime_tables(primes, hs, dt):
    """For _fibre_pair_count, per prime p >= 5 of primes, in dtype dt: P,
    the primes as a column, and v = 4 h s at each h of hs, s^2 = h mod p,
    or -1 where h is not a square mod p."""
    P = np.array(primes, dtype=np.int64)[:, None]
    v = mod(hs, P)                              # h mod p, then v in place
    s = np.empty(v.shape, dtype=dt)
    for i, p in enumerate(primes):
        s[i] = sqrt_mod(v[i], p)
    v *= s
    v *= 4
    v = mod(v, P)
    v[s < 0] = -1
    return P.astype(dt), v.astype(dt)


def _chunk_root_count(K, d, at, num, w, work, P, inv2a, v_of_h):
    """_fibre_pair_count's weighted root count over the fibres of one chunk
    of d, p not dividing d, for a block of primes p >= 5 with the tables of
    _prime_tables and their rows inv2a of inverses of 2 alpha by |d|: at
    holds the index into their h of each of the chunk's fibres (d, then
    (b, c) flat), num holds u = 2 alpha K - beta there, w the fibre
    weights.  The (prime, fibre) residues are formed in the four rows of
    work, reused from block to block."""
    Q, R = np.divmod(2 * K + 1, P)
    P3, Q3, R3 = P[:, :, None], Q[:, :, None], R[:, :, None]
    shape = (len(P), *num.shape)
    u, v, x, t = (a[:math.prod(shape)].reshape(shape) for a in work)
    # the shifted roots j = (u +- v) / (2 alpha), with v = 4 h s
    mod(num, P3, out=u)
    np.take(v_of_h, at, axis=1, out=v, mode="clip")   # at is in range
    k = inv2a[:, np.abs(d), None]
    np.add(u, v, out=x)
    x *= k
    j1 = mod(x, P3, out=t) < R3
    u -= v
    u *= k
    j2 = mod(u, P3, out=t) < R3
    one, two = v >= 0, v > 0                    # at least one, two roots
    hits = np.add(one & j1, two & j2, dtype=np.int8)
    if P.min() <= 2 * K + 1:                    # Q >= 1 for some p
        hits += np.add(one, two, dtype=np.int8) * Q3
    return int(np.sum(np.einsum("idk,k->id", hits, w) * (d % P != 0)))


GEO_GRID = ((20, 1), (50, 1), (100, 5), (200, 5))


def geo_sweep():
    """The disc = 0 pair count over the standard (lam, m) ladder, with the
    witnessed constant (the lam = 20 ratio) and the fitted exponent of
    count/(P lam^0.1) against lam/m, which the codimension-1 bound caps at
    r - a = 3."""
    reports = [geo_pair_count(GeoSieveQuery(lam=lam, m=m))
               for lam, m in GEO_GRID]
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
    |A + B v| <= Y, an integer interval of v.  The direction (0, 1) leaves
    u and v free in [-Y, Y]; with the zero form it adds (2Y + 1)^2.  For
    q >= 1 the middle two are |q^2 v + 2pq u| <= Y and
    |2|p| q v + sign(p) p^2 u| <= Y, the second no constraint at p = 0,
    where |v| <= Y already.  The directions of one q share the row of u, so
    they are taken in blocks of (direction, u) cells of at most
    ffcore.CELL_BUDGET (or one row, if it is longer); the count adds the
    lengths of the intersections, less one per direction for the point
    u = v = 0, which every direction's u = 0 interval holds."""
    Y = int(Y)
    if Y < 0:
        raise ValueError("Y must be >= 0")
    count = (2 * Y + 1) ** 2         # the zero form and the direction (0, 1)
    rt = math.isqrt(Y)
    p_all = np.arange(-rt, rt + 1, dtype=np.int64)
    for q in range(1, rt + 1):
        u_cap = Y // (q * q)
        u = np.arange(-u_cap, u_cap + 1, dtype=np.int64)
        ps = p_all[np.gcd(p_all, q) == 1]
        step = max(1, ffcore.CELL_BUDGET // u.size)
        for i in range(0, ps.size, step):
            p = ps[i:i + step, None]
            v_cap = Y // np.maximum(p * p, 1)
            A = 2 * q * p * u
            lo = np.maximum(-v_cap, -((Y + A) // (q * q)))
            hi = np.minimum(v_cap, (Y - A) // (q * q))
            A = np.sign(p) * p * p * u
            B = np.maximum(2 * q * np.abs(p), 1)
            np.maximum(lo, -((Y + A) // B), out=lo)
            np.minimum(hi, (Y - A) // B, out=hi)
            hi -= lo
            hi += 1
            count += int(np.maximum(hi, 0).sum()) - p.size
    return count


def reducible_exponent(Y_grid=(25, 50, 100, 200, 400)):
    """(counts, fitted exponent, residuals); the fit is None below two
    distinct positive Y."""
    counts = [reducible_count(Y) for Y in Y_grid]
    slope, _, resid = _fit_loglog(Y_grid, counts) or (None,) * 3
    return counts, slope, resid
