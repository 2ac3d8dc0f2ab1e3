"""Counting engines: smooth weights, box counts, Poisson consistency,
the exact dual-side sum, geometric-sieve pairs, and the reducible locus.

The heavy acceptance-scale runs (X = 10^7 etc.) live in test_acceptance;
everything here is sized to run in seconds.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pvsieve import experiments as ex
from pvsieve import ffcore, fourier, orbits, sieve
from pvsieve.ffcore import ResourceLimitError
from pvsieve.spaces import (CUBIC, QUARTIC, box_axis, disc, disc_cubic,
                            disc_dtype, space_by_name)

from oracles import (CUBIC_CLASSES, CUBIC_COND, QUARTIC_COND, ft_on_lattice,
                     ft_qsplit_check, rel_gap_double)


@pytest.fixture(scope="module")
def weight():
    return ex.SmoothWeight()


def _rhs(q, X, weight, Z):
    """The truncated dual sum of radius Z, from its own row and grid."""
    return ex.poisson_rhs(X, ex._dual_value_grid(q),
                          ex._psihat_row(q, X, weight, Z))


def _tail(q, X, weight, Z):
    """The tail bound of radius Z, from its own row."""
    return ex.poisson_tail_bound(q, X, weight, ex._psihat_row(q, X, weight, Z))


# ---------------------------------------------------------------------------
# the smooth weight
# ---------------------------------------------------------------------------

def test_psi_pointwise(weight):
    assert weight.psi(0.0) == pytest.approx(1.0)
    assert weight.psi(1.0) == 0.0
    assert weight.psi(-1.0) == 0.0
    assert weight.psi(3.7) == 0.0
    assert weight.psi(0.5) == pytest.approx(math.exp(1 - 1 / 0.75))
    arr = weight.psi(np.linspace(-2, 2, 101))
    assert arr.shape == (101,)
    assert ((arr >= 0) & (arr <= 1)).all()


def test_psi_integral_against_simpson(weight):
    # independent oracle: Simpson's rule on a fine grid
    xs = np.linspace(-1, 1, 20001)
    ref = float(np.trapezoid(weight.psi(xs), xs))
    assert ex.PSI_MASS == pytest.approx(ref, rel=1e-7)
    assert ex.PSI_MASS == pytest.approx(1.2069003224, rel=1e-9)


def test_psihat_zero_is_mass(weight):
    assert weight.psihat(0.0) == ex.PSI_MASS
    assert weight.psihat(0.0) == weight.psihat(-0.0)


def test_psihat_against_riemann(weight):
    # oracle: direct oscillatory Riemann sum, fine enough for 1e-8
    for t in (0.3, 1.0, 2.5):
        xs = np.linspace(-1, 1, 400001)
        ref = float(np.trapezoid(weight.psi(xs) * np.cos(2 * np.pi * t * xs), xs))
        assert weight.psihat(t) == pytest.approx(ref, abs=1e-8)
    assert weight.psihat(1.5) == weight.psihat(-1.5)


def test_psihat_rapid_decay(weight):
    K6 = weight.psi_sixth_l1()
    for t in (2.0, 4.0, 8.0):
        assert abs(weight.psihat(t)) <= K6 / (2 * math.pi * t) ** 6


def _gauss_legendre(panels=256, n=32):
    """Nodes and weights of the n-point Gauss-Legendre rule on each of
    `panels` equal panels of [-1, 1]: an oracle independent of psihat's
    trapezoid rule."""
    u, w = np.polynomial.legendre.leggauss(n)
    edges = np.linspace(-1, 1, panels + 1)
    half = np.diff(edges) / 2
    x = (edges[:-1, None] + half[:, None] * (1 + u)).ravel()
    return x, (half[:, None] * w).ravel()


def test_psi_mass_against_gauss_legendre(weight):
    x, w = _gauss_legendre()
    assert ex.PSI_MASS == pytest.approx(
        float(np.sum(weight.psi(x) * w)), rel=1e-15)
    assert ex.PSI_MASS == weight.psihat(0.0)


def test_psihat_against_gauss_legendre_to_the_domain_edge(weight):
    # the oracle's cosine arguments reach 2 pi 768, so its own rounding is
    # about 1e-14; psihat's alias error is below 6e-17
    x, w = _gauss_legendre()
    ts = np.linspace(0, ex.PSIHAT_DOMAIN, 193)
    ref = np.cos(2 * np.pi * ts[:, None] * x) @ (weight.psi(x) * w)
    assert np.max(np.abs(weight.psihat(ts) - ref)) < 5e-14
    assert np.array_equal(weight.psihat(ts),
                          [weight.psihat(t) for t in ts[::-1]][::-1])


def test_psihat_alias_bound_on_the_domain(weight):
    # the rule's error at t is sum_{j != 0} psihat(t + j N/2); bound it by
    # |psihat(tau)| <= K6 / (2 pi tau)^6 at the domain edge, where it is
    # largest
    K6, T, half = weight.psi_sixth_l1() * 1.02, ex.PSIHAT_DOMAIN, \
        ex.PSIHAT_NODES // 2
    bound = sum(K6 / (2 * math.pi) ** 6
                * ((j * half - T) ** -6.0 + (j * half + T) ** -6.0)
                for j in range(1, 10 ** 4))
    assert bound < 6e-17
    # the largest box within the point budget has R = 65, so Y < 66, and the
    # default Poisson check at q = 1 (Z = 4, rhs_double at 2Z) asks for
    # |t| <= 8 Y < 528
    X = 66 ** 4 * (1 - 1e-9)
    assert ex.box_radius(X) == 65 and (2 * 65 + 1) ** 4 <= 3e8 < 133 ** 4
    assert math.isfinite(_rhs(1, X, weight, 8))


def test_psihat_refuses_past_the_domain_and_at_an_alias(weight):
    T, N = ex.PSIHAT_DOMAIN, ex.PSIHAT_NODES
    weight.psihat([-T, T])
    for t in (np.nextafter(T, np.inf), -np.nextafter(T, np.inf), N / 2,
              [0.0, N / 2], np.nan):
        with pytest.raises(ex.QuadratureError):
            weight.psihat(t)


def test_psi_sixth_l1_against_midpoint_sum(weight):
    # independent of the roots: a dense midpoint sum of |psi^(6)|, with the
    # exact prefactor polynomial and psi taken on the log scale
    P, k = ex._psi_deriv_rational(6)
    M = 10 ** 6
    u = -1 + (np.arange(M) + 0.5) * (2 / M)
    w = 1 - u * u
    dense = float(np.sum(np.abs(np.polynomial.polynomial.polyval(
        u, np.array(P, dtype=float))) * np.exp(1 - 1 / w - k * np.log(w)))
        * (2 / M))
    assert weight.psi_sixth_l1() == pytest.approx(dense, rel=1e-6)


def test_tail_bound_builds_the_exact_polynomials_once(weight, monkeypatch):
    first = _tail(3, 10 ** 4, weight, 8)

    def boom(*a, **k):
        raise AssertionError("the rational recursion ran again")
    monkeypatch.setattr(ex.poly, "polyder", boom)
    assert _tail(3, 10 ** 4, weight, 8) == first


def test_phi_hat0_scales_with_s():
    w1, w2 = ex.SmoothWeight(s=1.0), ex.SmoothWeight(s=2.0)
    assert w1.phi_hat0 == pytest.approx(ex.PSI_MASS ** 4)
    assert w2.phi_hat0 == pytest.approx(16 * w1.phi_hat0)


def test_psi_derivative_recursion_first_order(weight):
    # psi' = -2u/(1-u^2)^2 psi, and the recursion must say so exactly
    P, k = ex._psi_deriv_rational(1)
    assert k == 2
    assert P == (Fraction(0), Fraction(-2))
    # by hand: (-2u)'(1-u^2) + 4u(-2u) = -2 - 6u^2, and then
    # (-2 - 6u^2)(1-u^2) - 2u(-2u) = -2 + 6u^4 over (1-u^2)^4
    P, k = ex._psi_deriv_rational(2)
    assert k == 4
    assert P == (Fraction(-2), 0, 0, 0, Fraction(6))
    assert all(type(c) is Fraction for c in P)
    # sixth derivative L1 mass, frozen from two independent quadratures
    assert weight.psi_sixth_l1() == pytest.approx(1.445198e7, rel=1e-4)


def test_psi_derivative_recursion_vs_finite_difference(weight):
    P, k = ex._psi_deriv_rational(2)
    h = 1e-5
    for u in (0.1, 0.4, 0.72):
        num = (float(weight.psi(u + h)) - 2 * float(weight.psi(u))
               + float(weight.psi(u - h))) / h ** 2
        val = (sum(float(c) * u ** i for i, c in enumerate(P))
               / (1 - u * u) ** k * float(weight.psi(u)))
        assert val == pytest.approx(num, rel=2e-4)


# ---------------------------------------------------------------------------
# weighted box counts
# ---------------------------------------------------------------------------

def test_weighted_count_q1_is_plain_box_sum(weight):
    X = 10 ** 4
    lat, main, err = ex.weighted_count(1, X, weight)
    R = ex.box_radius(X)
    xs = np.arange(-R, R + 1)
    w1 = weight.psi(xs / X ** 0.25)
    assert lat == pytest.approx(float(np.sum(w1)) ** 4, rel=1e-12)
    assert main == pytest.approx(weight.phi_hat0 * X, rel=1e-12)
    assert err == lat - main


def test_weighted_count_restriction_monotone(weight):
    lat1, _, _ = ex.weighted_count(1, 10 ** 4, weight)
    lat3, _, _ = ex.weighted_count(3, 10 ** 4, weight)
    assert 0 < lat3 <= lat1


def _canonical(x):
    """The fundamental-domain image of a box point: reverse when |a| < |d|,
    then make a >= 0 by (a,b,c,d) -> (-a,b,-c,d) and b >= 0 by
    (a,b,c,d) -> (a,-b,c,-d)."""
    a, b, c, d = x if abs(x[0]) >= abs(x[3]) else x[::-1]
    if a < 0:
        a, c = -a, -c
    if b < 0:
        b, d = -b, -d
    return a, b, c, d


@pytest.mark.parametrize("Z,m", [(3, 1), (200, 50), (100000, 10000),
                                 (0, 1), (1, 1), (6, 3)],
                         ids=["int32", "int64", "exact", "origin", "R1",
                              "progression"])
def test_disc_slices_walk_the_box_with_multiplicities(Z, m):
    # the three dtype tiers: |coords| <= 3, <= 200 and ~1e5 (disc past
    # int64, so object arrays); each point's disc must equal the Python-int
    # disc of its indices, and its multiplicity the number of box points
    # whose canonical image it is
    axis = box_axis(Z, 0, m)
    M = max(axis)
    mult_of, values, weights = {}, [], []
    slices = list(ex._disc_slices(axis))
    assert [ia for ia, *_ in slices] == [i for i, t in enumerate(axis)
                                         if t >= 0]
    for ia, d, mult, (ib, ic, id_) in slices:
        assert d.dtype == disc_dtype(M)
        for t, k, x in zip(d.tolist(), mult.tolist(),
                           zip([ia] * d.size, ib, ic, id_)):
            x = tuple(axis[i] for i in x)
            assert int(t) == disc_cubic(*x) and x not in mult_of
            mult_of[x] = k
        values += d.tolist()
        weights += mult.tolist()
    assert sum(weights) == len(axis) ** 4
    images = {}
    for x in itertools.product(axis, repeat=4):
        images[_canonical(x)] = images.get(_canonical(x), 0) + 1
    assert mult_of == images
    # the multiplicity-weighted histogram is the box's, in Python ints
    A, B, C, D = np.meshgrid(*[np.array(axis, dtype=disc_dtype(M))] * 4,
                             indexing="ij")
    want = np.unique(disc_cubic(A, B, C, D).ravel(), return_counts=True)
    got = {}
    for t, k in zip(values, weights):
        got[int(t)] = got.get(int(t), 0) + k
    assert got == {int(t): int(k) for t, k in zip(*want)}


def test_disc_slices_refuse_an_asymmetric_axis():
    for axis in (range(-2, 4), range(-3, 4, 2), box_axis(5, 1, 3)):
        with pytest.raises(ValueError, match="symmetric"):
            next(ex._disc_slices(axis))


def test_buckets_serve_and_reducible_mass(weight):
    X = 10 ** 4
    vals, sums = ex.disc_value_buckets(X, weight)
    assert ex.serve_buckets(vals, sums, 1) == pytest.approx(float(sums.sum()))
    # disc = 0 mass against a direct masked sum
    R = ex.box_radius(X)
    xs = np.arange(-R, R + 1)
    w1 = weight.psi(xs / X ** 0.25)
    A, B, C, D = np.meshgrid(xs, xs, xs, xs, indexing="ij")
    W = (w1[:, None, None, None] * w1[None, :, None, None]
         * w1[None, None, :, None] * w1[None, None, None, :])
    disc = disc_cubic(A, B, C, D)
    ref = float(W[disc == 0].sum())
    assert ex.reducible_mass(vals, sums) == pytest.approx(ref, rel=1e-12)
    # q | disc served from the buckets against the masked meshgrid sum
    for q in (1, 6, 15, 35):
        ref = float(W[disc % q == 0].sum())
        assert ex.serve_buckets(vals, sums, q) == pytest.approx(ref, rel=1e-12)


DIVISORS = (1, 2, 3, 6, 30, 210, 821, 1642, 2 ** 31 - 1, 2 ** 31 + 11,
            2 ** 61 - 1)


@pytest.mark.parametrize("dtype", [np.int32, np.int64, object],
                         ids=["int32", "int64", "object"])
def test_divisible_matches_python_int(dtype):
    if dtype is object:
        # only signed integer arrays are served; an unsigned view of a
        # negative value would otherwise read as a large positive one
        for vals in (np.array([3, 3 * 2 ** 70], dtype=object),
                     np.array([-3], dtype=np.int64).view(np.uint64)):
            with pytest.raises(TypeError, match=str(vals.dtype)):
                ffcore.divisible(vals, 3)
        return
    info = np.iinfo(dtype)
    lo, hi = int(info.min), int(info.max)
    rng = np.random.default_rng(7)
    edges = [0, 1, -1, lo, lo + 1, hi, hi - 1]
    randoms = [int(v) for v in rng.integers(lo, hi, 2000, dtype=np.int64)]
    for d in DIVISORS:
        k = [int(v) for v in rng.integers(-(hi // d), hi // d + 1, 200)]
        vals = np.array(edges + randoms + [d * t for t in k], dtype=dtype)
        want = [int(v) % d == 0 for v in vals]
        got = ffcore.divisible(vals, d)
        assert got.dtype == bool and got.tolist() == want, d
    with pytest.raises(ValueError):
        ffcore.divisible(np.arange(3), 0)


def _buckets_oracle(X, weight):
    """The bucket build over the same fundamental-domain walk, as a
    per-slice np.unique, a merge every 8 slices by np.unique over the
    concatenation, and a pairwise merge tree level by level with an odd
    last group carried up."""
    R = ex.box_radius(X, weight.s)
    xs = np.arange(-R, R + 1, dtype=np.int64)
    w1 = weight.psi(xs / (weight.s * X ** 0.25))

    def merge(vs, ss):
        v, inv = np.unique(np.concatenate(vs), return_inverse=True)
        return v, np.bincount(inv, weights=np.concatenate(ss))

    groups, pend = [], []
    for ia, disc, mult, (ib, ic, id_) in ex._disc_slices(xs):
        v, inv = np.unique(disc, return_inverse=True)
        pend.append((v, np.bincount(
            inv, weights=w1[ia] * w1[ib] * w1[ic] * w1[id_] * mult)))
        if len(pend) >= 8 or ia == len(xs) - 1:
            groups.append(merge(*zip(*pend)))
            pend = []
    while len(groups) > 1:
        groups = [merge((a[0], b[0]), (a[1], b[1]))
                  for a, b in zip(groups[::2], groups[1::2])] + \
                 ([groups[-1]] if len(groups) % 2 else [])
    return groups[0]


@pytest.mark.parametrize("X", [10 ** 4, 3 * 10 ** 4, 10 ** 5, 4 * 10 ** 5,
                               54 * 10 ** 5])
def test_buckets_bit_identical_to_pairwise_tree(X, weight):
    # R + 1 = 10, 14, 18, 26 and 49 slices of the fundamental domain: 2,
    # 2, 3, 4 and 7 groups of 8, so the binary counter ends with one, one,
    # two, one and three tables left to fold, and only three tables tell
    # the fold's order apart
    vals, sums = ex.disc_value_buckets(X, weight)
    want_vals, want_sums = _buckets_oracle(X, weight)
    assert vals.dtype == want_vals.dtype == np.int32
    assert np.array_equal(vals, want_vals)
    assert sums.tobytes() == want_sums.tobytes()


@pytest.mark.parametrize("X, shard_points, n_shards, empty_group", [
    (10 ** 4, 10 ** 4, 2, False),
    (3 * 10 ** 4, 3 * 10 ** 4, 3, False),
    (10 ** 5, 2 ** 14, 13, True),
    (10 ** 4, 2 ** 11, 13, False),     # two ranges recut past the sample
])
def test_sharded_buckets_bit_identical(X, shard_points, n_shards,
                                       empty_group, weight, monkeypatch):
    # each value range builds its table alone, and every group enters its
    # merge tree, empty or not, so the shard tables concatenate to the
    # bytes of one unsharded build
    sizes, group = [], ex._group_buckets

    def spy(discs, weights):
        sizes.append(sum(d.size for d in discs))
        return group(discs, weights)

    monkeypatch.setattr(ex, "_SHARD_POINTS", shard_points)
    monkeypatch.setattr(ex, "_group_buckets", spy)
    vals, sums = ex.disc_value_buckets(X, weight)
    want_vals, want_sums = _buckets_oracle(X, weight)
    assert vals.tobytes() == want_vals.tobytes()
    assert sums.tobytes() == want_sums.tobytes()
    R = ex.box_radius(X)
    per_shard = np.reshape(sizes, (n_shards, -(-(R + 1) // 8)))
    assert per_shard.sum() == (R + 1) ** 3 * (2 * R + 1)    # domain points
    assert per_shard.sum(axis=1).max() <= shard_points
    assert (per_shard == 0).any() == empty_group


def test_shard_cuts_are_exact(monkeypatch):
    # the sample's cuts are recounted exactly: every range holds at most
    # _SHARD_POINTS points, except a value with more (disc = 0, 169
    # points of the X = 1e4 domain), which keeps a range of its own
    monkeypatch.setattr(ex, "_SHARD_POINTS", 100)
    discs = [d for _, d, _, _ in ex._disc_slices(np.arange(-9, 10))]
    every = np.sort(np.concatenate(discs))
    cuts = ex._shard_cuts(discs)
    assert cuts == sorted(set(cuts)) and {0, 1} <= set(cuts)
    counts = np.diff([0, *np.searchsorted(every, cuts), every.size])
    assert counts[cuts.index(1)] == np.count_nonzero(every == 0) == 169
    assert sorted(counts)[-2] <= 100


def test_sharding_bounds_the_build_memory(weight, monkeypatch):
    # five shards of at most 2^17 points against one: the traced peak of
    # the build falls to at most 60 %
    peaks = []
    for points in (2 ** 40, 2 ** 17):
        monkeypatch.setattr(ex, "_SHARD_POINTS", points)
        tracemalloc.start()
        try:
            ex.disc_value_buckets(3 * 10 ** 5, weight)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 0.6 * peaks[0]


def test_lod_served_by_largest_prime_bit_identical(weight):
    X = 10 ** 5
    rep = ex.lod_error_sum(ex.LodConfig(X_grid=(X,)))
    vals, sums = _buckets_oracle(X, weight)
    wide = vals.astype(np.int64)
    qs = [row[0] for row in rep.q_rows]
    assert qs == [int(q) for q in sieve.squarefree_upto(int(X ** 0.45))]
    for q, lat, _, _ in rep.q_rows:
        assert lat == float(np.sum(sums[wide % q == 0])), q


def test_lod_divisor_tree_over_four_blocks_bit_identical(weight):
    # 471 578 values span four blocks of the prime pass, and q = 210 and
    # 330 are served three levels down the divisor tree
    X = 4 * 10 ** 5
    rep = ex.lod_error_sum(ex.LodConfig(X_grid=(X,)))
    vals, sums = _buckets_oracle(X, weight)
    assert vals.size == 471578
    assert 3 * ex._SERVE_BLOCK < vals.size <= 4 * ex._SERVE_BLOCK
    wide = vals.astype(np.int64)
    qs = [row[0] for row in rep.q_rows]
    assert qs == [int(q) for q in sieve.squarefree_upto(331)]
    assert {210, 330} <= set(qs)
    for q, lat, _, _ in rep.q_rows:
        assert lat == float(np.sum(sums[wide % q == 0])), q


def test_group_sort_refuses_values_that_are_not_int32():
    # disc << 32 holds a value exactly only below 2^31 in magnitude; an
    # int64 value would wrap silently
    w = [np.ones(3)]
    for dtype in (np.int64, np.int16, np.uint32):
        with pytest.raises(TypeError, match="int32"):
            ex._group_buckets([np.array([2 ** 40 if dtype is np.int64 else 1,
                                         0, 1], dtype=dtype)], w)
    vals, sums = ex._group_buckets([np.array([5, -3, 5], dtype=np.int32)], w)
    assert vals.tolist() == [-3, 5] and sums.tolist() == [1.0, 2.0]


def test_poisson_check_reads_one_row_of_radius_2Z(monkeypatch):
    # one check evaluates 4Z + 1 psihat values and one dual grid, and its
    # numbers have the bytes of separate evaluations at each radius
    psihat, grid, n_t, n_grid = (ex.SmoothWeight.psihat, ex._dual_value_grid,
                                 [], [])

    def counted(t):
        n_t.append(np.size(t))
        return psihat(t)

    def counted_grid(q):
        n_grid.append(q)
        return grid(q)

    monkeypatch.setattr(ex.SmoothWeight, "psihat", staticmethod(counted))
    monkeypatch.setattr(ex, "_dual_value_grid", counted_grid)
    for q in (1, 3, 5, 7, 11, 15):
        for s in (1.0, 1.3):
            n_t.clear()
            n_grid.clear()
            w = ex.SmoothWeight(s=s)
            rep = ex.poisson_check(q, 10 ** 4, w)
            Z = rep.Z
            assert sum(n_t) == 4 * Z + 1, q
            assert n_grid == [q]
            assert vars(w) == {"s": s}          # the weight keeps nothing
            fresh = [_rhs(q, 10 ** 4, w, Z), _rhs(q, 10 ** 4, w, 2 * Z),
                     _tail(q, 10 ** 4, w, Z)]
            assert [rep.rhs, rep.rhs_double, rep.tail_bound] == fresh, q


def test_poisson_check_lhs_is_weighted_count(weight):
    lhs = [ex.poisson_check(q, 10 ** 4, weight).lhs for q in (1, 3, 5)]
    assert lhs == [ex.weighted_count(q, 10 ** 4, weight)[0] for q in (1, 3, 5)]


def test_reducible_mass_absent_bucket():
    assert ex.reducible_mass(np.array([2, 5]), np.array([1.0, 1.0])) == 0.0
    assert ex.reducible_mass(np.array([-3, 5]), np.array([1.0, 1.0])) == 0.0


def test_main_term_multiplicative(weight):
    m15 = ex.main_term(15, 10 ** 4, weight)
    dens = float(fourier.omega(ex.CUBIC, 3) * fourier.omega(ex.CUBIC, 5))
    assert m15 == pytest.approx(dens * weight.phi_hat0 * 10 ** 4)


# ---------------------------------------------------------------------------
# level-of-distribution error sums
# ---------------------------------------------------------------------------

def test_lod_small_grid_trend():
    rep = ex.lod_error_sum(ex.LodConfig(X_grid=(10 ** 4, 10 ** 5)))
    ratios = [row[4] for row in rep.per_X]
    assert ratios[1] < ratios[0]
    assert rep.fitted_c < 1
    assert len(rep.q_rows) == len(sieve.squarefree_upto(int(10 ** (5 * 0.45))))
    assert rep.q_rows[0][0] == 1          # E(X,1) is reported


def test_lod_sieve_error_excludes_zero_locus(weight):
    # at q = 1 the sieve-sequence error is (Poisson E) - (disc = 0 mass)
    rep = ex.lod_error_sum(ex.LodConfig(X_grid=(10 ** 4,)))
    q1, lat, main, err = rep.q_rows[0]
    w0 = rep.per_X[0][2]
    assert q1 == 1
    lat_p, main_p, err_p = ex.weighted_count(1, 10 ** 4, weight)
    assert lat == pytest.approx(lat_p, rel=1e-12)
    assert err == pytest.approx(err_p - w0, rel=1e-9)
    # one X has no growth exponent to fit
    assert rep.fitted_c is None and rep.residuals is None


def test_lod_alpha_zero_only_q1():
    rep = ex.lod_error_sum(ex.LodConfig(X_grid=(10 ** 4,), alpha=0.0))
    assert rep.per_X[0][1] == 1
    assert [row[0] for row in rep.q_rows] == [1]


def test_fit_loglog_recovers_power_law():
    xs = [10.0, 100.0, 1000.0]
    slope, intercept, resid = ex._fit_loglog(xs, [3 * x ** 1.7 for x in xs])
    assert slope == pytest.approx(1.7, abs=1e-12)
    assert math.exp(intercept) == pytest.approx(3.0, rel=1e-12)
    assert max(abs(r) for r in resid) < 1e-12


def test_fit_loglog_needs_two_distinct_positive_x():
    # nonpositive pairs are dropped before the fit, and one distinct x
    # left has no slope
    assert ex._fit_loglog([0, 5, 5], [1, 2, 3]) is None
    assert ex._fit_loglog([2, 5], [0, 3]) is None
    slope, _, resid = ex._fit_loglog([0, 2, 4], [7, 2, 8])
    assert slope == pytest.approx(2.0, abs=1e-12) and len(resid) == 2


# ---------------------------------------------------------------------------
# Poisson consistency
# ---------------------------------------------------------------------------

def test_poisson_check_small_moduli(weight):
    for q in (1, 3):
        rep = ex.poisson_check(q, 10 ** 4, weight)
        assert rep.Z == 2 + 2 * q
        assert rep.abs_gap <= rep.tail_bound
        assert rel_gap_double(rep) < 1e-6


def test_poisson_rhs_converges_in_Z(weight):
    # doubling the radius must not move the dual sum at the gap scale
    r1 = _rhs(3, 10 ** 4, weight, 8)
    r2 = _rhs(3, 10 ** 4, weight, 32)
    r3 = _rhs(3, 10 ** 4, weight, 64)
    assert abs(r2 - r3) < abs(r1 - r3)
    assert abs(r2 - r3) / abs(r3) < 1e-9


def test_poisson_tail_bound_decreases_in_Z(weight):
    b = [_tail(3, 10 ** 4, weight, Z) for Z in (4, 8, 16)]
    assert b[0] > b[1] > b[2] > 0


def test_dual_value_grid_matches_closed_forms():
    V = ex._dual_value_grid(3)
    assert V.shape == (3, 3, 3, 3)
    assert V[0, 0, 0, 0] == pytest.approx(float(Fraction(11, 27)))
    # (1,0,0,0) is t*x^3 which has dual disc 0
    assert V[1, 0, 0, 0] == pytest.approx(float(Fraction(2, 27)))


# ---------------------------------------------------------------------------
# the exact dual-side sum
# ---------------------------------------------------------------------------

def test_dual_bound_sum_empty_box():
    rep = ex.dual_bound_sum(3, 0)
    assert rep.n_points == 0
    assert rep.total == 0


def _weighted_histogram(keys, weights):
    hist = {}
    for key, w in zip(keys, weights):
        hist[key] = hist.get(key, 0) + int(w)
    return hist


@pytest.mark.parametrize("space,Z", [(CUBIC, 0), (CUBIC, 1), (CUBIC, 2),
                                     (CUBIC, 3), (QUARTIC, 0), (QUARTIC, 1)],
                         ids=["cubic0", "cubic1", "cubic2", "cubic3",
                              "quartic0", "quartic1"])
def test_dual_box_stands_for_the_nonzero_box(space, Z):
    # the rows are distinct nonzero points standing for (2Z + 1)^r - 1 box
    # points, and carry the box's histogram of (disc, content) and, on the
    # cubic space, of the class at p = 2, 5, 7 as well
    Y, mult, D = ex._dual_box(space, Z)
    r = space.r
    assert int(mult.sum()) == (2 * Z + 1) ** r - 1
    assert np.array_equal(D, disc(space, Y))
    assert len({tuple(y) for y in Y.tolist()}) == len(Y)
    assert Y.any(axis=1).all()
    box = np.indices((2 * Z + 1,) * r, dtype=np.int64).reshape(r, -1).T - Z
    box = box[box.any(axis=1)]

    def keys(X, *ps):
        cols = [disc(space, X).tolist(), np.gcd.reduce(X, axis=1).tolist()]
        cols += [fourier.cubic_class_batch(X, p).tolist() for p in ps]
        return zip(*cols)
    ps = (2, 5, 7) if space is CUBIC else ()
    assert (_weighted_histogram(keys(Y, *ps), mult)
            == _weighted_histogram(keys(box, *ps), np.ones(len(box))))
    if space is QUARTIC:
        # each row stands for itself and its negative: -1 in GL_2
        assert np.array_equal(orbits.classify_batch(space, Y, 3),
                              orbits.classify_batch(space, -Y, 3))


@pytest.mark.parametrize("N,Z,space_id,cap", [(10, 3, "cubic", 447),
                                              (2, 1, "quartic", 265720)])
def test_dual_bound_sum_grades_the_domain(N, Z, space_id, cap, monkeypatch):
    # the nonzero box has 2400 and 531 440 rows; the graded domain is its
    # order-8 fundamental domain (cubic) and its x -> -x half (quartic)
    real, sizes = fourier.target_classes, []

    def spy(space, Y, p):
        sizes.append(len(Y))
        return real(space, Y, p)
    monkeypatch.setattr(fourier, "target_classes", spy)
    ex.dual_bound_sum(N, Z, space_by_name(space_id))
    assert sizes and max(sizes) <= cap


def _dual_bound_oracle(N, Z):
    """The six report fields of the cubic dual_bound_sum, point by point:
    |ft_on_lattice| per (q, x), and ft_qsplit_check wherever gcd(q, x) > 1."""
    qs = [int(q) for q in sieve.squarefree_upto(2 * N) if q >= N]
    pts = [x for x in itertools.product(range(-Z, Z + 1), repeat=4) if any(x)]
    total = d0 = Fraction(0)
    checked = 0
    for x in pts:
        for q in qs:
            v = abs(ft_on_lattice(CUBIC_COND, q, x))
            total += v
            d0 += v if disc_cubic(*x) == 0 else 0
            q0 = math.gcd(q, *x)
            if q0 > 1:
                assert ft_qsplit_check(CUBIC_COND, q0, q // q0, x)
                checked += 1
    return (total, d0, total - d0, len(qs), len(pts), checked)


@pytest.mark.parametrize("N,Z", [(5, 2), (10, 3)])
def test_dual_bound_sum_matches_per_point_oracle(N, Z):
    rep = ex.dual_bound_sum(N, Z)
    assert (rep.total, rep.disc0_part, rep.nonzero_part, rep.n_q,
            rep.n_points, rep.qsplit_checked) == _dual_bound_oracle(N, Z)


def test_dual_bound_sum_prime_q_class_counts():
    # independent evaluation: classify every box point mod 5 and weight the
    # three closed-form values by exact class counts
    Z = 2
    got = ex.dual_bound_sum(5, Z)
    vals = [abs(fourier.ft_closed_form(CUBIC_COND, 5, c))
            for c in CUBIC_CLASSES]
    box = [x for x in itertools.product(range(-Z, Z + 1), repeat=4) if any(x)]
    want = sum(vals[c] for c in fourier.cubic_class_batch(box, 5))
    # got.total sums q in {5, 6, 7, 10}; redo the remaining q point by point
    for q in (6, 7, 10):
        want += sum(abs(ft_on_lattice(CUBIC_COND, q, x))
                    for x in box)
    assert got.total == want


@pytest.mark.parametrize("N,Z,want", [(5, 2, 160), (10, 3, 240),
                                      (20, 4, 3440)])
def test_dual_bound_sum_qsplit_count(N, Z, want):
    assert ex.dual_bound_sum(N, Z).qsplit_checked == want


def test_dual_bound_sum_qsplit_and_split_parts():
    rep = ex.dual_bound_sum(5, 2)
    assert rep.qsplit_checked > 0
    assert rep.total == rep.disc0_part + rep.nonzero_part
    assert rep.disc0_part > 0 and rep.nonzero_part > 0


def test_dual_bound_quartic_matches_orbit_sizes(table3):
    # q in {2, 3}: q = 2 is the dual-lattice index, so FT_2 = 1 at every
    # point; mod 3 the box {-1, 0, 1}^12 is V(F_3) itself, so the q = 3 sum
    # runs over the orbits of its nonzero states
    want = 3 ** 12 - 1 + sum(
        size * abs(fourier.ft_closed_form(QUARTIC_COND, 3, name))
        for name, (size, _) in table3.entries.items() if name != "O_0")
    rep = ex.dual_bound_sum(2, 1, QUARTIC)
    assert rep.total == want == Fraction(3488019184, 6561)
    assert (rep.n_q, rep.n_points, rep.qsplit_checked) == (2, 3 ** 12 - 1, 0)
    assert rep.majorant is None                 # the majorant is cubic only


def _majorant_oracle(N, Z):
    """maj1 of dual_bound_majorant, one box point at a time."""
    n_star = max(1, -(-N // 3))
    maj1 = Fraction(0)
    for x in itertools.product(range(-Z, Z + 1), repeat=4):
        D = abs(disc_cubic(*x))
        for f in (f for f in range(1, D + 1) if D % f == 0):
            if f <= (2 * N) ** 3:
                c = max(k for k in range(1, f + 1) if k ** 3 <= f)
                maj1 += Fraction(f) * (Fraction(N, c) + 1) / n_star ** 3
    return maj1


@pytest.mark.parametrize("N", [5, 7])
def test_dual_bound_majorant_matches_per_point(N):
    assert ex.dual_bound_sum(N, 2).majorant[1] == _majorant_oracle(N, 2)


def _majorant_loop(N, moduli, mult, D):
    """dual_bound_majorant one distinct |disc| at a time: each value's
    divisors by trial division up to its square root, each divisor's
    integer cube root by a float guess corrected in Python ints."""
    maj0 = int(mult[D == 0].sum()) * sum(
        (math.prod((fourier.omega(CUBIC, p) for p in ps), start=1)
         for ps in moduli.values()), Fraction(0))
    values, inv = np.unique(D[D > 0], return_inverse=True)
    counts = np.bincount(inv, weights=mult[D > 0]).astype(np.int64)
    n_star = max(1, -(-N // 3))
    weights = {}
    for value, count in zip(values.tolist(), counts.tolist()):
        small = [f for f in range(1, math.isqrt(value) + 1) if value % f == 0]
        for f in set(small + [value // f for f in small]):
            if f <= (2 * N) ** 3:
                c = round(f ** (1 / 3))
                while c ** 3 > f:
                    c -= 1
                while (c + 1) ** 3 <= f:
                    c += 1
                weights[c] = weights.get(c, 0) + count * f
    maj1 = sum((w * (Fraction(N, c) + 1) for c, w in weights.items()),
               Fraction(0)) / n_star ** 3
    return maj0, maj1


def _majorant_inputs(N, Z):
    _, mult, D = ex._dual_box(CUBIC, Z)
    return N, ex.check_dual_bound(N, Z, CUBIC), mult, np.abs(D)


@pytest.mark.parametrize("N, Z", [(5, 2), (10, 3), (30, 4), (60, 8)])
def test_dual_bound_majorant_matches_loop(N, Z):
    args = _majorant_inputs(N, Z)
    assert ex.dual_bound_majorant(*args) == _majorant_loop(*args)


def test_dual_bound_majorant_chunked(monkeypatch):
    # a budget of 64 divisor rows splits (30, 4)'s values into many chunks
    args = _majorant_inputs(30, 4)
    chunks = []

    def spy(P, E):
        chunks.append(P.shape[1])
        return divisor_rows(P, E)
    divisor_rows = ex._divisor_rows
    monkeypatch.setattr(ex, "_divisor_rows", spy)
    monkeypatch.setattr(ex.ffcore, "CELL_BUDGET", 64)
    assert ex.dual_bound_majorant(*args) == _majorant_loop(*args)
    assert len(chunks) > 10 and sum(chunks) == np.unique(args[3]).size - 1


def test_divisor_rows_list_every_divisor():
    values = np.arange(1, 2 ** 12 + 1, dtype=np.int64)
    P, E = ex._factor_slots(values)
    assert (np.prod(np.where(E > 0, P, 1) ** E.astype(np.int64), axis=0)
            == values).all()
    order = np.argsort(-np.count_nonzero(E, axis=0), kind="stable")
    owner, f = ex._divisor_rows(P[:, order], E[:, order])
    got = {}
    for o, d in zip(order[owner].tolist(), f.tolist()):
        got.setdefault(o + 1, []).append(d)
    assert {v: sorted(ds) for v, ds in got.items()} == {
        v: [d for d in range(1, v + 1) if v % d == 0]
        for v in values.tolist()}


def test_dual_bound_majorant_dominates():
    for N in (5, 7):
        rep = ex.dual_bound_sum(N, 2)
        maj0, maj1 = rep.majorant
        assert rep.disc0_part <= maj0
        assert rep.nonzero_part <= maj1


def test_dual_bound_disc0_scaling():
    pts = [(Z, float(ex.dual_bound_sum(3, Z).disc0_part))
           for Z in (1, 2, 3, 4)]
    slope, _, _ = ex._fit_loglog([z for z, _ in pts], [v for _, v in pts])
    assert 1.3 <= slope <= 2.7


def test_dual_bound_quartic_propagates_classifier_gap(monkeypatch):
    def boom(space, coords, p):
        raise orbits.ClassifierIncompleteError("p=11: forced for the test")
    monkeypatch.setattr(orbits, "classify_batch", boom)
    with pytest.raises(orbits.ClassifierIncompleteError):
        ex.dual_bound_sum(11, 1, QUARTIC)


# ---------------------------------------------------------------------------
# geometric-sieve pairs
# ---------------------------------------------------------------------------

def test_geo_pair_count_oracle_double_loop():
    # the windows with 2, 3 and 5 are where a wrong multiplicity on the
    # a = 0, b = 0 or |d| = a faces of the fundamental domain would show
    for lam, m, window, primes in ((6, 1, (7, 14), [7, 11, 13]),
                                   (5, 1, (2, 7), [2, 3, 5, 7]),
                                   (5, 2, (2, 7), [3, 5, 7])):
        query = ex.GeoSieveQuery(lam=lam, m=m, window=window)
        rep = ex.geo_pair_count(query)
        axis = range(-lam + lam % m, lam + 1, m)
        want = 0
        for a in axis:
            for b in axis:
                for c in axis:
                    for d in axis:
                        D = disc_cubic(a, b, c, d)
                        for p in primes:
                            if D % p == 0:
                                want += 1
        assert rep.count == want, (lam, m)
        assert rep.n_primes == len(primes)


def test_geo_pair_count_degenerate():
    assert ex.geo_pair_count(ex.GeoSieveQuery(lam=10, window=(8, 7))).count == 0
    rep = ex.geo_pair_count(ex.GeoSieveQuery(lam=6, m=30, window=(2, 5)))
    assert rep.count == 0 and rep.n_primes == 0


def test_geo_pair_count_monotone():
    base = ex.geo_pair_count(ex.GeoSieveQuery(lam=8, window=(5, 10)))
    wider = ex.geo_pair_count(ex.GeoSieveQuery(lam=12, window=(5, 10)))
    more_p = ex.geo_pair_count(ex.GeoSieveQuery(lam=8, window=(5, 14)))
    assert base.count <= wider.count
    assert base.count <= more_p.count
    # scheme implication: disc0 pairs are a subset of all pairs
    allp = ex.geo_pair_count(ex.GeoSieveQuery(lam=8, window=(5, 10),
                                              scheme="all"))
    assert base.count <= allp.count


@pytest.mark.parametrize("lam,m,window", [(6, 3, (5, 10)),
                                          (100000, 10000, (11, 22)),
                                          (6, 1, (46341, 46400))],
                         ids=["narrow", "wide", "past-int32-residues"])
def test_geo_pair_count_progression(lam, m, window):
    # m Z^4 inside [-lam, lam]: axis {-6, -3, 0, 3, 6} for the narrow box;
    # the wide box's discriminants reach ~5e21, past int64 (the count, over
    # k = x / m, stays in int32); p > 46340 in the last window puts p^2
    # past 2^31, where int32 residue products would wrap
    rep = ex.geo_pair_count(ex.GeoSieveQuery(lam=lam, m=m, window=window))
    ps = [p for p in range(window[0], window[1] + 1)
          if all(p % d for d in range(2, p)) and m % p]
    assert rep.n_primes == len(ps)
    axis = range(-lam + lam % m, lam + 1, m)
    want = 0
    for x in itertools.product(axis, repeat=4):
        D = disc_cubic(*x)
        want += sum(1 for p in ps if D % p == 0)
    assert rep.count == want


def test_geo_wide_walk_is_int32(monkeypatch):
    # the wide query's box is m times the box |k_i| <= lam // m = 10, so
    # the root count runs on that k-box, not on the x-box, whose
    # discriminants pass int64; its fibre residues (the 3-d arrays: prime,
    # d, (b, c)) are int32, as every prime is below 2^15, and no residue
    # array is an object array
    real_count, real_mod, calls, dtypes = (ex._fibre_pair_count, ex.mod,
                                           [], [])

    def spy_count(K, ps):
        calls.append((K, list(ps)))
        return real_count(K, ps)

    def spy_mod(x, p, out=None):
        dtypes.append((x.ndim, x.dtype))
        return real_mod(x, p, out=out)
    monkeypatch.setattr(ex, "_fibre_pair_count", spy_count)
    monkeypatch.setattr(ex, "mod", spy_mod)
    rep = ex.geo_pair_count(ex.GeoSieveQuery(lam=100000, m=10000,
                                             window=(11, 22)))
    assert rep.count == 53844
    assert calls == [(10, [11, 13, 17, 19])]
    assert {dt for nd, dt in dtypes if nd == 3} == {np.dtype(np.int32)}
    assert np.dtype(object) not in {dt for _, dt in dtypes}


def test_geo_point_budget_before_work(monkeypatch):
    # (2 lam + 1)^4 at lam = 30000 wraps in int64; the budget is checked
    # on the exact count before any prime or fibre is built
    def boom(*a, **k):
        raise AssertionError("work started before the point budget")
    monkeypatch.setattr(ex, "_fibre_pair_count", boom)
    monkeypatch.setattr(sieve, "primes_upto", boom)
    with pytest.raises(ResourceLimitError, match="12960864021600240001"):
        ex.geo_pair_count(ex.GeoSieveQuery(lam=30000))


def test_geo_prime_window_past_2_31_refused(monkeypatch):
    # sieving primes up to 2^31 takes a 2 GB mask: refused before the
    # window's primes are sieved
    def boom(*a, **k):
        raise AssertionError("primes sieved past the window bound")
    monkeypatch.setattr(sieve, "primes_upto", boom)
    with pytest.raises(ResourceLimitError, match="2147483648"):
        ex.geo_pair_count(ex.GeoSieveQuery(lam=2, window=(2 ** 30,
                                                          2 ** 31)))


def test_geo_prime_window_prices_the_primes(monkeypatch):
    # the budget prices the primes as well as the mask: a (P2 + 1)-byte
    # mask of 201 bytes fits 1000, the ~46 primes up to 200 do not
    monkeypatch.setattr(ex, "GEO_SIEVE_BYTES", 1000)
    assert ex.geo_pair_count(ex.GeoSieveQuery(lam=6, window=(7, 14))).count
    with pytest.raises(ResourceLimitError, match="up to 200"):
        ex.geo_pair_count(ex.GeoSieveQuery(lam=6, window=(100, 200)))


def _walk_pair_count(K, ps):
    """The domain walk: disc at every point of the box's order-8 domain,
    each prime tested by divisible, weighted by the multiplicities."""
    count = 0
    for _, D, mult, _ in ex._disc_slices(np.arange(-K, K + 1)):
        hits = np.zeros(D.shape, dtype=np.int32)
        for p in ps:
            hits += ffcore.divisible(D, p)
        count += int(np.dot(hits, mult))
    return count


@pytest.mark.parametrize("K", [0, 1, 2, 3, 5, 8])
def test_fibre_root_count_matches_the_walk(K):
    # p < 2K + 1 puts several box points in one class; p = 2, 3 take the
    # sum over the support states, at K = 0 as well; the planes p | d (with
    # p | c among them) and the fibres with p | h are all met at these K
    for p in (2, 3, 5, 7, 11, 13, 17):
        assert ex._fibre_pair_count(K, [p]) == _walk_pair_count(K, [p]), p
    ps = [2, 3, 5, 7, 11, 13, 17]
    assert ex._fibre_pair_count(K, ps) == _walk_pair_count(K, ps)


@pytest.mark.parametrize("K,window", [(5, (65521, 65600)),
                                      (8, (786431, 786450)),
                                      (3, (4349, 4410))])
def test_fibre_root_count_large_primes(K, window):
    # at K = 5 and 8 the square roots of the h met come from
    # Tonelli-Shanks (p past 16 (len(h) + 2048) < 2^16): 65537 - 1 is 2^16
    # and 786433 - 1 is 3 * 2^18, so every step of it runs; at K = 3 they
    # come from the table, and the window straddles 54 K^4 = 4374, past
    # which each prime adds the disc = 0 count
    ps = [int(p) for p in sieve.primes_upto(window[1]) if p >= window[0]]
    assert {65537, 786433, 4391} & set(ps)
    assert ex._fibre_pair_count(K, ps) == _walk_pair_count(K, ps)


@pytest.mark.parametrize("query", [
    *(ex.GeoSieveQuery(lam=lam, m=m) for lam, m in ex.GEO_GRID),
    ex.GeoSieveQuery(lam=9, window=(2, 40)),
    ex.GeoSieveQuery(lam=3, window=(4300, 4500))],
    ids=[*(f"grid-{lam}-{m}" for lam, m in ex.GEO_GRID), "with-2-and-3",
         "past-54K^4"])
def test_geo_pair_count_budget_invariant(query, monkeypatch):
    # the default cell budget and the smallest one (one d-row of one prime
    # per block) count alike: on the sweep's grid, on a window holding 2
    # and 3 (the support-state sum), and on one straddling 54 K^4 = 4374
    default = ex.geo_pair_count(query).count
    monkeypatch.setattr(ex.ffcore, "CELL_BUDGET", 1)
    assert ex.geo_pair_count(query).count == default


def test_fibre_count_bounds_the_block_memory():
    # at lam = 50 one prime's fibres over the whole box, 101 d-rows of
    # 51^2 fibres, took a traced peak of 12.91 MiB; d-chunks of the default
    # cell budget take at most a quarter of that
    ex.geo_pair_count(ex.GeoSieveQuery(lam=5))
    tracemalloc.start()
    try:
        ex.geo_pair_count(ex.GeoSieveQuery(lam=50))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.91 * 2 ** 20 / 4


def test_geo_unknown_scheme():
    with pytest.raises(ValueError):
        ex.geo_pair_count(ex.GeoSieveQuery(lam=4, window=(3, 5), scheme="no"))
    # refused up front, also when the window holds no prime
    with pytest.raises(ValueError):
        ex.geo_pair_count(ex.GeoSieveQuery(lam=4, window=(24, 28),
                                           scheme="no"))


# ---------------------------------------------------------------------------
# the reducible locus
# ---------------------------------------------------------------------------

def test_reducible_count_bruteforce_oracle():
    # oracle: disc over the whole (2Y+1)^4 grid
    for Y in (0, 1, 2, 5, 8):
        grid = np.meshgrid(*[np.arange(-Y, Y + 1, dtype=np.int64)] * 4)
        want = np.count_nonzero(disc_cubic(*grid) == 0)
        assert ex.reducible_count(Y) == want


def _meshgrid_reducible_count(Y):
    """The (u, v) rectangle of each root direction, tested point by point."""
    count = 1
    rt = math.isqrt(Y)
    for qq in range(0, rt + 1):
        for pp in range(-rt, rt + 1):
            if math.gcd(qq, pp) != 1 or (qq == 0 and pp != 1):
                continue
            u_cap = Y // (qq * qq) if qq else Y
            v_cap = Y // (pp * pp) if pp else Y
            U, W = np.meshgrid(np.arange(-u_cap, u_cap + 1),
                               np.arange(-v_cap, v_cap + 1), indexing="ij")
            coeffs = (qq * qq * U, -(2 * pp * qq * U + qq * qq * W),
                      pp * pp * U + 2 * pp * qq * W, -pp * pp * W)
            ok = np.all([np.abs(x) <= Y for x in coeffs], axis=0)
            count += int(np.count_nonzero(ok & ((U != 0) | (W != 0))))
    return count


def _reducible_loop(Y):
    """reducible_count one root direction at a time: the (u, v) intervals
    of each direction over its own row of u."""
    count = 1
    rt = math.isqrt(Y)
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


@pytest.mark.parametrize("Y", [*range(61), 200, 400, 2000])
def test_reducible_count_direction_loop_oracle(Y):
    assert ex.reducible_count(Y) == _reducible_loop(Y)


def test_reducible_count_blocks(monkeypatch):
    # a budget of 16 cells takes every direction of Y = 400 on its own
    want = ex.reducible_count(400)
    monkeypatch.setattr(ex.ffcore, "CELL_BUDGET", 16)
    assert ex.reducible_count(400) == want == _reducible_loop(400)


@pytest.mark.parametrize("Y", [0, 1, 4, 9, 25, 50, 100])
def test_reducible_count_meshgrid_oracle(Y):
    assert ex.reducible_count(Y) == _meshgrid_reducible_count(Y)


def test_reducible_count_y1_is_21():
    # of the 81 forms with coefficients in {-1,0,1}, exactly 21 are
    # degenerate; the parametrized count must agree with the disc scan
    assert ex.reducible_count(1) == 21


def test_reducible_count_rejects_negative():
    with pytest.raises(ValueError):
        ex.reducible_count(-1)


def test_reducible_exponent_near_two():
    counts, slope, resid = ex.reducible_exponent((25, 50, 100))
    assert counts == sorted(counts)
    assert 1.7 <= slope <= 2.3
    assert ex.reducible_exponent((0, 25)) == ([1, 7781], None, None)
