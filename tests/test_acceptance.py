"""End-to-end gate: one test per numbered criterion, ten in all.

Run `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion; add -s for the headline numbers.  Everything here goes through
the public API only — closed forms are always confronted with an
independent enumeration, never with themselves.  The slow oracles (the
action on one element, the pairing mod p, the transform at a squarefree
modulus and its split identity) live in tests/oracles.py, and the p = 3
orbit table is the session fixture of tests/conftest.py.

The p = 5 orbit data embedded below (P5_ORBITS) was produced by the same
breadth-first closure that tests/oracles.py runs at p = 3; at p = 5 that
sweep costs about half an hour, so its output is frozen here and
revalidated cheaply through classify_batch, which never saw the BFS.
decompose_orbits, a census over the classes of B, reproduces it in under
a second (tests/test_orbits.py).  The p = 5 transform table comes from
the fibred kernel, in about a second.
"""

from fractions import Fraction

import numpy as np
import pytest

from pvsieve import experiments, fourier, orbits, sieve
from pvsieve.spaces import CUBIC, QUARTIC, disc, disc_cubic

from oracles import (CUBIC_CLASSES, CUBIC_COND, QUARTIC_COND, act,
                     bruteforce_table, det, ft_qsplit_check, pairing_mod,
                     rel_gap_double)

# BFS closure output at p = 5: label -> (representative, orbit size).
P5_ORBITS = {
    "O_0": ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 1),
    "O_D1^2": ((1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 744),
    "O_D11": ((1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 11160),
    "O_Cs": ((0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0), 89280),
    "O_D2": ((2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 7440),
    "O_Dns": ((1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0), 74400),
    "O_Cns": ((0, 0, 0, 0, 2, 1, 1, 1, 0, 0, 0, 0), 372000),
    "O_B11": ((0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0), 223200),
    "O_B2": ((2, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0), 148800),
    "O_1^4": ((0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0), 1785600),
    "O_1^31": ((1, 0, 0, 0, 2, 1, 1, 1, 0, 0, 0, 0), 8928000),
    "O_1^21^2": ((0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0), 5580000),
    "O_2^2": ((0, 2, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0), 3720000),
    "O_1^211": ((1, 0, 2, 1, 0, 0, 1, 1, 0, 0, 0, 0), 22320000),
    "O_1^22": ((1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0), 22320000),
    "O_1111": ((1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0), 7440000),
    "O_112": ((2, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0), 44640000),
    "O_22": ((2, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0), 22320000),
    "O_13": ((0, 1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0), 59520000),
    "O_4": ((0, 0, 1, 1, 0, 0, 2, 1, 0, 0, 0, 0), 44640000),
}


@pytest.fixture(scope="session")
def weight():
    return experiments.SmoothWeight()


@pytest.fixture(scope="session")
def ft5_brute():
    """Quartic brute table at p = 5, at the frozen BFS representatives."""
    reps = {name: rep for name, (rep, _) in P5_ORBITS.items()}
    return bruteforce_table(QUARTIC_COND, 5, reps)


# ---------------------------------------------------------------------------
# 1. cubic transform exactness
# ---------------------------------------------------------------------------

def test_criterion_01_cubic_ft_exact():
    # exhaustive over every target at p in {5, 7}
    for p in (5, 7):
        nums, den = fourier.ft_bruteforce_exhaustive_cubic(CUBIC_COND, p)
        scaled = {}
        for c in CUBIC_CLASSES:
            v = fourier.ft_closed_form(CUBIC_COND, p, c) * den
            assert v.denominator == 1
            scaled[c] = int(v)
        coords = orbits.decode_states(np.arange(den, dtype=np.int64), p, r=4)
        dm = disc_cubic(*coords.astype(np.int64).T) % p
        want = np.where((coords == 0).all(axis=1), scaled["pV"],
                        np.where(dm == 0, scaled["disc0"],
                                 scaled["nonsing"]))
        assert np.array_equal(nums, want), f"exhaustive mismatch at p={p}"
    # class representatives at the next five primes
    for p in (11, 13, 17, 19, 23):
        for cls, rep in fourier._class_reps(CUBIC, p).items():
            got, = fourier.ft_bruteforce_multi(CUBIC_COND, p, [rep])
            assert got == fourier.ft_closed_form(CUBIC_COND, p, cls), (p, cls)
    print("PASS criterion 1: cubic transform exact at p=5,7 (exhaustive) "
          "and p=11..23 (class reps)")


# ---------------------------------------------------------------------------
# 2. quartic transform exactness
# ---------------------------------------------------------------------------

def test_criterion_02_quartic_ft_exact(table3, ft5_brute):
    closed3 = fourier.fourier_table_closed_form(QUARTIC_COND, 3)
    reps3 = {name: rep for name, (sz, rep) in table3.entries.items()}
    brute3 = bruteforce_table(QUARTIC_COND, 3, reps3)
    bad = [n for n in orbits.LABELS if brute3.values[n] != closed3.values[n]]
    assert not bad, f"p=3 line mismatch at {bad}"

    tab5 = ft5_brute
    closed5 = fourier.fourier_table_closed_form(QUARTIC_COND, 5)
    bad = [n for n in orbits.LABELS if tab5.values[n] != closed5.values[n]]
    assert not bad, f"p=5 line mismatch at {bad}"
    print("PASS criterion 2: quartic transform exact on all 20 lines at "
          "p=3 and p=5")


# ---------------------------------------------------------------------------
# 3. orbit structure
# ---------------------------------------------------------------------------

def test_criterion_03_orbit_structure(table3):
    assert len(table3.entries) == 20
    assert sum(sz for sz, _ in table3.entries.values()) == 3 ** 12

    codes = np.arange(3 ** 12, dtype=np.int64)
    got = orbits.classify_batch(QUARTIC, orbits.decode_states(codes, 3), 3)
    want = table3.labels[codes]
    agree = int((got == want).sum())
    assert agree == 3 ** 12, f"classifier disagrees on {3**12 - agree} states"

    # revalidate the frozen p=5 BFS output through the classifier, then
    # compare the per-dimension group sizes across the two primes
    reps5 = np.array([rep for rep, _ in P5_ORBITS.values()], dtype=np.int64)
    labs5 = orbits.classify_batch(QUARTIC, reps5, 5)
    assert [orbits.LABELS[c] for c in labs5] == list(P5_ORBITS)
    assert sum(sz for _, sz in P5_ORBITS.values()) == 5 ** 12

    u3, u5 = {}, {}
    for name, (sz, _) in table3.entries.items():
        i = orbits.LABEL_DIM[name]
        u3[i] = u3.get(i, 0) + sz
    for name, (_, sz) in P5_ORBITS.items():
        i = orbits.LABEL_DIM[name]
        u5[i] = u5.get(i, 0) + sz
    assert set(u3) == set(u5)
    worst = 1.0
    for i in u3:
        fac = (u5[i] / u3[i]) / (5 / 3) ** i
        assert 1 / 3 < fac < 3, f"dimension {i}: ratio off by {fac}"
        worst = max(worst, fac, 1 / fac)
    print(f"PASS criterion 3: 20 orbits sum 3^12, classifier 100% "
          f"({agree} states), U_i ratios within factor {worst:.2f} of "
          f"(5/3)^i")


# ---------------------------------------------------------------------------
# 4. exponent bookkeeping
# ---------------------------------------------------------------------------

def test_criterion_04_exponents_and_thresholds():
    rows, alpha_max, bottleneck = sieve.exponent_table(QUARTIC)
    want = {4: (Fraction(2, 3), 2, Fraction(1, 6)),
            7: (Fraction(5, 12), 4, Fraction(7, 48)),
            8: (Fraction(1, 3), 4, Fraction(1, 6)),
            10: (Fraction(1, 6), 5, Fraction(1, 6)),
            11: (Fraction(1, 12), 5, Fraction(11, 60)),
            12: (Fraction(0), 5, Fraction(1, 5))}
    got = {r.j: (r.x_exponent, r.n_exponent, r.alpha_cap) for r in rows}
    assert got == want
    assert alpha_max == Fraction(7, 48) and bottleneck == 7
    assert sieve.weighted_sieve_t(Fraction(7, 48)) == 8
    assert sieve.weighted_sieve_t(Fraction(1, 2)) == 3
    print("PASS criterion 4: six exponent rows exact, alpha_max=7/48 at "
          "j=7, t(7/48)=8, t(1/2)=3")


# ---------------------------------------------------------------------------
# 5. linear-sieve density condition
# ---------------------------------------------------------------------------

def test_criterion_05_omega_near_1_over_p():
    ps = [int(p) for p in sieve.primes_upto(10 ** 4) if p % 2]
    assert len(ps) == 1228                  # odd primes up to 10^4
    for space in (CUBIC, QUARTIC):
        for p in ps:
            gap = abs(fourier.omega(space, p) - Fraction(1, p))
            assert gap < Fraction(3, p * p), (space.space_id, p)
    print(f"PASS criterion 5: |omega(p) - 1/p| < 3/p^2 for {len(ps)} odd "
          f"primes <= 10^4, both spaces, exact")


# ---------------------------------------------------------------------------
# 6. Poisson identity at desk scale
# ---------------------------------------------------------------------------

def test_criterion_06_poisson_identity(weight):
    gaps = []
    for q in (1, 3, 5, 15):
        rep = experiments.poisson_check(q, X=1e4, weight=weight)
        assert rep.abs_gap <= rep.tail_bound, \
            f"q={q}: gap {rep.abs_gap:.3e} above bound {rep.tail_bound:.3e}"
        assert rel_gap_double(rep) < 1e-6, \
            f"q={q}: relative gap {rel_gap_double(rep):.2e} at radius 2Z"
        gaps.append(rel_gap_double(rep))
    print(f"PASS criterion 6: box count = dual sum for q=1,3,5,15 at X=1e4 "
          f"(worst relative gap {max(gaps):.2e} at doubled radius)")


# ---------------------------------------------------------------------------
# 7. level-of-distribution trend
# ---------------------------------------------------------------------------

def test_criterion_07_lod_trend():
    rep = experiments.lod_error_sum(experiments.LodConfig())
    ratios = [row[4] for row in rep.per_X]
    assert len(ratios) == 3
    assert ratios[0] > ratios[1] > ratios[2], f"not decreasing: {ratios}"
    assert rep.fitted_c < 1, f"fitted exponent {rep.fitted_c}"
    assert all(np.isfinite(r) for r in rep.residuals)
    print(f"PASS criterion 7: cum|E|/X = "
          f"{', '.join(f'{r:.4f}' for r in ratios)} strictly decreasing; "
          f"c = {rep.fitted_c:.3f} < 1, residuals "
          f"{', '.join(f'{r:+.1e}' for r in rep.residuals)}")


# ---------------------------------------------------------------------------
# 8. reducible locus growth
# ---------------------------------------------------------------------------

def test_criterion_08_reducible_growth():
    counts, slope, resid = experiments.reducible_exponent()
    assert 1.8 <= slope <= 2.2, f"exponent {slope} outside [1.8, 2.2]"
    print(f"PASS criterion 8: reducible count exponent {slope:.3f} over "
          f"Y=25..400 (counts {counts})")


# ---------------------------------------------------------------------------
# 9. geometric sieve majorant
# ---------------------------------------------------------------------------

def test_criterion_09_geo_majorant():
    reports, _ = experiments.geo_sweep()
    witness = reports[0].ratio
    assert reports[0].query.lam == 20
    for r in reports[1:]:
        assert r.ratio <= witness + 1e-12, \
            f"lam={r.query.lam}: ratio {r.ratio} exceeds witness {witness}"
    # exact monotonicity: growing box, scheme implication, sublattice
    base = experiments.geo_pair_count(
        experiments.GeoSieveQuery(lam=6, window=(7, 14)))
    grown = experiments.geo_pair_count(
        experiments.GeoSieveQuery(lam=8, window=(7, 14)))
    assert base.count <= grown.count
    allpairs = experiments.geo_pair_count(
        experiments.GeoSieveQuery(lam=6, window=(7, 14), scheme="all"))
    assert base.count <= allpairs.count
    sub = experiments.geo_pair_count(
        experiments.GeoSieveQuery(lam=20, m=5, window=(41, 82)))
    full = experiments.geo_pair_count(
        experiments.GeoSieveQuery(lam=20, m=1, window=(41, 82)))
    assert sub.count <= full.count
    print(f"PASS criterion 9: majorant constant witnessed at lam=20 "
          f"(ratio {witness:.4f}), not exceeded at 50/100/200; "
          f"monotonicity exact")


# ---------------------------------------------------------------------------
# 10. identity suite
# ---------------------------------------------------------------------------

def _rand_g(rng, p, with_g3):
    while True:
        g2 = tuple(tuple(int(v) for v in row)
                   for row in rng.integers(0, p, (2, 2)))
        if det(g2) % p == 0:
            continue
        if not with_g3:
            return g2, None
        g3 = tuple(tuple(int(v) for v in row)
                   for row in rng.integers(0, p, (3, 3)))
        if det(g3) % p != 0:
            return g2, g3


def _inv_t(m, p):
    """Transpose-inverse mod p via cofactor row reduction."""
    m = np.array(m, dtype=np.int64) % p
    n = m.shape[0]
    aug = np.concatenate([m, np.eye(n, dtype=np.int64)], axis=1)
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r, col] % p)
        aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] * pow(int(aug[col, col]), -1, p) % p
        for r in range(n):
            if r != col and aug[r, col]:
                aug[r] = (aug[r] - aug[r, col] * aug[col]) % p
    return tuple(tuple(int(v) for v in row) for row in aug[:, n:].T)


def _plain_ft_table(p):
    """p^4 * transform of 1_{p | disc} under the plain dot pairing, every
    target, exact: dilation invariance makes each value c_0 - c_1."""
    Y = np.indices((p,) * 4).reshape(4, -1).T.astype(np.int64)
    sup = Y[disc_cubic(*Y.T) % p == 0]
    vals = np.zeros((p,) * 4, dtype=np.int64)
    P = sup @ Y.T % p
    for j in range(Y.shape[0]):
        cnt = np.bincount(P[:, j], minlength=p)
        assert len(set(cnt[1:].tolist())) == 1
        vals[tuple(Y[j])] = cnt[0] - cnt[1]
    return vals


def test_criterion_10_identity_suite(table3):
    # (a) multiplicativity of the mod-15 transform, exhaustively: the
    # mod-15 character sum is held as a residue-count vector and compared
    # to the product of the two prime-level values in Z[zeta_15], i.e.
    # after exact reduction mod the 15th cyclotomic polynomial.
    T3, T5 = _plain_ft_table(3), _plain_ft_table(5)
    for p, T in ((3, T3), (5, T5)):         # unit twist leaves values alone
        Y = np.indices((p,) * 4).reshape(4, -1).T
        tw = tuple((2 * Y[:, i]) % p for i in range(4))
        assert np.array_equal(T[tw], T[tuple(Y[:, i] for i in range(4))])

    phi_lo = np.array([1, -1, 0, 1, -1, 1, 0, -1], dtype=np.int64)
    M = np.zeros((15, 8), dtype=np.int64)
    cur = np.zeros(8, dtype=np.int64)
    cur[0] = 1
    for k in range(15):
        M[k] = cur
        nxt = np.zeros(8, dtype=np.int64)
        nxt[1:] = cur[:7]
        nxt -= cur[7] * phi_lo
        cur = nxt

    Y15 = np.indices((15,) * 4).reshape(4, -1).T.astype(np.int64)
    sup15 = Y15[disc_cubic(*Y15.T) % 15 == 0]
    assert len(sup15) == 33 * 145
    bad = 0
    for lo in range(0, Y15.shape[0], 4096):
        Yc = Y15[lo:lo + 4096]
        P = sup15 @ Yc.T % 15
        cnt = np.zeros((Yc.shape[0], 15), dtype=np.int64)
        for k in range(15):
            cnt[:, k] = (P == k).sum(axis=0)
        red = cnt @ M
        y3, y5 = Yc % 3, Yc % 5
        red[:, 0] -= (T3[y3[:, 0], y3[:, 1], y3[:, 2], y3[:, 3]]
                      * T5[y5[:, 0], y5[:, 1], y5[:, 2], y5[:, 3]])
        bad += int(np.count_nonzero(red.any(axis=1)))
    assert bad == 0, f"multiplicativity fails at {bad} of 15^4 targets"

    # (b) the split identity on a thousand random instances
    rng = np.random.default_rng(2024)
    sqfree = [q for q in range(1, 40)
              if all(q % (r * r) for r in range(2, 7))]
    checked = 0
    while checked < 1000:
        q0, q1 = (int(v) for v in rng.choice(sqfree, size=2))
        if np.gcd(q0, q1) != 1:
            continue
        x = tuple(q0 * int(v) for v in rng.integers(-9, 10, 4))
        assert ft_qsplit_check(CUBIC_COND, q0, q1, x)
        checked += 1

    # (c) pairing compatibility with the involution, disc invariance
    for space, p in ((CUBIC, 7), (QUARTIC, 5)):
        rng = np.random.default_rng(5 * p)
        for _ in range(100):
            g = _rand_g(rng, p, space.space_id == "quartic")
            x = tuple(int(v) for v in rng.integers(0, p, space.r))
            scale = pow(det(g[0]), 6, p)
            if space.space_id == "quartic":
                scale = scale * pow(det(g[1]), 8, p) % p
            assert disc(space, act(space, g, x, p)) % p \
                == scale * disc(space, x) % p
    for space, p in ((CUBIC, 7), (QUARTIC, 3)):
        rng = np.random.default_rng(11 * p)
        for _ in range(100):
            g = _rand_g(rng, p, space.space_id == "quartic")
            gi2 = _inv_t(g[0], p)
            gi3 = _inv_t(g[1], p) if g[1] is not None else None
            gi = gi2, gi3
            x = tuple(int(v) for v in rng.integers(0, p, space.r))
            y = tuple(int(v) for v in rng.integers(0, p, space.r))
            assert pairing_mod(space, act(space, g, x, p),
                               act(space, gi, y, p), p) \
                == pairing_mod(space, x, y, p)
    print(f"PASS criterion 10: mod-15 multiplicativity exhaustive "
          f"(15^4 targets, exact), split identity on {checked} random "
          f"instances, action/pairing invariances — zero failures")
