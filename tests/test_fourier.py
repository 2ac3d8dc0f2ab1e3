"""Transform tables: brute force against closed forms, dual-side grading,
squarefree moduli, and the split identity."""

import hashlib
import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvsieve import ffcore, fourier, orbits, sieve
from pvsieve.ffcore import ResourceLimitError
from pvsieve.spaces import (CUBIC, QUARTIC, BadPrimeError, disc, disc_mod,
                            dual_disc_cubic, pairing_weights_mod,
                            resolvent_cubic)

from oracles import (CUBIC_CLASSES, CUBIC_COND, QUARTIC_COND, act,
                     bruteforce_table, det, encode_states, ft_on_lattice,
                     ft_qsplit_check, sym_from_cols)


def _sweep_oracle(cond, p, targets):
    """Pairing histograms by the plain sweep: decode every state in chunks
    of 2^20, keep the support, count <x, y_j> mod p."""
    space, chunk = cond.space, 1 << 20
    WT = (np.asarray(targets, dtype=np.int64).reshape(-1, space.r) % p
          * pairing_weights_mod(space, p) % p)
    counts = np.zeros((len(WT), p), dtype=np.int64)
    n_states = p ** space.r
    for start in range(0, n_states, chunk):
        codes = np.arange(start, min(start + chunk, n_states), dtype=np.int64)
        C = orbits.decode_states(codes, p, r=space.r)
        P = C[disc_mod(space, C, p) == 0].astype(np.int64) @ WT.T % p
        for j in range(len(WT)):
            counts[j] += np.bincount(P[:, j], minlength=p)
    return counts.tolist()


def _support_slices(space, p, n, suffix=()):
    """The support {p | disc x} over the states x = (tail, t, *suffix) of
    V(F_p), tail running over the p^(n-1) states of the first n - 1
    coordinates: one boolean mask over the tail, in state-code order, for
    each t = 0, ..., p - 1.  Concatenated, the masks cover the p^n codes of
    the first n coordinates in code order; suffix fixes the other r - n.

    The slow oracle of the support kernels, by a second algorithm: the
    state-by-state walk.  The tail grid is decoded once.  Along t,
    disc(tail, t, *suffix) is an integer polynomial f(t) of degree
    <= space.r (disc is homogeneous of degree r;
    test_disc_degree_bound_along_each_coordinate), so its (r + 1)-th
    forward difference vanishes identically over Z.  The walker takes
    f(0), ..., f(r) from disc_mod, turns them into the differences
    Delta^k f(0), and steps them along t by
    Delta^k f(t + 1) = Delta^k f(t) + Delta^(k+1) f(t).  Reduction mod p is
    a ring map, so the recurrence is exact on residues at every p.  When
    p <= r + 1 every slice comes from disc_mod."""
    X = np.empty((p ** (n - 1), space.r), dtype=np.int16)
    X[:, :n - 1] = orbits.decode_states(
        np.arange(p ** (n - 1), dtype=np.int64), p, r=n - 1)
    X[:, n:] = suffix

    def at(t):
        X[:, n - 1] = t
        return X
    if p <= space.r + 1:
        for t in range(p):
            yield disc_mod(space, at(t), p) == 0
        return
    # D[k] = Delta^k f(0) mod p, by Newton's differences of the seeds
    D = [disc_mod(space, at(t), p) for t in range(space.r + 1)]
    for k in range(1, len(D)):
        for j in range(len(D) - 1, k - 1, -1):
            D[j] = (D[j] - D[j - 1]) % p
    for t in range(p):
        yield D[0] == 0
        for k in range(len(D) - 1):
            D[k] = (D[k] + D[k + 1]) % p


def _slice_walk_histograms(cond, p, targets):
    """Pairing histograms of the cubic support by the slice walk: the tail
    pairing of every tail state (a, b, c) with each target, bincounted over
    each slice d = t of _support_slices and rolled by t w_4 y_4 mod p."""
    space = cond.space
    WT = (np.asarray(targets, dtype=np.int64).reshape(-1, space.r) % p
          * pairing_weights_mod(space, p) % p)
    k = WT.shape[0]
    tail = orbits.decode_states(np.arange(p ** (space.r - 1), dtype=np.int64),
                                p, r=space.r - 1)
    TP = (tail.astype(np.int64) @ WT[:, :-1].T % p
          + np.arange(k, dtype=np.int64) * p)
    rows = np.arange(k)[:, None]
    cols = np.arange(p)[None, :]
    counts = np.zeros((k, p), dtype=np.int64)
    for t, mask in enumerate(_support_slices(space, p, space.r)):
        h = np.bincount(TP[mask].ravel(), minlength=k * p).reshape(k, p)
        counts[rows, (cols + t * WT[:, -1:]) % p] += h
    return counts.tolist()


GOOD_CUBIC_PRIMES = [p for p in sieve.primes_upto(59).tolist() if p != 3]


def _cubic(p, cls):
    return fourier.ft_closed_form(CUBIC_COND, p, cls)


def _quartic(p, label):
    return fourier.ft_closed_form(QUARTIC_COND, p, label)


@pytest.fixture(scope="module")
def brute3(table3):
    reps = {n: rep for n, (sz, rep) in table3.entries.items()}
    return bruteforce_table(QUARTIC_COND, 3, reps)


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------

def test_cubic_closed_form_values():
    assert _cubic(5, "pV") == Fraction(29, 125)
    assert _cubic(5, "disc0") == Fraction(4, 125)
    assert _cubic(5, "nonsing") == Fraction(-1, 125)
    assert fourier.omega(CUBIC, 7) == Fraction(49 + 7 - 1, 343)
    # the zero-target line holds at the bad prime too: 33 of the 81 forms
    # mod 3 have 3 | disc
    assert fourier.omega(CUBIC, 3) == Fraction(33, 81)


def test_quartic_closed_form_values():
    assert fourier.omega(QUARTIC, 3) == Fraction(3233, 6561)
    assert _quartic(3, "O_2^2") == Fraction(8, 6561)
    assert _quartic(3, "O_D1^2") == Fraction(128, 6561)
    for name in orbits.NONSINGULAR_LABELS:
        assert _quartic(3, name) == Fraction(-1, 6561)


def test_bad_primes_rejected():
    with pytest.raises(BadPrimeError):
        _cubic(3, "pV")
    with pytest.raises(BadPrimeError):
        _quartic(2, "O_0")
    with pytest.raises(BadPrimeError):
        fourier.ft_fibered_histograms(QUARTIC_COND, 2, [(0,) * 12])
    with pytest.raises(BadPrimeError):
        fourier.ft_histograms(CUBIC_COND, 3, [(0,) * 4])


def test_unknown_label_rejected():
    with pytest.raises(fourier.InvalidLabelError):
        _cubic(5, "bogus")
    with pytest.raises(ValueError):
        _quartic(5, "O_bogus")


# ---------------------------------------------------------------------------
# brute force vs closed form
# ---------------------------------------------------------------------------

# 2: the dilations are trivial; 37: the first prime past the Radon
# histogram's old 2^25-cell cap
@pytest.mark.parametrize("p", [2, 5, 7, 37])
def test_cubic_exhaustive_vs_closed_form(p):
    """Every target y in V(F_p) hits its class value exactly."""
    num, den = fourier.ft_bruteforce_exhaustive_cubic(CUBIC_COND, p)
    codes = np.arange(p ** 4, dtype=np.int64)
    C = orbits.decode_states(codes, p, r=4)
    d0 = disc_mod(CUBIC, C, p) == 0
    zero = ~C.any(axis=1)
    cls_of = fourier.cubic_class_batch(C, p)
    for i, (cls, mask) in enumerate((("pV", zero), ("disc0", d0 & ~zero),
                                     ("nonsing", ~d0))):
        assert CUBIC_CLASSES[i] == cls
        assert np.array_equal(cls_of == i, mask)
        want = _cubic(p, cls)
        got = {int(v) for v in num[mask]}
        assert got == {want.numerator * (den // want.denominator)}


def test_quartic_p3_all_reps_vs_closed_form(brute3):
    assert set(brute3.values) == set(orbits.LABELS)
    for name, val in brute3.values.items():
        assert val == _quartic(3, name), name


def test_delta_identity_p3(table3, brute3):
    """Summing the transform over all of V(F_3) recovers Psi(0) = 1."""
    total = sum(Fraction(sz) * brute3.values[n]
                for n, (sz, rep) in table3.entries.items())
    assert total == 1


def test_transform_at_zero_is_support_density():
    codes = np.arange(5 ** 4, dtype=np.int64)
    C = orbits.decode_states(codes, 5, r=4)
    n_sup = int((disc_mod(CUBIC, C, 5) == 0).sum())
    assert fourier.omega(CUBIC, 5) == Fraction(n_sup, 5 ** 4)


def test_quartic_support_density(table3, brute3):
    n_sup = sum(sz for n, (sz, rep) in table3.entries.items()
                if n not in orbits.NONSINGULAR_LABELS)
    assert brute3.values["O_0"] == Fraction(n_sup, 3 ** 12)


def test_multi_target_matches_single():
    ys = [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1)]
    multi = fourier.ft_bruteforce_multi(CUBIC_COND, 5, ys)
    singles = [fourier.ft_bruteforce_multi(CUBIC_COND, 5, [y])[0]
               for y in ys]
    assert multi == singles


def test_constant_on_orbits_bruteforce(table3):
    rng = np.random.default_rng(11)
    rep = table3.entries["O_D11"][1]
    pts = [rep]
    for _ in range(2):
        g = _rand_gl(rng, 2, 3), _rand_gl(rng, 3, 3)
        pts.append(act(QUARTIC, g, pts[-1], 3))
    vals = fourier.ft_bruteforce_multi(QUARTIC_COND, 3, pts)
    assert vals[0] == vals[1] == vals[2]
    assert vals[0] == _quartic(3, "O_D11")


def _rand_gl(rng, n, p):
    while True:
        g = rng.integers(0, p, size=(n, n))
        m = g.tolist()
        if det(m) % p:
            return tuple(tuple(int(v) for v in row) for row in m)


def test_sweep_resource_limit(monkeypatch):
    # p^3 a-fibres: 409^3 is past fourier.CUBIC_FIBRES, refused before the
    # support is listed
    def boom(*a, **k):
        raise AssertionError("the support was listed past the budget")
    monkeypatch.setattr(fourier, "_cubic_support", boom)
    assert 401 ** 3 <= fourier.CUBIC_FIBRES < 409 ** 3
    with pytest.raises(ResourceLimitError):
        fourier.ft_histograms(CUBIC_COND, 409, [(0,) * 4])
    with pytest.raises(ResourceLimitError):
        fourier.space_kernel(CUBIC).check(409)


def test_sweep_is_for_the_cubic_space():
    with pytest.raises(ValueError, match="cubic space"):
        fourier.ft_histograms(QUARTIC_COND, 3, [(0,) * 12])


@pytest.mark.parametrize("seed", range(3))
def test_fibered_kernel_matches_sweep_p3(seed):
    """All p counts of the fibred histograms against the plain sweep, at
    random targets."""
    rng = np.random.default_rng(seed)
    targets = rng.integers(0, 3, size=(5, 12))
    fib = fourier.ft_fibered_histograms(QUARTIC_COND, 3, targets)
    assert [h.counts for h in fib] == _sweep_oracle(QUARTIC_COND, 3,
                                                     targets)


def _per_target_histograms(cond, p, targets):
    """The fibred histograms by one gather per target and form class: each
    target's own alpha moved by every g_B, in int64 (the kernel before it
    moved each target to its alpha's class)."""
    space = cond.space
    w = pairing_weights_mod(space, p)
    T = np.asarray(targets, dtype=np.int64).reshape(-1, space.r) % p
    alphas = sym_from_cols(T[:, :6])
    wbeta = T[:, 6:] * w[6:] % p
    forms = orbits.decode_states(np.arange(p ** 6, dtype=np.int64), p, r=6)
    cls, g = orbits.form_frames(forms, p)
    g = np.moveaxis(g, -1, 0).astype(np.int64)
    rows, cols = zip(*orbits._SYM_INDEX)
    G, N = np.zeros((len(T), p)), 0
    for c, fibre in enumerate(fourier._pair_fibres(p)[1]):
        F = ffcore.character_sums(fibre, w[:6], p)
        gc, Bc = g[cls == c], forms[cls == c]
        N += len(Bc) * F[0]
        for j, alpha in enumerate(alphas):
            moved = (gc.transpose(0, 2, 1) @ alpha @ gc % p)[:, rows, cols]
            G[j] += np.bincount(Bc @ wbeta[j] % p, minlength=p,
                                weights=F[encode_states(moved, p)])
    num = ffcore._numerators(G.astype(np.int64))
    counts = np.repeat(((N - num) // p)[:, None], p, axis=1)
    counts[:, 0] += num
    return counts.tolist()


def _alpha_of_rank(rng, p, rank, n):
    """n forms of the given rank (0, 1 or 2) mod p, as sym_from_cols'
    columns: lambda v v^T, and u u^T + lambda v v^T with u, v independent."""
    out = []
    while len(out) < n:
        u, v = rng.integers(0, p, size=(2, 3))
        lam = int(rng.integers(1, p))
        if not v.any() or not (np.cross(u, v) % p).any():
            continue
        M = lam * np.outer(v, v) + (rank == 2) * np.outer(u, u)
        out.append([M[i, j] % p for i, j in orbits._SYM_INDEX])
    return np.array(out) * (rank > 0)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fibered_kernel_matches_per_target_gathers(p):
    """Every count of the alpha-class kernel against the per-target
    gathers, at the 20 label representatives and at random targets whose
    alpha is 0, of rank 1 and of rank 2."""
    rng = np.random.default_rng(p)
    reps = list(fourier._class_reps(QUARTIC, p).values())
    T = rng.integers(0, p, size=(9, 12))
    for k in range(3):
        T[3 * k:3 * k + 3, :6] = _alpha_of_rank(rng, p, k, 3)
    targets = np.vstack([reps, T])
    fib = fourier.ft_fibered_histograms(QUARTIC_COND, p, targets)
    assert [h.counts for h in fib] == _per_target_histograms(
        QUARTIC_COND, p, targets)


@pytest.mark.parametrize("p", [5, 7])
def test_fibered_kernel_row_chunks(p, monkeypatch):
    """The fibred histograms walked a few forms B at a time, with ragged
    chunks at every class's end, equal those walked whole."""
    targets = np.vstack([list(fourier._class_reps(QUARTIC, p).values()),
                         np.random.default_rng(p).integers(0, p, (4, 12))])
    whole = fourier.ft_fibered_histograms(QUARTIC_COND, p, targets)
    monkeypatch.setattr(orbits, "ROW_BUDGET", 999)
    chunked = fourier.ft_fibered_histograms(QUARTIC_COND, p, targets)
    assert [h.counts for h in chunked] == [h.counts for h in whole]


def test_inverse_mod():
    rng = np.random.default_rng(0)
    for p in (3, 5, 13):
        h = np.array([_rand_gl(rng, 3, p) for _ in range(20)])
        inv = fourier._inverse_mod(h, p)
        assert (h @ inv % p == np.eye(3, dtype=np.int64)).all()


@pytest.mark.parametrize("p", [2, 3, 5, 83, 24439])
def test_cubic_classes_match_disc(p):
    """The cubic and dual classes, rows reduced once into disc_dtype(p - 1)
    columns, against the exact discriminants: on rows inside (-p, p), cast
    without a division, and on rows past it, zero rows mod p included."""
    rng = np.random.default_rng(p)
    near = rng.integers(-p + 1, p, size=(300, 4))
    far = rng.integers(-5 * p, 5 * p, size=(300, 4))
    near[::5] = 0
    far[::5] = p * far[1::5]
    for X in (near, far):
        rows = X.tolist()
        zero = [not any(v % p for v in row) for row in rows]
        want = [0 if z else 1 if disc(CUBIC, row) % p == 0 else 2
                for z, row in zip(zero, rows)]
        assert fourier.cubic_class_batch(X, p).tolist() == want
        want = [0 if z else 1 if dual_disc_cubic(row) % p == 0 else 2
                for z, row in zip(zero, rows)]
        assert fourier.dual_cubic_class_batch(X, p).tolist() == want


# p = 2, where the root count tries each a, and p >= 5, where it solves the
# quadratic in a
@pytest.mark.parametrize("p", [2, 5, 7, 11, 13])
def test_cubic_sweep_matches_plain_sweep(p):
    """All p counts of the a-fibre root count against the plain sweep, at
    the class representatives and at random targets."""
    rng = np.random.default_rng(p)
    targets = [*fourier._class_reps(CUBIC, p).values(),
               *rng.integers(-60, 60, size=(6, 4)).tolist()]
    got = fourier.ft_histograms(CUBIC_COND, p, targets)
    assert [h.counts for h in got] == _sweep_oracle(CUBIC_COND, p,
                                                    targets)


@pytest.mark.parametrize("p", GOOD_CUBIC_PRIMES)
def test_cubic_root_count_matches_slice_walk(p):
    """All p counts of the a-fibre root count against the slice walk, at
    the class representatives, at targets with y_a = 0 and y_a != 0 mod p,
    and at random targets."""
    rng = np.random.default_rng(p)
    targets = [*fourier._class_reps(CUBIC, p).values(), (p, 1, 2, 3),
               (-p, 0, 0, 1), (2 * p + 1, 1, 0, 5),
               *rng.integers(-60, 60, size=(6, 4)).tolist()]
    assert {y[0] % p == 0 for y in targets} == {True, False}
    got = fourier.ft_histograms(CUBIC_COND, p, targets)
    assert [h.counts for h in got] == _slice_walk_histograms(
        CUBIC_COND, p, targets)


def _listed_support(p):
    """(a, f) of every slab of fourier._cubic_support, joined, after
    checking that the slabs run over consecutive d from 0 to p - 1, in
    order, and that each fibre code f = b + c p + d p^2 has its d in its
    slab."""
    parts, next_d = [], 0
    for d, a, f in fourier._cubic_support(p):
        assert d.tolist() == list(range(next_d, next_d + len(d)))
        assert ((f // (p * p) >= d[0]) & (f // (p * p) <= d[-1])).all()
        next_d += len(d)
        parts.append((a, f))
    assert next_d == p
    a, f = (np.concatenate(x) for x in zip(*parts))
    return a, f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 59])
def test_cubic_support_roots_per_fibre(p, monkeypatch):
    """The listed support is {p | disc x}, each state once, in slabs of d
    under the default cell budget and with one d per slab.  For p >= 5 each
    a-fibre (b, c, d) carries as many roots as its kind says, and every kind
    is met: p not dividing d, two roots when h = c^2 - 3bd is a nonzero
    square, one when p | h, none when h is a non-square; p | d, one root
    when p does not divide c, p roots when it does."""
    a, f = _listed_support(p)
    monkeypatch.setattr(ffcore, "CELL_BUDGET", 1)
    a1, f1 = _listed_support(p)
    C = orbits.decode_states(np.arange(p ** 4, dtype=np.int64), p, r=4)
    support = np.flatnonzero(disc_mod(CUBIC, C, p) == 0)
    assert np.array_equal(np.sort(a + p * f), support)
    assert np.array_equal(np.sort(a1 + p * f1), support)
    if p < 5:
        return
    roots = np.bincount(f, minlength=p ** 3)
    b, c, d = orbits.decode_states(np.arange(p ** 3, dtype=np.int64), p,
                                   r=3).astype(np.int64).T
    chi = orbits.legendre_table(p)[(c * c - 3 * b * d) % p]
    kinds = {"h square": (d != 0) & (chi == 1), "p | h": (d != 0) & (chi == 0),
             "h non-square": (d != 0) & (chi == -1),
             "p | d": (d == 0) & (c != 0), "p | d, c": (d == 0) & (c == 0)}
    want = {"h square": 2, "p | h": 1, "h non-square": 0, "p | d": 1,
            "p | d, c": p}
    for kind, on in kinds.items():
        assert on.any(), kind
        assert (roots[on] == want[kind]).all(), kind


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_cubic_support_slabs_are_the_direct_scan(p, monkeypatch):
    """Slow oracle for the slab listing, one d per slab: the union of the
    slabs' state codes a + p b + p^2 c + p^3 d is the set of states with
    p | disc, found by evaluating disc at each of the p^4 states in Python
    integers, no root formula involved."""
    monkeypatch.setattr(ffcore, "CELL_BUDGET", 1)
    codes = [a + p * f for _, a, f in fourier._cubic_support(p)]
    assert len(codes) == p
    want = [code for code, (d, c, b, a) in
            enumerate(itertools.product(range(p), repeat=4))
            if (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d
                - 27 * a * a * d * d + 18 * a * b * c * d) % p == 0]
    assert np.sort(np.concatenate(codes)).tolist() == want


def _budget_invariant(monkeypatch, run):
    """run() under the default cell budget, and again under the smallest
    one (one d per slab, one d-row of one prime per block, one target per
    grading chunk); both results."""
    default = run()
    monkeypatch.setattr(ffcore, "CELL_BUDGET", 1)
    return default, run()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 59])
def test_ft_histograms_budget_invariant(p, monkeypatch):
    # the bad prime 3 has no pairing, so ft_histograms refuses it under
    # every budget; its support listing is compared instead
    if p == 3:
        listed = _budget_invariant(monkeypatch, lambda: np.sort(
            np.concatenate([a + p * f for _, a, f in
                            fourier._cubic_support(p)])))
        assert np.array_equal(*listed)
        with pytest.raises(BadPrimeError):
            fourier.ft_histograms(CUBIC_COND, p, [(1, 0, 0, 0)])
        return
    rng = np.random.default_rng(p)
    targets = [*fourier._class_reps(CUBIC, p).values(),
               *rng.integers(-3 * p, 3 * p, size=(5, 4)).tolist()]
    default, smallest = _budget_invariant(monkeypatch, lambda: [
        h.counts for h in fourier.ft_histograms(CUBIC_COND, p,
                                                targets)])
    assert default == smallest
    assert fourier.ft_histograms(CUBIC_COND, p, []) == []


@pytest.mark.parametrize("p", [5, 17])
def test_cubic_mask_budget_invariant(p, monkeypatch):
    assert np.array_equal(*_budget_invariant(
        monkeypatch, lambda: fourier._cubic_mask(p)))


def test_support_slabs_bound_the_histogram_memory():
    # listing the p^3 support states at p = 59 at once, three targets'
    # histograms took a traced peak of 12.26 MiB; slabs of the default cell
    # budget take at most a quarter of that
    import tracemalloc
    targets = [(1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 2, 3)]
    fourier.ft_histograms(CUBIC_COND, 5, targets)
    tracemalloc.start()
    try:
        fourier.ft_histograms(CUBIC_COND, 59, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.26 * 2 ** 20 / 4


# p below, at and above d + 1 = 5, where the walker starts its recurrence;
# the root count tries each a at p = 2 and 3, and the pair space reads p = 3
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_support_slices_cubic(p):
    """The scattered support mask is the walker's concatenated slices, and
    both are the support over every state, in code order."""
    C = orbits.decode_states(np.arange(p ** 4, dtype=np.int64), p, r=4)
    slices = list(_support_slices(CUBIC, p, 4))
    assert len(slices) == p
    walked = np.concatenate(slices)
    assert np.array_equal(walked, disc_mod(CUBIC, C, p) == 0)
    assert np.array_equal(fourier._cubic_mask(p), walked)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_support_slices_quartic_fibres(p, monkeypatch):
    """The resolvent-gather fibre over each canonical form B_c is the
    oracle's {A : (A, B_c) in supp}, in code order (p <= d + 1 = 13, so
    the oracle's slices are disc_mod's), and the classes that come with
    the fibres are form_frames' over all the forms; the forms are walked
    100 at a time, across the chunk seams."""
    A = orbits.decode_states(np.arange(p ** 6, dtype=np.int64), p, r=6)
    canon = orbits.canonical_forms(p)
    monkeypatch.setattr(orbits, "ROW_BUDGET", 100)
    cls, got = fourier._pair_fibres(p)
    assert np.array_equal(cls, orbits.form_frames(A, p)[0])
    assert len(got) == len(canon) == 7
    for rep, fibre in zip(canon, got):
        walked = np.concatenate(list(_support_slices(QUARTIC, p, 6,
                                                     suffix=rep)))
        assert np.array_equal(fibre, walked), rep


def test_resolvent_coefficient_order():
    """orbits.canonical_resolvents gives resolvent_cubic's coefficients of
    the rows (A, D_c) mod p, in its order, for every canonical form D_c:
    on random forms, the form whose entries are all p - 1, and one with
    det A = 2 (p - 1)^3.  Its int16 width holds to p = 13, the last prime
    under its bound 12 (p - 1)^3 < 2^15; p = 17 to 79 run in int32 and
    p = 83 in int64 (spaces.disc_dtype)."""
    for p in (3, 5, 7, 11, 13, 17, 19, 79, 83):
        A = np.random.default_rng(p).integers(0, p, size=(1000, 6))
        A[0], A[1] = p - 1, (0, 0, 0, p - 1, p - 1, p - 1)
        A = A.astype(np.int16)
        canon = orbits.canonical_forms(p)
        got = list(orbits.canonical_resolvents(A, p))
        assert len(got) == len(canon) == 7
        for D, r in zip(canon, got):
            X = np.hstack([A, np.broadcast_to(D, A.shape)]).astype(np.int64)
            for ours, want in zip(r, resolvent_cubic(X)):
                assert np.array_equal(np.broadcast_to(ours, want.shape),
                                      want % p), (p, D)


@pytest.mark.parametrize("space", [CUBIC, QUARTIC], ids=["cubic", "quartic"])
def test_disc_degree_bound_along_each_coordinate(space):
    """disc has degree <= r in any one coordinate: the (r + 1)-th forward
    difference along it vanishes, in Python ints, at random points."""
    rng = np.random.default_rng(space.r)
    n = space.r + 1
    binom = [(-1) ** (n - k) * comb(n, k) for k in range(n + 1)]
    for x in rng.integers(-9, 10, size=(4, space.r)).tolist():
        for i in range(space.r):
            f = [disc(space, tuple(x[:i] + [x[i] + k] + x[i + 1:]))
                 for k in range(n + 1)]
            assert sum(c * v for c, v in zip(binom, f)) == 0, (x, i)


def test_class_reps_are_bfs_reps_p3(table3):
    reps = fourier._class_reps(QUARTIC, 3)
    assert list(reps.items()) == [(name, rep) for name, (_, rep)
                                  in table3.entries.items()]


def test_class_reps_cubic():
    for p in sieve.primes_upto(59).tolist():
        if p == 3:
            continue
        nonsing = (0, 1, 1, 0) if p == 2 else (1, 0, 1, 0)
        assert list(fourier._class_reps(CUBIC, p).items()) == [
            ("pV", (0, 0, 0, 0)), ("disc0", (1, 0, 0, 0)),
            ("nonsing", nonsing)], p


@pytest.mark.parametrize("space,module,grading,dropped", [
    (CUBIC, fourier, "cubic_class_batch", "nonsing"),
    (QUARTIC, orbits, "classify_batch", "O_4"),
], ids=["cubic", "quartic"])
def test_class_reps_missing_class(monkeypatch, space, module, grading,
                                  dropped):
    # a grading that never gives one class leaves its line without a target
    real = getattr(module, grading)
    drop = tuple(fourier.CLOSED_FORMS[space.space_id]).index(dropped)

    def never(*args):
        cls = real(*args)
        cls[cls == drop] = 0
        return cls
    monkeypatch.setattr(module, grading, never)
    with pytest.raises(orbits.ClassifierIncompleteError, match=dropped):
        fourier._class_reps(space, 7)


def test_fibered_kernel_cap(monkeypatch):
    kernel = fourier.space_kernel(QUARTIC)
    assert kernel.exhaustive is None
    check = kernel.check
    check(13)
    with pytest.raises(ResourceLimitError):
        check(17)

    def boom(*a, **k):
        raise AssertionError("form_frames started before the cap")
    monkeypatch.setattr(orbits, "form_frames", boom)
    with pytest.raises(ResourceLimitError):
        fourier.ft_fibered_histograms(QUARTIC_COND, 17, [(0,) * 12])
    with pytest.raises(BadPrimeError):
        fourier.ft_fibered_histograms(QUARTIC_COND, 2, [(0,) * 12])
    with pytest.raises(ValueError, match="pair space"):
        fourier.ft_fibered_histograms(CUBIC_COND, 5, [(0,) * 4])


# ---------------------------------------------------------------------------
# size bounds implied by the closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [3, 5, 11, 101])
def test_value_bounded_by_conductor_exponent(p):
    for name in orbits.LABELS:
        v = _quartic(p, name)
        fc = fourier.FC_BY_DIM[orbits.LABEL_DIM[name]]
        assert abs(v) <= 2 * Fraction(p) ** fc, name


@pytest.mark.parametrize("p", [3, 5])
def test_l1_mass_of_transform(table3, p):
    """Total |FT| over V(F_p) stays O(p^4): each orbit contributes at most
    O(p^{dim+fc}) and dim+fc <= 4 throughout."""
    if p == 3:
        ent = table3.entries
    else:
        ent = {n: (sz, None) for n, sz in P5_SIZES.items()}
    mass = sum(Fraction(sz) * abs(_quartic(p, n))
               for n, (sz, _) in ent.items())
    assert mass <= 8 * p ** 4


P5_SIZES = {
    "O_0": 1, "O_D1^2": 744, "O_D11": 11160, "O_Cs": 89280, "O_D2": 7440,
    "O_Dns": 74400, "O_Cns": 372000, "O_B11": 223200, "O_B2": 148800,
    "O_1^4": 1785600, "O_1^31": 8928000, "O_1^21^2": 5580000,
    "O_2^2": 3720000, "O_1^211": 22320000, "O_1^22": 22320000,
    "O_1111": 7440000, "O_112": 44640000, "O_22": 22320000,
    "O_13": 59520000, "O_4": 44640000,
}


# ---------------------------------------------------------------------------
# dual-side table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [3, 5, 7])
def test_dual_table_exhaustive(p):
    """Plain-dot dual transform is graded by dstar at every p, including 3."""
    den = p ** 4
    K = orbits.decode_states(np.arange(den, dtype=np.int64), p, r=4)
    num = ffcore.character_sums(disc_mod(CUBIC, K, p) == 0, (1, 1, 1, 1), p)
    cls = fourier.dual_cubic_class_batch(K, p)
    for i in range(den):
        want = fourier.dual_ft_value(p, int(cls[i]))
        assert Fraction(int(num[i]), den) == want


def test_dual_classes_exact_past_int64():
    # dstar(1, 66663, 66666, 12) = 0 mod 99991; int64 wrapped it to nonzero
    p = 99991
    k = (1, 66663, 66666, 12)
    assert dual_disc_cubic(k) % p == 0
    assert fourier.dual_cubic_class_batch(np.array([k]), p).tolist() == [1]


def test_dual_values_at_3():
    assert fourier.dual_ft_value(3, 0) == Fraction(11, 27)
    assert fourier.dual_ft_value(3, 1) == Fraction(2, 27)
    assert fourier.dual_ft_value(3, 2) == Fraction(-1, 27)


# ---------------------------------------------------------------------------
# squarefree moduli and the split identity
# ---------------------------------------------------------------------------

def test_lattice_q1_is_one():
    assert ft_on_lattice(CUBIC_COND, 1, (1, 2, 3, 4)) == 1


def test_lattice_drops_m_part():
    # q = 15 on the cubic side: the factor (15, 3) = 3 contributes nothing
    v = ft_on_lattice(CUBIC_COND, 15, (1, 2, 0, 1))
    cls = fourier.cubic_class_batch([(1, 2, 0, 1)], 5)[0]
    assert v == _cubic(5, CUBIC_CLASSES[cls])
    vq = ft_on_lattice(QUARTIC_COND, 6, (1,) + (0,) * 11)
    label = orbits.classify_batch(QUARTIC, [(1,) + (0,) * 11], 3)[0]
    assert vq == _quartic(3, orbits.LABELS[label])


def test_lattice_exact_past_int64():
    # disc(-1, 1, 1, -1) = 0; int64 discriminants used to wrap mod 24439
    # and file the target as nonsingular
    p = 24439
    v = ft_on_lattice(CUBIC_COND, p, (-1, 1, 1, -1))
    assert v == Fraction(p - 1, p ** 3)


def test_lattice_multiplicative():
    y = (1, 0, -1, 2)
    v35 = ft_on_lattice(CUBIC_COND, 35, y)
    v5 = ft_on_lattice(CUBIC_COND, 5, y)
    v7 = ft_on_lattice(CUBIC_COND, 7, y)
    assert v35 == v5 * v7
    # at the zero target the transform is the density omega, multiplied out
    # over the primes of q with the m-part dropped
    zero = ft_on_lattice(CUBIC_COND, 15, (0,) * 4)
    assert zero == fourier.omega(CUBIC, 5)
    zero = ft_on_lattice(QUARTIC_COND, 105, (0,) * 12)
    assert zero == (fourier.omega(QUARTIC, 3) * fourier.omega(QUARTIC, 5)
                    * fourier.omega(QUARTIC, 7))


@given(st.tuples(*[st.integers(-12, 12)] * 4),
       st.sampled_from([(5, 7), (7, 5), (5, 11), (7, 13)]))
@settings(max_examples=60, deadline=None)
def test_qsplit_identity_cubic(base, qs):
    q0, q1 = qs
    x = tuple(q0 * c for c in base)
    assert ft_qsplit_check(CUBIC_COND, q0, q1, x)


def test_qsplit_rejects_bad_input():
    with pytest.raises(ValueError):
        ft_qsplit_check(CUBIC_COND, 5, 7, (1, 5, 5, 5))
    with pytest.raises(ValueError):
        ft_qsplit_check(CUBIC_COND, 5, 10, (5, 5, 5, 5))


# ---------------------------------------------------------------------------
# tables on disk
# ---------------------------------------------------------------------------

def test_fourier_table_roundtrip(tmp_path, brute3):
    # the --out-dir format: header, one row per class, sha256 of both
    path = tmp_path / "ft3.tsv"
    brute3.to_file(path)
    head, *rows, tail = path.read_text().splitlines(keepends=True)
    assert head.startswith("# fourier-table v2 space=quartic ")
    assert tail == ("# sha256 " + hashlib.sha256(
        "".join([head, *rows]).encode()).hexdigest() + "\n")
    back = {}
    for line in rows:
        p, name, num, den, source = line.rstrip("\n").split("\t")
        assert (p, source) == ("3", "bruteforce")
        back[name] = Fraction(int(num), int(den))
    assert back == brute3.values
    assert list(back) == list(brute3.values)


def test_closed_form_table_complete():
    t = fourier.fourier_table_closed_form(QUARTIC_COND, 7)
    assert tuple(t.values) == orbits.LABELS
    tc = fourier.fourier_table_closed_form(CUBIC_COND, 7)
    assert tuple(tc.values) == ("pV", "disc0", "nonsing")


def test_cubic_class_reps_scan():
    reps = fourier._class_reps(CUBIC, 5)
    cls = fourier.cubic_class_batch(list(reps.values()), 5)
    assert [CUBIC_CLASSES[c] for c in cls] == list(reps)
