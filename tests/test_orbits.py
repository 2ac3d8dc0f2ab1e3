"""Group action, form classes, the orbit census against the BFS oracle,
and the invariant classifier (pair space)."""

import numpy as np
import pytest

from pvsieve import orbits as ob
from pvsieve.ffcore import ResourceLimitError
from pvsieve.fourier import FC_BY_DIM
from pvsieve.sieve import primes_upto
from pvsieve.spaces import CUBIC, QUARTIC, disc, disc_mod, resolvent_cubic

import fpk
from oracles import (QUARTIC_COND, act, act_cubic_batch, act_pair_batch,
                     det, encode_states, form_classes_bfs, generators,
                     pair_generators, pairing_mod)

# Exhaustive BFS results, frozen.  p=3 was additionally cross-checked against
# an independent implementation of the same decomposition; the nonsingular
# orbit sizes follow exact S4 cycle-type proportions (1/24, 6/24, 3/24, 8/24,
# 6/24 of the nonsingular mass), which pins the splitting-type labels.
P3_SIZES = {
    "O_0": 1, "O_D1^2": 104,
    "O_D11": 624, "O_Cs": 2496,
    "O_D2": 312, "O_Dns": 1872, "O_Cns": 5616, "O_B11": 3744, "O_B2": 1872,
    "O_1^4": 14976, "O_1^31": 44928, "O_1^21^2": 33696, "O_2^2": 16848,
    "O_1^211": 67392, "O_1^22": 67392,
    "O_1111": 11232, "O_112": 67392, "O_22": 33696, "O_13": 89856,
    "O_4": 67392,
}

P5_SIZES = {
    "O_0": 1, "O_D1^2": 744,
    "O_D11": 11160, "O_Cs": 89280,
    "O_D2": 7440, "O_Dns": 74400, "O_Cns": 372000, "O_B11": 223200,
    "O_B2": 148800,
    "O_1^4": 1785600, "O_1^31": 8928000, "O_1^21^2": 5580000,
    "O_2^2": 3720000,
    "O_1^211": 22320000, "O_1^22": 22320000,
    "O_1111": 7440000, "O_112": 44640000, "O_22": 22320000,
    "O_13": 59520000, "O_4": 44640000,
}


def test_label_tables():
    assert len(ob.LABELS) == 20
    assert set(ob.LABEL_DIM) == set(ob.LABELS)
    # (i, fc) pairs exactly as published
    assert sorted(set((i, FC_BY_DIM[i]) for i in ob.LABEL_DIM.values())) == [
        (0, -1), (4, -3), (7, -4), (8, -5), (10, -6), (11, -7), (12, -8)]
    assert set(ob.U_GROUPS[12]) == {"O_1111", "O_112", "O_22", "O_13", "O_4"}


def test_frozen_sizes_are_consistent():
    assert sum(P3_SIZES.values()) == 3 ** 12
    assert sum(P5_SIZES.values()) == 5 ** 12
    for sizes, p in [(P3_SIZES, 3), (P5_SIZES, 5)]:
        ns = sum(sizes[n] for n in ob.U_GROUPS[12])
        # exact S4 cycle-type proportions on the nonsingular mass
        assert sizes["O_1111"] * 24 == ns
        assert sizes["O_112"] * 4 == ns
        assert sizes["O_22"] * 8 == ns
        assert sizes["O_13"] * 3 == ns
        assert sizes["O_4"] * 4 == ns


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------

def test_act_identity_and_swap():
    p = 7
    e2 = ((1, 0), (0, 1))
    e3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    x = tuple(range(12))
    assert act(QUARTIC, (e2, e3), x, p) == tuple(c % p for c in x)
    y = act(QUARTIC, (((0, 1), (1, 0)), e3), x, p)
    assert y == tuple(c % p for c in x[6:] + x[:6])


def test_generators_invertible():
    # the three GL_3 generators the form BFS moves by and the six of
    # GL_2 x GL_3 the pair BFS moves by, at every odd prime up to 101:
    # every factor invertible mod p
    for p in primes_upto(101)[1:].tolist():
        assert len(generators(p)) == 3
        gens = pair_generators(p)
        assert len(gens) == 6
        for g2, g3 in gens:
            assert det(g2) % p and det(g3) % p, (p, g2, g3)


def _random_group(rng, p, with_g3=True):
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


@pytest.mark.parametrize("p", [5, 7, 11])
def test_act_composition_law(p):
    rng = np.random.default_rng(p)
    for _ in range(20):
        g = _random_group(rng, p)
        h = _random_group(rng, p)
        x = tuple(int(v) for v in rng.integers(0, p, 12))
        gh = tuple(tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p
                               for j in range(n)) for i in range(n))
                   for a, b, n in zip(g, h, (2, 3)))
        assert act(QUARTIC, gh, x, p) == act(QUARTIC, g,
                                             act(QUARTIC, h, x, p), p)


@pytest.mark.parametrize("space,p", [(CUBIC, 5), (CUBIC, 7), (QUARTIC, 3),
                                     (QUARTIC, 7)])
def test_disc_invariance_under_action(space, p):
    # disc(g x) = det(g2)^6 disc(x) (cubic), det(g2)^6 det(g3)^8 (pairs)
    rng = np.random.default_rng(17 * p)
    for _ in range(25):
        g = _random_group(rng, p, with_g3=space.space_id == "quartic")
        x = tuple(int(v) for v in rng.integers(0, p, space.r))
        lhs = disc(space, act(space, g, x, p)) % p
        scale = pow(det(g[0]), 6, p)
        if space.space_id == "quartic":
            scale = scale * pow(det(g[1]), 8, p) % p
        assert lhs == scale * disc(space, x) % p


@pytest.mark.parametrize("space,p", [(CUBIC, 5), (CUBIC, 7), (QUARTIC, 3),
                                     (QUARTIC, 5)])
def test_disc_invariance_under_generators(space, p):
    # unimodular generators leave disc unchanged identically (checked on an
    # exhaustive small box reduced mod p); on the cubic space g2 acts
    gens = [(g2, g3) for g2, g3 in pair_generators(p)
            if det(g2) % p == 1 and det(g3) % p == 1]
    assert gens
    rng = np.random.default_rng(9)
    X = rng.integers(0, p, size=(400, space.r))
    for g2, g3 in gens:
        if space.space_id == "cubic":
            Y = act_cubic_batch(g2, X, p)
        else:
            Y = act_pair_batch(g2, g3, X, p)
        assert np.array_equal(disc_mod(space, Y, p), disc_mod(space, X, p))


@pytest.mark.parametrize("space,p", [(CUBIC, 5), (CUBIC, 7), (QUARTIC, 3)])
def test_pairing_compatible_with_involution(space, p):
    # [g x, g^iota y] = [x, y] with g^iota = transpose-inverse per factor
    rng = np.random.default_rng(31 * p)

    def minv(m, n, pp):
        m = np.array(m, dtype=np.int64) % pp
        aug = np.concatenate([m, np.eye(n, dtype=np.int64)], axis=1)
        for col in range(n):
            piv = next(r for r in range(col, n) if aug[r, col] % pp)
            aug[[col, piv]] = aug[[piv, col]]
            aug[col] = aug[col] * pow(int(aug[col, col]), -1, pp) % pp
            for r in range(n):
                if r != col and aug[r, col]:
                    aug[r] = (aug[r] - aug[r, col] * aug[col]) % pp
        return aug[:, n:]

    for _ in range(20):
        g = _random_group(rng, p, with_g3=space.space_id == "quartic")
        g2, g3 = g
        gi2 = tuple(tuple(int(v) for v in row) for row in minv(g2, 2, p).T)
        gi3 = None
        if g3 is not None:
            gi3 = tuple(tuple(int(v) for v in row)
                        for row in minv(g3, 3, p).T)
        x = tuple(int(v) for v in rng.integers(0, p, space.r))
        y = tuple(int(v) for v in rng.integers(0, p, space.r))
        assert (pairing_mod(space, act(space, g, x, p),
                            act(space, (gi2, gi3), y, p), p)
                == pairing_mod(space, x, y, p))


# ---------------------------------------------------------------------------
# decomposition + classifier
# ---------------------------------------------------------------------------

def test_decompose_p3(table3, monkeypatch):
    assert len(table3.entries) == 20
    assert sum(sz for sz, _ in table3.entries.values()) == 3 ** 12
    for name, want in P3_SIZES.items():
        assert table3.entries[name][0] == want, name
    # representative = smallest state code in the orbit; orbit of 0 is {0}
    assert table3.entries["O_0"] == (1, (0,) * 12)
    # the census against the exhaustive BFS: sizes, representatives and
    # key order (ascending representative code)
    assert list(table3.entries.items()) == list(table3.bfs.items())
    # the rows walked a few at a time, across the chunk seams
    monkeypatch.setattr(ob, "ROW_BUDGET", 100)
    assert ob.decompose_orbits(QUARTIC, 3) == table3.entries


def test_decompose_p5():
    # the census against the frozen p = 5 BFS table, representatives
    # included
    from test_acceptance import P5_ORBITS
    got = ob.decompose_orbits(QUARTIC, 5)
    assert got == {n: (sz, rep) for n, (rep, sz) in P5_ORBITS.items()}
    codes = [int(encode_states(rep, 5)) for _, rep in got.values()]
    assert codes == sorted(codes)


def test_decompose_rejects(monkeypatch):
    with pytest.raises(ValueError):
        ob.decompose_orbits(CUBIC, 5)

    # the census rows, 7 p^6, fit orbits.CENSUS_ROWS at p = 19, not at 23:
    # refused before any form is classed
    def boom(*a, **k):
        raise AssertionError("a kernel ran past the census budget")
    for name in ("form_chunks", "form_frames", "canonical_resolvents",
                 "_label", "classify_batch"):
        monkeypatch.setattr(ob, name, boom)
    assert 7 * 19 ** 6 <= ob.CENSUS_ROWS < 7 * 23 ** 6
    with pytest.raises(ResourceLimitError):
        ob.decompose_orbits(QUARTIC, 23)


def test_census_incomplete_raises(monkeypatch):
    # a labelling step that never names one label leaves the census short
    # of it, and the sizes still sum to p^12: a gap to report
    real = ob._label

    def never(*args):
        out = real(*args)
        out[out == ob.LABELS.index("O_4")] = ob.LABELS.index("O_22")
        return out
    monkeypatch.setattr(ob, "_label", never)
    with pytest.raises(ob.ClassifierIncompleteError,
                       match="p=3: the census met 19 labels"):
        ob.decompose_orbits(QUARTIC, 3)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_split_labelling_matches_classify_batch(p):
    """The census's labelling step, A and the one form D_c as two arrays
    with canonical_resolvents' r, against classify_batch on the stacked
    rows (A, D_c), for every class c: random forms A, and the rows whose
    A half is zero or a multiple of D_c (A = 0, A = lambda D_c).
    pencil_counts gives the same counts with B one form as with that form
    repeated as rows."""
    rng = np.random.default_rng(p)
    rand = rng.integers(0, p, size=(600, 6))
    lam = rng.integers(1, p, size=(100, 1))
    for c, D in enumerate(ob.canonical_forms(p)):
        A = np.vstack([rand, np.zeros((50, 6), dtype=np.int64),
                       lam * D % p]).astype(np.int16)
        r = list(ob.canonical_resolvents(A, p))[c]
        rows = np.tile(D, (len(A), 1))
        want = ob.classify_batch(QUARTIC, np.hstack([A, rows]), p)
        assert np.array_equal(ob._label(A, D, r, p), want), (p, c)
        for one, each in zip(ob.pencil_counts(A, D, r, p),
                             ob.pencil_counts(A, rows, r, p)):
            assert np.array_equal(one, each), (p, c)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_form_classes(p):
    """Seven GL_3-classes of ternary forms, each form B = g B_c g^T with g
    invertible and B_c the canonical form of its class, whose code is the
    smallest of the class; up to p = 7 the classes and their smallest codes
    are the breadth-first search's."""
    n = p ** 6
    canon = ob.canonical_forms(p).astype(np.int32)
    cls = np.empty(n, dtype=np.int8)
    for lo in range(0, n, ob.ROW_BUDGET):
        forms = ob.decode_states(np.arange(lo, min(lo + ob.ROW_BUDGET, n)),
                                 p, r=6)
        cls[lo:lo + len(forms)], g = ob.form_frames(forms, p)
        # entries below p: each sum below 3 p^3 and |det g| < 6 p^3, exact
        # in int32
        g = g.astype(np.int32)
        # the canonical forms are diagonal: (g D g^T)_ij = sum_k d_k g_ik g_jk
        d = canon[cls[lo:lo + len(forms)], :3].T
        for col, (i, j) in enumerate(ob._SYM_INDEX):
            moved = d[0] * g[i, 0] * g[j, 0] + d[1] * g[i, 1] * g[j, 1]
            moved += d[2] * g[i, 2] * g[j, 2]
            assert np.array_equal(moved % p, forms[:, col])
        det = (g[0, 0] * (g[1, 1] * g[2, 2] - g[1, 2] * g[2, 1])
               - g[0, 1] * (g[1, 0] * g[2, 2] - g[1, 2] * g[2, 0])
               + g[0, 2] * (g[1, 0] * g[2, 1] - g[1, 1] * g[2, 0]))
        assert (det % p).all()
    met, reps = np.unique(cls, return_index=True)
    assert met.tolist() == list(range(7))
    assert reps.tolist() == (canon @ p ** np.arange(6)).tolist()
    if p <= 7:
        bfs_cls, bfs_reps = form_classes_bfs(p)
        order = np.argsort(reps)
        assert reps[order].tolist() == bfs_reps.tolist()
        assert np.array_equal(np.argsort(order)[cls], bfs_cls)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_form_chunks_walk(p, monkeypatch):
    """The one walk of the forms, 100 at a time across the chunk seams: the
    chunks start at lo in code order, and their forms, classes and frames,
    concatenated, are decode_states' and form_frames' over all p^6 forms."""
    forms = ob.decode_states(np.arange(p ** 6, dtype=np.int64), p, r=6)
    cls, g = ob.form_frames(forms, p)
    monkeypatch.setattr(ob, "ROW_BUDGET", 100)
    lo, A, c, h = zip(*ob.form_chunks(p))
    assert list(lo) == list(range(0, p ** 6, 100))
    assert np.array_equal(np.concatenate(A), forms)
    assert np.array_equal(np.concatenate(c), cls)
    assert np.array_equal(np.concatenate(h, axis=-1), g)


def test_classify_agrees_with_bfs_everywhere_p3(table3):
    codes = np.arange(3 ** 12, dtype=np.int64)
    coords = ob.decode_states(codes, 3)
    got = ob.classify_batch(QUARTIC, coords, 3)
    assert np.array_equal(got, table3.labels)


def _classify(space, x, p):
    """The label of one state, through the batch classifier."""
    return ob.LABELS[ob.classify_batch(space, [tuple(x)], p)[0]]


def test_classify_examples():
    assert _classify(QUARTIC, (0,) * 12, 3) == "O_0"
    # A = I, B = diag(1,2,3): base points solve v2^2 = -2 v3^2, v1^2 = v3^2,
    # so they are rational exactly when -2 is a square: four points at
    # p = 3, 11 (type 1111), none at p = 7 where they pair up over F_49
    # (type 22).  Verified against the exhaustive point-count oracle.
    x = (1, 1, 1, 0, 0, 0, 1, 2, 3, 0, 0, 0)
    assert _classify(QUARTIC, x, 3) == "O_1111"
    assert _classify(QUARTIC, x, 11) == "O_1111"
    assert _classify(QUARTIC, x, 7) == "O_22"
    with pytest.raises(ValueError):
        _classify(QUARTIC, x, 2)
    with pytest.raises(ValueError):
        _classify(CUBIC, (1, 0, 0, 1), 5)


def test_classify_nonsingular_iff_disc_nonzero(table3):
    rng = np.random.default_rng(23)
    for p in (3, 5, 7):
        X = rng.integers(0, p, size=(300, 12))
        codes = ob.classify_batch(QUARTIC, X, p)
        dm = disc_mod(QUARTIC, X, p)
        for c, d in zip(codes, dm):
            assert (ob.LABEL_DIM[ob.LABELS[c]] == 12) == (d != 0)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_classify_constant_on_orbits(p):
    rng = np.random.default_rng(41 * p)
    for _ in range(60):
        x = tuple(int(v) for v in rng.integers(0, p, 12))
        base = _classify(QUARTIC, x, p)
        for _ in range(4):
            g = _random_group(rng, p)
            assert _classify(QUARTIC, act(QUARTIC, g, x, p), p) == base


def _slow_count_fp2(c, p):
    """#{[v] in P^2(F_{p^2}) : v A v^T = v B v^T = 0}, plain Python, with
    F_{p^2} = F_p[t]/(t^2 - nu), nu the least non-residue (tests/fpk.py)."""
    nu = next(v for v in range(2, p) if pow(v, (p - 1) // 2, p) == p - 1)
    F = fpk.Fpk(p, 2, modulus=(-nu, 0))
    els = range(F.q)
    mul = [[F.mul(a, b) for b in els] for a in els]
    add = [[F.add(a, b) for b in els] for a in els]

    pts = ([(1, y, z) for y in els for z in els]
           + [(0, 1, z) for z in els] + [(0, 0, 1)])
    cnt = 0
    for v in pts:
        mono = [mul[v[0]][v[0]], mul[v[1]][v[1]], mul[v[2]][v[2]],
                mul[v[0]][v[1]], mul[v[0]][v[2]], mul[v[1]][v[2]]]
        ok = True
        for block in (c[:6], c[6:]):
            q = 0
            for j, m in enumerate(mono):
                q = add[q][mul[block[j] * (1 if j < 3 else 2) % p][m]]
            ok &= q == 0
        cnt += ok
    return cnt


def test_classify_memory_bounded_at_p11():
    # pencil_counts makes one pass per member of P^1 over n-sized arrays,
    # so nothing grows as p^2 per row (the point sweep it replaced held
    # (rows, p^2 + p + 1) blocks; 2^16 states unblocked: 223 MB).  The
    # rows are held once, as int16 residues (1.5 MB here), and every
    # n-sized temporary is int32 or narrower: about 5.2 MB traced
    import tracemalloc
    X = np.random.default_rng(3).integers(0, 11, size=(1 << 16, 12))
    tracemalloc.start()
    try:
        ob.classify_batch(QUARTIC, X, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2 ** 20


def test_classify_reduces_any_integer_rows():
    # the rows as residues, shifted into (-p, 0] (cast, no division), past
    # +-p (reduced column by column) and as int16 give the same labels
    rng = np.random.default_rng(9)
    for p in (3, 7, 13):
        X = _half_zeroed(rng, p, 2000)
        want = ob.classify_batch(QUARTIC, X, p)
        shift = p * rng.integers(-40, 40, size=X.shape)
        for Y in (X - p * (X > 0), X + shift, X.astype(np.int16)):
            assert np.array_equal(ob.classify_batch(QUARTIC, Y, p), want)


def _proj_points(p):
    """Representatives of P^2(F_p): (1,y,z), (0,1,z), (0,0,1)."""
    pts = [(1, y, z) for y in range(p) for z in range(p)]
    pts += [(0, 1, z) for z in range(p)]
    pts.append((0, 0, 1))
    return np.array(pts, dtype=np.int64)


def _point_sweep(coords, p):
    """n1's slow oracle: #{[v] in P^2(F_p) : v A v^T = v B v^T = 0} per row
    of coords (reduced mod p), both forms evaluated at every point in
    float64 by blocks of rows.  Exact: each value is an integer below
    6 p^2 < 2^53, and its correctly rounded quotient by p is an integer
    only when p divides it."""
    pts = _proj_points(p)
    # quadratic monomials (v1^2, v2^2, v3^2, 2v1v2, 2v1v3, 2v2v3)
    MT = np.stack([pts[:, 0] ** 2, pts[:, 1] ** 2, pts[:, 2] ** 2,
                   2 * pts[:, 0] * pts[:, 1], 2 * pts[:, 0] * pts[:, 2],
                   2 * pts[:, 1] * pts[:, 2]]) % p
    out = np.empty(len(coords), dtype=np.int64)
    step = max(1, (1 << 21) // len(pts))
    for lo in range(0, len(coords), step):
        C = np.asarray(coords[lo:lo + step], dtype=np.float64)
        hit = True
        for half in (C[:, :6], C[:, 6:]):
            q = half @ MT
            q /= p
            hit = hit & (q == np.floor(q))
        out[lo:lo + step] = hit.sum(axis=-1)
    return out


def _pencil_counts(X, p):
    """pencil_counts on the rows X, through classify_batch's reductions."""
    return ob.pencil_counts(*ob._reduce(X, p), p)


def _half_zeroed(rng, p, rows):
    # zeroed entries give rank-deficient members and zero resolvents
    X = rng.integers(0, p, size=(rows, 12))
    X[rng.random(X.shape) < 0.5] = 0
    return X


def test_base_locus_counts_match_bruteforce():
    # independent slow oracles: the F_p count by plain Python (p = 3) for
    # a few elements, the float64 point sweep, an int64 sweep at p = 59
    # and 101, either side of the int32 bound on the Horner sums, and the
    # F_{p^2} count behind the O_22 / O_4 split
    import itertools
    rng = np.random.default_rng(7)
    X = rng.integers(0, 3, size=(12, 12))

    def slow_count_prime(c, p):
        cnt = 0
        seen = set()
        for v in itertools.product(range(p), repeat=3):
            if v == (0, 0, 0):
                continue
            # canonical projective representative
            lead = next(x for x in v if x)
            inv = pow(lead, -1, p)
            rep = tuple(x * inv % p for x in v)
            if rep in seen:
                continue
            seen.add(rep)
            qa = (c[0]*v[0]*v[0] + c[1]*v[1]*v[1] + c[2]*v[2]*v[2]
                  + 2*c[3]*v[0]*v[1] + 2*c[4]*v[0]*v[2] + 2*c[5]*v[1]*v[2]) % p
            qb = (c[6]*v[0]*v[0] + c[7]*v[1]*v[1] + c[8]*v[2]*v[2]
                  + 2*c[9]*v[0]*v[1] + 2*c[10]*v[0]*v[2] + 2*c[11]*v[1]*v[2]) % p
            cnt += qa == 0 and qb == 0
        return cnt

    got1 = _pencil_counts(X, 3)[0]
    for i in range(12):
        c = tuple(int(v) for v in X[i])
        assert got1[i] == slow_count_prime(c, 3)
    assert np.array_equal(got1, _point_sweep(X, 3))

    # int64 forms reduced mod p: disc_dtype(p - 1) is int32 at p = 59 and
    # int64 at p = 101
    for p, rows in ((59, 1500), (101, 500)):
        Z = _half_zeroed(rng, p, rows)
        v = _proj_points(p).T
        M = np.stack([v[0] ** 2, v[1] ** 2, v[2] ** 2, 2 * v[0] * v[1],
                      2 * v[0] * v[2], 2 * v[1] * v[2]]) % p
        want = ((Z[:, :6] @ M % p == 0) & (Z[:, 6:] @ M % p == 0)).sum(1)
        assert np.array_equal(_pencil_counts(Z, p)[0], want)

    # nonsingular with no F_p base point: the four base points pair up over
    # F_{p^2} (O_22, 4 points) or form one Frobenius 4-cycle (O_4, none)
    for p in (3, 5, 7):
        Y = rng.integers(0, p, size=(400, 12))
        Y = Y[(disc_mod(QUARTIC, Y, p) != 0) & (_point_sweep(Y, p) == 0)][:24]
        labels = [ob.LABELS[c] for c in ob.classify_batch(QUARTIC, Y, p)]
        assert {"O_22", "O_4"} <= set(labels)
        for y, name in zip(Y, labels):
            n2 = _slow_count_fp2([int(v) for v in y], p)
            assert (n2, name) in {(4, "O_22"), (0, "O_4")}, (p, y)


def test_legendre_table_is_eulers_criterion():
    for p in primes_upto(101).tolist():
        want = [0] + [1 if pow(x, (p - 1) // 2, p) == 1 else -1
                      for x in range(1, p)]
        assert ob.legendre_table(p).tolist() == want, p


def test_pencil_counts_every_state_p3():
    # all 3^12 states: n1 against the point sweep
    X = ob.decode_states(np.arange(3 ** 12, dtype=np.int64), 3)
    assert np.array_equal(_pencil_counts(X, 3)[0], _point_sweep(X, 3))


# p = 211 and 457: int64 Horner sums and members (past p = 181), the
# resolvent in int32 at 211 and in int64 at 457 (past M = 215)
@pytest.mark.parametrize("p", [5, 7, 11, 13, 19, 211, 457])
def test_pencil_counts_match_point_sweep(p):
    # n1 against the point sweep; roots against the resolvent evaluated in
    # Python ints at every [x:y] in P^1 (all p + 1 when it vanishes)
    rng = np.random.default_rng(p)
    X = _half_zeroed(rng, p, 4000 if p < 100 else 40)
    n1, _, _, roots = _pencil_counts(X, p)
    assert np.array_equal(n1, _point_sweep(X, p))
    members = [(1, 0)] + [(x, 1) for x in range(p)]
    for i in range(0, len(X), 40 if p < 100 else 4):
        r = resolvent_cubic(tuple(int(v) for v in X[i]))
        want = sum((r[0] * x ** 3 + r[1] * x * x * y + r[2] * x * y * y
                    + r[3] * y ** 3) % p == 0 for x, y in members)
        assert roots[i] == want


def test_o22_with_resolvent_root_at_infinity():
    # (A - B, B) with A = I, B = diag(1,2,3) is O_22 at p = 5, 7 (see
    # test_classify_examples); its A-form diag(0,-1,-2) is singular, so one
    # of the three resolvent roots is the point at infinity
    x = (0, -1, -2, 0, 0, 0, 1, 2, 3, 0, 0, 0)
    for p in (5, 7):
        r0 = resolvent_cubic(np.array([x]))[0] % p
        assert r0[0] == 0 and disc_mod(QUARTIC, np.array([x]), p)[0] != 0
        assert _pencil_counts([x], p)[3][0] == 3
        assert _classify(QUARTIC, x, p) == "O_22"


def _rank_mod(M, p):
    """Rank of the integer matrix M (a list of rows) mod p, by elimination
    in Python ints."""
    M = [[v % p for v in row] for row in M]
    rank = 0
    for col in range(len(M[0])):
        piv = next((i for i in range(rank, len(M)) if M[i][col]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][col], -1, p)
        for i in range(len(M)):
            if i != rank and M[i][col]:
                f = M[i][col] * inv
                M[i] = [(a - f * b) % p for a, b in zip(M[i], M[rank])]
        rank += 1
    return rank


def _sym3(c):
    return [[c[0], c[3], c[4]], [c[3], c[1], c[5]], [c[4], c[5], c[2]]]


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_pencil_member_counts_match_ranks(p):
    # the members of each rank, against independent oracles in Python ints
    # on half-zeroed rows and on rows (A, B) with B of rank 0, 1 and 2:
    # zero members against the dependence of A and B (every 2x2 minor of
    # the 2x6 matrix (A | B) vanishes), rank-1 members and all roots
    # against the rank of xA + yB at every [x:y] of P^1
    rng = np.random.default_rng(100 + p)
    degenerate = [(0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0),
                  (1, 1, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0)]
    X = _half_zeroed(rng, p, 480)
    X[240:, 6:] = np.repeat(degenerate, 60, axis=0)
    _, zeros, rank1, roots = _pencil_counts(X, p)
    members = [(1, 0)] + [(x, 1) for x in range(p)]
    for i, row in enumerate(X.tolist()):
        a, b = row[:6], row[6:]
        dependent = all((a[j] * b[k] - a[k] * b[j]) % p == 0
                        for j in range(6) for k in range(j + 1, 6))
        want = 0 if not dependent else p + 1 if not any(row) else 1
        assert zeros[i] == want, row
        ranks = [_rank_mod(_sym3([x * u + y * v for u, v in zip(a, b)]), p)
                 for x, y in members]
        assert rank1[i] == ranks.count(1), row
        assert roots[i] == sum(k < 3 for k in ranks), row


def _patched_counts(monkeypatch, **override):
    """Replace pencil_counts by one that overrides some of its counts,
    given by name (n1, zeros, rank1, roots)."""
    real = ob.pencil_counts

    def fake(A, B, r, p):
        got = dict(zip(("n1", "zeros", "rank1", "roots"), real(A, B, r, p)))
        got.update({k: np.full(len(A), v) for k, v in override.items()})
        return got["n1"], got["zeros"], got["rank1"], got["roots"]
    monkeypatch.setattr(ob, "pencil_counts", fake)


def test_unexpected_resolvent_root_count_raises(monkeypatch):
    # no F_p base point and neither 1 nor 3 resolvent roots is a gap to
    # report, not a state to label (2 roots would read as a double root)
    x = (1, 1, 1, 0, 0, 0, 1, 2, 3, 0, 0, 0)
    _patched_counts(monkeypatch, roots=0)
    with pytest.raises(ob.ClassifierIncompleteError,
                       match=r"p=7: signature \(nonsingular, n1=0\) splits"
                             r" to 0 at \(1, 1, 1, 0"):
        _classify(QUARTIC, x, 7)


def test_unexpected_rank1_count_raises(monkeypatch):
    # (v1^2, v2^2) is O_B11: its determinant form xy has 2 zeros on P^1;
    # a common-kernel pencil with one rank-1 member and one F_p base point
    # is a gap to report
    x = (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0)
    assert _classify(QUARTIC, x, 7) == "O_B11"
    _patched_counts(monkeypatch, rank1=1)
    with pytest.raises(ob.ClassifierIncompleteError,
                       match=r"p=7: signature \(two-form pencil, n1=1\)"
                             r" splits to 1 at \(1, 0, 0, 0"):
        _classify(QUARTIC, x, 7)


def test_unknown_signature_raises(monkeypatch):
    # three F_p base points on a nonsingular pencil is no signature of the
    # table
    x = (1, 1, 1, 0, 0, 0, 1, 2, 3, 0, 0, 0)
    _patched_counts(monkeypatch, n1=3)
    with pytest.raises(ob.ClassifierIncompleteError,
                       match=r"p=7: signature \(nonsingular, n1=3\) is not"
                             r" in the table at \(1, 1, 1, 0"):
        _classify(QUARTIC, x, 7)
    # with B one form beside the rows, as the census passes D_c, the
    # report still names the whole state
    A, B, r = ob._reduce([x], 7)
    with pytest.raises(ob.ClassifierIncompleteError,
                       match=r"at \(1, 1, 1, 0, 0, 0, 1, 2, 3, 0, 0, 0\)$"):
        ob._label(A, B[0], r, 7)


@pytest.mark.parametrize("p", primes_upto(101)[1:].tolist())
def test_signature_table_keys(p):
    # 17 signatures, distinct within each kind at every odd prime (a key
    # that collided would shrink the dict), naming 17 distinct entries
    # that with O_0 cover the 20 labels once each
    table = ob.signature_table(p)
    assert len(table) == 17
    assert {k for k, _ in table} == set(range(len(ob.KINDS)))
    assert len(set(table.values())) == 17
    names = [n for v in table.values()
             for n in ((v,) if isinstance(v, str) else v)]
    assert sorted(names + ["O_0"]) == sorted(ob.LABELS)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_census_identities(p):
    # Fourier inversion at 0, Parseval, and the count of singular states,
    # summed over the census orbit sizes with the closed-form transforms
    from pvsieve import fourier
    sizes = {n: sz for n, (sz, _) in ob.decompose_orbits(QUARTIC, p).items()}
    assert sum(sizes.values()) == p ** 12
    assert sizes == {3: P3_SIZES, 5: P5_SIZES}.get(p, sizes)
    ft = {n: fourier.ft_closed_form(QUARTIC_COND, p, n)
          for n in ob.LABELS}
    assert sum(sizes[n] * ft[n] for n in ob.LABELS) == 1
    assert sum(sizes[n] * ft[n] ** 2 for n in ob.LABELS) == ft["O_0"]
    singular = sum(sizes[n] for n in ob.LABELS
                   if n not in ob.NONSINGULAR_LABELS)
    assert singular == p ** 12 * ft["O_0"]
