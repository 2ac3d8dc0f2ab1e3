"""Group action, orbit BFS, and the invariant classifier (pair space)."""

import numpy as np
import pytest

from pvsieve import orbits as ob
from pvsieve.spaces import (CUBIC, QUARTIC, VElement, disc, disc_mod,
                            pairing_mod, resolvent_cubic_mod)

import fpk

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
    assert sorted(set((i, ob.FC_BY_DIM[i]) for i in ob.LABEL_DIM.values())) == [
        (0, -1), (4, -3), (7, -4), (8, -5), (10, -6), (11, -7), (12, -8)]
    assert ob.canonical_label("O_T11") == "O_B11"
    assert ob.canonical_label("O_T2") == "O_B2"
    with pytest.raises(ValueError):
        ob.canonical_label("O_nope")
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
    gid = ob.GroupElement(p, e2, e3)
    assert ob.act(QUARTIC, gid, x) == tuple(c % p for c in x)
    swap = ob.GroupElement(p, ((0, 1), (1, 0)), e3)
    y = ob.act(QUARTIC, swap, x)
    assert y == tuple(c % p for c in x[6:] + x[:6])


def test_act_velement_passthrough():
    g = ob.GroupElement(5, ((1, 1), (0, 1)))
    x = VElement("cubic", (1, 2, 3, 4))
    y = ob.act(CUBIC, g, x)
    assert isinstance(y, VElement) and y.modulus == 5


def test_singular_group_element_rejected():
    with pytest.raises(ob.InvalidGroupElementError):
        ob.GroupElement(5, ((1, 2), (2, 4)))
    with pytest.raises(ob.InvalidGroupElementError):
        ob.GroupElement(5, ((1, 0), (0, 1)),
                        ((1, 0, 0), (0, 1, 0), (1, 0, 0)))


def _random_group(rng, p, with_g3=True):
    while True:
        g2 = tuple(tuple(int(v) for v in row)
                   for row in rng.integers(0, p, (2, 2)))
        if ob._det2(g2) % p == 0:
            continue
        if not with_g3:
            return ob.GroupElement(p, g2)
        g3 = tuple(tuple(int(v) for v in row)
                   for row in rng.integers(0, p, (3, 3)))
        if ob._det3(g3) % p != 0:
            return ob.GroupElement(p, g2, g3)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_act_composition_law(p):
    rng = np.random.default_rng(p)
    for _ in range(20):
        g = _random_group(rng, p)
        h = _random_group(rng, p)
        x = tuple(int(v) for v in rng.integers(0, p, 12))
        gh = ob.GroupElement(
            p,
            tuple(tuple(sum(g.g2[i][k] * h.g2[k][j] for k in range(2)) % p
                        for j in range(2)) for i in range(2)),
            tuple(tuple(sum(g.g3[i][k] * h.g3[k][j] for k in range(3)) % p
                        for j in range(3)) for i in range(3)))
        assert ob.act(QUARTIC, gh, x) == ob.act(QUARTIC, g,
                                                ob.act(QUARTIC, h, x))


@pytest.mark.parametrize("space,p", [(CUBIC, 5), (CUBIC, 7), (QUARTIC, 3),
                                     (QUARTIC, 7)])
def test_disc_invariance_under_action(space, p):
    # disc(g x) = det(g2)^6 disc(x) (cubic), det(g2)^6 det(g3)^8 (pairs)
    rng = np.random.default_rng(17 * p)
    for _ in range(25):
        g = _random_group(rng, p, with_g3=space.space_id == "quartic")
        x = tuple(int(v) for v in rng.integers(0, p, space.r))
        lhs = disc(space, ob.act(space, g, x)) % p
        scale = pow(ob._det2(g.g2), 6, p)
        if space.space_id == "quartic":
            scale = scale * pow(ob._det3(g.g3), 8, p) % p
        assert lhs == scale * disc(space, x) % p


@pytest.mark.parametrize("space,p", [(CUBIC, 5), (CUBIC, 7), (QUARTIC, 3),
                                     (QUARTIC, 5)])
def test_disc_invariance_under_generators(space, p):
    # unimodular generators leave disc unchanged identically (checked on an
    # exhaustive small box reduced mod p)
    gens = [g for g in ob.generators(space, p)
            if ob._det2(g.g2) % p == 1
            and (g.g3 is None or ob._det3(g.g3) % p == 1)]
    assert gens
    rng = np.random.default_rng(9)
    X = rng.integers(0, p, size=(400, space.r))
    for g in gens:
        if space.space_id == "cubic":
            Y = ob.act_cubic_batch(g.g2, X, p)
        else:
            Y = ob.act_pair_batch(g.g2, g.g3, X, p)
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
        gi2 = tuple(tuple(int(v) for v in row)
                    for row in minv(g.g2, 2, p).T)
        gi3 = None
        if g.g3 is not None:
            gi3 = tuple(tuple(int(v) for v in row)
                        for row in minv(g.g3, 3, p).T)
        gi = ob.GroupElement(p, gi2, gi3)
        x = tuple(int(v) for v in rng.integers(0, p, space.r))
        y = tuple(int(v) for v in rng.integers(0, p, space.r))
        assert (pairing_mod(space, ob.act(space, g, x),
                            ob.act(space, gi, y), p)
                == pairing_mod(space, x, y, p))


# ---------------------------------------------------------------------------
# decomposition + classifier
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def table3():
    return ob.decompose_orbits(QUARTIC, 3)


def test_decompose_p3(table3):
    assert len(table3.entries) == 20
    assert sum(sz for sz, _ in table3.entries.values()) == 3 ** 12
    for name, want in P3_SIZES.items():
        assert table3.cardinality(name) == want, name
    assert table3.cardinality("O_0") == 1
    # representative = smallest state code in the orbit; orbit of 0 is {0}
    assert table3.representative("O_0") == (0,) * 12


def test_decompose_rejects(table3):
    with pytest.raises(ValueError):
        ob.decompose_orbits(CUBIC, 5)
    with pytest.raises(Exception):
        ob.decompose_orbits(QUARTIC, 7)


def test_classify_agrees_with_bfs_everywhere_p3(table3):
    codes = np.arange(3 ** 12, dtype=np.int64)
    coords = ob.decode_states(codes, 3)
    got = ob.classify_batch(QUARTIC, coords, 3)
    bfs = np.array([ob.LABELS.index(n) for n in table3.index_label],
                   dtype=np.int8)[table3.orbit_of]
    assert np.array_equal(got, bfs)


def test_classify_examples():
    assert ob.classify(QUARTIC, (0,) * 12, 3) == "O_0"
    # A = I, B = diag(1,2,3): base points solve v2^2 = -2 v3^2, v1^2 = v3^2,
    # so they are rational exactly when -2 is a square: four points at
    # p = 3, 11 (type 1111), none at p = 7 where they pair up over F_49
    # (type 22).  Verified against the exhaustive point-count oracle.
    x = (1, 1, 1, 0, 0, 0, 1, 2, 3, 0, 0, 0)
    assert ob.classify(QUARTIC, x, 3) == "O_1111"
    assert ob.classify(QUARTIC, x, 11) == "O_1111"
    assert ob.classify(QUARTIC, x, 7) == "O_22"
    with pytest.raises(ValueError):
        ob.classify(QUARTIC, x, 2)
    with pytest.raises(ValueError):
        ob.classify(CUBIC, (1, 0, 0, 1), 5)


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
        base = ob.classify(QUARTIC, x, p)
        for _ in range(4):
            g = _random_group(rng, p)
            assert ob.classify(QUARTIC, ob.act(QUARTIC, g, x), p) == base


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


def test_base_locus_counts_match_bruteforce():
    # independent slow oracles: the F_p count (p = 3) for a few elements,
    # and the F_{p^2} count behind the O_22 / O_4 split
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

    got1 = ob.base_locus_count(X, 3)
    for i in range(12):
        c = tuple(int(v) for v in X[i])
        assert got1[i] == slow_count_prime(c, 3)

    # nonsingular with no F_p base point: the four base points pair up over
    # F_{p^2} (O_22, 4 points) or form one Frobenius 4-cycle (O_4, none)
    for p in (3, 5, 7):
        Y = rng.integers(0, p, size=(400, 12))
        Y = Y[(disc_mod(QUARTIC, Y, p) != 0)
              & (ob.base_locus_count(Y, p) == 0)][:24]
        labels = [ob.LABELS[c] for c in ob.classify_batch(QUARTIC, Y, p)]
        assert {"O_22", "O_4"} <= set(labels)
        for y, name in zip(Y, labels):
            n2 = _slow_count_fp2([int(v) for v in y], p)
            assert (n2, name) in {(4, "O_22"), (0, "O_4")}, (p, y)


def test_o22_with_resolvent_root_at_infinity():
    # (A - B, B) with A = I, B = diag(1,2,3) is O_22 at p = 5, 7 (see
    # test_classify_examples); its A-form diag(0,-1,-2) is singular, so one
    # of the three resolvent roots is the point at infinity
    x = (0, -1, -2, 0, 0, 0, 1, 2, 3, 0, 0, 0)
    for p in (5, 7):
        r0, r1, r2, r3 = resolvent_cubic_mod(np.array([x]), p)
        assert r0[0] == 0 and disc_mod(QUARTIC, np.array([x]), p)[0] != 0
        assert ob.resolvent_root_count(r0, r1, r2, r3, p)[0] == 3
        assert ob.classify(QUARTIC, x, p) == "O_22"


def test_unexpected_resolvent_root_count_raises(monkeypatch):
    # no F_p base point and neither 1 nor 3 resolvent roots is a gap to
    # report, not a state to label
    x = (1, 1, 1, 0, 0, 0, 1, 2, 3, 0, 0, 0)
    monkeypatch.setattr(ob, "resolvent_root_count",
                        lambda r0, r1, r2, r3, p: np.full(r0.shape, 2))
    with pytest.raises(ob.ClassifierIncompleteError,
                       match=r"2 resolvent roots at \(1, 1, 1, 0"):
        ob.classify(QUARTIC, x, 7)


def test_orbit_table_roundtrip(tmp_path, table3):
    path = tmp_path / "orbits_p3.tsv"
    table3.to_file(path)
    back = ob.OrbitTable.from_file(path)
    assert back.p == 3
    assert back.entries == table3.entries
    with pytest.raises(ValueError):
        ob.OrbitTable.from_file(path, version="2")
