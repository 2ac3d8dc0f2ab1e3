"""G(F_p)-orbits on the two spaces: action, exhaustive BFS decomposition,
and the invariant classifier for pairs of ternary quadratic forms.

The 20 orbit labels for the pair space (p odd) and their grouping by
dimension i, with fc the Fourier-decay exponent (|FT| <= 2 p^fc):

    i=0   O_0                                          fc=-1
    i=4   O_D1^2                                       fc=-3
    i=7   O_D11  O_Cs                                  fc=-4
    i=8   O_D2  O_Dns  O_Cns  O_B11  O_B2              fc=-5
    i=10  O_1^4  O_1^31  O_1^21^2  O_2^2               fc=-6
    i=11  O_1^211  O_1^22                              fc=-7
    i=12  O_1111  O_112  O_22  O_13  O_4               fc=-8

D* = decomposable pairs (lambda*C, mu*C), graded by the conic C: double
line (D1^2), split / conjugate line pair (D11 / D2), nonsingular (Dns).
B11/B2/Cs = common-kernel pencils graded by the binary determinant form
(split / nonsplit / degenerate); Cns = everywhere-singular pencil without a
common kernel.  The remaining labels follow the splitting type of the four
base points of the two conics (exponents mark multiplicity, digits the
residue degrees); O_T11 and O_T2 are accepted as aliases of O_B11, O_B2.

The classifier computes, per element: the resolvent cubic mod p, its
discriminant / Hessian (triple-vs-double root), pencil span and common-
kernel data via adjugates, square classes via the Legendre character, the
base-locus point count over F_p, and the number of F_p-rational roots of
the resolvent on P^1.  The signature -> label map below was calibrated
against the exhaustive BFS partition at p = 3 and 5.

On the nonsingular orbits (disc != 0 mod p) Frobenius permutes the four
base points and, through its image in S_3, the three singular conics of
the pencil (the roots of the resolvent cubic).  The splitting type is the
cycle type of that permutation, and the pair (F_p base points, F_p roots
of the resolvent on P^1) tells the five types apart (Bhargava,
Higher composition laws III, Ann. Math. 2004; Wright-Yukie, Invent. Math.
1992):

    (4, 3) O_1111   (2, 1) O_112   (0, 3) O_22   (1, 0) O_13   (0, 1) O_4
"""

from dataclasses import dataclass, field

import numpy as np

from .spaces import (CUBIC, ResourceLimitError, VElement, space_by_name)
from .spaces import resolvent_cubic_mod as _resolvent_mod


class InvalidGroupElementError(ValueError):
    pass


class ClassifierIncompleteError(RuntimeError):
    """An invariant signature not seen during calibration.  Never expected
    at p in {3,5}; elsewhere it marks a genuine gap to report."""


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

LABELS = (
    "O_0",
    "O_D1^2",
    "O_D11", "O_Cs",
    "O_D2", "O_Dns", "O_Cns", "O_B11", "O_B2",
    "O_1^4", "O_1^31", "O_1^21^2", "O_2^2",
    "O_1^211", "O_1^22",
    "O_1111", "O_112", "O_22", "O_13", "O_4",
)

LABEL_DIM = {
    "O_0": 0, "O_D1^2": 4,
    "O_D11": 7, "O_Cs": 7,
    "O_D2": 8, "O_Dns": 8, "O_Cns": 8, "O_B11": 8, "O_B2": 8,
    "O_1^4": 10, "O_1^31": 10, "O_1^21^2": 10, "O_2^2": 10,
    "O_1^211": 11, "O_1^22": 11,
    "O_1111": 12, "O_112": 12, "O_22": 12, "O_13": 12, "O_4": 12,
}

FC_BY_DIM = {0: -1, 4: -3, 7: -4, 8: -5, 10: -6, 11: -7, 12: -8}

LABEL_FC = {name: FC_BY_DIM[i] for name, i in LABEL_DIM.items()}

U_GROUPS = {i: tuple(n for n in LABELS if LABEL_DIM[n] == i)
            for i in sorted(set(LABEL_DIM.values()))}

# alternate names for the dimension-8 kernel pair
LABEL_ALIASES = {"O_T11": "O_B11", "O_T2": "O_B2"}

NONSINGULAR_LABELS = U_GROUPS[12]


def canonical_label(name):
    name = LABEL_ALIASES.get(name, name)
    if name not in LABEL_DIM:
        raise ValueError(f"unknown orbit label {name!r}")
    return name


# ---------------------------------------------------------------------------
# group elements and the action
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    p: int
    g2: tuple                  # 2x2, row-major nested tuples
    g3: tuple = None           # 3x3 for the pair space, None for cubics

    def __post_init__(self):
        p = self.p
        d2 = _det2(self.g2) % p
        if d2 == 0:
            raise InvalidGroupElementError(f"g2 singular mod {p}")
        if self.g3 is not None and _det3(self.g3) % p == 0:
            raise InvalidGroupElementError(f"g3 singular mod {p}")


def _det2(g):
    return g[0][0] * g[1][1] - g[0][1] * g[1][0]


def _det3(g):
    return (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))


def act_cubic_batch(g2, coords, p):
    """Substitution action on coefficient rows: (g.f)(x,y) = f((x,y) g)."""
    (a, b), (c, d) = g2
    C = np.asarray(coords, dtype=np.int64) % p
    c0, c1, c2, c3 = (C[..., i] for i in range(4))
    n0 = c0 * a ** 3 + c1 * a * a * b + c2 * a * b * b + c3 * b ** 3
    n1 = (3 * a * a * c * c0 + (a * a * d + 2 * a * b * c) * c1
          + (2 * a * b * d + b * b * c) * c2 + 3 * b * b * d * c3)
    n2 = (3 * a * c * c * c0 + (2 * a * c * d + b * c * c) * c1
          + (a * d * d + 2 * b * c * d) * c2 + 3 * b * d * d * c3)
    n3 = c0 * c ** 3 + c1 * c * c * d + c2 * c * d * d + c3 * d ** 3
    return np.stack([n0 % p, n1 % p, n2 % p, n3 % p], axis=-1)


def sym_from_cols(c):
    """(n,6) columns a11,a22,a33,a12,a13,a23 -> (n,3,3) symmetric matrices."""
    M = np.empty(c.shape[:-1] + (3, 3), dtype=c.dtype)
    M[..., 0, 0] = c[..., 0]
    M[..., 1, 1] = c[..., 1]
    M[..., 2, 2] = c[..., 2]
    M[..., 0, 1] = M[..., 1, 0] = c[..., 3]
    M[..., 0, 2] = M[..., 2, 0] = c[..., 4]
    M[..., 1, 2] = M[..., 2, 1] = c[..., 5]
    return M


_SYM_INDEX = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def _congruence_matrix(g3, p):
    """The 6x6 matrix of A -> g3 A g3^T on the coordinates of sym_from_cols:
    M[(i,j),(k,l)] = g_ik g_jl + [k != l] g_il g_jk, reduced mod p."""
    g = np.asarray(g3, dtype=np.int64) % p
    return np.array([[g[i, k] * g[j, l] + (k != l) * g[i, l] * g[j, k]
                      for k, l in _SYM_INDEX] for i, j in _SYM_INDEX],
                    dtype=np.int64) % p


def act_pair_batch(g2, g3, coords, p):
    """(g2,g3).(A,B) = (r A' + s B', t A' + u B') with A' = g3 A g3^T."""
    C = np.asarray(coords, dtype=np.int64) % p
    T = _congruence_matrix(g3, p).T
    A2 = C[..., :6] @ T % p
    B2 = C[..., 6:] @ T % p
    (r, s), (t, u) = g2
    return np.concatenate([(r * A2 + s * B2) % p, (t * A2 + u * B2) % p],
                          axis=-1)


def act(space, g, x):
    """Single-element action; accepts VElement or a coordinate tuple."""
    coords = x.coords if isinstance(x, VElement) else tuple(x)
    arr = np.array(coords, dtype=np.int64)[None, :]
    if space.space_id == "cubic":
        out = act_cubic_batch(g.g2, arr, g.p)[0]
    else:
        if g.g3 is None:
            raise InvalidGroupElementError("pair space needs a g3 factor")
        out = act_pair_batch(g.g2, g.g3, arr, g.p)[0]
    out = tuple(int(v) for v in out)
    if isinstance(x, VElement):
        return VElement(x.space_id, out, modulus=g.p)
    return out


def primitive_root(p):
    for g in range(2, p):
        seen, x = set(), 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise ValueError(f"no primitive root mod {p}?")


def generators(space, p):
    """Standard generating set: transvection, coordinate permutation, and a
    primitive-root diagonal twist, per GL factor."""
    r = primitive_root(p)
    g2s = [((1, 1), (0, 1)), ((0, 1), (1, 0)), ((r, 0), (0, 1))]
    if space.space_id == "cubic":
        return [GroupElement(p, g2) for g2 in g2s]
    I2 = ((1, 0), (0, 1))
    I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    g3s = [((1, 0, 0), (1, 1, 0), (0, 0, 1)),
           ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
           ((r, 0, 0), (0, 1, 0), (0, 0, 1))]
    return ([GroupElement(p, g2, I3) for g2 in g2s]
            + [GroupElement(p, I2, g3) for g3 in g3s])


# ---------------------------------------------------------------------------
# exhaustive orbit decomposition (pair space, p in {3,5})
# ---------------------------------------------------------------------------

ORBIT_STATE_LIMIT = 6 ** 12   # distinguishes 5^12 (ok) from 7^12 (not)


def decode_states(codes, p, r=12):
    out = np.empty((codes.size, r), dtype=np.int16)
    c = codes.copy()
    for i in range(r):
        out[:, i] = c % p
        c //= p
    return out


def encode_states(coords, p):
    coords = np.asarray(coords, dtype=np.int64) % p
    pow_p = p ** np.arange(coords.shape[-1], dtype=np.int64)
    return coords @ pow_p


@dataclass
class OrbitTable:
    """Orbits of the pair space mod p: label -> (cardinality, representative).

    orbit_of holds the full state-code -> orbit-index map from the BFS and
    index_label the orbit-index -> label assignment (not serialized)."""
    p: int
    entries: dict
    orbit_of: np.ndarray = field(default=None, repr=False, compare=False)
    index_label: tuple = field(default=None, repr=False, compare=False)

    def cardinality(self, name):
        return self.entries[canonical_label(name)][0]

    def representative(self, name):
        return self.entries[canonical_label(name)][1]

    def group_cardinality(self, i):
        return sum(self.entries[n][0] for n in U_GROUPS[i])

    def to_file(self, path, version="1"):
        with open(path, "w") as fh:
            fh.write(f"# orbit-table v{version} p={self.p} "
                     "label dim fc cardinality rep\n")
            for name in LABELS:
                size, rep = self.entries[name]
                rep_s = ",".join(str(c) for c in rep)
                fh.write(f"{name}\t{LABEL_DIM[name]}\t{LABEL_FC[name]}\t"
                         f"{size}\t{rep_s}\n")

    @classmethod
    def from_file(cls, path, version="1"):
        entries = {}
        with open(path) as fh:
            head = fh.readline()
            if not head.startswith(f"# orbit-table v{version} "):
                raise ValueError(f"stale or foreign orbit table: {head!r}")
            p = int(head.split("p=")[1].split()[0])
            for line in fh:
                name, dim, fc, size, rep_s = line.rstrip("\n").split("\t")
                if (int(dim), int(fc)) != (LABEL_DIM[name], LABEL_FC[name]):
                    raise ValueError(f"corrupt row for {name}")
                rep = tuple(int(t) for t in rep_s.split(","))
                entries[name] = (int(size), rep)
        return cls(p, entries)


def _bfs_orbits(p, chunk=1 << 19):
    """Label every state of (F_p)^12 with its orbit index.  Within one
    generator batch the action is a bijection, so candidate arrays carry no
    internal duplicates; marking the label array between generators removes
    the rest.  Seeds scan upward, so each representative is the smallest
    code in its orbit."""
    n_states = p ** 12
    label = np.full(n_states, -1, dtype=np.int8)
    gens = [(np.array(g.g2, dtype=np.int64) % p,
             np.array(g.g3, dtype=np.int64) % p)
            for g in generators(space_by_name("quartic"), p)]

    def act_codes(g2, g3, codes):
        res = np.empty(codes.size, dtype=np.int64)
        for lo in range(0, codes.size, chunk):
            sl = slice(lo, min(lo + chunk, codes.size))
            res[sl] = encode_states(
                act_pair_batch(g2, g3, decode_states(codes[sl], p), p), p)
        return res

    sizes, reps = [], []
    scan_from, oid = 0, 0
    scan_block = 1 << 22
    while True:
        rem = np.flatnonzero(label[scan_from:scan_from + scan_block] < 0)
        while rem.size == 0 and scan_from < n_states:
            scan_from += scan_block
            rem = np.flatnonzero(label[scan_from:scan_from + scan_block] < 0)
        if scan_from >= n_states:
            break
        seed = scan_from + int(rem[0])
        label[seed] = oid
        frontier = np.array([seed], dtype=np.int64)
        total = 1
        while frontier.size:
            nxt = []
            for g2, g3 in gens:
                cand = act_codes(g2, g3, frontier)
                fresh = cand[label[cand] < 0]
                label[fresh] = oid
                nxt.append(fresh)
            frontier = np.concatenate(nxt)
            total += int(frontier.size)
        sizes.append(total)
        reps.append(seed)
        oid += 1
    return np.array(sizes), np.array(reps, dtype=np.int64), label


def decompose_orbits(space, p):
    """Exhaustive orbit decomposition of the pair space mod p (p in {3,5}).

    Labels the BFS representatives with one classify_batch() call; the
    result must biject onto the 20 labels for odd p."""
    if space.space_id != "quartic":
        raise ValueError("orbit decomposition is for the pair space")
    if p in space.bad_primes:
        raise ValueError(f"p={p} excluded (bad prime)")
    if p ** 12 > ORBIT_STATE_LIMIT:
        raise ResourceLimitError(f"p={p}: {p ** 12} states exceed the budget")
    sizes, reps, label = _bfs_orbits(p)
    rep_coords = decode_states(reps, p)
    names = [LABELS[c] for c in classify_batch(space, rep_coords, p)]
    if sorted(names) != sorted(LABELS):
        raise ClassifierIncompleteError(
            f"p={p}: BFS found {len(names)} orbits, labels {sorted(names)}")
    entries = {name: (int(sz), tuple(int(v) for v in rc))
               for name, sz, rc in zip(names, sizes, rep_coords)}
    return OrbitTable(p=p, entries=entries, orbit_of=label,
                      index_label=tuple(names))


# ---------------------------------------------------------------------------
# invariant classifier
# ---------------------------------------------------------------------------

def legendre_table(p):
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    chi[np.unique(np.arange(1, p, dtype=np.int64) ** 2 % p)] = 1
    return chi


def _adj_diag(c, p):
    """Diagonal of the adjugate of a symmetric 3x3 given as 6 columns."""
    a11, a22, a33, a12, a13, a23 = (c[..., i] for i in range(6))
    return ((a22 * a33 - a23 * a23) % p,
            (a11 * a33 - a13 * a13) % p,
            (a11 * a22 - a12 * a12) % p)


def _adj_full(c, p):
    a11, a22, a33, a12, a13, a23 = (c[..., i] for i in range(6))
    return np.stack([
        (a22 * a33 - a23 * a23) % p,
        (a11 * a33 - a13 * a13) % p,
        (a11 * a22 - a12 * a12) % p,
        (a13 * a23 - a12 * a33) % p,
        (a12 * a23 - a13 * a22) % p,
        (a12 * a13 - a11 * a23) % p], axis=-1)


def _proj_points_prime(p):
    """Representatives of P^2(F_p): (1,y,z), (0,1,z), (0,0,1)."""
    pts = [(1, y, z) for y in range(p) for z in range(p)]
    pts += [(0, 1, z) for z in range(p)]
    pts.append((0, 0, 1))
    return np.array(pts, dtype=np.int64)


def base_locus_count(coords, p):
    """#{[v] in P^2(F_p) : v A v^T = v B v^T = 0} per row of coords."""
    C = np.asarray(coords, dtype=np.int64) % p
    pts = _proj_points_prime(p)
    # quadratic monomials (v1^2, v2^2, v3^2, 2v1v2, 2v1v3, 2v2v3)
    M = np.stack([pts[:, 0] ** 2, pts[:, 1] ** 2, pts[:, 2] ** 2,
                  2 * pts[:, 0] * pts[:, 1], 2 * pts[:, 0] * pts[:, 2],
                  2 * pts[:, 1] * pts[:, 2]], axis=-1) % p
    qA = C[..., :6] @ M.T % p
    qB = C[..., 6:] @ M.T % p
    return ((qA == 0) & (qB == 0)).sum(axis=-1)


_MINOR2_PAIRS = [(i, j) for i in range(6) for j in range(i + 1, 6)]
_MINOR3_TRIPLES = [(i, j, k) for i in range(6) for j in range(i + 1, 6)
                   for k in range(j + 1, 6)]


def _span_le_1(C, p):
    """True where the two 6-vectors (A|B) are linearly dependent mod p."""
    A, B = C[..., :6], C[..., 6:]
    dep = np.ones(C.shape[:-1], dtype=bool)
    for i, j in _MINOR2_PAIRS:
        dep &= (A[..., i] * B[..., j] - A[..., j] * B[..., i]) % p == 0
    return dep


def _common_kernel(C, p):
    """True where some nonzero v has Av = Bv = 0: the stacked 6x3 matrix of
    rows of A and B has rank <= 2, i.e. all twenty 3x3 row-minors vanish."""
    A = sym_from_cols(C[..., :6].astype(np.int64))
    B = sym_from_cols(C[..., 6:].astype(np.int64))
    rows = np.concatenate([A, B], axis=-2)      # (..., 6, 3)
    ok = np.ones(C.shape[:-1], dtype=bool)
    for i, j, k in _MINOR3_TRIPLES:
        m = rows[..., (i, j, k), :]
        det = (m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2]
                               - m[..., 1, 2] * m[..., 2, 1])
               - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2]
                                 - m[..., 1, 2] * m[..., 2, 0])
               + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1]
                                 - m[..., 1, 1] * m[..., 2, 0]))
        ok &= det % p == 0
    return ok


def resolvent_root_count(r0, r1, r2, r3, p):
    """#{[x:y] in P^1(F_p) : r0 x^3 + r1 x^2 y + r2 x y^2 + r3 y^3 = 0} per
    entry: the root at infinity [1:0] when r0 = 0, plus the affine roots."""
    count = (r0 % p == 0).astype(np.int64)
    for x in range(p):
        count += ((((r0 * x + r1) % p * x + r2) % p * x + r3) % p == 0)
    return count


def classify_batch(space, coords, p):
    """Label codes (index into LABELS) for an (n, 12) array mod p."""
    if space.space_id != "quartic":
        raise ValueError("classify is for the pair space")
    if p in space.bad_primes:
        raise ValueError(f"p={p} excluded (bad prime)")
    C = np.asarray(coords, dtype=np.int64) % p
    n = C.shape[0]
    chi = legendre_table(p)
    out = np.full(n, -1, dtype=np.int8)
    code = {name: LABELS.index(name) for name in LABELS}

    zero = ~C.any(axis=1)
    out[zero] = code["O_0"]

    c0, c1, c2, c3 = _resolvent_mod(C, p)
    f0 = (c0 == 0) & (c1 == 0) & (c2 == 0) & (c3 == 0) & ~zero

    # --- resolvent identically zero: pencil data ------------------------
    if f0.any():
        idx = np.flatnonzero(f0)
        Cf = C[idx]
        span1 = _span_le_1(Cf, p)

        # one-form pencils: grade the single conic
        if span1.any():
            i1 = idx[span1]
            C1 = C[i1]
            useA = C1[:, :6].any(axis=1)
            form = np.where(useA[:, None], C1[:, :6], C1[:, 6:])
            adj = _adj_full(form, p)
            rank1 = ~adj.any(axis=1)
            out[i1[rank1]] = code["O_D1^2"]
            r2 = ~rank1
            # split vs conjugate line pair: character of -kappa, read off
            # any nonzero diagonal adjugate entry (they differ by squares)
            sgn = np.sign(sum(chi[(-adj[r2, i]) % p] for i in range(3)))
            i2 = i1[r2]
            out[i2[sgn > 0]] = code["O_D11"]
            out[i2[sgn < 0]] = code["O_D2"]
            if (sgn == 0).any():
                raise ClassifierIncompleteError(
                    f"p={p}: rank-2 single form with vanishing character")

        span2 = ~span1
        if span2.any():
            i2 = idx[span2]
            C2 = C[i2]
            ker = _common_kernel(C2, p)
            out[i2[~ker]] = code["O_Cns"]
            if ker.any():
                ik = i2[ker]
                Ck = C[ik]
                dA = _adj_diag(Ck[:, :6], p)
                dB = _adj_diag(Ck[:, 6:], p)
                dS = _adj_diag((Ck[:, :6] + Ck[:, 6:]) % p, p)
                s = np.zeros(ik.size, dtype=np.int64)
                for i in range(3):
                    mid = (dS[i] - dA[i] - dB[i]) % p
                    s += chi[(mid * mid - 4 * dA[i] * dB[i]) % p]
                sgn = np.sign(s)
                out[ik[sgn > 0]] = code["O_B11"]
                out[ik[sgn < 0]] = code["O_B2"]
                out[ik[sgn == 0]] = code["O_Cs"]

    # --- nonzero resolvent: discriminant, multiplicity, base locus ------
    live = ~zero & ~f0
    if live.any():
        il = np.flatnonzero(live)
        r0, r1, r2, r3 = c0[il], c1[il], c2[il], c3[il]
        disc = (r1 * r1 * r2 * r2 - 4 * r0 * r2 ** 3 - 4 * r1 ** 3 * r3
                - 27 * r0 * r0 * r3 * r3 + 18 * r0 * r1 * r2 * r3) % p
        n1 = base_locus_count(C[il], p)

        ns = disc != 0
        if ns.any():
            ins = il[ns]
            m1 = n1[ns]
            out[ins[m1 == 4]] = code["O_1111"]
            out[ins[m1 == 2]] = code["O_112"]
            out[ins[m1 == 1]] = code["O_13"]
            none = m1 == 0
            if none.any():
                sub = ins[none]
                nr = resolvent_root_count(
                    *(r[ns][none] for r in (r0, r1, r2, r3)), p)
                odd = (nr != 1) & (nr != 3)
                if odd.any():
                    i = int(np.flatnonzero(odd)[0])
                    raise ClassifierIncompleteError(
                        f"p={p}: no F_p base point and {int(nr[i])} resolvent"
                        f" roots at {tuple(int(v) for v in C[sub[i]])}")
                out[sub[nr == 3]] = code["O_22"]
                out[sub[nr == 1]] = code["O_4"]
            bad = (m1 == 3) | (m1 > 4)
            if bad.any():
                raise ClassifierIncompleteError(
                    f"p={p}: nonsingular base locus of size {n1[ns][bad][0]}")

        dg = ~ns
        if dg.any():
            idg = il[dg]
            h0 = (r1 * r1 - 3 * r0 * r2)[dg] % p
            h1 = (r1 * r2 - 9 * r0 * r3)[dg] % p
            h2 = (r2 * r2 - 3 * r1 * r3)[dg] % p
            trp = (h0 == 0) & (h1 == 0) & (h2 == 0)
            m1 = n1[dg]
            itr = idg[trp]
            mt = m1[trp]
            out[itr[mt == p + 1]] = code["O_Dns"]
            out[itr[mt == 2]] = code["O_1^31"]
            out[itr[mt == 1]] = code["O_1^4"]
            idb = idg[~trp]
            md = m1[~trp]
            out[idb[md == 0]] = code["O_2^2"]
            out[idb[md == 2]] = code["O_1^21^2"]
            out[idb[md == 3]] = code["O_1^211"]
            out[idb[md == 1]] = code["O_1^22"]

    if (out < 0).any():
        i = int(np.flatnonzero(out < 0)[0])
        raise ClassifierIncompleteError(
            f"p={p}: unrecognized signature at {tuple(int(v) for v in C[i])}")
    return out


def classify(space, x, p):
    coords = x.coords if isinstance(x, VElement) else tuple(x)
    codes = classify_batch(space, np.array([coords], dtype=np.int64), p)
    return LABELS[int(codes[0])]
