"""G(F_p)-orbits on the two spaces: action, exhaustive BFS decomposition,
and the invariant classifier for pairs of ternary quadratic forms.

One closure (_closure) serves both breadth-first searches: the orbits of
the pair space (decompose_orbits) and the GL_3-classes of ternary forms
(form_classes) that the fibred quartic kernel walks.

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

The classifier reads one signature per nonzero element, (kind, n1).  kind
is the type of the resolvent cubic 4 det(Ax + By) mod p: nonzero
discriminant, triple root (its Hessian vanishes), double root, or
identically zero, the last split by the span of the pencil (one form or
two).  n1 is the number of F_p-points of the base locus A = B = 0 in P^2.
signature_table(p) maps 17 signatures to the 19 nonzero labels.  Two
signatures name two labels each, and one more invariant splits them: the
quadratic character of the pencil's binary determinant form (split B11,
nonsplit B2), and the number of F_p roots of the resolvent on P^1 (3: O_22,
1: O_4).  On the nonsingular orbits Frobenius permutes the four base
points and, through S_3, the three roots of the resolvent; the pair (F_p
base points, F_p roots) reads off the cycle type (Bhargava, Higher
composition laws III, Ann. Math. 2004; Wright-Yukie, Invent. Math. 1992).
Any other signature or split value raises ClassifierIncompleteError.  The
map was checked over every orbit: against the exhaustive BFS at p = 3 and
5, and on the rows (A, B_c), B_c running over the classes of form_classes,
at p = 3, 5, 7 and 11, where the same 18 signatures (O_0 counted) occur.
"""

from dataclasses import dataclass, field

import numpy as np

from .spaces import QUARTIC, disc_cubic, resolvent_cubic


class InvalidGroupElementError(ValueError):
    pass


class ClassifierIncompleteError(RuntimeError):
    """A state whose signature, or split value, the classifier's table does
    not hold: a genuine gap to report, never seen at the primes checked."""


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
    """Single-element action on a coordinate tuple; the result is reduced
    mod g.p."""
    arr = np.array(tuple(x), dtype=np.int64)[None, :]
    if space is not QUARTIC:
        out = act_cubic_batch(g.g2, arr, g.p)[0]
    elif g.g3 is None:
        raise InvalidGroupElementError("pair space needs a g3 factor")
    else:
        out = act_pair_batch(g.g2, g.g3, arr, g.p)[0]
    return tuple(int(v) for v in out)


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
    if space is not QUARTIC:
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
    index_label the orbit-index -> label assignment."""
    p: int
    entries: dict
    orbit_of: np.ndarray = field(default=None, repr=False, compare=False)
    index_label: tuple = field(default=None, repr=False, compare=False)


def _closure(n, moves, reached=None):
    """Orbits of n state codes under the group the moves generate, by BFS.

    Each move maps an array of codes to their images under one generator.
    Within one move the action is a bijection, so its images carry no
    duplicates; marking the index between moves removes the rest.  Seeds
    scan upward, so each representative is the smallest code in its orbit.
    reached(j, parents, children), if given, is told of the codes move j
    reached first.  Returns (index, sizes, reps), index the int8 orbit of
    every code."""
    index = np.full(n, -1, dtype=np.int8)
    sizes, reps = [], []
    block = 1 << 22         # the seed scan never builds an n-sized mask
    for lo in range(0, n, block):
        while (index[lo:lo + block] < 0).any():
            seed = lo + int(np.argmax(index[lo:lo + block] < 0))
            index[seed] = len(reps)
            frontier = np.array([seed], dtype=np.int64)
            total = 1
            while frontier.size:
                nxt = []
                for j, move in enumerate(moves):
                    cand = move(frontier)
                    fresh = index[cand] < 0
                    index[cand[fresh]] = len(reps)
                    if reached is not None:
                        reached(j, frontier[fresh], cand[fresh])
                    nxt.append(cand[fresh])
                frontier = np.concatenate(nxt)
                total += int(frontier.size)
            sizes.append(total)
            reps.append(seed)
    return index, np.array(sizes), np.array(reps, dtype=np.int64)


def _pair_move(g, p):
    """The codes -> codes map of one pair-space group element, decoding
    2^19 codes at a time."""
    chunk = 1 << 19

    def move(codes):
        out = np.empty(codes.size, dtype=np.int64)
        for lo in range(0, codes.size, chunk):
            sl = slice(lo, lo + chunk)
            out[sl] = encode_states(
                act_pair_batch(g.g2, g.g3, decode_states(codes[sl], p), p), p)
        return out
    return move


def form_classes(p):
    """GL_3(F_p)-classes of the ternary forms B (six coordinates, as in
    sym_from_cols) under B -> g B g^T.

    Returns (cls, reps, g) over the p^6 forms in state-code order: cls the
    class index, reps the smallest code of each class, and g an element of
    GL_3 with B = g B_c g^T, B_c the representative of B's class.  The
    closure runs under the three GL_3 generators; moving B by h multiplies
    its g by h on the left."""
    n = p ** 6
    forms = decode_states(np.arange(n, dtype=np.int64), p, r=6)
    gens = [np.array(e.g3, dtype=np.int64) for e in generators(QUARTIC, p)[3:]]
    g = np.tile(np.eye(3, dtype=np.int16), (n, 1, 1))

    def reached(j, parents, children):
        g[children] = gens[j] @ g[parents] % p

    moves = [lambda codes, T=_congruence_matrix(h, p).T:
             encode_states(forms[codes] @ T % p, p) for h in gens]
    cls, _, reps = _closure(n, moves, reached)
    return cls, reps, g


def decompose_orbits(space, p):
    """Exhaustive orbit decomposition of the pair space mod p (p in {3,5}).

    Labels the BFS representatives with one classify_batch() call; the
    result must biject onto the 20 labels for odd p."""
    _check_pair_space(space, p)
    space.check_sweep(p)
    label, sizes, reps = _closure(
        p ** 12, [_pair_move(g, p) for g in generators(space, p)])
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
    """The diagonal of the adjugate of a symmetric 3x3 given as 6 columns
    (diagonal first), as 3 rows."""
    a11, a22, a33, a12, a13, a23 = (c[..., i] for i in range(6))
    return np.stack([(a22 * a33 - a23 * a23) % p,
                     (a11 * a33 - a13 * a13) % p,
                     (a11 * a22 - a12 * a12) % p])


def _proj_points_prime(p):
    """Representatives of P^2(F_p): (1,y,z), (0,1,z), (0,0,1)."""
    pts = [(1, y, z) for y in range(p) for z in range(p)]
    pts += [(0, 1, z) for z in range(p)]
    pts.append((0, 0, 1))
    return np.array(pts, dtype=np.int64)


# Cells of one (rows, p^2 + p + 1) block of base_locus_count; its float64
# temporaries stay some tens of MB at every p.
_BASE_LOCUS_CELLS = 1 << 21


def base_locus_count(coords, p):
    """#{[v] in P^2(F_p) : v A v^T = v B v^T = 0} per row of coords, by
    blocks of rows.  The forms are evaluated in float64 (BLAS), exactly:
    each value is an integer below 6 p^2 < 2^53, and its correctly rounded
    quotient by p is an integer only when p divides it."""
    coords = np.asarray(coords)
    pts = _proj_points_prime(p)
    # quadratic monomials (v1^2, v2^2, v3^2, 2v1v2, 2v1v3, 2v2v3)
    MT = np.stack([pts[:, 0] ** 2, pts[:, 1] ** 2, pts[:, 2] ** 2,
                   2 * pts[:, 0] * pts[:, 1], 2 * pts[:, 0] * pts[:, 2],
                   2 * pts[:, 1] * pts[:, 2]]) % p
    out = np.empty(coords.shape[0], dtype=np.int64)
    step = max(1, _BASE_LOCUS_CELLS // len(pts))
    for lo in range(0, coords.shape[0], step):
        C = (coords[lo:lo + step].astype(np.int64) % p).astype(np.float64)
        hit = True
        for half in (C[:, :6], C[:, 6:]):
            q = half @ MT
            q /= p
            hit = hit & (q == np.floor(q))
        out[lo:lo + step] = hit.sum(axis=-1)
    return out


_MINOR2_PAIRS = [(i, j) for i in range(6) for j in range(i + 1, 6)]


def _span_le_1(C, p):
    """True where the two 6-vectors (A|B) are linearly dependent mod p."""
    A, B = C[..., :6], C[..., 6:]
    dep = np.ones(C.shape[:-1], dtype=bool)
    for i, j in _MINOR2_PAIRS:
        dep &= (A[..., i] * B[..., j] - A[..., j] * B[..., i]) % p == 0
    return dep


def resolvent_root_count(r0, r1, r2, r3, p):
    """#{[x:y] in P^1(F_p) : r0 x^3 + r1 x^2 y + r2 x y^2 + r3 y^3 = 0} per
    entry: the root at infinity [1:0] when r0 = 0, plus the affine roots."""
    count = (r0 % p == 0).astype(np.int64)
    for x in range(p):
        count += ((((r0 * x + r1) % p * x + r2) % p * x + r3) % p == 0)
    return count


def _check_pair_space(space, p):
    if space is not QUARTIC:
        raise ValueError("orbits and their labels are for the pair space")
    if p in space.bad_primes:
        raise ValueError(f"p={p} excluded (bad prime)")


# the resolvent's type, the first half of a signature
KINDS = ("one-form pencil", "two-form pencil", "nonsingular", "triple root",
         "double root")


def signature_table(p):
    """(kind, n1) -> label at the odd prime p, or the pair of labels that
    _SPLITS decides between; kind indexes KINDS."""
    return {
        (0, 1): "O_D2", (0, p + 1): "O_D1^2", (0, 2 * p + 1): "O_D11",
        (1, 1): ("O_B11", "O_B2"), (1, p + 1): "O_Cs", (1, p + 2): "O_Cns",
        (2, 0): ("O_22", "O_4"), (2, 1): "O_13", (2, 2): "O_112",
        (2, 4): "O_1111",
        (3, 1): "O_1^4", (3, 2): "O_1^31", (3, p + 1): "O_Dns",
        (4, 0): "O_2^2", (4, 1): "O_1^22", (4, 2): "O_1^21^2",
        (4, 3): "O_1^211",
    }


def _determinant_character(C, r, p):
    """+1 / -1 where a common-kernel pencil's binary determinant form splits
    / does not, read off the nonvanishing diagonal adjugate entries."""
    chi = legendre_table(p)
    dA, dB, dS = (_adj_diag(F, p) for F in (
        C[:, :6], C[:, 6:], (C[:, :6] + C[:, 6:]) % p))
    s = 0
    for i in range(3):
        mid = (dS[i] - dA[i] - dB[i]) % p
        s = s + chi[(mid * mid - 4 * dA[i] * dB[i]) % p]
    return np.sign(s)


# signature -> (invariant (C, resolvent, p) -> value per row, its value on
# each label of the signature's pair)
_SPLITS = {
    (1, 1): (_determinant_character, (1, -1)),
    (2, 0): (lambda C, r, p: resolvent_root_count(*r, p), (3, 1)),
}


def _incomplete(p, kind, n1, state, why):
    return ClassifierIncompleteError(
        f"p={p}: signature ({KINDS[kind]}, n1={n1}) {why} at "
        f"{tuple(int(v) for v in state)}")


def classify_batch(space, coords, p):
    """Label codes (index into LABELS) for an (n, 12) array mod p: each
    nonzero state's signature (kind, n1) looked up in signature_table."""
    _check_pair_space(space, p)
    C = np.asarray(coords, dtype=np.int64) % p
    r0, r1, r2, r3 = r = tuple(c % p for c in resolvent_cubic(C))
    triple = (((r1 * r1 - 3 * r0 * r2) % p == 0)
              & ((r1 * r2 - 9 * r0 * r3) % p == 0)
              & ((r2 * r2 - 3 * r1 * r3) % p == 0))
    kind = np.where(disc_cubic(r0, r1, r2, r3) % p != 0, 2,
                    np.where(triple, 3, 4))
    f0 = np.flatnonzero((r0 == 0) & (r1 == 0) & (r2 == 0) & (r3 == 0))
    kind[f0] = np.where(_span_le_1(C[f0], p), 0, 1)
    n1 = base_locus_count(C, p)
    width = p * p + p + 2                       # n1 <= p^2 + p + 1
    sig = kind * width + n1

    out = np.full(len(C), -1, dtype=np.int8)
    for (k, m), name in signature_table(p).items():
        rows = np.flatnonzero(sig == k * width + m)
        if isinstance(name, str):
            out[rows] = LABELS.index(name)
            continue
        invariant, values = _SPLITS[k, m]
        v = invariant(C[rows], tuple(c[rows] for c in r), p)
        out[rows] = np.where(v == values[0], *map(LABELS.index, name))
        odd = np.flatnonzero(~np.isin(v, values))
        if odd.size:
            raise _incomplete(p, k, m, C[rows[odd[0]]],
                              f"splits to {v[odd[0]]}")
    out[~C.any(axis=1)] = LABELS.index("O_0")
    if (out < 0).any():
        i = int(np.flatnonzero(out < 0)[0])
        raise _incomplete(p, kind[i], n1[i], C[i], "is not in the table")
    return out
