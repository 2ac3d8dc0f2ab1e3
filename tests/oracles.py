"""Slow, independent oracles for the tests, and the test-side names of the
two local conditions: the library holds only what the program runs.

Group elements are plain (g2, g3) pairs of nested tuples, as
pair_generators gives them; on the cubic space only g2 acts and g3 may
be None.  Everything here works in Python ints or in int64 with `%`, one
element or one small batch at a time, but for the breadth-first searches
(closure): over the p^6 ternary forms (form_classes_bfs) and over all p^12
states of the pair space (pair_bfs).
"""

from fractions import Fraction

import numpy as np

from pvsieve import ffcore, fourier, orbits
from pvsieve.spaces import CUBIC, QUARTIC, pairing_weights_mod

CUBIC_COND = fourier.LocalCondition("cubic")
QUARTIC_COND = fourier.LocalCondition("quartic")

# the cubic classes, in the order of cubic_class_batch's indices
CUBIC_CLASSES = tuple(fourier.CLOSED_FORMS["cubic"])


# ---------------------------------------------------------------------------
# the group action
# ---------------------------------------------------------------------------

def det(m):
    """Determinant of a square integer matrix given as nested rows, by
    cofactor expansion along the first row, in Python ints."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:]
                                          for row in m[1:]])
               for j in range(len(m)))


def act_cubic_batch(g2, coords, p):
    """Substitution action on binary cubic coefficient rows, reduced mod p:
    (g.f)(x, y) = f((x, y) g2)."""
    (a, b), (c, d) = g2
    C = np.asarray(coords, dtype=np.int64) % p
    c0, c1, c2, c3 = (C[..., i] for i in range(4))
    n0 = c0 * a ** 3 + c1 * a * a * b + c2 * a * b * b + c3 * b ** 3
    n1 = (3 * a * a * c * c0 + (a * a * d + 2 * a * b * c) * c1
          + (2 * a * b * d + b * b * c) * c2 + 3 * b * b * d * c3)
    n2 = (3 * a * c * c * c0 + (2 * a * c * d + b * c * c) * c1
          + (a * d * d + 2 * b * c * d) * c2 + 3 * b * d * d * c3)
    n3 = c0 * c ** 3 + c1 * c * c * d + c2 * c * d * d + c3 * d ** 3
    return np.stack([n0, n1, n2, n3], axis=-1) % p


def act_pair_batch(g2, g3, coords, p):
    """(g2,g3).(A,B) = (r A' + s B', t A' + u B') with A' = g3 A g3^T."""
    C = np.asarray(coords, dtype=np.int64) % p
    T = congruence_matrix(g3, p).T
    A2 = C[..., :6] @ T % p
    B2 = C[..., 6:] @ T % p
    (r, s), (t, u) = g2
    return np.concatenate([r * A2 + s * B2, t * A2 + u * B2], axis=-1) % p


def act(space, g, x, p):
    """The action of g = (g2, g3) on one coordinate tuple x, reduced mod p:
    act_cubic_batch on the cubic space, act_pair_batch on the pair
    space."""
    g2, g3 = g
    row = np.array([tuple(x)], dtype=np.int64)
    out = (act_cubic_batch(g2, row, p) if space is CUBIC
           else act_pair_batch(g2, g3, row, p))[0]
    return tuple(int(v) for v in out)


def generators(p):
    """Generators of GL_3(F_p), as nested tuples: a transvection, a cyclic
    coordinate permutation and a primitive-root diagonal twist, of
    determinant 1, 1 and r, a unit mod p."""
    r = ffcore.primitive_root(p)
    return [((1, 0, 0), (1, 1, 0), (0, 0, 1)),
            ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
            ((r, 0, 0), (0, 1, 0), (0, 0, 1))]


def sym_from_cols(c):
    """(n, 6) coordinates a11, a22, a33, a12, a13, a23 -> (n, 3, 3)
    symmetric matrices."""
    M = np.empty(c.shape[:-1] + (3, 3), dtype=c.dtype)
    for k, (i, j) in enumerate(orbits._SYM_INDEX):
        M[..., i, j] = M[..., j, i] = c[..., k]
    return M


def encode_states(coords, p):
    """The state code of each coordinate row, reduced mod p: its base-p
    digits, lowest first, as orbits.decode_states reads them."""
    coords = np.asarray(coords, dtype=np.int64) % p
    return coords @ p ** np.arange(coords.shape[-1], dtype=np.int64)


def congruence_matrix(g3, p):
    """The 6x6 matrix of A -> g3 A g3^T on the coordinates of
    sym_from_cols: M[(i,j),(k,l)] = g_ik g_jl + [k != l] g_il g_jk,
    reduced mod p."""
    g = np.asarray(g3, dtype=np.int64) % p
    return np.array([[g[i, k] * g[j, l] + (k != l) * g[i, l] * g[j, k]
                      for k, l in orbits._SYM_INDEX]
                     for i, j in orbits._SYM_INDEX], dtype=np.int64) % p


def pair_generators(p):
    """Generators (g2, g3) of GL_2 x GL_3 over F_p: per factor a
    transvection, a swap or cyclic permutation and a primitive-root
    diagonal twist, the other factor the identity; the GL_3 half is
    generators."""
    r = ffcore.primitive_root(p)
    I2 = ((1, 0), (0, 1))
    I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    g2s = [((1, 1), (0, 1)), ((0, 1), (1, 0)), ((r, 0), (0, 1))]
    return ([(g2, I3) for g2 in g2s]
            + [(I2, g3) for g3 in generators(p)])


def closure(n, moves):
    """Orbits of n state codes under the group the moves generate, by
    breadth-first search.

    Each move maps an array of codes to their images under one generator.
    Within one move the action is a bijection, so its images carry no
    duplicates; marking the index between moves removes the rest.  Seeds
    scan upward, so each representative is the smallest code in its orbit.
    Returns (index, sizes, reps), index the int8 orbit of every code."""
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
                for move in moves:
                    cand = move(frontier)
                    fresh = index[cand] < 0
                    index[cand[fresh]] = len(reps)
                    nxt.append(cand[fresh])
                frontier = np.concatenate(nxt)
                total += int(frontier.size)
            sizes.append(total)
            reps.append(seed)
    return index, np.array(sizes), np.array(reps, dtype=np.int64)


def form_classes_bfs(p):
    """The GL_3(F_p)-classes of the p^6 ternary forms under B -> g B g^T,
    by breadth-first search under generators(p): (cls, reps), cls the
    class of every form in code order, numbered in the order of reps, the
    smallest code of each class."""
    forms = orbits.decode_states(np.arange(p ** 6, dtype=np.int64), p, r=6)
    moves = [lambda codes, T=congruence_matrix(h, p).T:
             encode_states(forms[codes] @ T, p)
             for h in generators(p)]
    cls, _, reps = closure(p ** 6, moves)
    return cls, reps


def pair_bfs(p):
    """The orbits of the pair space mod p by breadth-first search over all
    p^12 state codes (closure under pair_generators, decoding 2^19
    codes a move at a time): (index, table), index the LABELS index of
    every state in code order and table {label: (size, rep)}, rep the
    smallest code of the orbit as a coordinate tuple, in the order the
    search finds them.  The representatives are labelled by
    orbits.classify_batch."""
    chunk = 1 << 19

    def pair_move(g2, g3):
        def move(codes):
            out = np.empty(codes.size, dtype=np.int64)
            for lo in range(0, codes.size, chunk):
                sl = slice(lo, lo + chunk)
                out[sl] = encode_states(act_pair_batch(
                    g2, g3, orbits.decode_states(codes[sl], p), p), p)
            return out
        return move

    index, sizes, reps = closure(
        p ** 12, [pair_move(g2, g3) for g2, g3 in pair_generators(p)])
    rep_coords = orbits.decode_states(reps, p)
    labels = orbits.classify_batch(QUARTIC, rep_coords, p)
    table = {orbits.LABELS[c]: (int(sz), tuple(rc.tolist()))
             for c, sz, rc in zip(labels, sizes, rep_coords)}
    return labels[index], table


def pairing_mod(space, x, y, p):
    """The pairing [x, y] mod p of two coordinate tuples, from the weights
    of spaces.pairing_weights_mod (which refuses bad primes)."""
    w = pairing_weights_mod(space, p)
    return int(np.dot(w * (np.asarray(x, dtype=np.int64) % p),
                      np.asarray(y, dtype=np.int64) % p) % p)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def bruteforce_table(cond, p, reps_by_name):
    """The brute-force FourierTable at the given class/orbit
    representatives, from fourier.ft_bruteforce_multi."""
    vals = fourier.ft_bruteforce_multi(cond, p, list(reps_by_name.values()))
    return fourier.FourierTable(p=p, space_id=cond.space_id,
                                source="bruteforce",
                                values=dict(zip(reps_by_name, vals)))


def ft_on_lattice(cond, q, y):
    """Psi-hat_q at an integer argument, squarefree q: the (q, m) factor is
    dropped (the dual-lattice index m acts trivially there), the rest is the
    per-prime closed form, multiplied out."""
    space = cond.space
    row = np.array([tuple(y)], dtype=np.int64)
    names = tuple(fourier.CLOSED_FORMS[space.space_id])
    value = Fraction(1)
    for p in ffcore.factor_squarefree(int(q // np.gcd(q, space.m))):
        label = names[fourier.target_classes(space, row, p)[0]]
        value *= fourier.ft_closed_form(cond, p, label)
    return value


def ft_qsplit_check(cond, q0, q1, x):
    """The split identity: for x in q0 V(Z) and coprime squarefree q0, q1,
    FT_{q0 q1}(x) = FT_{q0}(x) * FT_{q1}(x / q0)."""
    coords = tuple(x)
    if any(c % q0 for c in coords):
        raise ValueError(f"x not in {q0}V(Z)")
    if np.gcd(q0, q1) != 1:
        raise ValueError("moduli not coprime")
    lhs = ft_on_lattice(cond, q0 * q1, coords)
    rhs = (ft_on_lattice(cond, q0, coords)
           * ft_on_lattice(cond, q1, tuple(c // q0 for c in coords)))
    return lhs == rhs


def rel_gap_double(rep):
    """The Poisson check's relative gap at the doubled radius 2Z:
    |lhs - rhs_double| / |lhs| of an experiments.PoissonReport."""
    return abs(rep.lhs - rep.rhs_double) / abs(rep.lhs)
