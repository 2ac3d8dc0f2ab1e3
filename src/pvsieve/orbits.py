"""G(F_p)-orbits of the pair space: the GL_3-classes of ternary forms, the
orbit census, and the invariant classifier for pairs of ternary quadratic
forms.

The class of a ternary form is its rank and one square class, and
form_frames reads it off a vectorized congruence diagonalization, with a
frame g, B = g D_c g^T, over the canonical diagonal forms D_c of the seven
classes (canonical_forms), each the smallest code of its class.  The
orbit census and the fibred quartic kernel both read the p^6 forms with
their classes from one walk (form_chunks), which gives each chunk's
frames too, and the resolvents of the rows (A, D_c) from one kernel
(canonical_resolvents).  The orbit table of the pair space
(decompose_orbits, a {label: (size, rep)} table) is that census: the
classifier's labelling step labels the p^6 rows (A, D_c) of each class,
taking A and the one form D_c as two arrays, and each class weighs its
counts by its size.  No search over an orbit runs in the library; the
tests keep breadth-first searches over the forms and, at p = 3, over the
pair space as the slow references.

The 20 orbit labels for the pair space (p odd) and their grouping by
dimension i (LABEL_DIM); the Fourier-decay exponent of each group,
fourier.FC_BY_DIM, is derived from the closed forms there:

    i=0   O_0
    i=4   O_D1^2
    i=7   O_D11  O_Cs
    i=8   O_D2  O_Dns  O_Cns  O_B11  O_B2
    i=10  O_1^4  O_1^31  O_1^21^2  O_2^2
    i=11  O_1^211  O_1^22
    i=12  O_1111  O_112  O_22  O_13  O_4

D* = decomposable pairs (lambda*C, mu*C), graded by the conic C: double
line (D1^2), split / conjugate line pair (D11 / D2), nonsingular (Dns).
B11/B2/Cs = common-kernel pencils graded by the binary determinant form
(split / nonsplit / degenerate); Cns = everywhere-singular pencil without a
common kernel.  The remaining labels follow the splitting type of the four
base points of the two conics (exponents mark multiplicity, digits the
residue degrees).

The classifier reads one signature per nonzero element, (kind, n1).  kind
is the type of the resolvent cubic 4 det(Ax + By) mod p: three distinct
roots, triple root (its Hessian vanishes), double root, or identically
zero, the last split by the span of the pencil (one form or two).  n1 is
the number of F_p-points of the base locus A = B = 0 in P^2.  Both are
read off the pencil's singular members (pencil_counts): integer arithmetic
throughout, one pass per member of P^1 and no sweep of P^2, counting the
resolvent's roots, n1 and the members of rank 0 and of rank 1.  Each step
runs at the narrowest width its bound allows, and falls back to int64
where the bound fails: the rows are reduced once into int16 residues
(p < 2^15); the resolvent is formed from them in int32 (216 (p - 1)^3 <
2^31, p <= 216) and its Horner sums run in disc_dtype(p - 1) (int32 to
p = 79), or, in the census, in canonical_resolvents' dtype (int16 to
p = 13, where p^4 < 2^15); each pencil member gathers the forms A it
hits, and B where B has rows (the census's D_c is one form), and forms F
in int16 (p^2 < 2^15, p <= 181); n1 and the tally are int32
((p + 2)^3 < 2^31, p <= 1288).
signature_table(p) maps 17 signatures to the 19 nonzero labels.  Two
signatures name two labels each, and one more count of the same passes
splits them: the rank-1 members, the zeros of the pencil's binary
determinant form (2: split B11, 0: nonsplit B2), and the F_p roots of the
resolvent on P^1 (3: O_22, 1: O_4).  On the nonsingular orbits Frobenius
permutes the four base points and, through S_3, the three roots of the
resolvent; the pair (F_p base points, F_p roots) reads off the cycle type
(Bhargava, Higher composition laws III, Ann. Math. 2004; Wright-Yukie,
Invent. Math. 1992).
Any other signature or split value raises ClassifierIncompleteError.  The
map was checked over every orbit: against the exhaustive BFS at p = 3 and
5, and on the rows (A, D_c), D_c running over the classes of form_frames,
at p = 3, 5, 7, 11 and 13, where the same 18 signatures (O_0 counted)
occur.
"""

import numpy as np

from . import ffcore
from .ffcore import divisible, mod
from .spaces import QUARTIC, _det3_sym, disc_dtype, resolvent_cubic


class ClassifierIncompleteError(RuntimeError):
    """A state whose signature, or split value, the classifier's table does
    not hold: a genuine gap to report, never seen at the primes checked."""


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

LABEL_DIM = {
    "O_0": 0, "O_D1^2": 4,
    "O_D11": 7, "O_Cs": 7,
    "O_D2": 8, "O_Dns": 8, "O_Cns": 8, "O_B11": 8, "O_B2": 8,
    "O_1^4": 10, "O_1^31": 10, "O_1^21^2": 10, "O_2^2": 10,
    "O_1^211": 11, "O_1^22": 11,
    "O_1111": 12, "O_112": 12, "O_22": 12, "O_13": 12, "O_4": 12,
}

LABELS = tuple(LABEL_DIM)

U_GROUPS = {i: tuple(n for n in LABELS if LABEL_DIM[n] == i)
            for i in sorted(set(LABEL_DIM.values()))}

NONSINGULAR_LABELS = U_GROUPS[12]


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------

# A form's six coordinates a11, a22, a33, a12, a13, a23 are the entries
# _SYM_INDEX of its symmetric matrix, and c[..., _SYM_FULL].reshape(..., 3, 3)
# is the matrix itself, read row by row from those coordinates.
_SYM_INDEX = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_SYM_FULL = [0, 3, 4, 3, 1, 5, 4, 5, 2]


# ---------------------------------------------------------------------------
# form classes and the orbit census (pair space)
# ---------------------------------------------------------------------------

def decode_states(codes, p, r=12):
    """The r base-p digits of each state code, lowest first, as int16: one
    floor division a digit, the digit read as c - (c // p) p."""
    out = np.empty((codes.size, r), dtype=np.int16)
    c = codes.copy()
    for i in range(r):
        q = c // p
        c -= q * p
        out[:, i] = c
        c = q
    return out


# The GL_3(F_p)-classes of ternary forms, p odd: the zero form and, at each
# rank 1, 2 and 3, the two square classes of the product of the pivots.
FORM_CLASSES = 7


def canonical_forms(p):
    """The class representatives of form_frames, as (FORM_CLASSES, 6) int16
    coordinates: the zero form, then for r = 1, 2, 3 the rank-r forms
    diag(e, 1, .., 1, 0, ..), e = 1 and e = nu, the least non-square mod p.
    Each is the smallest code of its class: every class has a diagonal
    member, and a code compares a23, a13 and a12 before the diagonal, then
    a33, a22 and a11 in turn, so the least member of a class of rank r puts
    0 past the r-th place, 1 in places 2 to r and in place 1 the least
    residue of the class's square class."""
    nu = int(np.argmax(legendre_table(p) < 0))
    diag = [(0, 0, 0), (1, 0, 0), (nu, 0, 0), (1, 1, 0), (nu, 1, 0),
            (1, 1, 1), (nu, 1, 1)]
    return np.hstack([diag, np.zeros((FORM_CLASSES, 3))]).astype(np.int16)


def form_frames(forms, p):
    """The GL_3(F_p)-class of each ternary form and a frame for it, p odd:
    (cls, g) for the (n, 6) coordinates forms, reduced mod p; cls (int8)
    indexes canonical_forms(p), and g[:, :, m] of the (3, 3, n) g is an
    invertible matrix with B_m = g D g^T, D the canonical form of B_m's
    class.  This is the one place the class is defined.

    Over F_p, p odd, a ternary form is congruent to a diagonal one, and its
    class is fixed by its rank r and the square class of the product of its
    r nonzero diagonal entries: class 2r - 1 + [the product is a
    non-square], and 0 for B = 0.

    Symmetric Gaussian elimination moves B by congruences B -> E B E^T and
    the frame by g -> g E^-1, from g = 1, so that the input is g B g^T
    throughout.  At k = 0, 1 the pivot B_kk is made nonzero wherever the
    trailing block is not zero, by transvections e_i += c e_j: for the
    first j > k with B_jj or B_kj nonzero, e_k += c e_j sets B_kk to
    c (2 B_kj + c B_jj), nonzero for c = 1 or for c = -1; where B_12 is the
    only nonzero entry, e_1 += e_2 first sets B_11 to 2 B_12.  Clearing row
    and column k adds l_j times column j of g to its column k,
    l_j = B_kj / B_kk.  Each pivot d = s^2 delta, delta 1 or nu (the least
    non-square), is then scaled to delta (column times s); a pair nu, nu
    becomes 1, 1 by (g_i, g_j) -> (g_i + b g_j, b g_i - g_j), 1 + b^2 = nu
    (nu - 1 is a square); and a lone nu moves to the first pivot by
    swapping places with a 1, as canonical_forms has it.  Each fix-up
    touches only the rows that need it, and the entries are one array each,
    in int16 while p < 128 (every intermediate is below 2 p^2 + p in size),
    else int64; the inverses of the pivots and their roots s are lookups in
    p-entry tables."""
    work = np.int16 if p < 128 else np.int64
    chi = legendre_table(p)
    nu = int(np.argmax(chi < 0))
    s = np.arange(1, p)
    root = np.ones(p, dtype=work)                  # d = root[d]^2 delta
    root[mod(s * s, p)] = root[mod(nu * s * s, p)] = s
    b = 1 + int(np.argmax(mod(s * s, p) == nu - 1))
    # entry (i, j) of each form and of its frame: B[i, j] and g[i, j], views
    # of the rows of B9 and g9
    B9 = np.asarray(forms).T.astype(work)[_SYM_FULL]
    g9 = np.zeros_like(B9)
    g9[[0, 4, 8]] = 1
    B, g = B9.reshape(3, 3, -1), g9.reshape(3, 3, -1)

    def move(rows, i, j, c):                       # e_i += c e_j
        S, G = np.take(B, rows, axis=-1), np.take(g, rows, axis=-1)
        S[i] += c * S[j]
        S[:, i] += c * S[:, j]
        G[:, j] -= c * G[:, i]
        B9[:, rows] = mod(S, p).reshape(9, -1)
        g9[:, rows] = mod(G, p).reshape(9, -1)

    move(np.flatnonzero((B[1, 2] != 0) & (
        (B[0, 0] | B[0, 1] | B[0, 2] | B[1, 1] | B[2, 2]) == 0)), 1, 2, 1)
    inv = ffcore.inverses(p).astype(work)
    for k in (0, 1):
        for j in range(k + 1, 3):
            rows = np.flatnonzero((B[k, k] == 0) & ((B[j, j] | B[k, j]) != 0))
            c = mod(2 * B[k, j, rows] + B[j, j, rows], p) == 0
            move(rows, k, j, (1 - 2 * c).astype(work))
        l = mod(B[k, k + 1:] * np.take(inv, B[k, k]), p)
        B[k + 1:, k + 1:] = mod(B[k + 1:, k + 1:] - l[:, None] * B[k, k + 1:],
                                p)
        g[:, k] = mod(g[:, k] + (g[:, k + 1:] * l).sum(axis=1, dtype=work), p)
    d = B9[[0, 4, 8]]
    t = np.take(chi, d)                  # 1 or -1 a pivot, 0 past the rank
    g9[...] = mod(g * np.take(root, d), p).reshape(9, -1)
    for i in (1, 0):                     # nu, nu -> 1, 1; 1, nu -> nu, 1
        rows = np.flatnonzero((t[i + 1] < 0) & (t[i] != 0))
        pair = t[i, rows] < 0
        G = np.take(g, rows, axis=-1)
        gi, gj = G[:, i].copy(), G[:, i + 1].copy()
        G[:, i] = np.where(pair, gi + b * gj, gj)
        G[:, i + 1] = np.where(pair, b * gi - gj, gi)
        g9[:, rows] = mod(G, p).reshape(9, -1)
        t[i, rows], t[i + 1, rows] = np.where(pair, 1, -1), 1
    rank = np.count_nonzero(t, axis=0)
    return (2 * rank - (rank > 0) + (t < 0).any(axis=0)).astype(np.int8), g


def canonical_resolvents(A, p):
    """The resolvents of the rows (A, D_c), D_c running over
    canonical_forms(p), for the (n, 6) forms A reduced mod p: for each
    class c in turn, (r0, r1, r2, r3), the coefficients of 4 det(xA + yD_c)
    in spaces.resolvent_cubic's order, reduced mod p.  r0 = 4 det A is one
    array for every class and r3 = 4 det D_c one Python int a class.

    det(xA + yD) = x^3 det A + x^2 y tr(adj(A) D) + x y^2 tr(A adj(D))
    + y^3 det D, and D_c = diag(d1, d2, d3), so tr(adj(A) D_c) is
    sum_i d_i adj(A)_ii and tr(A adj(D_c)) is sum_i a_ii d_j d_k,
    {i, j, k} = {1, 2, 3}: det A and the diagonal of adj A are taken once
    for all seven classes.  det A and the two sums are below 3 (p - 1)^3 in
    size, 4 times them below 12 (p - 1)^3, so they run in int16 while that
    is below 2^15 (p <= 13), else in _reduce's disc_dtype(p - 1), whose
    bound 54 (p - 1)^4 is larger (int32 to p = 79).  The coefficients come
    in that dtype, which holds pencil_counts' Horner sums, below p^4."""
    work = np.int16 if 12 * (p - 1) ** 3 < 2 ** 15 else disc_dtype(p - 1)
    a11, a22, a33, a12, a13, a23 = (A[:, i].astype(work, copy=False)
                                    for i in range(6))
    r0 = mod(4 * _det3_sym(a11, a22, a33, a12, a13, a23), p)
    adj = (a22 * a33 - a23 * a23, a11 * a33 - a13 * a13,
           a11 * a22 - a12 * a12)
    for d1, d2, d3 in canonical_forms(p)[:, :3].tolist():
        r1 = mod(4 * (d1 * adj[0] + d2 * adj[1] + d3 * adj[2]), p)
        r2 = mod(4 * (d2 * d3 * a11 + d1 * d3 * a22 + d1 * d2 * a33), p)
        yield r0, r1, r2, 4 * d1 * d2 * d3 % p


# The most rows (A, D_c) the orbit census labels, FORM_CLASSES p^6:
# p = 19 passes, 23 does not.
CENSUS_ROWS = 2 ** 29

# The most forms form_chunks decodes, classes and frames at a time, for the
# census to label beside each D_c and the fibred quartic kernel to move its
# targets by.  At p = 13 that kernel peaks near 160 MB in process (107 MB
# at 2^18 forms, 228 MB at 2^20).
ROW_BUDGET = 2 ** 19


def form_chunks(p):
    """The p^6 ternary forms in code order, ROW_BUDGET at a time: per chunk
    (lo, A, cls, g), A the int16 coordinates of the forms lo, lo + 1, ..
    (decode_states), and cls their classes and g their frames, from one
    form_frames call.  The one walk of the forms: the census reads the
    classes, the fibred quartic kernel the classes and the frames."""
    n = p ** 6
    for lo in range(0, n, ROW_BUDGET):
        A = decode_states(np.arange(lo, min(lo + ROW_BUDGET, n)), p, r=6)
        yield lo, A, *form_frames(A, p)


def decompose_orbits(space, p):
    """The orbit table of the pair space mod p, {label: (size, rep)}, rep
    the smallest state code of the orbit as a coordinate tuple, keys in
    ascending order of rep.  Refused past CENSUS_ROWS rows (so p <= 19)
    before any form is classed.

    A census over the GL_3-classes c of B (form_frames): each (A, B) with
    B in class c is g.(A', D_c) for exactly one A', so
    |O| = sum_c |class c| #{A : label(A, D_c) = O}.  B holds the high digits
    of a code and D_c is the smallest code of its class (canonical_forms),
    so the smallest code of O is the least, over the classes c that O
    meets, of D_c beside the least A labelled O there.  The forms A come
    from form_chunks, whose classes give the class sizes; each chunk is
    labelled beside each D_c by the classifier's labelling step, which
    takes A and the one form D_c as two arrays, with the resolvents of
    canonical_resolvents.  Raises ClassifierIncompleteError unless the 20
    labels are all met and the sizes sum to p^12."""
    _check_pair_space(space, p)
    half = space.r // 2
    n = p ** half
    if FORM_CLASSES * n > CENSUS_ROWS:
        raise ffcore.ResourceLimitError(
            f"p={p}: {FORM_CLASSES * n} rows exceed the orbit census budget")
    canon = canonical_forms(p)
    # the code of each D_c times n: the high digits of its rows' codes
    high = n * (canon.astype(np.int64) @ p ** np.arange(half, dtype=np.int64))
    size = np.zeros(FORM_CLASSES, dtype=np.int64)       # |class c|
    # counts[c, i] = #{A : label(A, D_c) = i}; first[c, i] the least code
    # of those rows (A, D_c), p^12 while there is none
    counts = np.zeros((FORM_CLASSES, len(LABELS)), dtype=np.int64)
    first = np.full_like(counts, p ** space.r)
    for lo, A, cls, g in form_chunks(p):
        del g                     # no frames held while the chunk is labelled
        size += np.bincount(cls, minlength=FORM_CLASSES)
        for c, r in enumerate(canonical_resolvents(A, p)):
            labels = _label(A, canon[c], r, p)
            got = np.bincount(labels, minlength=len(LABELS))
            for i in np.flatnonzero((got > 0) & (counts[c] == 0)).tolist():
                first[c, i] = high[c] + lo + int(np.argmax(labels == i))
            counts[c] += got
    sizes, first = size @ counts, first.min(axis=0)
    met = np.count_nonzero(counts.any(axis=0))
    if met < len(LABELS) or sizes.sum() != p ** space.r:
        raise ClassifierIncompleteError(
            f"p={p}: the census met {met} labels, "
            f"{int(sizes.sum())} states of {p ** space.r}")
    order = np.argsort(first).tolist()
    rep_coords = decode_states(first[order], p)
    return {LABELS[i]: (int(sizes[i]), tuple(rc.tolist()))
            for i, rc in zip(order, rep_coords)}


# ---------------------------------------------------------------------------
# invariant classifier
# ---------------------------------------------------------------------------

def legendre_table(p):
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    chi[mod(np.arange(1, p, dtype=np.int64) ** 2, p)] = 1
    return chi


def pencil_counts(A, B, r, p):
    """(n1, zeros, rank1, roots) per row (A, B): A an (n, 6) integer array
    of forms and B either (n, 6) forms or one (6,) form beside every row,
    both reduced mod p (_label's callers pass int16); r the reduced
    coefficients of the resolvent 4 det(xA + yB) in a dtype that holds p^4
    (arrays, or Python ints constant over the rows): roots the number of
    members [x:y] of P^1(F_p) with F = xA + yB singular, zeros and rank1
    the number of those with F = 0 and with F of rank 1, and n1 the number
    of F_p-points of the base locus A = B = 0 in P^2.

    n1 = 1 + sum c(F) over the singular members, c(F) = p for F = 0,
    chi(-delta) at rank 2, delta any nonzero diagonal entry of adj F, and 0
    at rank 1.  Why (p odd): the zeros v in F_p^3 number
    N = p^-2 sum_{s,t} sum_v e_p(v (sA + tB) v^T); (s, t) = 0 gives p^3,
    and the others are lambda (x, y), lambda in F_p^*, [x:y] in P^1.  For F
    of rank k, diagonal d_1..d_k under congruence, the inner sum is
    p^(3-k) prod G(lambda d_i), G(a) = chi(a) g with g^2 = chi(-1) p.
    Summed over lambda it vanishes at odd k, and is (p-1) p^2 chi(-d_1 d_2)
    at k = 2 and (p-1) p^3 for F = 0.  At rank 2, adj F = mu w w^T with w
    spanning ker F, mu in the square class of d_1 d_2; at rank 1 adj F = 0.
    So N = p + (p-1) sum c(F), and n1 = (N - 1) / (p - 1).

    c also tells the ranks apart: it is p at F = 0, 0 at rank 1 and +-1 at
    rank 2, where adj F = mu w w^T has a nonzero diagonal entry mu w_i^2.
    So a member has rank 1 where F != 0 and -diag(adj F) is all zero.

    _label reads the resolvent's type off these counts.  A nonzero
    binary cubic has at most 3 zeros on P^1, and p + 1 >= 4, so the
    resolvent is 0 mod p exactly where roots = p + 1.  There a zero member,
    xA + yB = 0 with (x, y) != 0, is a dependence of A and B, and a
    dependence gives one: kind 0 where zeros > 0, kind 1 where not.  A
    nonzero resolvent has a triple root exactly where its Hessian vanishes
    (kind 3; at p = 3 a vanishing Hessian leaves r1 = r2 = 0, and
    r0 x^3 + r3 y^3 is a cube).  Otherwise it has a double root exactly
    where roots = 2 (kind 4): Frobenius fixes the one double root and its
    one simple partner, so both are rational, while a cubic with three
    distinct roots has 0, 1 or 3 rational ones, as dividing out two
    rational linear factors leaves a rational third; this holds at p = 3
    too.  The remaining rows, three distinct roots, are kind 2.  On the
    common-kernel pencils the rank-1 members are the zeros of the binary
    determinant form, where adj F = 0: 2 where it splits (B11), 0 where it
    does not (B2); its one zero on O_Cs needs no split, as n1 = p + 1
    tells O_Cs apart.

    One pass per member: [1:0] is a root where r0 = 0, [x:1] where p
    divides the Horner sum ((r0 x + r1) x + r2) x + r3, below p^4, by
    ffcore.divisible's multiply-by-inverse test, with no division.  Only the
    rows it hits are gathered, from A and from B where B has rows (one form
    B is used as it is), to form F and the diagonal of adj F, whose
    nonzero entries share one square class, so chi(-delta) is the
    bitwise OR of the three chi(-adj_ii) (int8: all 1, or all -1, where not
    0); F = 0 where the OR of its six residues is 0.  Each pass adds c to n1
    and 1 + b [c = 0] + b^2 [c = p] to one tally in base b = p + 2 (no
    count passes p + 1), split into roots, rank1 and zeros once after the
    loop.

    Widths: F and the -adj_ii in int16 while p^2 < 2^15 (p <= 181), as
    x A + y B is below p (p - 1) and |f_i^2 - f_j f_k| below p^2, else
    int64; n1 (at most p^2 + p + 1) and the tally (below b^3) in int32
    while b^3 < 2^31 (p <= 1288), else int64."""
    chi = legendre_table(p)
    r0, r1, r2, r3 = r
    base = p + 2
    # n1 <= p^2 + p + 1 and the tally < base^3
    count = np.int32 if base ** 3 < 2 ** 31 else np.int64
    # x A + y B < p (p - 1) and |f_i^2 - f_j f_k| < p^2
    work = np.int16 if p * p < 2 ** 15 else np.int64
    n1 = np.ones(len(A), dtype=count)
    tally = np.zeros(len(A), dtype=count)
    for x, y in [(1, 0)] + [(x, 1) for x in range(p)]:
        hit = np.flatnonzero(r0 == 0 if y == 0 else
                             divisible(((r0 * x + r1) * x + r2) * x + r3, p))
        f0, f1, f2, f3, f4, f5 = mod(x * A[hit].astype(work, copy=False)
                                     + y * (B if B.ndim == 1 else B[hit]), p).T
        c = (chi[mod(f3 * f3 - f0 * f1, p)] | chi[mod(f4 * f4 - f0 * f2, p)]
             | chi[mod(f5 * f5 - f1 * f2, p)]).astype(count)
        c[(f0 | f1 | f2 | f3 | f4 | f5) == 0] = p
        n1[hit] += c
        tally[hit] += np.where(c == p, base * base + 1,
                               np.where(c == 0, base + 1, 1)).astype(count)
    zeros = tally // (base * base)
    return n1, zeros, mod(tally // base, base), mod(tally, base)


def _check_pair_space(space, p):
    if space is not QUARTIC:
        raise ValueError("orbits and their labels are for the pair space")
    if space.is_bad_prime(p):
        raise ValueError(f"p={p} excluded (bad prime)")


# the resolvent's type, the first half of a signature
KINDS = ("one-form pencil", "two-form pencil", "nonsingular", "triple root",
         "double root")


def signature_table(p):
    """(kind, n1) -> label at the odd prime p, or the pair of labels that
    one more count of pencil_counts decides between; kind indexes KINDS."""
    return {
        (0, 1): "O_D2", (0, p + 1): "O_D1^2", (0, 2 * p + 1): "O_D11",
        (1, 1): ("O_B11", "O_B2"), (1, p + 1): "O_Cs", (1, p + 2): "O_Cns",
        (2, 0): ("O_22", "O_4"), (2, 1): "O_13", (2, 2): "O_112",
        (2, 4): "O_1111",
        (3, 1): "O_1^4", (3, 2): "O_1^31", (3, p + 1): "O_Dns",
        (4, 0): "O_2^2", (4, 1): "O_1^22", (4, 2): "O_1^21^2",
        (4, 3): "O_1^211",
    }


def _incomplete(p, kind, n1, A, B, i, why):
    """The gap at the row (A, B) i, B rows or one form as _label takes it."""
    return ClassifierIncompleteError(
        f"p={p}: signature ({KINDS[kind]}, n1={n1}) {why} at "
        f"{(*A[i].tolist(), *np.broadcast_to(B, A.shape)[i].tolist())}")


def classify_batch(space, coords, p):
    """Label codes (index into LABELS) for an (n, 12) integer array: the
    rows are reduced once, into int16 residues while p < 2^15, and their
    resolvent is formed from those in int32 while p <= 216 (_reduce); then
    _label labels them."""
    _check_pair_space(space, p)
    return _label(*_reduce(coords, p), p)


def _label(A, B, r, p):
    """Label codes (index into LABELS) for the rows (A, B) as pencil_counts
    takes them, B (n, 6) forms or one (6,) form beside every row of A, with
    r their resolvent's coefficients: each nonzero state's signature
    (kind, n1) looked up in signature_table, with kind read off
    pencil_counts and the resolvent's Hessian (the proofs are in
    pencil_counts' docstring).  pencil_counts works on the residues in
    int16 while p <= 181 and counts in int32 while p <= 1288, each falling
    back to int64 past its bound.  The zero rows are those whose every
    pencil member is zero."""
    r0, r1, r2, r3 = r
    triple = ((mod(r1 * r1 - 3 * r0 * r2, p) == 0)
              & (mod(r1 * r2 - 9 * r0 * r3, p) == 0)
              & (mod(r2 * r2 - 3 * r1 * r3, p) == 0))
    n1, zeros, rank1, roots = pencil_counts(A, B, r, p)
    kind = np.where(roots == p + 1, np.where(zeros > 0, 0, 1),
                    np.where(triple, 3, np.where(roots == 2, 4, 2)))
    width = p * p + p + 2                       # n1 <= p^2 + p + 1
    sig = kind * width + n1
    # one label per signature, -1 where there is none; the two-label
    # signatures are split by one more count, and its value on each label
    table = signature_table(p)
    lut = np.full(len(KINDS) * width, -1, dtype=np.int8)
    for (k, m), name in table.items():
        if isinstance(name, str):
            lut[k * width + m] = LABELS.index(name)
    out = lut[sig]
    splits = {(1, 1): (rank1, (2, 0)), (2, 0): (roots, (3, 1))}
    for (k, m), (count, values) in splits.items():
        rows = np.flatnonzero(sig == k * width + m)
        v = count[rows]
        out[rows] = np.where(v == values[0], *map(LABELS.index, table[k, m]))
        odd = np.flatnonzero(~np.isin(v, values))
        if odd.size:
            raise _incomplete(p, k, m, A, B, rows[odd[0]],
                              f"splits to {v[odd[0]]}")
    # every member of P^1 is zero exactly where A = B = 0
    out[zeros == p + 1] = LABELS.index("O_0")
    if (out < 0).any():
        i = int(np.flatnonzero(out < 0)[0])
        raise _incomplete(p, kind[i], n1[i], A, B, i, "is not in the table")
    return out


def _reduce(coords, p):
    """classify_batch's inputs to _label: (A, B, r), A and B the two
    halves of the rows of coords reduced mod p, int16 while p < 2^15 (else
    int64); r the coefficients of their resolvent, formed from the
    residues (int32 while p <= 216, spaces.resolvent_dtype) and reduced
    mod p in disc_dtype(p - 1), which holds pencil_counts' Horner sums,
    below p^4 <= 54 (p - 1)^4."""
    C = ffcore.residues(coords, p, np.int16 if p < 2 ** 15 else np.int64)
    dtype = disc_dtype(p - 1)
    return C[:, :6], C[:, 6:], tuple(mod(c, p).astype(dtype, copy=False)
                                     for c in resolvent_cubic(C))
