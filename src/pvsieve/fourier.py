"""Fourier transforms of the discriminant-divisibility indicator.

For the local condition Psi_p = 1{p | disc(x)} on V(F_p), the normalized
transform is

    FT(y) = p^{-r} * sum_{x: p | disc x} e(<x, y> / p),

an exact rational because the support is invariant under scalar dilation
(the exponential sums collapse to (n_0 - n_1)/p^r, Ramanujan style).

Closed forms, verified exhaustively against brute force and kept as one
table, CLOSED_FORMS (space -> class -> (coefficient, exponent) pairs),
from which FC_BY_DIM, the pair space's decay exponents behind 7/48, is read:

cubic space (p != 3), graded by the target y:
    y = 0                : p^-1 + p^-2 - p^-3
    disc(y) = 0, y != 0  : p^-2 - p^-3
    disc(y) != 0         : -p^-3

pair space (p != 2), graded by the orbit label of y:
    O_0      : p^-1 + 2p^-2 - p^-3 - 2p^-4 - p^-5 + 2p^-6 + p^-7 - p^-8
    O_D1^2   : p^-3 - p^-4 - 2p^-5 + 2p^-6 + p^-7 - p^-8
    O_D11    : 2p^-4 - 5p^-5 + 3p^-6 + p^-7 - p^-8
    O_Cs     : p^-4 - 3p^-5 + 2p^-6 + p^-7 - p^-8
    dim 8    : -p^-5 + p^-6 + p^-7 - p^-8       (D2, Dns, Cns, B11, B2)
    O_1^21^2 : -p^-6 + 2p^-7 - p^-8
    O_2^2    : p^-6 - p^-8
    O_1^4, O_1^31, O_1^211, O_1^22 : p^-7 - p^-8
    dim 12   : -p^-8                            (the five nonsingular)

There is also a dual-side table for the cubic space: with the plain dot
product x.k as character argument (k the preimage coordinates of the dual
lattice), the grading polynomial is dstar(k) = disc(rho(k))/27, which stays
meaningful mod 3; the same three values apply at every p including 3.

At a squarefree modulus q on V(Z) the transform is the product of these
per-prime values over the primes of q that do not divide m
(experiments.dual_bound_sum multiplies them out).
"""

import functools
import hashlib
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ffcore, orbits
from .ffcore import mod
from .spaces import (CUBIC, QUARTIC, BadPrimeError, disc_cubic, disc_dtype,
                     disc_mod, dual_disc_cubic, pairing_weights_mod,
                     space_by_name)


class InvalidLabelError(ValueError):
    pass


@dataclass(frozen=True)
class LocalCondition:
    """Indicator of p | disc(x) for each prime p."""
    space_id: str

    @property
    def space(self):
        return space_by_name(self.space_id)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

_DIM8 = ((-1, 5), (1, 6), (1, 7), (-1, 8))
_LINEAR = ((1, 7), (-1, 8))

# space -> class -> ((coefficient, exponent), ...), the value being
# sum coefficient * p^-exponent; the first class of each space is y = 0,
# and the quartic classes run in orbits.LABELS order.
CLOSED_FORMS = {
    "cubic": {
        "pV": ((1, 1), (1, 2), (-1, 3)),
        "disc0": ((1, 2), (-1, 3)),
        "nonsing": ((-1, 3),),
    },
    "quartic": {
        "O_0": ((1, 1), (2, 2), (-1, 3), (-2, 4), (-1, 5), (2, 6), (1, 7),
                (-1, 8)),
        "O_D1^2": ((1, 3), (-1, 4), (-2, 5), (2, 6), (1, 7), (-1, 8)),
        "O_D11": ((2, 4), (-5, 5), (3, 6), (1, 7), (-1, 8)),
        "O_Cs": ((1, 4), (-3, 5), (2, 6), (1, 7), (-1, 8)),
        **dict.fromkeys(orbits.U_GROUPS[8], _DIM8),
        "O_1^4": _LINEAR, "O_1^31": _LINEAR,
        "O_1^21^2": ((-1, 6), (2, 7), (-1, 8)),
        "O_2^2": ((1, 6), (-1, 8)),
        "O_1^211": _LINEAR, "O_1^22": _LINEAR,
        **dict.fromkeys(orbits.NONSINGULAR_LABELS, ((-1, 8),)),
    },
}

# the decay exponent fc of each pair-space orbit dimension j, |FT| <= 2 p^fc
# on U_GROUPS[j]: the slowest leading exponent -min e over the group's lines
FC_BY_DIM = {j: max(-min(e for _, e in CLOSED_FORMS["quartic"][n])
                    for n in names)
             for j, names in orbits.U_GROUPS.items()}


def _lines(space):
    """The closed-form table of one space: class -> (coefficient, exponent)
    pairs."""
    return CLOSED_FORMS[space.space_id]


def _poly(p, *pairs):
    """sum of c * p^-e for (c, e) pairs, exact."""
    return sum(Fraction(c, p ** e) for c, e in pairs)


def ft_closed_form(cond, p, label):
    """The closed-form transform at a prime for a target class (cubic) or
    orbit label (quartic).  Bad primes are refused."""
    space = cond.space
    if space.is_bad_prime(p):
        raise BadPrimeError(f"p={p} is a bad prime for {space.space_id}")
    try:
        return _poly(p, *_lines(space)[label])
    except KeyError:
        raise InvalidLabelError(
            f"unknown {space.space_id} class {label!r}") from None


def omega(space, p):
    """Psi-hat_p(0) = density of p | disc, exact.

    Unlike the graded tables, the zero-target value stays correct at the
    bad prime: the count #{x in V(F_3): 3 | disc x} = 33 gives
    33/81 = 11/27 for the cubic space, which is what its line evaluates to.
    """
    return _poly(p, *next(iter(_lines(space).values())))


def cubic_class_batch(coords, p):
    """Index into the cubic CLOSED_FORMS lines per row: 0 y = 0,
    1 disc(y) = 0 and y != 0, 2 nonsingular.  The rows are reduced once,
    column by column, into disc_dtype(p - 1), and disc_cubic reads those
    columns."""
    K = ffcore.residues(coords, p, disc_dtype(p - 1), order="F")
    return _three_classes(K, mod(disc_cubic(*K.T), p))


def _three_classes(K, grading):
    """The three classes from the grading and the rows K, reduced mod p
    (so a row is zero where the OR of its entries is)."""
    cls = np.where(grading == 0, 1, 2).astype(np.int8)
    cls[functools.reduce(np.bitwise_or, K.T) == 0] = 0
    return cls


# The most a-fibres p^3 the cubic per-class kernel may visit: 401^3 passes,
# 409^3 does not.  Its memory grows as p^2 (one slab of fibres at a time),
# its work as p^3: p = 401 takes about 6 s and 54 MB in a fresh process on
# 2 vCPUs.
CUBIC_FIBRES = 2 ** 26


def _check_fibres(p):
    """Refuse a cubic per-class sweep of p^3 a-fibres past CUBIC_FIBRES."""
    if p ** 3 > CUBIC_FIBRES:
        raise ffcore.ResourceLimitError(
            f"p={p}: {p ** 3} a-fibres exceed the per-class budget")


SpaceKernel = namedtuple("SpaceKernel",
                         "classes cost histograms check suspects exhaustive")


def space_kernel(space):
    """A space's transform machinery, chosen here and only here: classes
    (Y, p) -> each row's index into the space's CLOSED_FORMS lines; cost
    p -> the price in steps of grading one row, which dual-bound's budget
    charges; histograms (cond, p, targets) -> brute-force pairing
    histograms; check p, which refuses a prime past their cap;
    suspects p -> what a mismatch at p implicates (text or None); and
    exhaustive (cond, p) -> (numerators, denominator) at every target in
    code order, or None.  The kernels are looked up at each call.

    Cubic: cubic_class_batch (about eight steps), ft_histograms (the roots
    on the p^3 a-fibres serving every target, listed one slab of
    ffcore.CELL_BUDGET fibres at a time, so that memory grows as p^2),
    priced in fibres: p^3 <= CUBIC_FIBRES, so p <= 401; the character sums
    of ffcore over the same roots scattered slab by slab into one p^4 mask
    (p <= 59), whose p^4 targets cli.cmd_ft_verify grades in chunks of the
    same cell budget.
    Quartic: the labels of orbits.classify_batch, which makes p + 1 integer
    passes over the rows, one per member of the pencil on P^1
    (orbits.pencil_counts), priced at 200 + 1.2 (p + 1) steps: the upper
    envelope, 194 + 1.13 (p + 1), of 52 single-call timings of 265 720 rows
    in fresh processes at p = 5 to 457, rounded up;
    ft_fibered_histograms (p <= 13), over the classes and frames of
    orbits.form_frames, its fibres over the canonical forms gathered from
    that mask at the resolvents of orbits.canonical_resolvents, exact as
    disc(cx) = c^12 disc(x) makes the support jointly dilation-invariant,
    at targets whose labels, past p = 5, no exhaustive BFS has checked (the
    tests run one at p = 3, and the frozen p = 5 table came from one)."""
    if space is CUBIC:
        return SpaceKernel(cubic_class_batch, lambda p: 8, ft_histograms,
                           _check_fibres, lambda p: None,
                           ft_bruteforce_exhaustive_cubic)
    return SpaceKernel(
        lambda Y, p: orbits.classify_batch(space, Y, p),
        lambda p: 200 + 1.2 * (p + 1), ft_fibered_histograms,
        lambda p: ffcore.ntt_modulus(p, space.r // 2),
        lambda p: "the closed form or the classifier" if p > 5 else None,
        None)


def target_classes(space, Y, p):
    """CLOSED_FORMS class index of each row of the (n, r) array Y at p."""
    return space_kernel(space).classes(Y, p)


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

def _cubic_support(p):
    """The support {p | disc x} of V(F_p), one slab of consecutive d at a
    time: per slab, (d, a, f), with d the slab's values of d and, for each
    of its states (a, b, c, d), a and the fibre code f = b + c p + d p^2 (so
    the state code, in decode_states' order, is a + p f).  A slab holds
    ffcore.CELL_BUDGET // p^2 values of d (at least one), so each of its
    temporaries has at most max(CELL_BUDGET, p^2) cells; they are freed
    before the slab is yielded (_support_slab).  The states are found by
    counting the roots of disc on each a-fibre (b, c, d) of F_p^3 (the
    geometric sieve's root count, over F_p).  On a fibre
    disc = alpha a^2 + beta a + gamma, with alpha = -27 d^2,
    beta = 18bcd - 4c^3 and gamma = b^2 c^2 - 4b^3 d, whose discriminant in
    a is 16 h^3, h = c^2 - 3bd:
    - p >= 5, p not dividing d: a = (-beta +- 4 h s) / (2 alpha), s^2 = h:
      two roots when h is a nonzero square, one when p | h, none otherwise;
    - p | d: disc = c^2 (b^2 - 4ac): the one root b^2 / (4c) when p does not
      divide c, every a when it does (p fibres, listed as their p^2 states);
      these lie on the plane d = 0, listed with the first slab;
    - p = 2, 3: 2 alpha = 0 mod p, so disc_mod scans the slab's states.
    The square roots of all residues and the inverses are taken once."""
    t = np.arange(p, dtype=np.int64)
    if p >= 5:
        inv = ffcore.inverses(p)
        sq = ffcore.sqrt_mod(t, p)                 # -1: not a square
    n_d = max(1, ffcore.CELL_BUDGET // (p * p))
    for d0 in range(0, p, n_d):
        d = t[d0:d0 + n_d]
        if p >= 5:
            yield d, *_support_slab(p, d, inv, sq)
            continue
        x = np.arange(d0 * p ** 3, (d0 + d.size) * p ** 3)
        x = x[disc_mod(CUBIC, orbits.decode_states(x, p, r=4), p) == 0]
        yield d, mod(x, p), x // p


def _support_slab(p, d, inv, sq):
    """(a, f) of _cubic_support on the fibres with d in the slab d, p >= 5;
    inv and sq are the inverses and square roots (-1: none) of the residues
    mod p.  The fibre arrays are indexed [d, c, b], so f is d[0] p^2 plus
    their flat index."""
    t = np.arange(p, dtype=np.int64)
    c, b, d = t[:, None], t, d[:, None, None]
    beta = 18 * b * c * d - 4 * c ** 3      # below 22 p^3, reduced in use
    h = mod(c * c - 3 * b * d, p)
    s = sq[h]
    on = [np.flatnonzero((d != 0) & (s >= 0)),     # a first root
          np.flatnonzero((d != 0) & (s > 0))]      # and a second
    v = h                                   # v = 4 h s, in h's place
    v *= s
    v *= 4
    del s
    k = mod(pow(-54, -1, p) * inv[d] ** 2, p)  # 1 / (2 alpha)
    # the roots (v - beta) k and -(v + beta) k, formed in place
    first = v - beta
    first *= k
    v += beta
    v *= k
    del beta
    roots = [mod(first.ravel()[on[0]], p), mod(-v.ravel()[on[1]], p)]
    del first, v, h
    if d[0, 0, 0] == 0:                    # the plane d = 0
        c1 = t[1:, None]                   # c != 0
        on += [(b + c1 * p).ravel(), np.tile(t, p)]
        roots += [mod(b * b * inv[c1] * inv[4], p).ravel(),
                  np.repeat(t, p)]
    return np.concatenate(roots), np.concatenate(on) + d[0, 0, 0] * p * p


def _cubic_mask(p):
    """The support {p | disc x} of V(F_p) as a p^4 boolean mask in
    state-code order: the codes a + p f of _cubic_support, scattered slab by
    slab."""
    mask = np.zeros(p ** 4, dtype=bool)
    for _, a, f in _cubic_support(p):
        mask[a + p * f] = True
    return mask


def _pair_fibres(p):
    """(cls, fibres) over the p^6 forms A in code order, from one pass of
    orbits.form_chunks: cls the class of each form (orbits.form_frames),
    and for each canonical form D_c (orbits.canonical_forms) the fibre
    {A : (A, D_c) in supp} of the pair space as a boolean mask.

    disc(A, B) is the disc of the resolvent cubic 4 det(Ax + By), so each
    fibre is one gather from _cubic_mask at the code of the resolvent's
    coefficients mod p, orbits.canonical_resolvents, taken a chunk of
    forms at a time.  Those come in int16, and so does the code: it is
    below p^4 < 2^15 for p <= 13."""
    mask, n, cls = _cubic_mask(p), p ** 6, []
    fibres = [np.empty(n, dtype=bool) for _ in range(orbits.FORM_CLASSES)]
    for lo, A, c in orbits.form_chunks(p):
        cls.append(c)
        r = orbits.canonical_resolvents(A, p)
        for fibre, (r0, r1, r2, r3) in zip(fibres, r):
            fibre[lo:lo + len(A)] = mask[r0 + p * (r1 + p * (r2 + p * r3))]
    return np.concatenate(cls), fibres


def ft_histograms(cond, p, targets):
    """Pairing histograms of <x, y_j> over the cubic support {p | disc x},
    every target served by one listing of the support (_cubic_support, about
    p^3 states, one slab of d at a time).  <x, y> = w_1 y_1 a +
    <(0, b, c, d), y>, the second term taken once per fibre of the slab;
    each target's histogram adds one bincount of the unreduced pairings per
    slab, all below 4 p^2, folded mod p (its bins summed in strides of p),
    so the states are never reduced one by one.  Refused past CUBIC_FIBRES
    fibres (p > 401)."""
    space = cond.space
    if space is not CUBIC:
        raise ValueError("the per-target sweep is for the cubic space")
    w = pairing_weights_mod(space, p)          # refuses bad primes
    _check_fibres(p)
    WT = mod(mod(np.asarray(targets, dtype=np.int64).reshape(-1, space.r), p)
             * w, p)
    t = np.arange(p, dtype=np.int64)
    counts = np.zeros((len(WT), p), dtype=np.int64)
    for d, a, f in _cubic_support(p):
        f -= d[0] * p * p                      # the fibre code in the slab
        for j, (wa, wb, wc, wd) in enumerate(WT.tolist()):
            rest = wb * t + wc * t[:, None] + wd * d[:, None, None]
            bins = np.bincount(rest.ravel()[f] + wa * a, minlength=4 * p * p)
            counts[j] += bins.reshape(-1, p).sum(axis=0)
        del a, f                                # before the next slab
    return [ffcore.PairingHistogram(p, c.tolist()) for c in counts]


def ft_fibered_histograms(cond, p, targets):
    """Pairing histograms of the pair space at the targets (alpha, beta),
    fibred over B.

    The support is invariant under (A, B) -> (g A g^T, g B g^T), g in GL_3,
    and <(A, B), (alpha, beta)> = tr(A alpha) + tr(B beta).  diag(c, 1) in
    GL_2 scales disc by c^6, so each fibre {A : (A, D_c) in supp} over a
    canonical form D_c has exact character sums F_c (ffcore).  With
    B = g_B D_c g_B^T (orbits.form_frames), the support's sum at a target
    is sum_k w^k G_k, G_k the sum of F_c(g_B^T alpha g_B) over the B with
    tr(B beta) = k.  disc(cx) = c^12 disc(x) makes the support jointly
    dilation-invariant, so G_1 = ... = G_{p-1} and n_0 - n_1 = G_0 - G_1;
    n_1 follows from the support size N = sum_c |class c| |fibre c|.  The
    seven fibres come from _pair_fibres, all listed before the gathers, in
    int16, which is exact while p^4 < 2^15, with the class of every form
    from the same walk.  ffcore.ntt_modulus caps p (p <= 13) before any
    form is classed, and keeps |G_k| <= p^12 < 2^53.

    The same invariance moves each target to its alpha's class: with
    alpha = h alpha_d h^T (form_frames again), (A, B) -> (h^T A h, h^T B h)
    maps the B with tr(B beta) = k onto those with tr(B beta') = k,
    beta' = h^-1 beta h^-T, and each fibre sum at alpha onto the one at
    alpha_d, a canonical form.  So every G_k of (alpha, beta) is that of
    (alpha_d, beta'), and each class c makes one gather F_c(g_B^T alpha_d
    g_B) per class d met among the alphas (at most 7, whatever the number
    of targets); alpha_d is diagonal, so entry (i, j) of g_B^T alpha_d g_B
    is sum_k alpha_d,kk g_ki g_kj.  Each target adds one bincount of its
    beta' pairings, unreduced (below 6 p^2) and folded mod p.  Each class
    is walked orbits.ROW_BUDGET forms B at a time, each chunk decoded from
    its codes and its frames found there, and the gathers and bincounts
    summed over the chunks, so neither the coordinates nor the frames of
    the p^6 forms are held as one array."""
    space = cond.space
    if space is not QUARTIC:
        raise ValueError("the fibred kernel is for the pair space")
    w = pairing_weights_mod(space, p)          # refuses bad primes
    half = space.r // 2
    ffcore.ntt_modulus(p, half)
    T = mod(np.asarray(targets, dtype=np.int64).reshape(-1, space.r), p)
    budget = orbits.ROW_BUDGET
    canon = orbits.canonical_forms(p)
    rows, cols = zip(*orbits._SYM_INDEX)
    d_of, h = orbits.form_frames(T[:, :half], p)
    hinv = _inverse_mod(np.moveaxis(h, -1, 0).astype(np.int64), p)
    beta = T[:, half:][:, orbits._SYM_FULL].reshape(-1, 3, 3)
    beta = mod(hinv @ beta @ hinv.transpose(0, 2, 1), p)[:, rows, cols]
    # the pairings tr(B beta'), below 6 p^2, in int16
    wbeta = mod(beta * w[half:], p).astype(np.int16)
    # each entry of g_B^T alpha_d g_B, a sum of 3 products below p^3, in
    # int16 (3 p^3 < 2^15 at p <= 13), and its code, read off the upper
    # triangle, below p^6, in int32
    pow_p = p ** np.arange(half, dtype=np.int32)
    G, N = np.zeros((len(T), 6 * p * p)), 0
    cls, fibres = _pair_fibres(p)
    for c in range(len(canon)):
        # each mask is dropped once summed, before its class's gathers
        F = ffcore.character_sums(fibres.pop(0), w[:half], p)
        on = np.flatnonzero(cls == c)
        N += len(on) * F[0]           # F_c(0) = |fibre c|
        for lo in range(0, len(on), budget):
            Bc = orbits.decode_states(on[lo:lo + budget], p, r=half)
            g = orbits.form_frames(Bc, p)[1]
            gg = g[:, rows] * g[:, cols]     # g_ki g_kj, (3, 6, chunk)
            for d in sorted(set(d_of.tolist())):
                moved = np.einsum("k,kem->em", canon[d, :3], gg)
                H = np.take(F, np.einsum("e,em->m", pow_p, mod(moved, p)))
                for j in np.flatnonzero(d_of == d).tolist():
                    G[j] += np.bincount(Bc @ wbeta[j], minlength=6 * p * p,
                                        weights=H)
    G = G.reshape(len(T), -1, p).sum(axis=1)
    num = ffcore._numerators(G.astype(np.int64))
    counts = np.repeat(((N - num) // p)[:, None], p, axis=1)
    counts[:, 0] += num
    return [ffcore.PairingHistogram(p, c.tolist()) for c in counts]


def _inverse_mod(h, p):
    """The inverses mod p of the (n, 3, 3) integer matrices h, invertible
    mod p: the adjugate, whose columns are the cross products of h's rows,
    times the inverse of det h, looked up in ffcore.inverses."""
    a, b, c = h[:, 0], h[:, 1], h[:, 2]
    adj = np.stack([np.cross(b, c), np.cross(c, a), np.cross(a, b)], axis=2)
    det = mod((a * adj[:, :, 0]).sum(axis=1), p)
    return mod(adj * ffcore.inverses(p)[det][:, None, None], p)


def ft_bruteforce_multi(cond, p, targets):
    """Exact transform values at several targets from the space's
    brute-force kernel."""
    hists = space_kernel(cond.space).histograms(cond, p, targets)
    return [ffcore.ft_value_from_histogram(h, cond.space.r) for h in hists]


def ft_bruteforce_exhaustive_cubic(cond, p):
    """(numerators, p^4): exact FT numerators at every y in V(F_p), in
    state-code order, from the character sums over the support."""
    if cond.space is not CUBIC:
        raise ValueError("exhaustive mode is for the cubic space")
    w = pairing_weights_mod(CUBIC, p)
    return ffcore.character_sums(_cubic_mask(p), w, p), p ** 4


# ---------------------------------------------------------------------------
# dual-side cubic table (plain dot-product character, all p)
# ---------------------------------------------------------------------------

def dual_cubic_class_batch(kcoords, p):
    """0: k = 0; 1: dstar(k) = 0, k != 0; 2: nonsingular."""
    K = ffcore.residues(kcoords, p, disc_dtype(p - 1), order="F")
    return _three_classes(K, mod(dual_disc_cubic(K), p))


def dual_ft_value(p, cls):
    """Dual-side cubic values: the direct table's three lines, by class
    index, but valid at every p (the dstar grading absorbs the bad prime
    3)."""
    lines = tuple(_lines(CUBIC).values())
    if cls not in range(len(lines)):
        raise InvalidLabelError(f"dual class {cls!r}")
    return _poly(p, *lines[cls])


# ---------------------------------------------------------------------------
# serialized tables
# ---------------------------------------------------------------------------

TABLE_VERSION = 2      # v2 added the checksum line


@dataclass
class FourierTable:
    p: int
    space_id: str
    values: dict            # label/class -> Fraction
    source: str             # bruteforce | closed_form

    def to_file(self, path):
        """Header, one row per class, and a sha256 line over both."""
        body = (f"# fourier-table v{TABLE_VERSION} space={self.space_id} "
                "prime label num den source\n"
                + "".join(f"{self.p}\t{name}\t{v.numerator}\t{v.denominator}"
                          f"\t{self.source}\n"
                          for name, v in self.values.items()))
        digest = hashlib.sha256(body.encode()).hexdigest()
        with open(path, "w") as fh:
            fh.write(f"{body}# sha256 {digest}\n")


def fourier_table_closed_form(cond, p):
    return FourierTable(p=p, space_id=cond.space_id, source="closed_form",
                        values={n: ft_closed_form(cond, p, n)
                                for n in _lines(cond.space)})


def fourier_table_bruteforce(cond, p):
    """Brute-force table at the class/orbit representatives of
    _class_reps."""
    reps = _class_reps(cond.space, p)
    vals = ft_bruteforce_multi(cond, p, list(reps.values()))
    return FourierTable(p=p, space_id=cond.space_id, source="bruteforce",
                        values=dict(zip(reps, vals)))


def _class_reps(space, p):
    """The first state of each class of the space's CLOSED_FORMS lines, in
    code order, among the 3^r states with entries in {0, 1, nu}, nu the
    least non-residue mod p, graded by target_classes in chunks.  At p = 3
    these are all states, so each quartic one is the smallest code of its
    orbit: the decompose_orbits representative."""
    names = tuple(_lines(space))
    nu = int(np.argmax(orbits.legendre_table(p) < 0))
    entries = np.array([0, 1, nu], dtype=np.int64)
    found, n_states, chunk = {}, 3 ** space.r, 1 << 12
    for start in range(0, n_states, chunk):
        codes = np.arange(start, min(start + chunk, n_states), dtype=np.int64)
        C = entries[orbits.decode_states(codes, 3, r=space.r)]
        cls = target_classes(space, C, p)
        first = [np.flatnonzero(cls == c)[:1] for c in range(len(names))]
        for i in np.sort(np.concatenate(first)).tolist():
            found.setdefault(names[cls[i]], tuple(int(v) for v in C[i]))
        if len(found) == len(names):
            return found
    missing = [n for n in names if n not in found]
    raise orbits.ClassifierIncompleteError(
        f"p={p}: no state with entries in {{0, 1, {nu}}} has class "
        f"{', '.join(missing)}")
