"""Command-line front end.

Exit codes: 0 = pass, 1 = mathematical mismatch, 2 = configuration error,
3 = resource limit.  Configuration is validated before any heavy work, and
a given invocation always produces byte-identical output (headers carry the
package version and the full effective config, never timestamps).
"""

import argparse
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__, experiments, ffcore, fourier, orbits, sieve
from .ffcore import ResourceLimitError
from .spaces import QUARTIC, BadPrimeError, MismatchError, space_by_name

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _parse(convert, text, what):
    """convert(text), a malformed value being a configuration error."""
    try:
        return convert(text)
    except (ValueError, ArithmeticError) as e:
        raise ConfigError(f"bad {what} {text!r}: {e}") from None


# The largest value --primes and --prime may name, far above every kernel's
# reach (cubic per class p <= 401, quartic p <= 19, orbits p <= 19): checked
# before the one sieve of the parse, whose mask it keeps within 64 KB.
PRIME_ARG_MAX = 2 ** 16


def _parse_primes(text, space):
    """'5,7,11' (strict: a bad prime is a config error) or '3..23'
    (range: the space's bad primes are skipped, since the closed forms
    claim nothing there).  Both forms read one sieve, up to the list's
    largest value or the range's end; past PRIME_ARG_MAX that is a
    resource limit, refused before the sieve."""
    text = text.strip()
    if ".." in text:
        lo, hi = (_parse(int, t, "prime") for t in text.split("..", 1))
        if lo > hi:
            raise ConfigError(f"empty prime range {text!r}")
        asked = None
    else:
        asked = [_parse(int, tok, "prime") for tok in text.split(",")
                 if tok.strip()]
        hi = max(asked, default=0)
    if hi > PRIME_ARG_MAX:
        raise ResourceLimitError(
            f"p = {hi} is past {PRIME_ARG_MAX}, beyond every kernel")
    primes = sieve.primes_upto(hi).tolist()
    if asked is None:
        skipped = [n for n in primes if n >= lo and space.is_bad_prime(n)]
        ps = [n for n in primes if n >= lo and not space.is_bad_prime(n)]
    else:
        known = set(primes)
        for n in asked:
            if n not in known:
                raise ConfigError(f"{n} is not prime")
            if space.is_bad_prime(n):
                raise ConfigError(
                    f"p = {n} is a bad prime for the {space.space_id} space")
        ps, skipped = asked, []
    if not ps:
        raise ConfigError(f"no usable primes in {text!r}")
    return ps, skipped


def _header(cmd, cfg):
    parts = " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return f"# pvsieve v{__version__} cmd={cmd} {parts}"


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ft_verify(args):
    space = _parse(space_by_name, args.space, "space")
    primes, skipped = _parse_primes(args.primes, space)
    kernel = fourier.space_kernel(space)
    if args.mode == "exhaustive" and kernel.exhaustive is None:
        raise ConfigError(
            f"exhaustive mode has no kernel for the {space.space_id} space")
    # resource preflight before any kernel starts
    for p in primes:
        kernel.check(p)
        if args.mode == "exhaustive":
            ffcore.ntt_modulus(p, space.r)
    cond = fourier.LocalCondition(space.space_id)
    cfg = {"space": args.space, "primes": ",".join(map(str, primes)),
           "skipped_bad": ",".join(map(str, skipped)) or "none",
           "mode": args.mode, "cache": False}
    lines = [_header("ft-verify", cfg)]
    mismatches = []
    for p in primes:
        closed = fourier.fourier_table_closed_form(cond, p)
        brute = fourier.fourier_table_bruteforce(cond, p)
        for name, want in closed.values.items():
            got = brute.values[name]
            ok = got == want
            lines.append(f"{p}\t{name}\t{want}\t{got}\t"
                         f"{'ok' if ok else 'MISMATCH'}")
            if not ok:
                mismatches.append((p, name, want, got))
        if args.mode == "exhaustive":
            nums, den = kernel.exhaustive(cond, p)
            vals = list(closed.values.values())
            num = np.array([v.numerator for v in vals], dtype=np.int64)
            dnm = np.array([v.denominator for v in vals], dtype=np.int64)
            # graded in chunks of targets whose (n, r) coordinate rows hold
            # at most ffcore.CELL_BUDGET cells, so no other array as long as
            # nums is formed; nums / den == num / dnm per target, as exact
            # cross products
            step, bad = max(1, ffcore.CELL_BUDGET // space.r), 0
            for s in range(0, len(nums), step):
                e = min(s + step, len(nums))
                cls = fourier.target_classes(space, orbits.decode_states(
                    np.arange(s, e, dtype=np.int64), p, r=space.r), p)
                bad += int(np.count_nonzero(
                    nums[s:e] * dnm[cls] != num[cls] * den))
            lines.append(f"{p}\texhaustive\t{len(nums)}\t{bad}\t"
                         f"{'ok' if bad == 0 else 'MISMATCH'}")
            if bad:
                mismatches.append((p, "exhaustive", bad, "targets differ"))
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            closed.to_file(os.path.join(
                args.out_dir, f"ft-closed-{space.space_id}-p{p}.tsv"))
            brute.to_file(os.path.join(
                args.out_dir, f"ft-brute-{space.space_id}-p{p}.tsv"))
    _emit(lines, args.out)
    if mismatches:
        for p, name, want, got in mismatches:
            suspects = kernel.suspects(p)
            print(f"MISMATCH p={p} class={name}: closed={want} brute={got}"
                  + (f" ({suspects} is at fault)" if suspects else ""),
                  file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_PASS


def cmd_orbits(args):
    space = _parse(space_by_name, args.space, "space")
    if space is not QUARTIC:
        raise ConfigError("the orbit table is for the quartic space")
    _parse_primes(str(args.prime), space)      # an odd prime, or ConfigError
    table = orbits.decompose_orbits(space, args.prime)
    cfg = {"space": args.space, "prime": args.prime}
    lines = [_header("orbits", cfg),
             "# label\tdim\tfc\tcardinality\trep"]
    for name in orbits.LABELS:
        size, rep = table[name]
        dim = orbits.LABEL_DIM[name]
        lines.append(f"{name}\t{dim}\t{fourier.FC_BY_DIM[dim]}\t{size}\t"
                     f"{','.join(map(str, rep))}")
    lines.append(f"# total\t{sum(sz for sz, _ in table.values())}")
    _emit(lines, args.out)
    return EXIT_PASS


def cmd_exponents(args):
    space = _parse(space_by_name, args.space, "space")
    if space is not QUARTIC:
        raise ConfigError("the exponent table is for the quartic space")
    rows, alpha_max, bottleneck = sieve.exponent_table(space)
    cfg = {"space": args.space}
    lines = [_header("exponents", cfg),
             "# j\tterm\talpha_cap"]
    for r in rows:
        if r.x_exponent == 0:
            term = f"N^{r.n_exponent}"
        else:
            term = f"X^{{{r.x_exponent}}} N^{r.n_exponent}"
        lines.append(f"{r.j}\t{term}\t{r.alpha_cap}")
    lines.append(f"# alpha_max\t{alpha_max}\tbottleneck_j\t{bottleneck}")
    _emit(lines, args.out)
    return EXIT_PASS


def cmd_sieve_t(args):
    alpha = _parse(Fraction, args.alpha, "alpha")
    if alpha <= 0:
        raise ConfigError("alpha must be positive")
    constant = None
    if args.constant == "greaves":
        constant = sieve.GREAVES_CONSTANT
    elif args.constant:
        constant = _parse(Fraction, args.constant, "constant")
    t = sieve.weighted_sieve_t(alpha, constant=constant)
    cfg = {"alpha": alpha, "constant": args.constant or "log4/log3"}
    _emit([_header("sieve-t", cfg), f"t\t{t}"], args.out)
    return EXIT_PASS


def cmd_lod(args):
    X_grid = tuple(_parse(lambda t: int(float(t)), tok, "X")
                   for tok in args.X.split(","))
    if not X_grid or any(x < 100 for x in X_grid):
        raise ConfigError("X grid must hold values >= 100")
    if not args.X_cap > 0:
        raise ConfigError(f"X cap must be positive, not {args.X_cap}")
    if max(X_grid) > args.X_cap:
        raise ResourceLimitError(
            f"X={max(X_grid)} beyond the configured cap {args.X_cap}")
    if not 0 <= args.alpha < 1:
        raise ConfigError("alpha must lie in [0, 1)")
    if (not math.isfinite(args.s)
            or experiments.box_radius(min(X_grid), args.s) < 0):
        raise ConfigError(f"need a finite s whose box at X={min(X_grid)} "
                          f"is nonempty, not {args.s}")
    cfg_obj = experiments.LodConfig(X_grid=X_grid, alpha=args.alpha,
                                    s=args.s)
    rep = experiments.lod_error_sum(cfg_obj)
    cfg = {"X": ",".join(map(str, X_grid)), "alpha": args.alpha,
           "s": args.s, "X_cap": args.X_cap}
    lines = [_header("lod", cfg)]
    if rep.fitted_c is not None:
        lines.append(f"# fitted_c\t{rep.fitted_c:.6f}")
        lines.append(
            f"# residuals\t{','.join(f'{r:.3e}' for r in rep.residuals)}")
    lines.append("# X\tn_q\tdisc0_mass\tcum_abs_E\tcum_over_X")
    for X, n_q, w0, cum, ratio in rep.per_X:
        lines.append(f"{X}\t{n_q}\t{w0:.10e}\t{cum:.10e}\t{ratio:.10e}")
    lines.append("# q\tlattice\tmain\tE   (largest X)")
    for q, lat, mn, err in rep.q_rows:
        lines.append(f"{q}\t{lat:.10e}\t{mn:.10e}\t{err:.10e}")
    _emit(lines, args.out)
    return EXIT_PASS


def cmd_dual_bound(args):
    space = _parse(space_by_name, args.space, "space")
    if args.N < 1 or args.Z < 0:
        raise ConfigError("need N >= 1 and Z >= 0")
    rep = experiments.dual_bound_sum(args.N, args.Z, space)
    cfg = {"space": args.space, "N": args.N, "Z": args.Z}
    lines = [_header("dual-bound", cfg),
             f"n_q\t{rep.n_q}",
             f"n_points\t{rep.n_points}",
             f"total\t{rep.total}",
             f"disc0_part\t{rep.disc0_part}",
             f"nonzero_part\t{rep.nonzero_part}",
             f"qsplit_checked\t{rep.qsplit_checked}"]
    ok = True
    if rep.majorant is not None:
        maj0, maj1 = rep.majorant
        ok = rep.disc0_part <= maj0 and rep.nonzero_part <= maj1
        lines.append(f"majorant_disc0\t{maj0}")
        lines.append(f"majorant_nonzero\t{maj1}")
        lines.append(f"majorant_holds\t{ok}")
    _emit(lines, args.out)
    return EXIT_PASS if ok else EXIT_MISMATCH


def cmd_geosieve(args):
    if args.sweep:
        given = [f"--{k}" for k in ("lam", "m", "window", "scheme")
                 if getattr(args, k) is not None]
        if given:
            raise ConfigError(f"--sweep runs the fixed ladder and takes no "
                              f"{', '.join(given)}")
        reports, slope = experiments.geo_sweep()
        cfg = {"sweep": True,
               "grid": ";".join(f"{l},{m}" for l, m in experiments.GEO_GRID)}
        lines = [_header("geosieve", cfg),
                 "# lam\tm\tP\t2P\tn_primes\tcount\tbound\tratio"]
        for r in reports:
            P, P2 = r.query.prime_window()
            lines.append(f"{r.query.lam}\t{r.query.m}\t{P}\t{P2}\t"
                         f"{r.n_primes}\t{r.count}\t{r.bound_shape:.6e}\t"
                         f"{r.ratio:.6f}")
        witness = reports[0].ratio
        exceeded = [r.query.lam for r in reports[1:] if r.ratio > witness]
        lines.append(f"# fitted_exponent\t{slope:.4f}")
        lines.append(f"# witness_ratio\t{witness:.6f}\texceeded_at\t"
                     f"{','.join(map(str, exceeded)) or 'none'}")
        _emit(lines, args.out)
        return EXIT_PASS if not exceeded else EXIT_MISMATCH
    lam = 20 if args.lam is None else args.lam
    m = 1 if args.m is None else args.m
    scheme = args.scheme or "disc0"
    if lam < 1 or m < 1:
        raise ConfigError("need lam >= 1 and m >= 1")
    window = tuple(args.window) if args.window else None
    query = experiments.GeoSieveQuery(lam=lam, m=m, window=window,
                                      scheme=scheme)
    P, P2 = query.prime_window()
    if P < 2 or P2 < P:
        raise ConfigError(f"bad prime window [{P}, {P2}]")
    rep = experiments.geo_pair_count(query)
    cfg = {"lam": lam, "m": m, "window": f"{P},{P2}",
           "scheme": scheme, "a": experiments.GEO_CODIM[scheme]}
    lines = [_header("geosieve", cfg),
             f"count\t{rep.count}",
             f"n_primes\t{rep.n_primes}",
             f"bound\t{rep.bound_shape:.6e}",
             f"ratio\t{rep.ratio:.6f}"]
    _emit(lines, args.out)
    return EXIT_PASS


def cmd_reducible(args):
    Y_grid = tuple(_parse(int, tok, "Y") for tok in args.Y.split(","))
    if any(y < 0 for y in Y_grid) or not Y_grid:
        raise ConfigError("Y grid must hold nonnegative integers")
    if args.Y_cap < 0:
        raise ConfigError(f"Y cap must be nonnegative, not {args.Y_cap}")
    if max(Y_grid) > args.Y_cap:
        raise ResourceLimitError(
            f"Y={max(Y_grid)} beyond the configured cap {args.Y_cap}")
    counts, slope, resid = experiments.reducible_exponent(Y_grid)
    cfg = {"Y": ",".join(map(str, Y_grid)), "Y_cap": args.Y_cap}
    lines = [_header("reducible", cfg), "# Y\tcount"]
    for Y, c in zip(Y_grid, counts):
        lines.append(f"{Y}\t{c}")
    if slope is not None:
        lines.append(f"# fitted_exponent\t{slope:.4f}")
        lines.append(f"# residuals\t{','.join(f'{r:.3e}' for r in resid)}")
    _emit(lines, args.out)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="pvsieve",
        description="finite-field transforms, orbits, and sieve-side sums "
                    "for the two spaces")
    ap.add_argument("--version", action="version",
                    version=f"pvsieve {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ft-verify", help="brute force vs closed forms")
    p.add_argument("--space", default="cubic", choices=["cubic", "quartic"])
    p.add_argument("--prime", "--primes", dest="primes", default="5,7",
                   help="'5,7' (strict) or '3..23' (skips bad primes)")
    p.add_argument("--mode", default="per-class",
                   choices=["per-class", "exhaustive"])
    p.add_argument("--out", default=None)
    p.add_argument("--out-dir", default=None,
                   help="where to drop the table files")
    p.add_argument("--no-cache", action="store_true",
                   help="accepted and ignored: nothing is cached")
    p.set_defaults(func=cmd_ft_verify)

    p = sub.add_parser("orbits", help="orbit table at a prime")
    p.add_argument("--space", default="quartic")
    p.add_argument("--prime", type=int, default=3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("exponents", help="per-stratum exponent table")
    p.add_argument("--space", default="quartic")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("sieve-t", help="almost-prime threshold")
    p.add_argument("--alpha", required=True,
                   help="level exponent, e.g. 7/48 or 0.5")
    p.add_argument("--constant", default=None,
                   help="'greaves', a fraction, or empty for log4/log3")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sieve_t)

    p = sub.add_parser("lod", help="level-of-distribution error sums")
    p.add_argument("--X", default="1e5,1e6,1e7")
    p.add_argument("--alpha", type=float, default=0.45)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--X-cap", type=float, default=1e7)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lod)

    p = sub.add_parser("dual-bound", help="exact dual-side central sum")
    p.add_argument("--space", default="cubic")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--Z", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dual_bound)

    p = sub.add_parser("geosieve", help="pair counts for the disc=0 scheme")
    p.add_argument("--lam", type=int, default=None, help="default 20")
    p.add_argument("--m", type=int, default=None, help="default 1")
    p.add_argument("--window", type=int, nargs=2, default=None)
    p.add_argument("--scheme", default=None,
                   choices=list(experiments.GEO_CODIM),
                   help="default disc0")
    p.add_argument("--sweep", action="store_true",
                   help="run the standard (lam, m) ladder; takes none of "
                        "the four flags above")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_geosieve)

    p = sub.add_parser("reducible", help="disc = 0 counts over a Y grid")
    p.add_argument("--Y", default="25,50,100,200,400")
    p.add_argument("--Y-cap", type=int, default=2000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reducible)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, BadPrimeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as e:          # numpy's _ArrayMemoryError included
        print(f"resource limit: allocation failed: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MismatchError, orbits.ClassifierIncompleteError,
            ffcore.NonInvariantSupportError) as e:
        # a checked identity failed: the classifier's table, or the
        # dilation invariance behind the exact transform
        print(f"MISMATCH {e}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
