"""Command-line front end.

Exit codes: 0 = pass, 1 = mathematical mismatch, 2 = configuration error,
3 = resource limit.  Configuration is validated before any heavy work, and
a given invocation always produces byte-identical output (headers carry the
package version and the full effective config, never timestamps).

Brute-force transform tables are cached under --cache-dir keyed by
(space, prime, condition, code version); a cache file whose header does not
match the current schema/version is ignored and recomputed, never reused.
"""

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__, experiments, fourier, orbits, sieve
from .spaces import (BadPrimeError, ResourceLimitError, disc_cubic,
                     space_by_name)

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _is_prime(n):
    if n < 2:
        return False
    for d in range(2, int(n ** 0.5) + 1):
        if n % d == 0:
            return False
    return True


def _parse_primes(text, space):
    """'5,7,11' (strict: a bad prime is a config error) or '3..23'
    (range: the space's bad primes are skipped, since the closed forms
    claim nothing there)."""
    text = text.strip()
    skipped = []
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if lo > hi:
            raise ConfigError(f"empty prime range {text!r}")
        ps = []
        for n in range(max(lo, 2), hi + 1):
            if not _is_prime(n):
                continue
            if n in space.bad_primes:
                skipped.append(n)
            else:
                ps.append(n)
    else:
        ps = [int(tok) for tok in text.split(",") if tok.strip()]
        for n in ps:
            if not _is_prime(n):
                raise ConfigError(f"{n} is not prime")
            if n in space.bad_primes:
                raise ConfigError(
                    f"p = {n} is a bad prime for the {space.space_id} space")
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


def _cache_dir(args):
    if args.cache_dir:
        return args.cache_dir
    return os.environ.get(
        "PVSIEVE_CACHE",
        os.path.join(os.path.expanduser("~"), ".cache", "pvsieve"))


def _cached_bruteforce(cond, p, args, reps_by_name=None):
    """Brute-force FourierTable with a versioned file cache."""
    cdir = _cache_dir(args)
    path = os.path.join(
        cdir, f"ft-brute-{cond.space_id}-{cond.kind}-p{p}-v{__version__}.tsv")
    if not args.no_cache and os.path.exists(path):
        try:
            tab = fourier.FourierTable.from_file(path)
            if tab.p == p and tab.space_id == cond.space_id \
                    and tab.source == "bruteforce":
                return tab
        except (ValueError, OSError):
            pass                                   # stale or foreign: ignore
    tab = fourier.fourier_table_bruteforce(cond, p, reps_by_name=reps_by_name)
    if not args.no_cache:
        os.makedirs(cdir, exist_ok=True)
        tab.to_file(path)
    return tab


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ft_verify(args):
    space = space_by_name(args.space)
    primes, skipped = _parse_primes(args.primes, space)
    if args.mode == "exhaustive" and space.space_id != "cubic":
        raise ConfigError("exhaustive mode is only sized for the cubic space")
    # resource preflight before any sweep starts
    for p in primes:
        n_states = p ** space.r
        limit = fourier.CUBIC_SWEEP_LIMIT if space.space_id == "cubic" \
            else fourier.FT_SWEEP_LIMIT
        if n_states > limit:
            raise ResourceLimitError(
                f"p={p}: {n_states} states exceed the sweep budget")
        if args.mode == "exhaustive" and p > 23:
            raise ResourceLimitError("exhaustive targets capped at p <= 23")
    cond = fourier.LocalCondition(space.space_id)
    cfg = {"space": args.space, "primes": ",".join(map(str, primes)),
           "skipped_bad": ",".join(map(str, skipped)) or "none",
           "mode": args.mode, "cache": not args.no_cache}
    lines = [_header("ft-verify", cfg)]
    mismatches = []
    for p in primes:
        closed = fourier.fourier_table_closed_form(cond, p)
        reps = None
        if space.space_id == "quartic":
            table = orbits.decompose_orbits(space, p)
            reps = {name: rep for name, (sz, rep) in table.entries.items()}
        brute = _cached_bruteforce(cond, p, args, reps_by_name=reps)
        for name, want in closed.values.items():
            got = brute.values[name]
            ok = got == want
            lines.append(f"{p}\t{name}\t{want}\t{got}\t"
                         f"{'ok' if ok else 'MISMATCH'}")
            if not ok:
                mismatches.append((p, name, want, got))
        if args.mode == "exhaustive":
            nums, den = fourier.ft_bruteforce_exhaustive_cubic(cond, p)
            scaled = []
            for c in fourier.CUBIC_CLASSES:
                v = fourier.ft_closed_form_cubic(p, c) * den
                assert v.denominator == 1
                scaled.append(int(v))
            codes = np.arange(den, dtype=np.int64)
            coords = orbits.decode_states(codes, p, r=4).astype(np.int64)
            dm = disc_cubic(*coords.T) % p
            inpv = (coords == 0).all(axis=1)
            want_nums = np.where(inpv, scaled[0],
                                 np.where(dm == 0, scaled[1], scaled[2]))
            bad = int(np.count_nonzero(nums != want_nums))
            lines.append(f"{p}\texhaustive\t{p ** 4}\t{bad}\t"
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
            print(f"MISMATCH p={p} class={name}: closed={want} brute={got}",
                  file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_PASS


def cmd_orbits(args):
    space = space_by_name(args.space)
    if space.space_id != "quartic":
        raise ConfigError("the orbit table is for the quartic space")
    if args.prime % 2 == 0 or not _is_prime(args.prime):
        raise ConfigError(f"need an odd prime, got {args.prime}")
    table = orbits.decompose_orbits(space, args.prime)
    cfg = {"space": args.space, "prime": args.prime}
    lines = [_header("orbits", cfg),
             "# label\tdim\tfc\tcardinality\trep"]
    for name in orbits.LABELS:
        size, rep = table.entries[name]
        lines.append(f"{name}\t{orbits.LABEL_DIM[name]}\t"
                     f"{orbits.LABEL_FC[name]}\t{size}\t"
                     f"{','.join(map(str, rep))}")
    lines.append(f"# total\t{sum(sz for sz, _ in table.entries.values())}")
    _emit(lines, args.out)
    return EXIT_PASS


def cmd_exponents(args):
    space = space_by_name(args.space)
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
    try:
        alpha = Fraction(args.alpha)
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"bad alpha {args.alpha!r}: {e}")
    if alpha <= 0:
        raise ConfigError("alpha must be positive")
    constant = None
    if args.constant == "greaves":
        constant = sieve.GREAVES_CONSTANT
    elif args.constant:
        constant = Fraction(args.constant)
    t = sieve.weighted_sieve_t(alpha, constant=constant)
    cfg = {"alpha": alpha, "constant": args.constant or "log4/log3"}
    _emit([_header("sieve-t", cfg), f"t\t{t}"], args.out)
    return EXIT_PASS


def cmd_lod(args):
    X_grid = tuple(int(float(tok)) for tok in args.X.split(","))
    if not X_grid or any(x < 100 for x in X_grid):
        raise ConfigError("X grid must hold values >= 100")
    if max(X_grid) > args.X_cap:
        raise ResourceLimitError(
            f"X={max(X_grid)} beyond the configured cap {args.X_cap}")
    if not 0 <= args.alpha < 1:
        raise ConfigError("alpha must lie in [0, 1)")
    cfg_obj = experiments.LodConfig(X_grid=X_grid, alpha=args.alpha,
                                    s=args.s)
    rep = experiments.lod_error_sum(cfg_obj)
    cfg = {"X": ",".join(map(str, X_grid)), "alpha": args.alpha,
           "s": args.s, "X_cap": args.X_cap}
    lines = [_header("lod", cfg),
             f"# fitted_c\t{rep.fitted_c:.6f}",
             f"# residuals\t{','.join(f'{r:.3e}' for r in rep.residuals)}",
             "# X\tn_q\tdisc0_mass\tcum_abs_E\tcum_over_X"]
    for X, n_q, w0, cum, ratio in rep.per_X:
        lines.append(f"{X}\t{n_q}\t{w0:.10e}\t{cum:.10e}\t{ratio:.10e}")
    lines.append("# q\tlattice\tmain\tE   (largest X)")
    for q, lat, mn, err in rep.q_rows:
        lines.append(f"{q}\t{lat:.10e}\t{mn:.10e}\t{err:.10e}")
    _emit(lines, args.out)
    return EXIT_PASS


def cmd_dual_bound(args):
    space = space_by_name(args.space)
    if args.N < 1 or args.Z < 0:
        raise ConfigError("need N >= 1 and Z >= 0")
    n_pts = (2 * args.Z + 1) ** space.r
    if n_pts * max(args.N, 1) > 5e7:
        raise ResourceLimitError(
            f"{n_pts} lattice points with q in [{args.N}, {2 * args.N}] "
            "exceeds the exact-arithmetic budget")
    rep = experiments.dual_bound_sum(args.N, args.Z, space_id=args.space)
    cfg = {"space": args.space, "N": args.N, "Z": args.Z}
    lines = [_header("dual-bound", cfg),
             f"n_q\t{rep.n_q}",
             f"n_points\t{rep.n_points}",
             f"total\t{rep.total}",
             f"disc0_part\t{rep.disc0_part}",
             f"nonzero_part\t{rep.nonzero_part}",
             f"qsplit_checked\t{rep.qsplit_checked}"]
    if space.space_id == "cubic":
        maj0, maj1 = experiments.dual_bound_majorant(args.N, args.Z)
        ok = rep.disc0_part <= maj0 and rep.nonzero_part <= maj1
        lines.append(f"majorant_disc0\t{maj0}")
        lines.append(f"majorant_nonzero\t{maj1}")
        lines.append(f"majorant_holds\t{ok}")
        _emit(lines, args.out)
        return EXIT_PASS if ok else EXIT_MISMATCH
    _emit(lines, args.out)
    return EXIT_PASS


def cmd_geosieve(args):
    if args.sweep:
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
    if args.lam < 1 or args.m < 1:
        raise ConfigError("need lam >= 1 and m >= 1")
    window = tuple(args.window) if args.window else None
    query = experiments.GeoSieveQuery(lam=args.lam, m=args.m, window=window,
                                      scheme=args.scheme, a=args.a)
    P, P2 = query.prime_window()
    if P < 2 or P2 < P:
        raise ConfigError(f"bad prime window [{P}, {P2}]")
    rep = experiments.geo_pair_count(query)
    cfg = {"lam": args.lam, "m": args.m, "window": f"{P},{P2}",
           "scheme": args.scheme, "a": args.a}
    lines = [_header("geosieve", cfg),
             f"count\t{rep.count}",
             f"n_primes\t{rep.n_primes}",
             f"bound\t{rep.bound_shape:.6e}",
             f"ratio\t{rep.ratio:.6f}"]
    _emit(lines, args.out)
    return EXIT_PASS


def cmd_reducible(args):
    Y_grid = tuple(int(tok) for tok in args.Y.split(","))
    if any(y < 0 for y in Y_grid) or not Y_grid:
        raise ConfigError("Y grid must hold nonnegative integers")
    if max(Y_grid) > args.Y_cap:
        raise ResourceLimitError(
            f"Y={max(Y_grid)} beyond the configured cap {args.Y_cap}")
    counts = [experiments.reducible_count(Y) for Y in Y_grid]
    cfg = {"Y": ",".join(map(str, Y_grid)), "Y_cap": args.Y_cap}
    lines = [_header("reducible", cfg), "# Y\tcount"]
    for Y, c in zip(Y_grid, counts):
        lines.append(f"{Y}\t{c}")
    pos = [(Y, c) for Y, c in zip(Y_grid, counts) if Y > 0 and c > 0]
    if len({Y for Y, _ in pos}) >= 2:
        slope, _, resid = experiments._fit_loglog([Y for Y, _ in pos],
                                                  [c for _, c in pos])
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
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--no-cache", action="store_true")
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
    p.add_argument("--lam", type=int, default=20)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--window", type=int, nargs=2, default=None)
    p.add_argument("--scheme", default="disc0", choices=["disc0", "all"])
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--sweep", action="store_true",
                   help="run the standard (lam, m) ladder")
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


if __name__ == "__main__":
    sys.exit(main())
