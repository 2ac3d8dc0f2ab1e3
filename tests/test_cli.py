"""Command-line behavior: exit codes, validation order, deterministic
output, no state on disk."""

import importlib.util
import json
import time
from pathlib import Path

import numpy as np
import pytest

from pvsieve import cli, experiments, ffcore, fourier, orbits
from pvsieve.spaces import CUBIC, QUARTIC

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run(argv):
    return cli.main(argv)


# -- exit codes and validation-before-work ---------------------------------

def test_sieve_t_values(capsys):
    assert run(["sieve-t", "--alpha", "7/48"]) == 0
    assert capsys.readouterr().out.strip().endswith("t\t8")
    assert run(["sieve-t", "--alpha", "1/2"]) == 0
    assert capsys.readouterr().out.strip().endswith("t\t3")


def test_sieve_t_greaves(capsys):
    assert run(["sieve-t", "--alpha", "7/48", "--constant", "greaves"]) == 0
    assert capsys.readouterr().out.strip().endswith("t\t7")


def test_bad_alpha_is_config_error():
    assert run(["sieve-t", "--alpha", "0"]) == 2
    assert run(["sieve-t", "--alpha", "banana"]) == 2


def test_bad_prime_in_explicit_list_rejected(capsys):
    # validation must happen before any sweep: quartic work at p=5 takes
    # minutes, so a fast failure here demonstrates the ordering
    assert run(["ft-verify", "--space", "quartic", "--prime", "2,5",
                "--no-cache"]) == 2
    assert "bad prime" in capsys.readouterr().err


def test_cubic_range_skips_bad_prime(tmp_path, capsys):
    out = tmp_path / "ft.txt"
    assert run(["ft-verify", "--space", "cubic", "--primes", "3..7",
                "--no-cache", "--out", str(out)]) == 0
    text = out.read_text()
    assert "skipped_bad=3" in text
    assert "\n3\t" not in text          # no rows at the bad prime
    assert "5\tpV\t29/125\t29/125\tok" in text


def test_prime_range_skips_the_primes_dividing_m():
    assert cli._parse_primes("2..13", CUBIC) == ([2, 5, 7, 11, 13], [3])
    assert cli._parse_primes("2..13", QUARTIC) == ([3, 5, 7, 11, 13], [2])


def test_nonprime_rejected():
    assert run(["ft-verify", "--space", "cubic", "--primes", "6",
                "--no-cache"]) == 2


@pytest.mark.parametrize("argv", [
    ["lod", "--X", "abc"],
    ["lod", "--X", "inf"],
    ["reducible", "--Y", "x"],
    ["ft-verify", "--primes", "abc", "--no-cache"],
    ["ft-verify", "--primes", "5..x", "--no-cache"],
    ["sieve-t", "--alpha", "1/2", "--constant", "x"],
    ["dual-bound", "--space", "foo", "--N", "3", "--Z", "1"],
    ["exponents", "--space", "foo"],
    ["exponents", "--space", "cubic"],
    ["lod", "--X", "1e4", "--s", "0"],
    ["lod", "--X", "1e4", "--s", "-1"],
    ["lod", "--X", "1e4", "--s", "nan"],
    ["orbits", "--space", "foo"],
    ["lod", "--X", "1e4", "--X-cap", "nan"],
    ["lod", "--X-cap", "0"],
    ["reducible", "--Y", "25", "--Y-cap", "-1"],
], ids=" ".join)
def test_malformed_input_is_config_error(argv, capsys):
    assert run(argv) == 2
    assert "config error" in capsys.readouterr().err


def test_resource_cap_before_work(monkeypatch):
    assert run(["lod", "--X", "1e9"]) == 3
    assert run(["dual-bound", "--space", "quartic", "--N", "3", "--Z",
                "2"]) == 3
    # 60001^4 box points: past int64, refused before the primes are sieved
    assert run(["geosieve", "--lam", "30000"]) == 3
    # the first prime past the exhaustive cap is refused before the sweep
    # at the prime below it starts
    ffcore.ntt_modulus(59, CUBIC.r)

    def boom(*a, **k):
        raise AssertionError("a kernel started before the preflight")
    for module, name in ((fourier, "ft_histograms"),
                         (fourier, "_cubic_support"),
                         (fourier, "ft_bruteforce_exhaustive_cubic"),
                         (fourier, "ft_fibered_histograms"),
                         (ffcore, "character_sums"),
                         (orbits, "form_chunks"),
                         (orbits, "form_frames"),
                         (orbits, "canonical_resolvents"),
                         (orbits, "_label"),
                         (orbits, "classify_batch")):
        monkeypatch.setattr(module, name, boom)
    # per class, p^3 a-fibres: 401^3 fits fourier.CUBIC_FIBRES, 409^3 does
    # not, and is refused before the sweep at 401 starts
    assert run(["ft-verify", "--space", "cubic", "--primes", "401,409",
                "--no-cache"]) == 3
    assert run(["ft-verify", "--space", "cubic", "--primes", "59,61",
                "--mode", "exhaustive", "--no-cache"]) == 3
    # the fibred quartic kernel stops at p = 13, the orbit census at 19
    assert run(["ft-verify", "--space", "quartic", "--primes", "13,17"]) == 3
    assert run(["orbits", "--prime", "23"]) == 3


@pytest.mark.parametrize("argv", [
    ["geosieve", "--lam", "1", "--window", "1000000000", "2000000000"],
    ["ft-verify", "--primes", "100000000000000000039"],
    ["ft-verify", "--primes", "97..100000000000"],
    ["orbits", "--prime", "100000000000000000039"],
], ids=" ".join)
def test_oversized_primes_refused_before_any_sieve(argv, monkeypatch,
                                                   capsys):
    # cli and experiments both read sieve.primes_upto from the one module
    primes_upto = cli.sieve.primes_upto
    assert experiments.sieve is cli.sieve

    def bounded(n):
        if n > cli.PRIME_ARG_MAX:
            raise AssertionError(f"primes sieved up to {n}")
        return primes_upto(n)

    monkeypatch.setattr(cli.sieve, "primes_upto", bounded)
    start = time.perf_counter()
    assert run(argv) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith("resource limit: ")


def test_allocation_failure_is_a_resource_limit(monkeypatch, capsys):
    def oom(*a, **k):
        raise MemoryError("Unable to allocate 9.31 GiB")
    monkeypatch.setattr(experiments, "reducible_count", oom)
    assert run(["reducible", "--Y", "25"]) == 3
    assert capsys.readouterr().err == (
        "resource limit: allocation failed: Unable to allocate 9.31 GiB\n")


def test_per_class_cubic_past_60(capsys):
    # the per-class budget is priced in a-fibres, so p past 60 runs
    assert run(["ft-verify", "--space", "cubic", "--primes", "61..101",
                "--no-cache"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 3 * 9          # 61, 67, ..., 101: nine primes
    assert all(row.endswith("\tok") for row in rows)


def test_exhaustive_mode_cubic_only():
    assert run(["ft-verify", "--space", "quartic", "--prime", "3",
                "--mode", "exhaustive", "--no-cache"]) == 2


def test_orbit_table_output(tmp_path, capsys):
    out = tmp_path / "orbits.txt"
    assert run(["orbits", "--prime", "3", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert out.read_text() == text
    lines = text.splitlines()
    assert lines[-1] == "# total\t531441"
    assert sum(1 for l in lines if l.startswith("O_")) == 20
    # the whole table byte for byte, the fc column included
    assert _workloads().digest(text) == (
        "83c7aee165bfc4cfc8a360e51b115f8f40ba58f4007991fe9374b8590834c0e7")


def test_orbit_table_past_p5(capsys):
    # the census reaches p = 7, where no breadth-first search could
    assert run(["orbits", "--prime", "7"]) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[-1] == f"# total\t{7 ** 12}"
    assert sum(1 for l in lines if l.startswith("O_")) == 20
    # no search checks the reps at p = 7: the table is pinned byte for byte
    assert _workloads().digest(text) == (
        "4da487eaa4eb69abc685bb5c34fee8cc4a19f3f28b7611392e200df4e602758a")


def test_classifier_gap_is_a_mismatch(monkeypatch, capsys):
    # a checked identity that fails inside a kernel is a mathematical
    # mismatch: one MISMATCH line on stderr, exit 1, nothing on stdout
    def gap(*a, **k):
        raise orbits.ClassifierIncompleteError("p=3: forced for the test")
    monkeypatch.setattr(orbits, "_label", gap)
    assert run(["orbits", "--prime", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "MISMATCH p=3: forced for the test\n"

    monkeypatch.undo()

    def skewed(*a, **k):
        raise ffcore.NonInvariantSupportError("forced for the test")
    monkeypatch.setattr(ffcore, "character_sums", skewed)
    assert run(["ft-verify", "--space", "quartic", "--primes", "3"]) == 1
    assert capsys.readouterr().err == "MISMATCH forced for the test\n"


def test_exponent_rows(capsys):
    assert run(["exponents"]) == 0
    text = capsys.readouterr().out
    header, body = text.split("\n", 1)
    assert header.startswith("# pvsieve v")
    assert header.endswith(" cmd=exponents space=quartic")
    assert body == (
        "# j\tterm\talpha_cap\n"
        "4\tX^{2/3} N^2\t1/6\n"
        "7\tX^{5/12} N^4\t7/48\n"
        "8\tX^{1/3} N^4\t1/6\n"
        "10\tX^{1/6} N^5\t1/6\n"
        "11\tX^{1/12} N^5\t11/60\n"
        "12\tN^5\t1/5\n"
        "# alpha_max\t7/48\tbottleneck_j\t7\n")


def test_exhaustive_mode_grades_in_blocks(monkeypatch, capsys):
    # the p^4 targets are graded in chunks of at most ffcore.CELL_BUDGET
    # coordinate cells, never all at once
    target_classes, most = fourier.target_classes, [0]

    def recorded(space, Y, p):
        most[0] = max(most[0], len(Y))
        return target_classes(space, Y, p)
    monkeypatch.setattr(fourier, "target_classes", recorded)
    assert run(["ft-verify", "--space", "cubic", "--primes", "37",
                "--mode", "exhaustive"]) == 0
    assert "37\texhaustive\t1874161\t0\tok" in capsys.readouterr().out
    assert 0 < most[0] <= ffcore.CELL_BUDGET // 4


def test_exhaustive_grading_budget_invariant(monkeypatch, capsys):
    # one target per grading chunk (and one d per support slab) prints the
    # same lines as the default cell budget
    argv = ["ft-verify", "--space", "cubic", "--primes", "5..7",
            "--mode", "exhaustive"]
    assert run(argv) == 0
    default = capsys.readouterr().out
    monkeypatch.setattr(ffcore, "CELL_BUDGET", 1)
    assert run(argv) == 0
    assert capsys.readouterr().out == default
    assert "7\texhaustive\t2401\t0\tok" in default


# -- determinism and state -------------------------------------------------

def test_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["ft-verify", "--space", "cubic", "--primes", "5,7",
            "--mode", "exhaustive"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"timestamp" not in a.read_bytes()


def test_no_state_on_disk(tmp_path, monkeypatch, capsys):
    # nothing is written under the home directory or a cache variable
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("PVSIEVE_CACHE", str(tmp_path))
    assert run(["ft-verify", "--space", "quartic", "--prime", "3"]) == 0
    out = capsys.readouterr().out
    assert "cache=False" in out and out.count("\tok\n") == 20
    assert list(tmp_path.iterdir()) == []
    # --no-cache is still accepted, and changes nothing
    assert run(["ft-verify", "--space", "quartic", "--prime", "3",
                "--no-cache"]) == 0
    assert capsys.readouterr().out == out


def test_mismatch_exit_code(tmp_path, monkeypatch, capsys):
    # corrupt the closed form for one class: the command must notice,
    # name the culprit, and exit 1
    real = fourier.ft_closed_form
    def crooked(cond, p, cls):
        v = real(cond, p, cls)
        return v + 1 if cls in ("disc0", "O_Cs") else v
    monkeypatch.setattr(fourier, "ft_closed_form", crooked)
    assert run(["ft-verify", "--space", "cubic", "--primes", "5",
                "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert "MISMATCH" in err and "p=5" in err and "disc0" in err
    assert "at fault" not in err
    # past the orbit BFS (p >= 7) the quartic targets' labels come from the
    # classifier alone, and the message says so
    assert run(["ft-verify", "--space", "quartic", "--primes", "5,7"]) == 1
    err5, err7 = capsys.readouterr().err.splitlines()
    assert err5.startswith("MISMATCH p=5 class=O_Cs")
    assert "at fault" not in err5
    assert err7.startswith("MISMATCH p=7 class=O_Cs")
    assert err7.endswith("(the closed form or the classifier is at fault)")


def test_header_records_version_and_config(capsys):
    assert run(["reducible", "--Y", "25,50"]) == 0
    head = capsys.readouterr().out.splitlines()[0]
    assert head.startswith("# pvsieve v")
    assert "cmd=reducible" in head and "Y=25,50" in head
    assert "Y_cap=2000" in head                 # defaults are recorded too


def test_reducible_counts(capsys):
    assert run(["reducible", "--Y", "0,1,2"]) == 0
    out = capsys.readouterr().out
    assert "0\t1" in out and "1\t21" in out and "2\t65" in out
    assert run(["reducible", "--Y", "0", "--Y-cap", "0"]) == 0


def test_lod_small_grid(tmp_path):
    out = tmp_path / "lod.txt"
    assert run(["lod", "--X", "1e4,3e4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    ratios = [float(l.split("\t")[4]) for l in lines
              if l and not l.startswith("#") and len(l.split("\t")) == 5]
    assert len(ratios) == 2 and ratios[1] < ratios[0]


def test_lod_prints_the_q_rows_of_the_largest_X(capsys):
    # the q rows belong to the largest X of the grid, not the last one
    rows = []
    for grid in ("3e4,1e4", "1e4,3e4"):
        assert run(["lod", "--X", grid]) == 0
        out = capsys.readouterr().out.split("# q\t", 1)[1]
        rows.append(out.splitlines()[1:])
    assert rows[0] == rows[1]
    assert len(rows[0]) == 64          # the squarefree q <= 3e4^0.45 = 103


def test_lod_output_does_not_depend_on_the_shard_size(monkeypatch, capsys):
    # 5 and 19 value-range shards of the bucket build print the same bytes
    # as one
    outs = []
    for points in (experiments._SHARD_POINTS, 2 ** 12):
        monkeypatch.setattr(experiments, "_SHARD_POINTS", points)
        assert run(["lod", "--X", "1e4,3e4"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_lod_budget_before_work(monkeypatch, capsys):
    # X = 1e8 is past the point budget, so no X of the grid is built
    def boom(*a, **k):
        raise AssertionError("a table was built before the budget check")
    monkeypatch.setattr(experiments, "disc_value_buckets", boom)
    assert run(["lod", "--X", "1e6,1e8", "--X-cap", "1e8"]) == 3
    assert "point budget" in capsys.readouterr().err


def test_lod_single_X_prints_no_fit(capsys):
    # one distinct X has no growth exponent to fit
    for X in ("1e4", "1e4,1e4"):
        assert run(["lod", "--X", X]) == 0
        out = capsys.readouterr().out
        assert "fitted_c" not in out and "residuals" not in out
        assert "\n10000\t39\t" in out


def test_dual_bound_majorant_line(capsys):
    assert run(["dual-bound", "--N", "5", "--Z", "1"]) == 0
    out = capsys.readouterr().out
    assert "majorant_holds\tTrue" in out
    assert "qsplit_checked" in out


def test_failed_split_identity_is_mismatch(monkeypatch, capsys):
    # a grading that is not scale-invariant: x and x/q0 get different classes
    real = fourier.target_classes

    def skewed(space, Y, p):
        cls = real(space, Y, p)
        return np.where(np.asarray(Y)[:, 0] % p == 1, 2, cls)
    monkeypatch.setattr(fourier, "target_classes", skewed)
    assert run(["dual-bound", "--N", "5", "--Z", "2"]) == 1
    assert "split identity fails" in capsys.readouterr().err


def test_dual_bound_budget_before_work(monkeypatch):
    def boom(*a, **k):
        raise AssertionError("grading started before the preflight")
    monkeypatch.setattr(orbits, "classify_batch", boom)
    monkeypatch.setattr(fourier, "cubic_class_batch", boom)
    for Z, N in (("2", "3"), ("1", "222")):
        assert run(["dual-bound", "--space", "quartic", "--N", N,
                    "--Z", Z]) == 3

    class Admitted(Exception):
        pass

    def admitted(*a, **k):
        raise Admitted
    monkeypatch.setattr(experiments, "dual_bound_sum", admitted)
    for argv in (["--N", "200", "--Z", "20"],
                 ["--space", "quartic", "--N", "221", "--Z", "1"]):
        with pytest.raises(Admitted):
            run(["dual-bound", *argv])


def _workloads():
    """perfbench/workloads.py, loaded read-only by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_argv_parse():
    # every benchmark command line still parses: a deleted flag fails here
    # rather than in a benchmark run
    workloads = _workloads()
    parser = cli.build_parser()
    for jobs in (*workloads.JOBS.values(), *workloads.PROBES.values()):
        for job in jobs:
            if job.argv is None:
                continue
            try:
                parser.parse_args(list(job.argv))
            except SystemExit:
                pytest.fail(f"{job.name}: {' '.join(job.argv)} does not parse")


@pytest.mark.parametrize("job", ["dual-bound", "reducible", "ft-exhaustive",
                                 "ft-per-class", "ft-verify-quartic",
                                 "geosieve-sweep"])
def test_benchmark_digests(job, capsys):
    # the stdout of each fast digested benchmark job is byte-identical to
    # the one recorded in perfbench/expected.json
    workloads = _workloads()
    argv = next(j.argv for jobs in workloads.JOBS.values() for j in jobs
                if j.name == job)
    expected = json.loads((PERFBENCH / "expected.json").read_text())[job]
    assert run(list(argv)) == 0
    assert workloads.digest(capsys.readouterr().out) == expected


@pytest.mark.parametrize("space,N,Z,want", [
    ("cubic", 5, 2,
     "87335b1edf7b08941ddc336fef11d99f8b8b77831afdcc204dc13f21a6a29ef6"),
    ("cubic", 30, 6,
     "d8352e695a2236893ae54b42103105f208cd34da468c0a98cfc3d469ad867e26"),
    ("cubic", 3, 0,
     "5c6aad070ba036d255258526055163b687bddfeaba3afc2ef6fb6df3dfc7cd30"),
    ("quartic", 2, 1,
     "030dfbf1fb284b762eea519cd31903929bf89a74a6db73ea6394b9ce4350869e"),
    ("quartic", 3, 0,
     "8e846a94b9a9733b60fb6dd5e94e1b565050870c726d0f2b860f71d689c2800e")])
def test_dual_bound_output(space, N, Z, want, capsys):
    # dual-bound's whole stdout, byte for byte: the exact sums, the point
    # and split-check counts and, on the cubic space, the majorant
    assert run(["dual-bound", "--space", space, "--N", str(N),
                "--Z", str(Z)]) == 0
    assert _workloads().digest(capsys.readouterr().out) == want


def test_benchmark_label_check():
    # the benchmark's own p = 5 label check on the seed-1 sample: a
    # mislabel fails here before it fails a benchmark run
    workloads = _workloads()
    inputs = workloads.make_inputs("quartic-orbits", 1)
    job = next(j for j in workloads.JOBS["quartic-orbits"]
               if j.name == "classify")
    assert workloads.check(job, job.run(inputs), inputs) == []


def test_geosieve_single(capsys):
    assert run(["geosieve", "--lam", "6", "--window", "7", "14"]) == 0
    out = capsys.readouterr().out
    assert "count\t" in out and "ratio\t" in out
    # the scheme "all" has codimension 0: its bound is (lam/m)^4 P lam^0.1
    assert run(["geosieve", "--lam", "3", "--scheme", "all"]) == 0
    out = capsys.readouterr().out
    assert " a=0 " in out
    assert "bound\t6.328418e+02\n" in out and "ratio\t11.381991\n" in out


def test_geosieve_wide_box_is_exact(capsys):
    # |disc| reaches ~5e21 on the points m k of this box, past int64; the
    # count is walked over k, whose discriminants fit int32
    assert run(["geosieve", "--lam", "100000", "--m", "10000",
                "--window", "11", "22"]) == 0
    assert "count\t53844\n" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--scheme", "all"], ["--lam", "3"],
                                   ["--scheme", "disc0"], ["--lam", "20"],
                                   ["--m", "1"], ["--window", "7", "14"]])
def test_geosieve_sweep_refuses_query_flags(flags, capsys, monkeypatch):
    # the ladder fixes its own queries, so a query flag beside --sweep,
    # even at its default value, is refused before any work and named
    monkeypatch.setattr(experiments, "geo_sweep", lambda: pytest.fail(
        "the sweep ran"))
    assert run(["geosieve", "--sweep", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and flags[0] in err


def test_geosieve_bad_window():
    assert run(["geosieve", "--lam", "6", "--window", "14", "7"]) == 2
