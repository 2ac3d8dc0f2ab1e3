"""Command-line behavior: exit codes, validation order, deterministic
output, cache versioning."""

import os

import pytest

from pvsieve import cli, fourier


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


def test_nonprime_rejected():
    assert run(["ft-verify", "--space", "cubic", "--primes", "6",
                "--no-cache"]) == 2


def test_resource_cap_before_work():
    assert run(["lod", "--X", "1e9"]) == 3
    assert run(["dual-bound", "--space", "quartic", "--N", "3", "--Z",
                "2"]) == 3
    assert run(["ft-verify", "--space", "cubic", "--primes", "61",
                "--no-cache"]) == 3


def test_exhaustive_mode_cubic_only():
    assert run(["ft-verify", "--space", "quartic", "--prime", "3",
                "--mode", "exhaustive", "--no-cache"]) == 2


def test_orbit_table_output(tmp_path):
    out = tmp_path / "orbits.txt"
    assert run(["orbits", "--prime", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[-1] == "# total\t531441"
    assert sum(1 for l in lines if l.startswith("O_")) == 20


def test_exponent_rows(capsys):
    assert run(["exponents"]) == 0
    text = capsys.readouterr().out
    assert "X^{2/3} N^2" in text
    assert "\nN^5" in text or "\t N^5" in text or "12\tN^5" in text
    assert "alpha_max\t7/48\tbottleneck_j\t7" in text


# -- determinism and caching ------------------------------------------------

def test_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["ft-verify", "--space", "cubic", "--primes", "5,7",
            "--mode", "exhaustive", "--cache-dir", str(tmp_path / "c")]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"timestamp" not in a.read_bytes()


def test_stale_cache_ignored_and_refreshed(tmp_path):
    cdir = tmp_path / "cache"
    argv = ["ft-verify", "--space", "cubic", "--primes", "5",
            "--cache-dir", str(cdir)]
    assert run(argv) == 0
    (fname,) = os.listdir(cdir)
    assert "v0.1.0" in fname and "-p5-" in fname
    path = cdir / fname
    path.write_text("# fourier-table v999 some future format\n")
    assert run(argv) == 0                       # recomputes, still passes
    tab = fourier.FourierTable.from_file(path)  # rewritten in current format
    assert tab.p == 5 and tab.values["pV"].denominator == 125


def test_cache_hit_skips_recompute(tmp_path, monkeypatch):
    cdir = tmp_path / "cache"
    argv = ["ft-verify", "--space", "cubic", "--primes", "5",
            "--cache-dir", str(cdir)]
    assert run(argv) == 0
    def boom(*a, **k):
        raise AssertionError("bruteforce re-run despite warm cache")
    monkeypatch.setattr(fourier, "fourier_table_bruteforce", boom)
    assert run(argv) == 0


def test_mismatch_exit_code(tmp_path, monkeypatch, capsys):
    # corrupt the closed form for one class: the command must notice,
    # name the culprit, and exit 1
    real = fourier.ft_closed_form_cubic
    def crooked(p, cls):
        v = real(p, cls)
        return v + 1 if cls == "disc0" else v
    monkeypatch.setattr(fourier, "ft_closed_form_cubic", crooked)
    assert run(["ft-verify", "--space", "cubic", "--primes", "5",
                "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert "MISMATCH" in err and "p=5" in err and "disc0" in err


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


def test_lod_small_grid(tmp_path):
    out = tmp_path / "lod.txt"
    assert run(["lod", "--X", "1e4,3e4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    ratios = [float(l.split("\t")[4]) for l in lines
              if l and not l.startswith("#") and len(l.split("\t")) == 5]
    assert len(ratios) == 2 and ratios[1] < ratios[0]


def test_dual_bound_majorant_line(capsys):
    assert run(["dual-bound", "--N", "5", "--Z", "1"]) == 0
    out = capsys.readouterr().out
    assert "majorant_holds\tTrue" in out
    assert "qsplit_checked" in out


def test_geosieve_single(capsys):
    assert run(["geosieve", "--lam", "6", "--window", "7", "14"]) == 0
    out = capsys.readouterr().out
    assert "count\t" in out and "ratio\t" in out


def test_geosieve_wide_box_is_exact(capsys):
    # |disc| reaches ~5e21 in this box, past int64
    assert run(["geosieve", "--lam", "100000", "--m", "10000",
                "--window", "11", "22"]) == 0
    assert "count\t53844\n" in capsys.readouterr().out


def test_geosieve_bad_window():
    assert run(["geosieve", "--lam", "6", "--window", "14", "7"]) == 2
