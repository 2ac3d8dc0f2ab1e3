"""The three benchmark workloads: fixed job lists, seeded inputs, checks.

Every job is one ``pvsieve.cli.main([...])`` call at a fixed configuration
or one direct call into a public function.  Jobs run one after another in
one process (a closed loop with a single client); the jobs' stdout is
captured, never printed.  Only ``quartic-orbits`` draws inputs from the
seed; the other two record it without using it.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("cubic-exact", "quartic-orbits", "lod-box")

CLASSIFY_STATES = 1 << 16

# Orbits of the pair space at p = 5: label -> (representative, orbit size),
# the output of the breadth-first closure over all 5^12 states (about half
# an hour), frozen here so that the sampler knows each orbit exactly.
P5_ORBITS = {
    "O_0": ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 1),
    "O_D1^2": ((1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 744),
    "O_D11": ((1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 11160),
    "O_Cs": ((0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0), 89280),
    "O_D2": ((2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 7440),
    "O_Dns": ((1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0), 74400),
    "O_Cns": ((0, 0, 0, 0, 2, 1, 1, 1, 0, 0, 0, 0), 372000),
    "O_B11": ((0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0), 223200),
    "O_B2": ((2, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0), 148800),
    "O_1^4": ((0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0), 1785600),
    "O_1^31": ((1, 0, 0, 0, 2, 1, 1, 1, 0, 0, 0, 0), 8928000),
    "O_1^21^2": ((0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0), 5580000),
    "O_2^2": ((0, 2, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0), 3720000),
    "O_1^211": ((1, 0, 2, 1, 0, 0, 1, 1, 0, 0, 0, 0), 22320000),
    "O_1^22": ((1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0), 22320000),
    "O_1111": ((1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0), 7440000),
    "O_112": ((2, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0), 44640000),
    "O_22": ((2, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0), 22320000),
    "O_13": ((0, 1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0), 59520000),
    "O_4": ((0, 0, 1, 1, 0, 0, 2, 1, 0, 0, 0, 0), 44640000),
}

# The wide geosieve query whose int64 discriminants wrap (|disc| reaches
# ~5e21).  Its count is checked against exact Python integers by a
# known-defect probe (see PROBES) until the wrap is fixed.
GEO_WIDE = {"lam": 100000, "m": 10000, "window": (11, 22)}


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _random_gl(rng, n, k, p):
    """n uniform elements of GL_k(F_p), by rejection on the determinant."""
    out = np.empty((0, k, k), dtype=np.int64)
    while out.shape[0] < n:
        M = rng.integers(0, p, size=(2 * n, k, k), dtype=np.int64)
        if k == 2:
            det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
        else:
            a, b, c = M[:, 0], M[:, 1], M[:, 2]
            det = (a[:, 0] * (b[:, 1] * c[:, 2] - b[:, 2] * c[:, 1])
                   - a[:, 1] * (b[:, 0] * c[:, 2] - b[:, 2] * c[:, 0])
                   + a[:, 2] * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]))
        out = np.concatenate([out, M[det % p != 0]])
    return out[:n]


_SYM = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def _sym(cols):
    M = np.empty(cols.shape[:-1] + (3, 3), dtype=np.int64)
    for j, (a, b) in enumerate(_SYM):
        M[..., a, b] = M[..., b, a] = cols[..., j]
    return M


def _cols(M):
    return np.stack([M[..., a, b] for a, b in _SYM], axis=-1)


def quartic_sample(seed, n=CLASSIFY_STATES, p=5):
    """(states, expected label names): n states exactly uniform on V(F_5).

    A label is drawn with probability proportional to its orbit size, and a
    uniform random (g2, g3) in GL2 x GL3 moves that label's representative
    to a uniform point of its orbit, so each state's label is known."""
    rng = np.random.default_rng(seed)
    names = list(P5_ORBITS)
    sizes = np.array([P5_ORBITS[k][1] for k in names], dtype=np.float64)
    reps = np.array([P5_ORBITS[k][0] for k in names], dtype=np.int64)
    pick = rng.choice(len(names), size=n, p=sizes / sizes.sum())
    g2 = _random_gl(rng, n, 2, p)
    g3 = _random_gl(rng, n, 3, p)
    X = reps[pick]
    A = np.einsum("nij,njk,nlk->nil", g3, _sym(X[:, :6]), g3) % p
    B = np.einsum("nij,njk,nlk->nil", g3, _sym(X[:, 6:]), g3) % p
    An = (g2[:, 0, 0, None, None] * A + g2[:, 0, 1, None, None] * B) % p
    Bn = (g2[:, 1, 0, None, None] * A + g2[:, 1, 1, None, None] * B) % p
    states = np.concatenate([_cols(An), _cols(Bn)], axis=1)
    return states, [names[i] for i in pick]


def make_inputs(workload, seed):
    if workload == "quartic-orbits":
        return {"classify": quartic_sample(seed)}
    return {}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def digest(text):
    """sha256 of a job's output, with the package version in the CLI header
    masked so that a version bump alone does not read as changed output."""
    text = re.sub(r"^# pvsieve v\S+ ", "# pvsieve v* ", text, flags=re.M)
    return hashlib.sha256(text.encode()).hexdigest()


def _expected_digests():
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def _field(text, key):
    for line in text.splitlines():
        parts = line.split("\t")
        if parts[0] == key:
            return parts[1]
    return None


def geo_wide_exact_count():
    """The wide query's pair count, with discriminants in Python integers."""
    lam, m = GEO_WIDE["lam"], GEO_WIDE["m"]
    P, P2 = GEO_WIDE["window"]
    primes = [p for p in range(P, P2 + 1)
              if all(p % d for d in range(2, p)) and m % p]
    axis = range(-lam + (lam % m), lam + 1, m)
    count = 0
    for a, b, c, d in itertools.product(axis, repeat=4):
        disc = (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d
                - 27 * a * a * d * d + 18 * a * b * c * d)
        count += sum(1 for p in primes if disc % p == 0)
    return count


def _check_geo_wide(outcome, inputs):
    got, want = _field(outcome.text, "count"), geo_wide_exact_count()
    if got is None or int(got) != want:
        return [f"count {got}, exact Python-int count {want}"]
    return []


def _check_lod(outcome, inputs):
    """Criterion 7's shape: cum_over_X strictly decreasing, fitted_c < 1."""
    fails = []
    c = _field(outcome.text, "# fitted_c")
    if c is None or not float(c) < 1:
        fails.append(f"fitted_c = {c}, want < 1")
    ratios, in_rows = [], False
    for line in outcome.text.splitlines():
        if line.startswith("# X\t"):
            in_rows = True
        elif line.startswith("#"):
            in_rows = False
        elif in_rows:
            ratios.append(float(line.split("\t")[4]))
    if len(ratios) != 3 or any(b >= a for a, b in zip(ratios, ratios[1:])):
        fails.append(f"cum_over_X not strictly decreasing: {ratios}")
    return fails


def _check_poisson(outcome, inputs):
    rep = outcome.value
    if not rep.abs_gap <= rep.tail_bound:
        return [f"abs_gap {rep.abs_gap} > tail_bound {rep.tail_bound}"]
    return []


def _check_labels(outcome, inputs):
    from pvsieve import orbits
    _, want = inputs["classify"]
    got = [orbits.LABELS[i] for i in outcome.value]
    wrong = sum(1 for g, w in zip(got, want) if g != w)
    if wrong or len(got) != len(want):
        return [f"{wrong} of {len(want)} states mislabelled"]
    return []


def check(job, outcome, inputs):
    """Failure messages for one job's outcome (empty when it passed): exit
    code, the job's own check, and the recorded digest where there is one."""
    fails = []
    if outcome.code != 0:
        fails.append(f"exit code {outcome.code}: {outcome.value!r}")
    if job.verify is not None:
        fails += job.verify(outcome, inputs)
    expected = _expected_digests().get(job.name)
    if expected is not None and digest(outcome.text) != expected:
        fails.append(f"stdout digest {digest(outcome.text)[:16]} differs "
                     f"from the recorded {expected[:16]}")
    return fails


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    code: int            # CLI exit code; 0 for a direct call that returned
    text: str            # captured stdout, or the repr digested for a call
    value: object = None  # captured stderr, or the direct call's result


@dataclass(frozen=True)
class Job:
    name: str
    metric: str          # the per-job time this job adds to, or None
    argv: tuple = None   # a pvsieve.cli.main call ...
    call: object = None  # ... or a direct call: inputs -> Outcome
    verify: object = None  # (outcome, inputs) -> failure messages

    def run(self, inputs):
        if self.argv is None:
            return self.call(inputs)
        from pvsieve import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(self.argv))
        return Outcome(code=code, text=out.getvalue(), value=err.getvalue())


def _classify(inputs):
    from pvsieve import orbits, spaces
    states, _ = inputs["classify"]
    labels = orbits.classify_batch(spaces.QUARTIC, states, 5)
    return Outcome(code=0, text=labels.tobytes().hex(), value=labels)


def _poisson(q):
    def call(inputs):
        from pvsieve import experiments
        rep = experiments.poisson_check(q, X=10 ** 4)
        text = repr((rep.q, rep.X, rep.Z)
                    + tuple(float(v) for v in (rep.lhs, rep.rhs,
                                               rep.rhs_double,
                                               rep.tail_bound)))
        return Outcome(code=0, text=text, value=rep)
    return call


JOBS = {
    "cubic-exact": (
        Job("ft-exhaustive", "ft_exhaustive_s",
            ("ft-verify", "--space", "cubic", "--primes", "5..17",
             "--mode", "exhaustive", "--no-cache")),
        Job("ft-per-class", "ft_per_class_s",
            ("ft-verify", "--space", "cubic", "--primes", "47..59",
             "--no-cache")),
        Job("geosieve-sweep", "geosieve_s", ("geosieve", "--sweep")),
        Job("dual-bound", "exact_sums_s", ("dual-bound", "--N", "10",
                                           "--Z", "3")),
        Job("reducible", "exact_sums_s", ("reducible",)),
    ),
    "quartic-orbits": (
        Job("ft-verify-quartic", "ft_verify_s",
            ("ft-verify", "--space", "quartic", "--prime", "3",
             "--no-cache")),
        Job("classify", "classify_s", call=_classify, verify=_check_labels),
    ),
    "lod-box": (
        Job("lod", "lod_s", ("lod", "--X", "1e5,1e6,3e6"), verify=_check_lod),
        *(Job(f"poisson-q{q}", None, call=_poisson(q), verify=_check_poisson)
          for q in (1, 3, 5, 15)),
    ),
}

# Known-defect probes: jobs whose output is known to be wrong at the current
# code.  A workload holds only jobs that succeed, so a probe runs once per
# benchmark run, after the timed jobs of the first pass, and its check is
# reported on its own (stdout and the run record) rather than counted in the
# workload's failures.  Remove a probe's entry when its defect is fixed.
PROBES = {
    "cubic-exact": (
        Job("geosieve-wide", None,
            ("geosieve", "--lam", str(GEO_WIDE["lam"]), "--m",
             str(GEO_WIDE["m"]), "--window", *map(str, GEO_WIDE["window"])),
            verify=_check_geo_wide),
    ),
}

JOB_METRICS = {w: tuple(dict.fromkeys(j.metric for j in jobs if j.metric))
               for w, jobs in JOBS.items()}

SEEDED_JOBS = ("classify",)      # the only jobs whose output depends on --seed
