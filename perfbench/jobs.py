"""Workload job lists and the output checks that decide whether a job failed.

A job is one `gcdstats` CLI invocation, given as its argv.  `simulate` jobs
take the workload seed and write `--out` files; every other job is seedless
and its stdout is compared with a digest recorded in `digests.json`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIGESTS = json.loads((Path(__file__).with_name("digests.json")).read_text())["stdout_sha256"]

# replicates redrawn and recomputed by brute force for each simulate output
CHECKED_REPLICATES = 4


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple

    @property
    def is_simulate(self) -> bool:
        return self.argv[0] == "simulate"

    def option(self, flag: str, default=None):
        args = list(self.argv)
        return args[args.index(flag) + 1] if flag in args else default

    def reps(self) -> int:
        return int(self.option("--reps", 1000)) if self.is_simulate else 0

    def sample_space(self) -> int:
        """n of a simulate job, from its literal or 'm^B' rule."""
        rule, m = self.option("--n"), int(self.option("--m"))
        return round(m ** float(rule[2:])) if rule.startswith("m^") else int(rule)

    def command(self, seed: int, out_prefix: str) -> list[str]:
        """Full argv: simulate jobs get the workload seed and an output prefix."""
        argv = list(self.argv)
        if self.is_simulate:
            argv += ["--seed", str(seed), "--workers", "1", "--out", out_prefix]
        return argv


def _sim(job_id, statistic, m, n, reps):
    return Job(job_id, ("simulate", "--statistic", statistic, "--m", str(m),
                        "--n", str(n), "--reps", str(reps)))


WORKLOADS = {
    # per-replicate Python overhead: Generator construction, dict and dense
    # multiplicity loops, the doubled replicate pass; tables <= 1000 entries
    "sim_small_n": (
        _sim("simC_m20", "C", 20, 100, 20000),
        _sim("simZ_m20", "Z", 20, 100, 20000),
        _sim("simC_m1000", "C", 1000, 1000, 300),
        _sim("simZ_m2000", "Z", 2000, 40, 1000),
    ),
    # table build (tau sieve) and the sparse divisor-cache path at n up to 1e6
    "sim_large_n": (
        _sim("simM_b2.5", "M", 64, "m^2.5", 2000),
        _sim("simM_b3", "M", 64, "m^3", 1000),
        _sim("simN_n1e6", "N", 100, 1000000, 1000),
    ),
    # no sampling: exact floor sums, covariances, Euler products, trend sums
    "analytic": (
        Job("exact_mu", ("exact", "--quantity", "mu", "--n", "1000000", "--r", "1")),
        Job("exact_varC", ("exact", "--quantity", "varC", "--n", "100000", "--m", "50")),
        Job("exact_varZ", ("exact", "--quantity", "varZ", "--n", "30000", "--m", "50")),
        Job("exact_pmf", ("exact", "--quantity", "pmf", "--n", "100000", "--r", "2")),
        Job("exact_d", ("exact", "--quantity", "d", "--n", "100000", "--r", "2")),
        Job("exact_pi", ("exact", "--quantity", "pi", "--n", "100000", "--r", "2")),
        Job("constants", ("constants", "--cutoff", "1000000")),
        Job("verify_trends", ("verify", "--suite", "trends")),
    ),
}

ALL_JOBS = [job for jobs in WORKLOADS.values() for job in jobs]


def stdout_digest(data: bytes) -> str:
    """sha256 of a job's stdout, ignoring the interpreter/numpy version stamp.

    JSON output is re-serialised canonically without `manifest.versions`;
    text output (verify) is hashed as written.
    """
    try:
        payload = json.loads(data)
    except ValueError:
        return hashlib.sha256(data).hexdigest()
    if isinstance(payload, dict):
        payload.get("manifest", {}).pop("versions", None)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _brute_statistic(statistic: str, x: np.ndarray, threshold: float) -> int:
    """C, Z (r=2, q=1), M or N(t) from every unordered pair's gcd."""
    g = np.gcd.outer(x, x)[np.triu_indices(x.size, k=1)]
    if statistic == "C":
        return int(np.count_nonzero(g == 1))
    if statistic == "Z":
        return int(g.sum(dtype=np.int64))
    if statistic == "M":
        return int(g.max())
    return int(np.count_nonzero(g > threshold))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_simulate(job: Job, seed: int, csv_path: Path, json_path: Path) -> list[str]:
    """Problems found in one simulate output pair; empty when correct.

    Redraws a seeded subset of replicates from the documented stream
    (Philox keyed by (seed, i), integers in [1, n]) and recomputes the raw
    statistic by brute force; checks the row count and index column, the
    normalised column against raw, and the JSON mean/sd against it.
    """
    problems = []
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["index", "raw", "normalized"]]:
        return [f"{job.id}: bad CSV header {rows[:1]}"]
    rows = rows[1:]
    reps = job.reps()
    if len(rows) != reps:
        return [f"{job.id}: {len(rows)} rows, expected {reps}"]
    if [int(r[0]) for r in rows] != list(range(reps)):
        problems.append(f"{job.id}: index column is not 0..{reps - 1}")
    raw = [int(r[1]) for r in rows]
    norm = np.array([float(r[2]) for r in rows])

    statistic = job.option("--statistic")
    m, n = int(job.option("--m")), job.sample_space()
    pairs = math.comb(m, 2)
    picker = np.random.default_rng([seed, reps])
    for i in sorted({0, reps - 1, *picker.integers(0, reps, CHECKED_REPLICATES - 2).tolist()}):
        x = np.random.Generator(np.random.Philox(key=[seed, i])).integers(1, n + 1, m)
        want = _brute_statistic(statistic, x, 1.0 * pairs)
        if raw[i] != want:
            problems.append(f"{job.id}: replicate {i} raw {raw[i]}, brute force {want}")

    raw_f = np.array(raw, dtype=np.float64)
    if statistic == "M":
        expect = raw_f / pairs
    elif statistic == "N":
        expect = raw_f
    else:
        # exact-moment normalisation is affine in raw: recover it from the
        # two extreme rows and require every row to follow it
        lo, hi = int(np.argmin(raw_f)), int(np.argmax(raw_f))
        if raw_f[hi] == raw_f[lo]:
            return problems + [f"{job.id}: all raw values equal"]
        slope = (norm[hi] - norm[lo]) / (raw_f[hi] - raw_f[lo])
        expect = norm[lo] + slope * (raw_f - raw_f[lo])
    if not np.allclose(norm, expect, rtol=1e-9, atol=1e-9):
        problems.append(f"{job.id}: normalized column does not follow raw")

    summary = json.loads(json_path.read_text())
    if not (_close(summary["mean"], float(np.mean(norm)))
            and _close(summary["sd"], float(np.std(norm)))):
        problems.append(f"{job.id}: JSON mean/sd {summary['mean']}/{summary['sd']} "
                        f"disagree with the CSV")
    if summary["manifest"]["params"]["seed"] != seed:
        problems.append(f"{job.id}: manifest seed is not {seed}")
    return problems


def check_stdout(job: Job, stdout_path: Path) -> list[str]:
    want = DIGESTS.get(job.id)
    got = stdout_digest(stdout_path.read_bytes())
    if got != want:
        return [f"{job.id}: stdout digest {got[:12]} != recorded {str(want)[:12]}"]
    return []
