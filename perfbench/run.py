#!/usr/bin/env python3
"""Benchmark of typical `gcdstats` CLI jobs, end to end and layer by layer.

    python3 perfbench/run.py --workload sim_small_n --seed 1 --seconds 36 --trace 0

A job is one `gcdstats.cli.main(argv)` call.  Jobs run one at a time (one
client, closed loop, `--workers 1`), each in a child forked from this
process after it has imported `gcdstats.cli`, so every job starts with the
program's in-memory caches empty, as a real CLI invocation does.  The
job list is cycled until `--seconds` is spent; every job runs at least
once.  Each job's output is checked outside its timed section.  Job and
setup times are scaled to a nominal machine speed measured around each
sample (see `Calibration`).

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics (see spans.py).  The
last stdout line is one JSON object; a full run record is written under
`.perfbench_runs/`.  `--self-test` shows that tampered outputs count as
failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_SAMPLES = 9
# seconds the reference work takes at the nominal machine speed
REF_NOMINAL_S = 0.1

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs as joblib  # noqa: E402
import spans as tracelib  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(joblib.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check that tampered outputs are counted as failures")
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# --- one job in a forked child ----------------------------------------------

def _child(cli, job, argv, stdout_path, stderr_path, trace_file) -> int:
    os.dup2(os.open(stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 1)
    os.dup2(os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 2)
    tracer = None
    if trace_file is not None:
        tracer = tracelib.Tracer(job.id)
        tracer.install()
    try:
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.span(f"cli.{job.id}", cli.main, (argv,))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) or exc.code is None else 1
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(trace_file)
    return code or 0


def run_job(cli, job, seed: int, work: Path, trace_file: Path | None = None) -> dict:
    """Fork, run one CLI job, wait; wall time, exit code and peak RSS."""
    argv = job.command(seed, str(work / job.id))
    stdout_path = work / f"{job.id}.stdout"
    stderr_path = work / f"{job.id}.stderr"
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            code = _child(cli, job, argv, stdout_path, stderr_path, trace_file)
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return {"job": job.id, "argv": argv, "wall_s": wall,
            "exit_code": os.waitstatus_to_exitcode(status),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "traced": trace_file is not None}


def check_outputs(job, seed: int, work: Path) -> list[str]:
    if job.is_simulate:
        return joblib.check_simulate(job, seed, work / f"{job.id}.csv",
                                     work / f"{job.id}.json")
    return joblib.check_stdout(job, work / f"{job.id}.stdout")


def _output_files(job, work: Path) -> list[Path]:
    if job.is_simulate:
        return [work / f"{job.id}.csv", work / f"{job.id}.json"]
    return [work / f"{job.id}.stdout"]


def _reference_work() -> None:
    """A fixed mix of dict, strided-sieve and numpy sampling work (~0.1 s)."""
    import numpy as np
    acc = {}
    for i in range(120_000):
        k = (i * 7919) % 100_003
        acc[k] = acc.get(k, 0) + i
    a = np.zeros(1_000_001, dtype=np.int32)
    for d in range(1, 1200):
        a[d::d] += 1
    x = np.random.Generator(np.random.Philox(key=[1, 2])).integers(1, 10**6, 200_000)
    np.sort(x)
    np.gcd(x, x[::-1]).sum()


def reference_work_s() -> float:
    """Time of the reference work, done in a forked child so that this
    process, which every job is forked from, does not grow."""
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            _reference_work()
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("reference work failed")
    return time.perf_counter() - start


class Calibration:
    """Machine speed around each timed sample.

    On a shared machine a core's speed drifts by tens of percent over
    seconds to minutes, which swamps run-to-run comparisons.  Each sample
    is bracketed by the reference work; `scaled` converts its time to
    seconds at the nominal speed (reference work = REF_NOMINAL_S).
    """

    def __init__(self):
        reference_work_s()  # the first one after start-up runs slow
        self.last = reference_work_s()

    def bracket(self, fn):
        before = self.last
        result = fn()
        self.last = reference_work_s()
        return result, (before + self.last) / 2

    @staticmethod
    def scaled(seconds: float, ref_s: float) -> float:
        return seconds * REF_NOMINAL_S / ref_s


class Runner:
    """Runs and checks jobs of one workload; keeps every run's record."""

    def __init__(self, cli, seed: int, work: Path, calibration: Calibration):
        self.cli, self.seed, self.work = cli, seed, work
        self.calibration = calibration
        self.records: list[dict] = []
        self.problems: list[str] = []
        self.first_digests: dict[str, list[str]] = {}

    def run(self, job, trace_file: Path | None = None) -> dict:
        rec, ref_s = self.calibration.bracket(
            lambda: run_job(self.cli, job, self.seed, self.work, trace_file))
        rec["ref_s"] = ref_s
        rec["scaled_s"] = Calibration.scaled(rec["wall_s"], ref_s)
        problems = []
        if rec["exit_code"] != 0:
            err = (self.work / f"{job.id}.stderr").read_text(errors="replace")
            problems.append(f"{job.id}: exit code {rec['exit_code']}: {err.strip()[-300:]}")
        else:
            # full check of a job's first output; later runs of the same
            # argv must reproduce it byte for byte
            digests = [joblib.file_digest(p) for p in _output_files(job, self.work)]
            first = self.first_digests.get(job.id)
            if first is None:
                problems = check_outputs(job, self.seed, self.work)
                if not problems:
                    self.first_digests[job.id] = digests
            elif digests != first:
                problems.append(f"{job.id}: output differs from its first run")
        rec["failed"] = bool(problems)
        self.problems.extend(problems)
        self.records.append(rec)
        return rec


# --- measurement ----------------------------------------------------------

def measure_setup(calibration: Calibration) -> list[dict]:
    """Wall time of a fresh interpreter importing gcdstats.cli, repeated."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    cmd = [sys.executable, "-c", "import gcdstats.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # byte-compile once

    def once():
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        return time.perf_counter() - start

    samples = []
    for _ in range(SETUP_SAMPLES):
        wall, ref_s = calibration.bracket(once)
        samples.append({"wall_s": wall, "ref_s": ref_s,
                        "scaled_s": Calibration.scaled(wall, ref_s)})
    return samples


def untraced_runs(runner: Runner, jobs, deadline: float) -> dict:
    """Cycle the job list until the deadline; every job runs at least once.

    After the first pass a job is started only if its median time still
    fits before the deadline.  wall_s sums the per-job median times: the
    expected wall time of one pass.
    """
    walls = {job.id: [] for job in jobs}
    scaled = {job.id: [] for job in jobs}
    rss = {job.id: [] for job in jobs}
    started = True
    first = True
    while started:
        started = False
        for job in jobs:
            if not first and time.perf_counter() + statistics.median(walls[job.id]) > deadline:
                continue
            rec = runner.run(job)
            walls[job.id].append(rec["wall_s"])
            scaled[job.id].append(rec["scaled_s"])
            rss[job.id].append(rec["peak_rss_mb"])
            started = True
        first = False
    return {
        "wall_s": sum(statistics.median(v) for v in scaled.values()),
        "raw_wall_s": sum(statistics.median(v) for v in walls.values()),
        "peak_rss_mb": max(statistics.median(v) for v in rss.values()),
        "samples_per_job": {k: len(v) for k, v in walls.items()},
        "job_median_scaled_s": {k: statistics.median(v) for k, v in scaled.items()},
    }


def traced_runs(runner: Runner, jobs, deadline: float, rundir: Path) -> dict:
    """Paired passes: each job untraced, then traced, until the deadline."""
    reps = sum(job.reps() for job in jobs)
    all_ids = [job.id for job in joblib.ALL_JOBS]
    summaries, overheads = [], []
    while True:
        pass_start = time.perf_counter()
        plain = traced = 0.0
        files = []
        for job in jobs:
            plain += runner.run(job)["wall_s"]
            path = rundir / f"spans-p{len(summaries)}-{job.id}.npz"
            traced += runner.run(job, trace_file=path)["wall_s"]
            if path.exists():
                files.append(path)
        summaries.append(tracelib.summarise(files, reps, all_ids))
        overheads.append(traced - plain)
        if time.perf_counter() + (time.perf_counter() - pass_start) > deadline:
            break
    metrics = {}
    for name, (_, unit) in summaries[0]["metrics"].items():
        metrics[name] = (statistics.median(s["metrics"][name][0] for s in summaries), unit)
    metrics["tracing_overhead_s"] = (statistics.median(overheads), "s")
    return {"metrics": metrics, "passes": len(summaries),
            "absent": sorted({a for s in summaries for a in s["absent"]})}


# --- run record -------------------------------------------------------------

def git_sha() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine() -> dict:
    import numpy as np
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def emit(result: dict) -> None:
    for name, value in result["metrics"].items():
        print(f"{name:42s} {value['value']:.6g} {value['unit']}")
    print(json.dumps(result))


def benchmark(args, cli) -> int:
    # the reference work and the jobs must see the same core's speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    jobs = joblib.WORKLOADS[args.workload]
    rundir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = rundir / "work"
    work.mkdir(parents=True)
    runner = Runner(cli, args.seed, work, Calibration())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine()}
    try:
        if args.trace:
            deadline = time.perf_counter() + args.seconds
            traced = traced_runs(runner, jobs, deadline, rundir)
            metrics = traced["metrics"]
            record.update(passes=traced["passes"], absent=traced["absent"])
            for name in traced["absent"]:
                print(f"absent: {name} no longer exists; reported as zero")
        else:
            setup = measure_setup(runner.calibration)
            deadline = time.perf_counter() + args.seconds
            plain = untraced_runs(runner, jobs, deadline)
            metrics = {
                "setup_s": (statistics.median(x["scaled_s"] for x in setup), "s"),
                "wall_s": (plain["wall_s"], "s"),
                "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
            }
            raw_setup = statistics.median(x["wall_s"] for x in setup)
            print(f"{'unscaled setup_s / wall_s':42s} {raw_setup:.6g} / "
                  f"{plain['raw_wall_s']:.6g} s")
            record.update(setup_samples=setup, raw_setup_s=raw_setup,
                          raw_wall_s=plain["raw_wall_s"],
                          samples_per_job=plain["samples_per_job"],
                          job_median_scaled_s=plain["job_median_scaled_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(runner.records)
    failed = sum(r["failed"] for r in runner.records)
    print(f"{'fail_ratio':42s} {failed / attempted:.6g} ratio ({failed} of {attempted} job runs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result=result, problems=runner.problems, job_runs=runner.records)
    (rundir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in runner.problems:
        print(f"FAIL {problem}")
    print(f"record: {rundir.relative_to(ROOT) / 'record.json'}")
    emit(result)
    return 0


def self_test(cli) -> int:
    """Tampered rows and digests must be reported as failures."""
    work = RUNS / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    seed = 7
    sim = joblib.Job("selftest_C", ("simulate", "--statistic", "C", "--m", "20",
                                    "--n", "100", "--reps", "50"))
    const = next(j for j in joblib.ALL_JOBS if j.id == "constants")
    outcomes = []
    try:
        for job in (sim, const):
            rec = run_job(cli, job, seed, work)
            outcomes.append((f"{job.id} untouched", rec["exit_code"] == 0
                             and not check_outputs(job, seed, work)))

        csv_path = work / "selftest_C.csv"
        pristine = csv_path.read_text()
        lines = pristine.splitlines(keepends=True)
        idx, raw, norm = lines[4].rstrip("\n").split(",")
        lines[4] = f"{idx},{int(raw) + 1},{norm}\n"
        csv_path.write_text("".join(lines))
        outcomes.append(("tampered raw value", bool(check_outputs(sim, seed, work))))
        csv_path.write_text("".join(lines[:1] + lines[2:]))
        outcomes.append(("dropped row", bool(check_outputs(sim, seed, work))))
        csv_path.write_text(pristine)
        outcomes.append(("wrong seed", bool(check_outputs(sim, seed + 1, work))))

        stdout_path = work / "constants.stdout"
        stdout_path.write_text(stdout_path.read_text().replace("1", "2", 1))
        outcomes.append(("tampered stdout", bool(check_outputs(const, seed, work))))
        saved = joblib.DIGESTS["constants"]
        joblib.DIGESTS["constants"] = "0" * 64
        try:
            outcomes.append(("tampered digest", bool(check_outputs(const, seed, work))))
        finally:
            joblib.DIGESTS["constants"] = saved
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, ok in outcomes:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in outcomes) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gcdstats" / "cli.py").is_file():
        print(f"error: no gcdstats sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from gcdstats import cli

    return self_test(cli) if args.self_test else benchmark(args, cli)


if __name__ == "__main__":
    sys.exit(main())
