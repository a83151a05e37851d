"""Every job of the benchmark, run once in process and checked by the
benchmark's own output checks (`perfbench/jobs.py`, imported read-only),
and the width and routes of its C/Z kernel sums."""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

from gcdstats import arith, cli, montecarlo

JOBS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"
# run from its source text, so no bytecode is written next to it
jobs = types.ModuleType("perfbench_jobs")
jobs.__file__ = str(JOBS_PY)
sys.modules[jobs.__name__] = jobs  # its dataclass looks its module up
exec(compile(JOBS_PY.read_text(), JOBS_PY, "exec"), vars(jobs))

SEED = 1

# the routes the blocks of each C/Z job take: every block is dense
CZ_ROUTES = {"simC_m20": {"_dense_route"}, "simZ_m20": {"_dense_route"},
             "simC_m1000": {"_dense_route"}, "simZ_m2000": {"_dense_route"}}


def test_every_cz_job_has_its_routes_recorded():
    assert set(CZ_ROUTES) == {job.id for job in jobs.ALL_JOBS
                              if job.is_simulate and job.option("--statistic") in ("C", "Z")}


@pytest.mark.parametrize("job", jobs.ALL_JOBS, ids=[job.id for job in jobs.ALL_JOBS])
def test_benchmark_job_output_passes_the_benchmark_checks(job, tmp_path, capsys, monkeypatch,
                                                         widths):
    # a simulate job's CSV and JSON are redrawn and recomputed by brute force;
    # any other job's stdout must match its recorded digest.  A C/Z job sums
    # in int64 and takes its recorded routes.
    taken = []
    for name in ("_dense_route", "_sparse_route"):
        real = getattr(montecarlo, name)
        monkeypatch.setattr(montecarlo, name,
                            lambda *args, _real=real, _name=name: taken.append(_name) or _real(*args))
    assert cli.main(job.command(SEED, str(tmp_path / job.id))) == 0
    kernel = [arith.int_dtype(bound) for name, bound in widths if name == "_kernel_dtype"]
    if job.id in CZ_ROUTES:
        assert kernel and set(kernel) == {np.int64}
        assert set(taken) == CZ_ROUTES[job.id]
    else:
        assert kernel == [] and taken == []
    stdout = capsys.readouterr().out
    if job.is_simulate:
        problems = jobs.check_simulate(job, SEED, tmp_path / f"{job.id}.csv",
                                       tmp_path / f"{job.id}.json")
    else:
        (tmp_path / "stdout").write_text(stdout)
        problems = jobs.check_stdout(job, tmp_path / "stdout")
    assert problems == []
