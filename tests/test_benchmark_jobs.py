"""Every job of the benchmark, run once in process and checked by the
benchmark's own output checks (`perfbench/jobs.py`, imported read-only)."""

import sys
import types
from pathlib import Path

import pytest

from gcdstats import cli

JOBS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"
# run from its source text, so no bytecode is written next to it
jobs = types.ModuleType("perfbench_jobs")
jobs.__file__ = str(JOBS_PY)
sys.modules[jobs.__name__] = jobs  # its dataclass looks its module up
exec(compile(JOBS_PY.read_text(), JOBS_PY, "exec"), vars(jobs))

SEED = 1


@pytest.mark.parametrize("job", jobs.ALL_JOBS, ids=[job.id for job in jobs.ALL_JOBS])
def test_benchmark_job_output_passes_the_benchmark_checks(job, tmp_path, capsys):
    # a simulate job's CSV and JSON are redrawn and recomputed by brute force;
    # any other job's stdout must match its recorded digest
    assert cli.main(job.command(SEED, str(tmp_path / job.id))) == 0
    stdout = capsys.readouterr().out
    if job.is_simulate:
        problems = jobs.check_simulate(job, SEED, tmp_path / f"{job.id}.csv",
                                       tmp_path / f"{job.id}.json")
    else:
        (tmp_path / "stdout").write_text(stdout)
        problems = jobs.check_stdout(job, tmp_path / "stdout")
    assert problems == []
