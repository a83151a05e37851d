"""Every demo runs to the end; demos 01 and 05 print their pinned figures."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _stdout(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(path.stem for path in DEMOS.glob("*.py")))
def test_demo_runs(name):
    assert _stdout(name)


def test_demo_01_prints_the_worst_marginal_bound_ratio():
    lines = _stdout("01_exact_distribution").splitlines()
    assert lines[-1] == "  worst deviation-to-bound ratio over k <= 1000: 0.4940 (at k=503)"


def test_demo_05_prints_the_same_trajectories():
    grid = "C/(E C) at m = (10, 30, 100, 300, 1000, 3000, 10000)"
    assert _stdout("05_strong_law") == f"""\
seed 1:  {grid}
         1.2413  1.1859  1.1374  1.0679  0.9991  0.9957  1.0026
seed 2:  {grid}
         0.8397  0.8007  0.8868  0.8916  0.9692  0.9981  0.9970
seed 3:  {grid}
         0.9127  0.8195  0.8792  0.9310  0.9784  1.0061  1.0035

each row is one realization; all approach 1 as m grows
"""
