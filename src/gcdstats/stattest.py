"""Reference distributions and goodness-of-fit distances.

Three reference laws cover the limit theorems being verified: the standard
normal, the shape-1 Frechet with cdf exp(-scale/t), and the Poisson.
Distances: Kolmogorov-Smirnov sup-gap for continuous values, total
variation (half-L1 over pmfs, with the reference tail mass included) for
integer counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ReferenceLaw:
    kind: str  # "standard-normal" | "frechet" | "poisson"
    scale: float = 1.0  # frechet scale (shape is fixed at 1)
    lam: float = 1.0  # poisson rate

    def __post_init__(self):
        if self.kind not in ("standard-normal", "frechet", "poisson"):
            raise ValueError(f"unknown law kind {self.kind!r}")
        if self.kind == "frechet" and not 0 < self.scale < math.inf:
            raise ValueError(f"frechet scale must be positive and finite, got {self.scale}")
        if self.kind == "poisson" and not 0 < self.lam < math.inf:
            raise ValueError(f"poisson rate must be positive and finite, got {self.lam}")

    @staticmethod
    def normal() -> "ReferenceLaw":
        return ReferenceLaw("standard-normal")

    @staticmethod
    def frechet(scale: float) -> "ReferenceLaw":
        return ReferenceLaw("frechet", scale=scale)

    @staticmethod
    def poisson(lam: float) -> "ReferenceLaw":
        return ReferenceLaw("poisson", lam=lam)


def cdf(law: ReferenceLaw, t) -> np.ndarray | float:
    """Distribution function of the law at t (scalar or array)."""
    t = np.asarray(t, dtype=np.float64)
    if law.kind == "standard-normal":
        # erfc-based: accurate to ~1e-15 over the whole line
        vals = 0.5 * np.vectorize(math.erfc)(-t / math.sqrt(2))
    elif law.kind == "frechet":
        vals = np.where(t > 0, np.exp(-law.scale / np.where(t > 0, t, 1.0)), 0.0)
    else:
        vals = np.vectorize(lambda x: _poisson_cdf(law.lam, math.floor(x)))(t)
    return vals if vals.shape else float(vals)


def poisson_pmf(lam: float, kmax: int) -> np.ndarray:
    """pmf values 0..kmax by the stable multiplicative recursion."""
    out = np.empty(kmax + 1)
    out[0] = math.exp(-lam)
    for k in range(1, kmax + 1):
        out[k] = out[k - 1] * lam / k
    return out


def _poisson_cdf(lam: float, k: float) -> float:
    if k < 0:
        return 0.0
    return float(poisson_pmf(lam, int(k)).sum())


# runs of equal values whose cdf and gaps `ks_distance` takes at a time
_KS_RUNS = 1 << 13


def ks_distance(values, law: ReferenceLaw) -> float:
    """sup_t |F_emp(t) - F_law(t)| of continuous values, given in any order.

    With v sorted, the sup is the largest |(i+1)/n - F(v_i)| or
    |(i+1)/n - 1/n - F(v_i)|.  Along a run of equal values F is constant
    and both steps ascend, so each gap is largest at one end of the run.
    The law's cdf is taken once a run and the gaps only at the runs' first
    and last index, with the same float expressions, _KS_RUNS runs at a
    time: besides the sorted copy, only a bool mask and the runs' start
    indices are as long as the values.  Values already in ascending order
    are read as they are, with no copy.
    """
    v = np.asarray(values, dtype=np.float64)
    if not np.all(v[:-1] <= v[1:]):
        v = np.sort(v)
    if v.size == 0:
        raise ValueError("empty empirical distribution")
    n = v.size
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    np.not_equal(v[1:], v[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    del run_start
    gap = 0.0
    for lo in range(0, starts.size, _KS_RUNS):
        first = starts[lo : lo + _KS_RUNS]
        last = starts[lo + 1 : lo + 1 + _KS_RUNS] - 1
        if last.size < first.size:
            last = np.append(last, n - 1)
        ref = cdf(law, v[first])
        for i in (first, last):
            steps = (i + 1) / n
            gap = np.max([gap, np.max(np.abs(steps - ref)), np.max(np.abs(steps - 1 / n - ref))])
    return float(gap)


def integer_moments(raw, counts=None) -> tuple[float, float]:
    """Mean and population sd of the integers `raw`, from exact integer sums
    over the distinct values, so neither depends on their order.

    `counts`, when the caller has it, is np.unique(raw, return_counts=True).
    """
    if counts is None:
        counts = np.unique(np.asarray(raw), return_counts=True)
    values, counts = (a.tolist() for a in counts)
    r = sum(counts)
    if r == 0:
        raise ValueError("empty empirical distribution")
    mean = sum(v * c for v, c in zip(values, counts)) / r
    return mean, math.sqrt(sum(v * v * c for v, c in zip(values, counts)) / r - mean**2)


_TV_SUPPORT_CAP = 64


def tv_distance(raw, law: ReferenceLaw, counts=None) -> float:
    """Total variation between the integer counts `raw` and a Poisson law.

    Half the L1 gap of the pmfs up to _TV_SUPPORT_CAP, plus half of both tail
    masses (empirical beyond the cap, and the Poisson remainder), so the
    truncation can only overstate the distance.  The empirical tail adds
    its distinct values' shares in the order each value first occurs.
    `counts`, when the caller has it, is np.unique(raw, return_counts=True).
    """
    if law.kind != "poisson":
        raise ValueError("TV distance compares against a Poisson law")
    r = len(raw)
    if r == 0:
        raise ValueError("empty empirical distribution")
    raw = np.asarray(raw)
    if counts is None:
        counts = np.unique(raw, return_counts=True)
    counts = dict(zip(*(a.tolist() for a in counts)))
    _, first, tail = np.unique(raw[raw > _TV_SUPPORT_CAP], return_index=True, return_counts=True)
    pk = poisson_pmf(law.lam, _TV_SUPPORT_CAP)
    gap = 0.0
    emp_tail = 0.0
    for count in tail[np.argsort(first)].tolist():
        emp_tail += count / r
    for k in range(_TV_SUPPORT_CAP + 1):
        gap += abs(counts.get(k, 0) / r - pk[k])
    poisson_tail = max(0.0, 1.0 - float(pk.sum()))
    return 0.5 * (gap + emp_tail + poisson_tail)
