"""Reference distributions and goodness-of-fit distances.

Three reference laws cover the limit theorems being verified: the standard
normal, the shape-1 Frechet with cdf exp(-scale/t), and the Poisson.
Distances: Kolmogorov-Smirnov sup-gap for continuous values, total
variation (half-L1 over pmfs, with the reference tail mass included) for
integer counts.
"""

from __future__ import annotations

import math
from collections import Counter
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
        if self.kind == "frechet" and self.scale <= 0:
            raise ValueError("frechet scale must be positive")
        if self.kind == "poisson" and self.lam <= 0:
            raise ValueError("poisson rate must be positive")

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


def ks_distance(values, law: ReferenceLaw) -> float:
    """sup_t |F_emp(t) - F_law(t)| of continuous values, given in any order."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0:
        raise ValueError("empty empirical distribution")
    n = len(v)
    ref = np.asarray(cdf(law, v))
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(np.abs(steps - ref)), np.max(np.abs(steps - 1 / n - ref))))


_TV_SUPPORT_CAP = 64


def tv_distance(raw, law: ReferenceLaw) -> float:
    """Total variation between the integer counts `raw` and a Poisson law.

    Half the L1 gap of the pmfs up to _TV_SUPPORT_CAP, plus half of both tail
    masses (empirical beyond the cap, and the Poisson remainder), so the
    truncation can only overstate the distance.
    """
    if law.kind != "poisson":
        raise ValueError("TV distance compares against a Poisson law")
    r = len(raw)
    if r == 0:
        raise ValueError("empty empirical distribution")
    counts = Counter(raw)
    pk = poisson_pmf(law.lam, _TV_SUPPORT_CAP)
    gap = 0.0
    emp_tail = 0.0
    for value, count in counts.items():
        if value > _TV_SUPPORT_CAP:
            emp_tail += count / r
    for k in range(_TV_SUPPORT_CAP + 1):
        gap += abs(counts[k] / r - pk[k])
    poisson_tail = max(0.0, 1.0 - float(pk.sum()))
    return 0.5 * (gap + emp_tail + poisson_tail)
