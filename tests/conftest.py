import numpy as np
import pytest


@pytest.fixture
def exact_prefix():
    """The floor-indexed prefix (`exact._FloorPrefix`) of an integer array g over
    0..n, by one plain cumsum: the reference for `exact._summatory`.

    Each of the n-entry prefix sums is at most (n+1) peak, peak = max |g(j)|,
    j <= n, which sets their width; only their O(sqrt n) floor points are kept.
    """
    from gcdstats import arith, exact

    def prefix(g, n):
        head = g[: n + 1]
        peak = int(np.abs(head).max()) if head.size else 0
        sums = np.cumsum(head, dtype=arith.int_dtype((n + 1) * peak))
        return exact._at_floor_points(sums.__getitem__, n, peak)

    return prefix


@pytest.fixture
def sieved_bounds(monkeypatch):
    """The bounds the prime sieve runs for during the test, starting with no kept sieve."""
    from gcdstats import arith

    bounds = []
    real = arith._eratosthenes
    monkeypatch.setattr(arith, "_kept", (1, arith._eratosthenes(1)))
    monkeypatch.setattr(arith, "_eratosthenes", lambda n: bounds.append(n) or real(n))
    return bounds


@pytest.fixture
def sieve_calls(monkeypatch):
    """The multiplicative sieves run during the test, in order, as (name, bound):
    name 'mu', 'tau' or 'phi_<s>', sieved whole into a table or window by
    window (`exact._summatory`)."""
    from gcdstats import arith, exact

    calls = []
    real_windows = arith.prime_power_windows

    def windows(n, primes, local, dtype, out=None):
        if local is arith.mobius_local:
            calls.append(("mu", n))
        elif local is arith.tau_local:
            calls.append(("tau", n))
        else:  # totient_local(s), read off phi_s(2) = 2^s - 1
            calls.append((f"phi_{(local(2, 1) + 1).bit_length() - 1}", n))
        return real_windows(n, primes, local, dtype, out)

    # `prime_power_sieve` takes its windows from the arith module's name
    for module in (arith, exact):
        monkeypatch.setattr(module, "prime_power_windows", windows)
    return calls


@pytest.fixture
def widths(monkeypatch):
    """The int64-or-Python-int choices made in `exact` and `montecarlo` during the
    test, in order, as (name of the function that asked, the bound it passed)."""
    import sys

    from gcdstats import arith, exact, montecarlo

    calls = []

    def spy(bound):
        calls.append((sys._getframe(1).f_code.co_name, bound))
        return arith.int_dtype(bound)

    for module in (exact, montecarlo):
        monkeypatch.setattr(module, "int_dtype", spy)
    return calls
