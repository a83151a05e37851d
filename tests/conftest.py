import pytest

from gcdstats.arith import build_table


@pytest.fixture(scope="session")
def table_100():
    return build_table(100)


@pytest.fixture(scope="session")
def table_1000():
    return build_table(1000)


@pytest.fixture(scope="session")
def table_10k():
    return build_table(10_000)


@pytest.fixture
def sieve_calls(monkeypatch):
    """The table sieves run during the test, in order: 'mu', 'tau', 'spf', 'phi_<s>'."""
    from gcdstats import arith

    calls = []
    real_sieve, real_spf = arith.prime_power_sieve, arith._spf_sieve

    def sieve(n, primes, local, dtype):
        if local is arith.mobius_local:
            calls.append("mu")
        elif local is arith.tau_local:
            calls.append("tau")
        else:  # totient_local(s), read off phi_s(2) = 2^s - 1
            calls.append(f"phi_{(local(2, 1) + 1).bit_length() - 1}")
        return real_sieve(n, primes, local, dtype)

    def spf(n, primes):
        calls.append("spf")
        return real_spf(n, primes)

    monkeypatch.setattr(arith, "prime_power_sieve", sieve)
    monkeypatch.setattr(arith, "_spf_sieve", spf)
    return calls
