"""Shared fixtures: character tables and parameter sets reused across modules.

Session scope everywhere; the q=10007 table costs ~10 ms to build but the
L-value sets computed from it do not, so anything expensive derived from
these fixtures is cached by the test that owns it.
"""

import pytest

from molliclt import characters
from molliclt.characters import build_table
from molliclt.mollifier import params_desk


@pytest.fixture(scope="session")
def table101():
    return build_table(101)


@pytest.fixture(scope="session")
def table1009():
    return build_table(1009)


@pytest.fixture(scope="session")
def table10007():
    return build_table(10007)


@pytest.fixture(scope="session")
def desk_quarter():
    """Single interval (1, q^0.25] at q=10007: primes {2,3,5,7}, ell=4."""
    return params_desk(10007, [0.25], c0=1.0)


@pytest.fixture(scope="session")
def desk_half():
    """Single interval (1, q^0.5] at q=10007: 25 primes, the CLT configuration."""
    return params_desk(10007, [0.5], c0=1.0)


@pytest.fixture
def ifft_calls(monkeypatch):
    """Lengths h of the split transforms (one per real character sum) the
    character transforms run, in call order."""
    calls = []
    split_ifft = characters._split_ifft

    def counted(table, x, scratch):
        calls.append(len(x))
        return split_ifft(table, x, scratch)

    monkeypatch.setattr(characters, "_split_ifft", counted)
    return calls
