"""Integer machinery: sieves, factorization, the nu weight, smooth supports."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molliclt import arith
from molliclt.arith import (
    PrimeInterval,
    big_omega,
    factorize,
    is_prime,
    liouville,
    nu,
    sieve_primes,
    smooth_integers,
)


def test_primes_up_to_anchor():
    assert list(sieve_primes(1, 30).primes) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert list(sieve_primes(1, 1).primes) == []


def test_sieve_primes_half_open_bounds():
    # (lo, hi]: lo excluded, hi included
    assert list(sieve_primes(1, 10).primes) == [2, 3, 5, 7]
    assert list(sieve_primes(10, 30).primes) == [11, 13, 17, 19, 23, 29]
    assert list(sieve_primes(7, 11).primes) == [11]
    assert list(sieve_primes(8.5, 10.9).primes) == []


def test_sieve_primes_rejects_reversed_interval():
    with pytest.raises(ValueError):
        sieve_primes(10, 1)


def test_sieve_matches_dense_sieve_on_segment():
    # besides (10^4, 1.1 10^4]: straddling 2^10 and 2^11, where the cached
    # base sieve's length doubles, and around 10^6, whose base primes reach 2^10
    for lo, hi in [(10_000, 11_000), (1000, 1030), (2040, 2060), (999_000, 1_001_000)]:
        seg = sieve_primes(lo, hi).primes
        # trial division, independent of the sieve
        dense = [n for n in range(lo + 1, hi + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))]
        assert list(seg) == dense, (lo, hi)


def test_reciprocal_sum_anchor():
    iv = sieve_primes(1, 10)
    assert math.isclose(iv.reciprocal_sum(), 1 / 2 + 1 / 3 + 1 / 5 + 1 / 7, rel_tol=1e-15)


def test_is_prime_small_and_carmichael():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(561)  # Carmichael number, catches weak Fermat tests
    assert not is_prime(1)
    assert is_prime(10007)
    assert is_prime(2**40 - 87)  # the largest prime below 2^40, settled by trial division
    # 2^61 - 1 is prime, but no prime below 2^20 divides it and it is not
    # below 2^40, so trial division cannot settle it
    with pytest.raises(ValueError, match=r"2\*\*20"):
        is_prime(2**61 - 1)


def test_factorize_anchors():
    f = factorize(360)
    assert list(f.primes) == [2, 3, 5]
    assert list(f.exponents) == [3, 2, 1]
    assert f.big_omega == 6
    assert sorted(f.divisors())[:6] == [1, 2, 3, 4, 5, 6]
    assert len(f.divisors()) == 24


def test_factorize_one():
    f = factorize(1)
    assert len(f.primes) == 0
    assert f.divisors() == [1]


@pytest.mark.parametrize(
    "p, q",
    # 65521 and 1048573 are the largest primes below 2^16 and 2^20, the last
    # entries of the sieve that the trial division reads
    [(65521, 65537), (65521, 65521), (1048573, 1048583)],
)
def test_factorize_smallest_factor_below_a_power_of_two(p, q):
    f = factorize(p * q)
    assert f.primes == tuple(sorted({p, q}))
    assert f.exponents == ((2,) if p == q else (1, 1))


def test_factorize_semiprime_needs_rho():
    # both factors above 10^6, yet the product is below 2^40: trial division
    # by the primes below 2^20 finds 1000003 and leaves the prime 1000033
    p, q = 1_000_003, 1_000_033
    f = factorize(p * q)
    assert sorted(f.primes) == [p, q]


def test_factorize_refuses_a_cofactor_it_cannot_settle():
    # 1048583 and 1048589 are the two smallest primes above 2^20, and their
    # product is above 2^40
    with pytest.raises(ValueError, match=r"1099532599387.*2\*\*20"):
        factorize(1048583 * 1048589)


@pytest.mark.parametrize("n, primes, exponents", [(59**4 * 53**4, (53, 59), (4, 4)), (2**62, (2,), (62,))])
def test_factorize_settles_smooth_integers_above_2_40(n, primes, exponents):
    f = factorize(n)
    assert (f.primes, f.exponents) == (primes, exponents)


@pytest.mark.parametrize("lo, hi", [(2**20 - 500, 2**20 + 500), (10**9 - 2000, 10**9)])
def test_is_prime_agrees_with_the_sieve(lo, hi):
    assert [n for n in range(lo + 1, hi + 1) if is_prime(n)] == sieve_primes(lo, hi).primes.tolist()


@given(st.integers(min_value=2, max_value=10**9))
@settings(max_examples=150, deadline=None)
def test_factorize_reconstructs(n):
    f = factorize(n)
    out = 1
    for p, e in zip(f.primes, f.exponents):
        assert is_prime(int(p))
        out *= int(p) ** int(e)
    assert out == n


@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=5000))
@settings(max_examples=100, deadline=None)
def test_liouville_completely_multiplicative(m, n):
    assert liouville(m * n) == liouville(m) * liouville(n)


def test_liouville_and_big_omega_anchors():
    assert liouville(1) == 1
    assert liouville(2) == -1
    assert liouville(12) == -1  # Omega = 3
    assert big_omega(64) == 6


def test_nu_prime_power_values():
    """nu is 1/a! at p^a; exact rationals, no float contamination."""
    assert nu(1) == Fraction(1)
    assert nu(8) == Fraction(1, 6)
    assert nu(12) == Fraction(1, 2)
    assert isinstance(nu(30), Fraction)


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000))
@settings(max_examples=100, deadline=None)
def test_nu_multiplicative_on_coprime(m, n):
    if math.gcd(m, n) != 1:
        return
    assert nu(m * n) == nu(m) * nu(n)


def test_smooth_integers_omega_capped():
    members = smooth_integers(sieve_primes(1, 10), 2)
    values = members.values.tolist()
    assert values == [1, 2, 3, 4, 5, 6, 7, 9, 10, 14, 15, 21, 25, 35, 49]
    assert all(om == big_omega(n) for n, om in zip(values, members.omega.tolist()))


def test_smooth_integers_support_is_divisor_closed():
    values = set(smooth_integers(sieve_primes(1, 14), 3).values.tolist())
    for n in values:
        for d in factorize(n).divisors():
            assert d in values


def test_smooth_integers_guards(monkeypatch):
    monkeypatch.setattr(arith, "SUPPORT_BUDGET", 100)
    with pytest.raises(RuntimeError):
        smooth_integers(sieve_primes(1, 100), 4)


def _factored_support_cases():
    from molliclt.mollifier import params_desk

    configs = [params_desk(10007, theta, c0=1.0) for theta in ([0.25], [0.5], [0.2, 0.3])]
    cases = [(iv, ell) for params in configs for iv, ell in zip(params.intervals, params.ell)]
    return cases + [(sieve_primes(1, 1000), 2)]


@pytest.mark.parametrize(
    "interval, ell",
    _factored_support_cases(),
    ids=["desk_quarter", "desk_half", "two_interval_0", "two_interval_1", "primes_to_1000"],
)
def test_factored_support_matches_arith_oracles(interval, ell):
    support = smooth_integers(interval, ell)
    assert support.exps.dtype == np.uint8 and np.all(support.exps > 0)
    assert list(support.primes) == list(interval.primes)
    # one triple per p^e || n, in (row, prime) order
    order = np.lexsort((support.cols, support.rows))
    assert np.array_equal(order, np.arange(len(order)))
    assert not np.any((np.diff(support.rows) == 0) & (np.diff(support.cols) == 0))
    rebuilt = np.ones(len(support.values), dtype=np.int64)
    np.multiply.at(rebuilt, support.rows, support.primes[support.cols] ** support.exps.astype(np.int64))
    assert np.array_equal(rebuilt, support.values)
    values = support.values.tolist()
    assert values == sorted(set(values)) and values[0] == 1
    assert support.omega.tolist() == [big_omega(n) for n in values]
    assert max(support.omega) <= ell
    assert support.liouville.tolist() == [liouville(n) for n in values]
    exact = [Fraction(1, d) for d in support.nu_denominators]
    assert exact == [nu(n) for n in values]
    assert support.nu.tolist() == [float(x) for x in exact]
    members = set(values)
    for n in values:
        assert all(d in members for d in factorize(n).divisors())


def test_prime_interval_accepts_plain_list():
    members = smooth_integers([2, 5], 2)
    assert members.values.tolist() == [1, 2, 4, 5, 10, 25]


def test_prime_interval_attributes():
    iv = sieve_primes(3, 20)
    assert isinstance(iv, PrimeInterval)
    assert iv.lo == 3 and iv.hi == 20
    assert list(iv.primes) == [5, 7, 11, 13, 17, 19]
