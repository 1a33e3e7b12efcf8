"""Random unitary character model: sampling, exact expectations, moment identities."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molliclt import random_model
from molliclt.arith import nu, smooth_integers
from molliclt.mollifier import DirichletPolynomial, params_desk, prime_sum_polynomial
from molliclt.random_model import (
    e_trunc_exact,
    exact_expectation,
    mc_expectation,
    moment_identity_check,
    sample,
)

SMALL_PRIMES = np.array([2, 3, 5, 7], dtype=np.int64)


def _moment_identity(table, params, k):
    poly = prime_sum_polynomial(params)
    return moment_identity_check(poly.evaluate_all(table), poly, k)


# --- sampling -------------------------------------------------------------


def test_sample_deterministic_and_unimodular():
    s1 = sample(SMALL_PRIMES, seed=9, index=4)
    s2 = sample(SMALL_PRIMES, seed=9, index=4)
    assert np.array_equal(s1.values, s2.values)
    assert np.max(np.abs(np.abs(s1.values) - 1.0)) < 1e-14


# X(p) at p = 2, 3, 7, 9973 as exact float bits, (real, imag) per prime
PINNED = {
    (9, 4): [
        ("-0x1.a83e663a5a9ffp-1", "0x1.1ea3488282ad8p-1"),
        ("0x1.31141ffec5814p-3", "-0x1.fa49939a25556p-1"),
        ("0x1.a3fd88b63969cp-3", "-0x1.f51e45f94cbe0p-1"),
        ("0x1.897d61b47c762p-2", "0x1.d8b0890fbfe03p-1"),
    ],
    (2**63 - 1, 70000): [
        ("0x1.fd86e8cc46a9cp-1", "-0x1.9218214709fe9p-4"),
        ("0x1.4dfd0f85c2270p-1", "-0x1.84110b5313cedp-1"),
        ("0x1.54557a7ed0954p-2", "0x1.e2e5057ac76fdp-1"),
        ("0x1.8152e3c959d24p-5", "-0x1.ff6eecd754099p-1"),
    ],
}


@pytest.mark.parametrize("seed, index", sorted(PINNED))
def test_sample_values_are_pinned_bit_for_bit(seed, index):
    values = sample(np.array([9973, 2, 7, 3, 2]), seed, index).values
    want = [complex(float.fromhex(re), float.fromhex(im)) for re, im in PINNED[seed, index]]
    assert [(v.real.hex(), v.imag.hex()) for v in values] == [(w.real.hex(), w.imag.hex()) for w in want]


def test_sample_varies_with_index_and_seed():
    base = sample(SMALL_PRIMES, seed=9, index=4).values
    assert not np.allclose(base, sample(SMALL_PRIMES, seed=9, index=5).values)
    assert not np.allclose(base, sample(SMALL_PRIMES, seed=10, index=4).values)


def test_sample_rejects_non_primes_below_two():
    with pytest.raises(ValueError):
        sample(np.array([1, 2]), seed=0, index=0)


@given(st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=60, deadline=None)
def test_sample_seed_space_no_collision_with_neighbor(seed):
    a = sample(SMALL_PRIMES, seed=seed, index=0).values
    b = sample(SMALL_PRIMES, seed=seed, index=1).values
    assert np.max(np.abs(a - b)) > 1e-9


# --- expectations ----------------------------------------------------------


def _poly(coeffs):
    return DirichletPolynomial(np.array(list(coeffs), dtype=np.int64), np.array(list(coeffs.values()), dtype=np.complex128))


def test_exact_expectation_hand_case():
    # support {1, 4}: the 1/sqrt(n) scaling halves the coefficient at 4
    a = _poly({1: 1.0, 4: 1.0})
    b = _poly({1: 1.0, 4: 0.5j})
    out = exact_expectation([(a, False), (b, True)])
    # orthogonality leaves the diagonal: 1*conj(1) + 0.5*conj(0.25j)
    assert out.value == pytest.approx(1.0 - 0.125j, abs=1e-15)
    assert out.method == "exact"


def test_exact_expectation_no_conjugate_side():
    out = exact_expectation([(_poly({2: 1.0}), False)])
    assert out.value == 0  # E X(2) = 0: only m = 1 pairs with the empty conjugate side
    out2 = exact_expectation([(_poly({1: 3.0}), False)])
    assert out2.value == pytest.approx(3.0)


def test_exact_expectation_budget():
    big = _poly({n: 1.0 for n in range(1, 4001)})
    # the second step would take 4000 * 4000 term pairs, past the budget
    assert 4000 * 4000 > random_model._PAIR_BUDGET
    with pytest.raises(RuntimeError, match="pair budget"):
        exact_expectation([(big, False), (big, False), (big, True)])


def test_mc_expectation_reproducible_and_unbiased():
    ev = lambda x: x[:, 0]  # X(2)
    out1 = mc_expectation(ev, SMALL_PRIMES, 400, seed=11)
    out2 = mc_expectation(ev, SMALL_PRIMES, 400, seed=11)
    assert out1.value == out2.value
    assert abs(out1.value) < 5 * out1.standard_error + 1e-12


def test_mc_expectation_guards():
    with pytest.raises(ValueError):
        mc_expectation(lambda x: np.ones(len(x)), SMALL_PRIMES, 50, seed=0)
    with pytest.raises(RuntimeError, match="non-finite value at sample index 0"):
        mc_expectation(lambda x: np.full(len(x), np.nan), SMALL_PRIMES, 100, seed=0)


def test_mc_expectation_blocks_match_per_index_samples(monkeypatch):
    """Blocks of draws are the rows sample() gives, and the estimate follows bit for bit."""
    monkeypatch.setattr(random_model, "_BLOCK_VALUES", 64)  # 16 rows of 4 primes
    primes = np.array([7, 2, 5, 3])
    seen = []

    def ev(x):
        seen.append(x.copy())
        z = x @ (1.0 / np.sqrt(SMALL_PRIMES))
        return z.real**2 + z.imag**2

    out = mc_expectation(ev, primes, 250, seed=9)
    assert [len(x) for x in seen] == [16] * 15 + [10]
    rows = np.concatenate(seen)
    want = np.array([sample(primes, 9, i).values for i in range(250)])
    assert rows.tobytes() == want.tobytes()
    values = np.array([ev(row[None, :])[0] for row in want], dtype=np.complex128)
    assert out.value == complex(values.mean())
    assert out.standard_error == math.sqrt((np.abs(values - out.value) ** 2).mean() / 249)


def test_mc_expectation_names_a_bad_index_in_a_later_block():
    rows_per_block = random_model._BLOCK_VALUES // len(SMALL_PRIMES)
    bad = rows_per_block + 37
    done = [0]

    def ev(x):
        out = np.ones(len(x))
        if done[0] <= bad < done[0] + len(x):
            out[bad - done[0]] = np.inf
        done[0] += len(x)
        return out

    with pytest.raises(RuntimeError, match=f"non-finite value at sample index {bad}: \\(inf\\+0j\\)"):
        mc_expectation(ev, SMALL_PRIMES, 3 * rows_per_block, seed=1)
    assert done[0] == 2 * rows_per_block  # the run stopped after the second block


def test_mc_matches_exact_for_prime_sum_second_moment():
    """E|P|^2 for P = sum X(p)/sqrt(p) equals sum 1/p; MC lands within 4 SE."""
    poly = DirichletPolynomial(SMALL_PRIMES, np.ones(len(SMALL_PRIMES), dtype=np.complex128))
    exact = exact_expectation([(poly, False), (poly, True)]).value.real
    assert exact == pytest.approx(1 / 2 + 1 / 3 + 1 / 5 + 1 / 7, rel=1e-12)

    def ev(x):
        return np.abs(x @ poly.scaled_coeff) ** 2

    mc = mc_expectation(ev, SMALL_PRIMES, 600, seed=2)
    assert abs(mc.value.real - exact) < 4 * mc.standard_error


# --- truncated exponentials -------------------------------------------------


def test_e_trunc_exact_is_partial_sum():
    t = Fraction(3, 7)
    want = sum(t**j / math.factorial(j) for j in range(5))
    assert e_trunc_exact(4, t) == want


def test_e_trunc_exact_survives_catastrophic_cancellation():
    # 25 digits cancel between terms of size 8e11 and a 9e-14 result;
    # a float recurrence would return noise; the rational sum keeps the truth
    v = e_trunc_exact(120, Fraction(-30))
    assert v > 0
    assert float(v) == pytest.approx(math.exp(-30), rel=1e-6)


def test_e_trunc_validates():
    with pytest.raises(ValueError):
        e_trunc_exact(-1, Fraction(0))


@pytest.mark.parametrize("ell", [2, 8, 20])
def test_exponential_domination_inequality(ell):
    """(1 + e^-ell) E_ell(t) >= e^t for even ell up to the t = ell/e^2 knee."""
    mpmath.mp.dps = 60
    lo, hi = -ell, ell / math.e**2
    for i in range(13):
        t = Fraction(lo) + Fraction(i, 12) * (Fraction(hi).limit_denominator(10**6) - Fraction(lo))
        lhs = (1 + mpmath.e** (-ell)) * mpmath.mpf(e_trunc_exact(ell, t).numerator) / e_trunc_exact(ell, t).denominator
        assert lhs >= mpmath.e**t


@pytest.mark.parametrize("ell", [2, 6, 16])
def test_truncated_exponential_positive_for_even_order(ell):
    for t in range(-50, 51, 7):
        assert e_trunc_exact(ell, Fraction(t)) > 0


def test_power_identity_prime_sum_vs_smooth_enumeration():
    """(sum_p c_p)^ell = ell! * sum over Omega(n)=ell smooth n of nu(n) prod c_p^e."""
    c = {2: Fraction(1, 3), 3: Fraction(-2, 5), 5: Fraction(1, 7)}
    for ell in (1, 2, 3, 4):
        lhs = sum(c.values()) ** ell
        rhs = Fraction(0)
        support = smooth_integers(list(c), ell, math.inf)
        for n, om in zip(support.values.tolist(), support.omega.tolist()):
            if om != ell:
                continue
            term = nu(n)
            m = n
            for p, cp in c.items():
                while m % p == 0:
                    term *= cp
                    m //= p
            rhs += term
        assert lhs == math.factorial(ell) * rhs


# --- moment identity --------------------------------------------------------


def test_moment_identity_small_modulus(table101):
    params = params_desk(101, [0.25])
    for k in (1, 2):
        out = _moment_identity(table101, params, k)
        assert out.char_side == pytest.approx(out.random_side, abs=1e-12)
        assert out.char_side <= out.bound + 1e-12
        assert out.random_side <= out.bound + 1e-12


def test_moment_identity_guard_on_collision_risk(table101):
    # primes reach 7: 7^4 = 2401 > 101, products can collide mod q at k=2
    params = params_desk(101, [0.5])
    _moment_identity(table101, params, 1)  # 49 < 101: fine
    with pytest.raises(ValueError, match="must stay below q"):
        _moment_identity(table101, params, 2)


def test_moment_identity_weighted(table101):
    primes = params_desk(101, [0.25]).intervals[0].primes
    poly = DirichletPolynomial(primes, (1.0 / primes).astype(np.complex128))
    out = moment_identity_check(poly.evaluate_all(table101), poly, 1)
    assert out.char_side == pytest.approx(out.random_side, abs=1e-14)
    assert out.bound == pytest.approx(sum(p**-3 for p in (2, 3)), rel=1e-12)


def test_moment_identity_validates_k(table101):
    with pytest.raises(ValueError):
        _moment_identity(table101, params_desk(101, [0.25]), 0)
