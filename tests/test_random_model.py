"""Random unitary character model: sampling, exact expectations, moment identities."""

import math
import os
import subprocess
import sys
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
    circle_expectation,
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


def test_random_command_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports all of numpy.ma; the prime lists are deduplicated without it
    src = os.path.dirname(os.path.dirname(os.path.abspath(random_model.__file__)))
    code = (
        "import sys\n"
        "from molliclt.cli import main\n"
        f"assert main(['random', '--q', '1009', '--out', {str(tmp_path)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": src, "MOLLICLT_CACHE_DIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


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


def _power_coefficients(c, k):
    """Coefficients of (sum_i c_i X_i)^k keyed by exponent vector, by k plain multiplications."""
    acc = {(0,) * len(c): 1.0}
    for _ in range(k):
        nxt = {}
        for e, v in acc.items():
            for i, ci in enumerate(c):
                f = e[:i] + (e[i] + 1,) + e[i + 1 :]
                nxt[f] = nxt.get(f, 0.0) + v * ci
        acc = nxt
    return acc


def _mixed_moment(c, j, k):
    """E[P^j conj(P)^k] by orthogonality over the exponent box: monomials pair only with themselves."""
    a, b = _power_coefficients(c, j), _power_coefficients(c, k)
    return sum(v * np.conj(b[e]) for e, v in a.items() if e in b)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_exact_expectation_matches_the_exponent_box(k):
    poly = DirichletPolynomial(np.array([2, 3, 5]), np.array([0.7, -1.3, 2.1], dtype=np.complex128))
    want = _mixed_moment(poly.scaled_coeff, k, k)
    assert exact_expectation(poly, k) == pytest.approx(want.real, rel=1e-14)


@pytest.mark.parametrize("support", [[2, 4], [1, 3], [3, 9, 11]])
def test_exact_expectation_refuses_a_support_that_is_not_prime(support):
    poly = DirichletPolynomial(np.array(support), np.ones(len(support), dtype=np.complex128))
    with pytest.raises(ValueError, match="needs a prime support"):
        exact_expectation(poly, 1)


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
    exact = exact_expectation(poly, 1)
    assert exact == pytest.approx(1 / 2 + 1 / 3 + 1 / 5 + 1 / 7, rel=1e-12)

    def ev(x):
        return np.abs(x @ poly.scaled_coeff) ** 2

    mc = mc_expectation(ev, SMALL_PRIMES, 600, seed=2)
    assert abs(mc.value.real - exact) < 4 * mc.standard_error


def test_circle_expectation_of_two_truncated_exponentials():
    # unit integrand: E[e_ell(-(c1 X1 + c2 X2)) e_ell(-(d1 conj X1 + d2 conj X2))]
    # keeps only equal degrees, sum over a <= ell of 1/a!^2 times
    # sum over i of C(a, i)^2 (c1 d1)^i (c2 d2)^(a - i)
    c, d, ell = np.array([0.3, -0.7]), np.array([0.5, 1.2]), 3
    want = sum(
        sum(math.comb(a, i) ** 2 * (c[0] * d[0]) ** i * (c[1] * d[1]) ** (a - i) for i in range(a + 1))
        / math.factorial(a) ** 2
        for a in range(ell + 1)
    )
    got = circle_expectation(np.ones((2, 64)), c, d, ell)
    assert got == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("side", ["x", "xb"])
def test_circle_expectation_reads_the_circle_moments(side):
    # against 1/(1 - r conj X) = sum r^j conj(X)^j, e_ell(-c X) keeps its
    # diagonal: E = e_ell(-c r); mirrored for the conjugate side
    r, c, ell = 0.6, 1.3, 5
    x = np.exp(2j * math.pi * (np.arange(128) + 0.5) / 128)
    integrand = 1.0 / (1.0 - r * (np.conj(x) if side == "x" else x))
    coeffs = (np.array([c]), np.array([0.0])) if side == "x" else (np.array([0.0]), np.array([c]))
    got = circle_expectation(integrand[None, :], *coeffs, ell)
    assert got == pytest.approx(float(e_trunc_exact(ell, Fraction(-c * r))), rel=1e-14)
    assert circle_expectation(np.ones((0, 128)), np.zeros(0), np.zeros(0), ell) == 1.0


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
        support = smooth_integers(list(c), ell)
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


def test_moment_identity_takes_one_model_expectation(table101, monkeypatch):
    # of the 2k + 1 binomial terms of (Re P)^(2k) only P^k conj(P)^k has a
    # nonzero expectation, so one exact expectation per k gives the whole
    # binomial sum
    calls = []
    exact = random_model.exact_expectation

    def counted(poly, k):
        calls.append(k)
        return exact(poly, k)

    monkeypatch.setattr(random_model, "exact_expectation", counted)
    poly = prime_sum_polynomial(params_desk(101, [0.25]))
    values = poly.evaluate_all(table101)
    for k in (1, 2):
        calls.clear()
        out = moment_identity_check(values, poly, k)
        assert calls == [k]
        assert out.random_side == math.comb(2 * k, k) * exact(poly, k) * 2.0 ** (-2 * k)
        terms = [_mixed_moment(poly.scaled_coeff, j, 2 * k - j).real for j in range(2 * k + 1)]
        assert out.random_side == pytest.approx(
            sum(math.comb(2 * k, j) * t for j, t in enumerate(terms)) * 2.0 ** (-2 * k), rel=1e-14
        )


def test_moment_identity_validates_k(table101):
    with pytest.raises(ValueError):
        _moment_identity(table101, params_desk(101, [0.25]), 0)
