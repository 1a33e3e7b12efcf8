"""Hecke eigenforms and the Rankin-Selberg random model: tau, Satake, cutoffs."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from molliclt.arith import primes_up_to, sieve_primes
from molliclt.hecke_rankin import (
    RankinSelbergPair,
    delta_form,
    expectation_local_L,
    expected_weight_euler,
    f_p,
    g_p,
    lambda_prime_power,
    lambda_table,
    local_expectation,
    n_coeff,
    quadrature_expectation,
    rs_local_factor,
    satake,
    v_cutoff,
    weight16_form,
)
from molliclt.hecke_rankin import (
    _MAX_LIMIT,
    _TRUNC_MAX_TERMS,
    _crt_moduli,
    _cutoff_eval,
    _eta_cube,
    _lambda_powers,
    _mulmod,
    _prime_coefficients,
)
from molliclt.mollifier import params_desk, w_weight


@pytest.fixture(scope="module")
def pair():
    return RankinSelbergPair(delta_form(), weight16_form())


@pytest.fixture(scope="module")
def desk(pair):
    return params_desk(10007, [0.25], c0=1.0)


# --- integer q-expansions ----------------------------------------------------

ORACLE_LIMIT = 300


def _series_product(a, b):
    """Truncated product of two power series given as equal-length int lists."""
    out = [0] * len(a)
    for i, ai in enumerate(a):
        if ai:
            for j in range(len(a) - i):
                out[i + j] += ai * b[j]
    return out


@functools.lru_cache(maxsize=None)
def oracle_coefficients():
    """Exact a(n), 0 <= n <= 300, of Delta and E4 Delta in Python ints.

    eta = prod (1 - q^n) from Euler's pentagonal theorem, eta^24 from
    schoolbook products, Delta = q eta^24 and E4 = 1 + 240 sum sigma_3(n) q^n:
    independent of the production Jacobi series for eta^3 and of its CRT.
    """
    n = ORACLE_LIMIT + 1
    eta = [0] * n
    for k in range(-n, n):
        g = k * (3 * k - 1) // 2
        if g < n:
            eta[g] += 1 if k % 2 == 0 else -1
    e2 = _series_product(eta, eta)
    e4 = _series_product(e2, e2)
    e8 = _series_product(e4, e4)
    e24 = _series_product(_series_product(e8, e8), e8)
    delta = [0] + e24[: n - 1]
    eis4 = [1] + [240 * sum(d**3 for d in range(1, m + 1) if m % d == 0) for m in range(1, n)]
    return {"delta": delta, "weight16": _series_product(eis4, delta)}


def test_ramanujan_tau_anchors():
    tau = oracle_coefficients()["delta"]
    assert tau[1] == 1
    assert tau[2] == -24
    assert tau[3] == 252
    assert tau[5] == 4830
    assert tau[6] == -6048
    assert tau[7] == -16744


def test_mulmod_matches_dense_convolution():
    """One FFT product equals the truncated dense product, at every CRT modulus of the largest limit."""
    length = 600
    rng = np.random.default_rng(13)
    for m in _crt_moduli(_MAX_LIMIT):
        e3 = _eta_cube(length, m)
        top = np.full(length, m - 1, dtype=np.int64)
        noise = rng.integers(0, m, length)
        for a, b in ((e3, e3), (top, top), (noise, e3), (top, noise)):
            assert np.array_equal(_mulmod(a, b, m), np.convolve(a, b)[:length] % m)


def test_mulmod_raises_past_its_bound():
    """Residues near 2^21 put raw coefficients near 2^52: the rounding guard trips."""
    mod = 2**21 - 9
    a = np.random.default_rng(0).integers(0, mod, 4096)
    with pytest.raises(RuntimeError, match=f"FFT product mod {mod} is not exact"):
        _mulmod(a, a, mod)


def test_tau_multiplicative():
    tau = oracle_coefficients()["delta"]
    for m, n in ((2, 3), (4, 5), (9, 8), (5, 7), (25, 4)):
        assert tau[m * n] == tau[m] * tau[n]


def test_tau_hecke_recursion_at_prime_powers():
    tau = oracle_coefficients()["delta"]
    for p in (2, 3, 5):
        # a(p^2) = a(p)^2 - p^11
        assert tau[p * p] == tau[p] ** 2 - p**11
    assert tau[8] == tau[2] * tau[4] - 2**11 * tau[2]


def test_tau_691_congruence():
    """tau(n) = sigma_11(n) mod 691, the classical Ramanujan congruence."""
    tau = oracle_coefficients()["delta"]
    for n in range(1, 301):
        sigma11 = sum(d**11 for d in range(1, n + 1) if n % d == 0)
        assert (tau[n] - sigma11) % 691 == 0


def test_weight16_anchors():
    c = oracle_coefficients()["weight16"]
    assert c[1] == 1
    assert c[2] == 216
    assert c[3] == -3348
    # multiplicativity of the weight-16 eigenform coefficients
    assert c[6] == c[2] * c[3]


def test_weight16_hecke_recursion():
    c = oracle_coefficients()["weight16"]
    for p in (2, 3, 5):
        assert c[p * p] == c[p] ** 2 - p**15


def test_prime_coefficients_match_oracle():
    """Production a(p) (eta^3 Jacobi series, dot products, CRT lift) equals the oracle."""
    got = _prime_coefficients(ORACLE_LIMIT)
    oracle = oracle_coefficients()
    primes = [int(p) for p in primes_up_to(ORACLE_LIMIT)]
    for label in ("delta", "weight16"):
        assert sorted(got[label]) == [1] + primes
        for n, value in got[label].items():
            assert value == oracle[label][n], (label, n)


def test_prime_coefficient_congruences_up_to_eigen_limit():
    """tau(p) = 1 + p^11 mod 691 and a_16(p) = 1 + p^15 mod 3617 at every prime up to 1.2e5,
    the reach of lambda(n) up to about 11 q at q = 10007."""
    limit = 120_000
    got = _prime_coefficients(limit)
    primes = [int(p) for p in primes_up_to(limit)]
    assert len(primes) == 11301
    for p in primes:
        assert (got["delta"][p] - 1 - p**11) % 691 == 0, p
        assert (got["weight16"][p] - 1 - p**15) % 3617 == 0, p


def test_limit_past_exact_range_is_refused():
    """The FFT products bind: 262272 = (2^44 - 1) // (2^13 - 2)^2, every modulus being below 2^13."""
    assert max(_crt_moduli(_MAX_LIMIT)) < 2**13
    assert _MAX_LIMIT == (2**44 - 1) // (2**13 - 2) ** 2 == 262272
    for build in (delta_form, weight16_form):
        with pytest.raises(ValueError, match=f"limit {_MAX_LIMIT + 1} exceeds .* at most {_MAX_LIMIT}$"):
            build(_MAX_LIMIT + 1)


# --- normalized eigenforms -----------------------------------------------


def test_form_metadata():
    d = delta_form()
    w = weight16_form()
    assert (d.weight, w.weight) == (12, 16)
    assert d.label != w.label


def test_normalized_eigenvalue_anchors():
    d = delta_form()
    w = weight16_form()
    assert d.lambda_p(2) == pytest.approx(-24 / 2**5.5, rel=1e-15)
    assert d.lambda_p(2) == pytest.approx(-0.5303300858899106, abs=1e-15)
    assert w.lambda_p(2) == pytest.approx(216 / 2**7.5, rel=1e-15)
    assert w.lambda_p(2) == pytest.approx(1.1932426932522988, abs=1e-15)


def test_deligne_bound_all_cached_primes():
    for form in (delta_form(), weight16_form()):
        worst = max(abs(v) for v in form.lambda_cache.values())
        assert worst < 2.0


def test_lambda_p_beyond_cache_names_remedy():
    d = delta_form(1000)
    with pytest.raises(ValueError, match="rebuild the form with limit >= "):
        d.lambda_p(10007)
    with pytest.raises(ValueError, match="not prime"):
        d.lambda_p(10)


# --- Satake parameters and prime powers ---------------------------------


def test_satake_unit_circle_within_deligne_range():
    for lam in (-1.9, -0.5, 0.0, 1.3, 2.0):
        s = satake(lam)
        assert abs(s.alpha1 * s.alpha2 - 1) < 1e-14
        assert abs(s.alpha1 + s.alpha2 - lam) < 1e-14
        assert abs(abs(s.alpha1) - 1.0) < 1e-12


def test_satake_real_branch():
    s = satake(2.5)
    assert s.alpha1.imag == 0 and s.alpha2.imag == 0
    assert s.alpha1.real > 1 > s.alpha2.real > 0


def test_lambda_prime_power_recursion():
    d = delta_form()
    lam = d.lambda_p(3)
    assert lambda_prime_power(d, 3, 0) == 1.0
    assert lambda_prime_power(d, 3, 2) == pytest.approx(lam * lam - 1.0, rel=1e-14)
    assert lambda_prime_power(d, 3, 3) == pytest.approx(lam**3 - 2 * lam, rel=1e-13)


def test_lambda_prime_power_matches_tau():
    d = delta_form()
    tau = oracle_coefficients()["delta"]
    assert lambda_prime_power(d, 2, 3) == pytest.approx(tau[8] / 8**5.5, rel=1e-13)


def test_lambda_table_multiplicative():
    d = delta_form(200)
    t = lambda_table(d, 200)
    assert t[1] == 1.0
    assert t[6] == pytest.approx(t[2] * t[3], rel=1e-14)
    assert t[60] == pytest.approx(t[4] * t[3] * t[5], rel=1e-13)
    tau = oracle_coefficients()["delta"]
    for n in (10, 36, 97, 144):
        assert t[n] == pytest.approx(tau[n] / n**5.5, rel=1e-12)


def test_lambda_powers_match_the_scalar_recursion():
    """The lambda-power array at x = 1 is lambda_prime_power, bit for bit, at every exponent."""
    for form in (delta_form(), weight16_form()):
        for p in (2, 3, 97, 9973):
            powers = _lambda_powers(form, p, 1.0)
            assert powers.tolist() == [lambda_prime_power(form, p, j) for j in range(_TRUNC_MAX_TERMS)]


def test_satake_prime_power_sum():
    # lambda(p^a) = sum of alpha1^i alpha2^(a-i): geometric check via Satake
    d = delta_form()
    s = satake(d.lambda_p(5))
    for a in (1, 2, 5):
        want = sum(s.alpha1**i * s.alpha2 ** (a - i) for i in range(a + 1))
        assert lambda_prime_power(d, 5, a) == pytest.approx(want.real, rel=1e-12)


# --- local factors ------------------------------------------------------


def test_rs_local_factor_product_vs_series(pair):
    for p in (2, 3, 5):
        for s in (1.0, 1.5, 1.0 + 0.3j):
            a = rs_local_factor(pair, p, s, "product")
            b = rs_local_factor(pair, p, s, "series")
            assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_local_expectation_identity_grid(pair):
    for p in (2, 3, 5, 7):
        for s in (0.0, 0.1, 0.25 + 0.3j):
            a = expectation_local_L(pair, p, s, "formula")
            b = expectation_local_L(pair, p, s, "series")
            assert abs(a - b) < 1e-12


def test_expectation_series_validates_abscissa(pair):
    with pytest.raises(ValueError):
        expectation_local_L(pair, 2, -0.6, "series")


def test_n_coeff_first_two_terms(pair, desk):
    p = 3
    s = 0.1
    w = w_weight(p, desk.J, desk)
    lam_f = pair.f.lambda_p(p)
    lam_g = pair.g.lambda_p(p)
    coeffs = n_coeff(p, s + 0.5, pair.f, pair.g, desk)
    assert coeffs[0] == pytest.approx(1.0)
    want = (p**-s * lam_f - w * lam_g) / math.sqrt(p)
    assert coeffs[1] == pytest.approx(want, rel=1e-13)


def test_series_that_do_not_settle_raise(pair, desk):
    """Near the edge of convergence the last terms stay above the tolerance."""
    with pytest.raises(RuntimeError, match=r"^local series did not settle at p=2, s=\(0\.001\+0j\)$"):
        rs_local_factor(pair, 2, 0.001, "series")
    with pytest.raises(RuntimeError, match=r"^expectation series did not settle at p=2, s=\(-0\.44\+0j\)$"):
        expectation_local_L(pair, 2, -0.44, "series")
    with pytest.raises(RuntimeError, match=r"^local expectation series did not settle at p=2, s=-0\.49, a=1$"):
        local_expectation(pair, 2, -0.49, 1, desk)


def test_local_expectation_vs_angle_quadrature(pair, desk):
    for p in (2, 7, 47, 97):
        for a in (0, 1, -1, 2):
            series = local_expectation(pair, p, 0.0, a, desk)
            quad = quadrature_expectation(pair, p, 0.0, a, desk)
            assert abs(series - quad) < 1e-8


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_angle_quadrature_matches_series_to_rounding(pair, desk, p):
    # aliasing at N nodes is about p^(-N/2): 1.6e-10 at p = 2 with 64 nodes
    for s in (0.0, 0.1):
        for a in (-1, 0, 1, 2, 4):
            series = local_expectation(pair, p, s, a, desk)
            quad = quadrature_expectation(pair, p, s, a, desk)
            assert abs(series - quad) < 1e-14, (s, a)


def test_g_p_f_p_are_the_a0_and_symmetrized_a1_slices(pair, desk):
    p = 5
    s = 0.05
    assert g_p(pair, p, s, desk) == pytest.approx(
        local_expectation(pair, p, s, 0, desk), rel=1e-14
    )
    sym = 0.5 * (
        local_expectation(pair, p, s, 1, desk) + local_expectation(pair, p, s, -1, desk)
    )
    assert f_p(pair, p, s, desk) == pytest.approx(sym, rel=1e-14)


def test_ordering_matters_for_mixed_expectations(pair, desk):
    a = local_expectation(pair, 3, 0.0, 1, desk, ordering="fg")
    b = local_expectation(pair, 3, 0.0, 1, desk, ordering="gf")
    assert abs(a - b) > 1e-6


def test_large_prime_residual_scalings(pair, desk):
    # leading-order structure: G_p - main = O(1/p^2), F_p - main = O(1/p)
    for p in (997, 9973):
        lam_f = pair.f.lambda_p(p)
        lam_g = pair.g.lambda_p(p)
        w = w_weight(p, desk.J, desk)
        g_main = 1.0 + (1.0 - w) ** 2 * lam_f * lam_g / p
        assert abs(g_p(pair, p, 0.0, desk) - g_main) * p * p < 100
        f_main = (1.0 - w) * (lam_f + lam_g) / (2 * math.sqrt(p))
        assert abs(f_p(pair, p, 0.0, desk) - f_main) * p < 100


def test_twist_decay_bound(pair, desk):
    for p in (2, 5, 11, 101, 997):
        for a in (1, 2, 3, 4):
            val = abs(local_expectation(pair, p, 0.0, a, desk))
            assert val <= 5.0**a * p ** (-a / 2.0)


# --- archimedean cutoff ----------------------------------------------------


# frozen against an independent 30-digit quadrature of the same contour integral
V_ORACLE = {
    1e-8: 1.0,
    0.4: 0.694927634968,
    0.5: 0.6524879485616337,
    1.0: 0.510207552642,
    50.0: 0.0208381943198,
    400.0: 0.000931180901944,
}


def test_v_cutoff_oracle_values():
    for xi, want in V_ORACLE.items():
        assert v_cutoff(xi) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_v_cutoff_contour_independence():
    for xi in (0.7, 1.0, 5.0):
        a = v_cutoff(xi, contour_re=2.0)
        b = v_cutoff(xi, contour_re=2.2)
        assert abs(a - b) < 1e-10


def test_v_cutoff_continuous_at_contour_switch():
    # the implementation changes contours at xi = 0.5; no jump allowed
    left = v_cutoff(0.5 - 1e-9)
    right = v_cutoff(0.5 + 1e-9)
    assert abs(left - right) < 1e-7


def test_v_cutoff_shifted_line_matches_unshifted():
    # below xi = 1/2 the shifted line plus the residue at s = 0 must equal Re s = 2
    xis = np.array([0.25, 0.3, 0.4, 0.45, 0.49])
    direct = _cutoff_eval(xis, 2.0, 28)
    for xi, want in zip(xis, direct):
        assert abs(v_cutoff(float(xi)) - want) < 1e-10


def test_v_cutoff_monotone_decreasing():
    grid = [0.01, 0.1, 1.0, 5.0, 25.0, 100.0, 1000.0]
    vals = [v_cutoff(x) for x in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_v_cutoff_small_xi_normalization():
    assert 0.999 <= v_cutoff(1e-8) <= 1.001
    assert 0.999 <= v_cutoff(1e-12) <= 1.001


# --- Euler-product normalization ---------------------------------------


def test_expected_weight_euler_orderings(pair, desk):
    fg, gf = expected_weight_euler(pair, desk)
    assert math.isfinite(fg) and fg > 0
    assert abs(gf) < 0.5 * fg


def test_expected_weight_euler_cross_check_per_prime(pair, desk):
    """Independent route: one local factor per prime, no shared code path."""
    fg, _ = expected_weight_euler(pair, desk)
    acc = 1.0
    x = desk.intervals[-1].hi
    for p in sieve_primes(1, 10_000).primes:
        p = int(p)
        if p <= desk.c0 or p > x:
            acc *= expectation_local_L(pair, p, 0.0, "formula").real
        else:
            acc *= g_p(pair, p, 0.0, desk).real
    assert fg == pytest.approx(acc, rel=1e-3)
