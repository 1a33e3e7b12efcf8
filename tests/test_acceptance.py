"""The package acceptance gate.

Fourteen end-to-end checks, one test per criterion, so a verbose run
prints a single pass/fail line for each.  Tolerances are pinned here
and nowhere else; the per-module suites hold tighter bounds on the
same machinery.  Criterion 8's mid-range decay-slope band is asserted
as specified even though the implemented cutoff (checked against an
independent high-precision integration) decays more slowly on that
particular window; the README carries the expected tally.
"""

import json
import math
import os
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from molliclt.arith import factorize, nu, smooth_integers
from molliclt.characters import batch_character_sums, build_table, gauss_sums_all
from molliclt.cli import main as cli_main
from molliclt.dirichlet_l import fe_residual_stats, l_values_afe, l_values_oracle
from molliclt.hecke_rankin import (
    RankinSelbergPair,
    delta_form,
    expectation_local_L,
    expected_weight_euler,
    f_p,
    g_p,
    local_expectation,
    quadrature_expectation,
    v_cutoff,
    weight16_form,
)
from molliclt.mollifier import (
    build_dirichlet_mollifier,
    m_alpha_beta,
    params_desk,
    prime_sum_polynomial,
    w_weight,
)
from molliclt.random_model import e_trunc_exact, moment_identity_check
from molliclt.stats import clt_experiment, selberg_minorant


@pytest.fixture(scope="module")
def pair():
    return RankinSelbergPair(f=delta_form(), g=weight16_form())


@pytest.fixture(scope="module")
def clt_report(table10007, desk_half):
    return clt_experiment(table10007, desk_half, l_values_afe(table10007, 0.5))


def test_criterion_01_orthogonality_exhaustive(table101):
    start = time.perf_counter()
    span = 100
    cols = np.empty((table101.m, span), dtype=np.complex128)
    for i in range(span):
        cols[:, i] = batch_character_sums(
            table101, np.array([i + 1]), np.array([1.0 + 0.0j])
        )
    gram = cols.conj().T @ cols / table101.m
    residual = float(np.max(np.abs(gram - np.eye(span))))
    elapsed = time.perf_counter() - start
    assert residual < 1e-10
    assert elapsed < 2.0


def test_criterion_02_gauss_sum_magnitudes(table101, table10007):
    for table in (build_table(5), table101, table10007):
        tau = gauss_sums_all(table)
        worst = float(np.max(np.abs(np.abs(tau[1:]) ** 2 - table.q)))
        assert worst < 1e-9 * table.q, table.q


def test_criterion_03_l_value_trust_anchor(table101, table1009, table10007):
    start = time.perf_counter()
    for table in (table101, table1009, table10007):
        afe = l_values_afe(table, 0.5)
        oracle = l_values_oracle(table, 0.5)
        gap = float(np.max(np.abs(afe.values[1:] - oracle.values[1:])))
        assert gap < 1e-8, table.q
        residuals = fe_residual_stats(table, afe.values)
        assert residuals["max"] < 1e-8, table.q
    assert time.perf_counter() - start < 60.0


def test_criterion_04_moment_identity(table10007, desk_quarter):
    # first mollifier interval is (1, 10007^0.25], i.e. the primes 2..7
    assert list(desk_quarter.intervals[0].primes) == [2, 3, 5, 7]
    poly = prime_sum_polynomial(desk_quarter)
    values = poly.evaluate_all(table10007)
    for k in (1, 2):
        res = moment_identity_check(values, poly, k)
        assert abs(res.char_side - res.random_side) < 1e-10
        assert res.char_side <= res.bound + 1e-12
        assert res.random_side <= res.bound + 1e-12


def _brute_force_exact(params):
    """Independent rational mollifier build: per-prime dict expansion
    inside each interval, then a coprime-support convolution across
    intervals.  Returns {n: signed Fraction}."""
    interval_dicts = []
    for interval, ell in zip(params.intervals, params.ell):
        coeffs = {1: (Fraction(1), 0)}
        for p in interval.primes:
            grown = dict(coeffs)
            for n, (c, omega) in coeffs.items():
                power, mult = n, 0
                while omega + mult + 1 <= ell:
                    mult += 1
                    power *= int(p)
                    grown[power] = (c / math.factorial(mult), omega + mult)
            coeffs = grown
        interval_dicts.append(
            {n: Fraction(-1) ** omega * c for n, (c, omega) in coeffs.items()}
        )
    full = {1: Fraction(1)}
    for piece in interval_dicts:
        full = {a * b: ca * cb for a, ca in full.items() for b, cb in piece.items()}
    return full


def test_criterion_05_mollifier_algebra(desk_quarter, desk_half):
    small_configs = (desk_quarter, desk_half, params_desk(1009, [0.3], c0=1.0))
    for params in small_configs:
        mol = build_dirichlet_mollifier(params)
        assert int(mol.support.max()) <= 100_000
        built = {int(n): c for n, c in zip(mol.support, mol.exact)}
        assert built == _brute_force_exact(params)

    two_interval = params_desk(10007, [0.2, 0.3], c0=1.0)
    shifts = ((0.0, 0.0), (0.01 + 0.02j, -0.015), (0.03, 0.03j))
    for params in (desk_quarter, desk_half, two_interval):
        for alpha, beta in shifts:
            direct = m_alpha_beta(params, alpha, beta, "direct")
            moebius = m_alpha_beta(params, alpha, beta, "moebius")
            euler = m_alpha_beta(params, alpha, beta, "euler")
            scale = max(abs(direct), 1e-3)
            assert abs(direct - moebius) <= 1e-12 * scale
            assert abs(direct - euler) <= 1e-12 * scale


def test_criterion_06_local_expectation_identity(pair):
    for p in (2, 3, 5, 7):
        for s in (0.0, 0.1, 0.25 + 0.3j):
            formula = expectation_local_L(pair, p, s, "formula")
            series = expectation_local_L(pair, p, s, "series")
            assert abs(formula - series) <= 1e-12 * max(1.0, abs(formula)), (p, s)


def test_criterion_07_joint_local_factors(pair, desk_quarter):
    params = desk_quarter
    primes_small = [p for p in range(2, 101) if all(p % d for d in range(2, p))]
    for p in primes_small:
        for s in (0.0, 0.1):
            for a in (0, 1, -1, 2, 3, 4):
                series = local_expectation(pair, p, s, a, params)
                quad = quadrature_expectation(pair, p, s, a, params)
                assert abs(series - quad) < 1e-8, (p, s, a)

    # residuals against the first-order expansions at the two large test
    # primes: quadratic decay for the order-0 factor, linear for Re X
    for p in (997, 9973):
        lf, lg = pair.f.lambda_p(p), pair.g.lambda_p(p)
        w = w_weight(p, params.J, params)
        g_lead = 1.0 + (1.0 - w) ** 2 * lf * lg / p
        g_res = abs(g_p(pair, p, 0.0, params) - g_lead)
        assert g_res * p * p <= 100.0, p
        f_lead = (1.0 - w) * (lf + lg) / (2.0 * math.sqrt(p))
        f_res = abs(f_p(pair, p, 0.0, params) - f_lead)
        assert f_res * p <= 100.0, p

    # uniform decay of the twisted expectations in the X power
    for p in primes_small + [997, 9973]:
        for a in (1, 2, 3, 4):
            val = abs(local_expectation(pair, p, 0.0, a, params))
            assert val <= 5.0**a * p ** (-a / 2.0), (p, a)


def test_criterion_08_cutoff_function():
    v_small = v_cutoff(1e-8)
    assert 0.999 <= v_small <= 1.001

    for xi in (0.7, 1.0, 5.0, 50.0):
        gap = abs(v_cutoff(xi, contour_re=2.0) - v_cutoff(xi, contour_re=2.2))
        assert gap < 1e-10, xi

    v_lo, v_hi = v_cutoff(50.0), v_cutoff(400.0)
    slope = (math.log(v_hi) - math.log(v_lo)) / (math.log(400.0) - math.log(50.0))
    assert -3.5 <= slope <= -2.5, (
        f"log-log slope on [50, 400] is {slope:.4f}; the implemented cutoff "
        "(verified against independent high-precision integration) decays "
        "like xi^-1.5 on this window and only reaches cubic decay far to "
        "the right of it"
    )


def test_criterion_09_truncated_exponential_apparatus():
    mpmath.mp.dps = 60
    one = Fraction(1)
    for ell in range(2, 41, 2):
        slack = mpmath.mpf(1) + mpmath.exp(-ell)
        t_hi = Fraction(135, 1000) * ell  # just inside ell / e^2
        t_lo = -one * ell
        for k in range(9):
            t = t_lo + (t_hi - t_lo) * k / 8
            e_ell = e_trunc_exact(ell, t)
            rhs = slack * mpmath.mpf(e_ell.numerator) / mpmath.mpf(e_ell.denominator)
            lhs = mpmath.exp(mpmath.mpf(t.numerator) / mpmath.mpf(t.denominator))
            assert lhs <= rhs, (ell, float(t))

    for ell in range(2, 41, 2):
        for t in range(-50, 51):
            assert e_trunc_exact(ell, Fraction(t)) > 0, (ell, t)

    # power-vs-polynomial identity: (sum c_p)^k / k! rebuilt from the
    # nu-weighted smooth numbers with Omega(n) = k, exactly
    weights = {2: Fraction(1, 3), 3: Fraction(-2, 5), 5: Fraction(7, 4)}
    members = smooth_integers([2, 3, 5], 4)
    for k in range(1, 5):
        left = sum(weights.values()) ** k / math.factorial(k)
        right = Fraction(0)
        for n, omega in zip(members.values.tolist(), members.omega.tolist()):
            if omega != k:
                continue
            fact = factorize(n)
            term = nu(n)
            for p, e in zip(fact.primes, fact.exponents):
                term *= weights[p] ** e
            right += term
        assert left == right, k


def test_criterion_10_beurling_selberg():
    sel = selberg_minorant((-1.0, 1.0), 8.0)
    xs = np.linspace(-6.0, 6.0, 4001)
    ind = ((xs >= sel.a) & (xs <= sel.b)).astype(float)
    assert np.min(ind - sel.minorant(xs)) >= -1e-9
    assert np.min(sel.majorant(xs) - ind) >= -1e-9

    freqs, spectrum = sel.fourier()
    mags = np.abs(spectrum)
    band = (np.abs(freqs) >= sel.delta) & (np.abs(freqs) <= 1.6 * sel.delta)
    assert mags[band].max() < 1e-6
    zero_idx = int(np.argmin(np.abs(freqs)))
    f0 = spectrum[zero_idx]
    assert abs(f0 - (sel.b - sel.a)) <= 2.0 / sel.delta


def test_criterion_11_plain_prime_sum_clt(clt_report, desk_half):
    assert desk_half.intervals[0].reciprocal_sum() >= 1.5
    targets = {0.5: None, 1.0: None, 1.5: None, 2.0: None}
    for u, psi in zip(clt_report.u_grid, clt_report.psi):
        if u in targets:
            targets[u] = abs(psi - math.exp(-0.5 * u * u))
    for u, diff in targets.items():
        assert diff is not None
        assert diff <= 0.05, (u, diff)


def test_criterion_12_weighted_clt_experiment(clt_report, table10007, desk_half):
    assert clt_report.q == 10007
    worst_im = max(abs(row.mu.imag) for row in clt_report.rows)
    assert worst_im <= 0.1
    assert clt_report.ks_weighted <= 0.25
    assert clt_report.wall_time < 300.0
    rerun = clt_experiment(table10007, desk_half, l_values_afe(table10007, 0.5))
    assert rerun.rows == clt_report.rows
    assert rerun.phi == clt_report.phi
    assert rerun.total_weight == clt_report.total_weight


def test_criterion_13_random_weight_normalization(pair, desk_quarter):
    fg, gf = expected_weight_euler(pair, desk_quarter)
    assert math.isfinite(fg) and fg > 0.0
    assert abs(gf) < 0.5 * fg


def _volatile_stripped(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines()
        if '"timestamp"' not in line and '"wall_time"' not in line
    )


def _snapshot(root: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_criterion_14_rerun_determinism(tmp_path, capsys):
    commands = (
        ["characters", "--q", "101"],
        ["lvalues", "--q", "101"],
        ["clt", "--q", "101", "--theta", "0.25"],
        ["random", "--q", "101", "--theta", "0.25", "--seed", "3", "--mc", "500"],
        ["second-moment", "--q", "101", "--theta", "0.25"],
    )
    for argv in commands:
        out = tmp_path / argv[0]
        full = argv + ["--out", str(out)]
        assert cli_main(full) == 0, argv[0]
        first = _snapshot(str(out))
        assert cli_main(full) == 0, argv[0]
        second = _snapshot(str(out))
        capsys.readouterr()
        assert first.keys() == second.keys()
        for name in first:
            if name.endswith(".json"):
                a = _volatile_stripped(first[name].decode())
                b = _volatile_stripped(second[name].decode())
                json.loads(second[name])  # still well-formed
                assert a == b, (argv[0], name)
            else:
                assert first[name] == second[name], (argv[0], name)
