"""Central L-values: Hurwitz oracle, smoothed functional equation, caches, moments."""

import math

import mpmath
import numpy as np
import pytest

from molliclt import characters
from molliclt.characters import build_table
from molliclt.dirichlet_l import (
    CentralValueSet,
    afe_l_value,
    fe_residual_stats,
    hurwitz_zeta,
    l_values_afe,
    l_values_oracle,
    load_l_values,
    save_l_values,
    twisted_second_moment,
    twisted_second_moment_empirical,
    zeta,
)
from molliclt.mollifier import params_desk
from molliclt.stats import clt_experiment


def test_hurwitz_zeta_classical_anchors():
    assert abs(hurwitz_zeta(2.0, 1.0) - math.pi**2 / 6) < 1e-13
    # zeta(s, 1/2) = (2^s - 1) zeta(s)
    assert abs(hurwitz_zeta(3.0, 0.5) - 7.0 * zeta(3.0)) < 1e-12
    assert abs(zeta(0.5) - (-1.4603545088095868)) < 1e-12


def test_hurwitz_zeta_at_zero_is_half_minus_x():
    for x in (0.2, 0.5, 0.9, 1.0):
        assert abs(hurwitz_zeta(0.0, x) - (0.5 - x)) < 1e-12


def test_hurwitz_zeta_vs_mpmath_grid():
    mpmath.mp.dps = 30
    xs = np.linspace(0.05, 1.0, 7)
    for s in (0.5, 2.0, 0.5 + 14.13j, -1.5):
        got = hurwitz_zeta(s, xs)
        want = np.array([complex(mpmath.zeta(s, float(x))) for x in xs])
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) < 1e-12


def test_hurwitz_zeta_rejects_pole_and_bad_x():
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 0.5)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 0.0)


def test_oracle_vs_afe_q101(table101):
    orc = l_values_oracle(table101, 0.5)
    afe = l_values_afe(table101, 0.5)
    assert isinstance(orc, CentralValueSet)
    gap = np.max(np.abs(orc.values[1:] - afe.values[1:]))
    assert gap < 1e-8


def test_functional_equation_residuals_q101(table101):
    vals = l_values_afe(table101, 0.5)
    stats = fe_residual_stats(table101, 0.5, vals.values)
    assert stats["max"] < 1e-8


def test_fe_residuals_off_center_need_dual(table101):
    vals = l_values_afe(table101, 0.6)
    with pytest.raises(ValueError):
        fe_residual_stats(table101, 0.6, vals.values)
    dual = l_values_afe(table101, 0.4)
    stats = fe_residual_stats(table101, 0.6, vals.values, dual.values)
    assert stats["max"] < 1e-8


def test_afe_singleton_matches_batch(table101):
    batch = l_values_afe(table101, 0.5)
    for a in (1, 2, 50, 99):
        assert abs(afe_l_value(table101, a, 0.5) - batch.values[a]) < 1e-10


def test_root_numbers_computed_once_per_table(monkeypatch):
    """The AFE, the residuals and the CLT pipeline share one Gauss-sum transform."""
    calls = []
    real = characters.gauss_sums_all

    def counted(table):
        calls.append(table.q)
        return real(table)

    monkeypatch.setattr(characters, "gauss_sums_all", counted)
    t = build_table.__wrapped__(1009)  # a fresh table, outside the build cache
    vals = l_values_afe(t, 0.5)
    stats = fe_residual_stats(t, 0.5, vals.values)
    clt_experiment(t, params_desk(1009, [0.5], c0=1.0))
    assert calls == [1009]
    assert stats["max"] < 1e-8
    assert not characters.root_numbers(t).flags.writeable

    oracle = l_values_oracle(t, 0.5)
    assert np.max(np.abs(vals.values[1:] - oracle.values[1:])) < 1e-8
    for a in (1, 2, 503, 1007):
        assert abs(afe_l_value(t, a, 0.5) - vals.values[a]) < 1e-10


def test_central_values_nonzero_at_desk_scale(table101):
    vals = l_values_afe(table101, 0.5)
    assert np.min(np.abs(vals.values[1:])) > 1e-8


def test_principal_slot_is_nan_sentinel(table101):
    vals = l_values_afe(table101, 0.5)
    assert math.isnan(vals.values[0].real)
    with pytest.raises(ValueError):
        vals.value(0)


def test_oracle_vs_hurwitz_combination_mod3():
    # the odd quadratic character mod 3: L(s, chi) = 3^-s (zeta(s,1/3) - zeta(s,2/3))
    t = build_table(3)
    mpmath.mp.dps = 30
    for s in (2.0, 0.5):
        orc = l_values_oracle(t, s)
        want = complex(3**-s * (mpmath.zeta(s, mpmath.mpf(1) / 3) - mpmath.zeta(s, mpmath.mpf(2) / 3)))
        assert abs(orc.values[1] - want) < 1e-12


def test_cache_roundtrip(tmp_path, table101):
    vals = l_values_afe(table101, 0.5)
    path = str(tmp_path / "cache.bin")
    save_l_values(path, 101, 0.5, vals.values)
    q, s, labels, loaded = load_l_values(path)
    assert q == 101 and s == 0.5
    assert np.array_equal(labels, np.arange(100))
    # bit-exact roundtrip (slot 0 is the NaN sentinel)
    assert np.array_equal(loaded, vals.values, equal_nan=True)


def test_cache_rejects_corruption(tmp_path, table101):
    vals = l_values_afe(table101, 0.5)
    path = str(tmp_path / "cache.bin")
    save_l_values(path, 101, 0.5, vals.values)
    raw = bytearray(open(path, "rb").read())
    raw[0] ^= 0xFF
    open(path, "wb").write(bytes(raw))
    with pytest.raises(ValueError):
        load_l_values(path)


def test_twisted_second_moment_prediction_tracks_empirical(table1009):
    """Two-term main formula against the character average, trivial twist."""
    support = np.array([1], dtype=np.int64)
    coeffs = np.array([1.0 + 0.0j])
    out = twisted_second_moment(table1009, 0.02, 0.015, support, coeffs)
    assert out.discrepancy < 10.0 * out.error_scale
    assert out.empirical.imag == pytest.approx(0.0, abs=1e-6)


def test_twisted_second_moment_antidiagonal_pole_averaging(table1009):
    support = np.array([1, 2, 3], dtype=np.int64)
    coeffs = np.array([1.0, -0.5, -0.3], dtype=np.complex128)
    out = twisted_second_moment(table1009, 0.01, -0.01, support, coeffs)
    # the two main terms have opposite-sign poles; their sum stays finite
    assert math.isfinite(out.predicted.real) and math.isfinite(out.predicted.imag)
    assert abs(out.predicted) < 50
    assert out.discrepancy < 10.0 * out.error_scale


def test_twisted_empirical_even_only_flag(table101):
    support = np.array([1, 2], dtype=np.int64)
    coeffs = np.array([1.0, 0.25], dtype=np.complex128)
    even = twisted_second_moment_empirical(table101, 0.0, 0.0, support, coeffs)
    both = twisted_second_moment_empirical(table101, 0.0, 0.0, support, coeffs, even_only=False)
    assert abs(even - both) > 1e-12  # odd characters genuinely contribute


def test_twist_support_must_stay_below_modulus(table101):
    with pytest.raises(ValueError):
        twisted_second_moment_empirical(
            table101, 0.0, 0.0, np.array([101]), np.array([1.0 + 0j])
        )
