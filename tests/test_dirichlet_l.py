"""Central L-values: Hurwitz oracle, smoothed functional equation, caches, moments."""

import math
import os
import struct

import inspect

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molliclt import characters
from molliclt.arith import primes_up_to
from molliclt.characters import batch_character_sums, build_table
from molliclt.dirichlet_l import (
    TAIL_CUT,
    CentralValueSet,
    afe_l_value,
    cached_afe_values,
    fe_residual_stats,
    hurwitz_zeta,
    l_values_afe,
    l_values_oracle,
    load_l_values,
    read_cache_header,
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


@given(st.sampled_from([int(p) for p in primes_up_to(2000) if p >= 3]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_afe_vs_hurwitz_property(q):
    table = build_table(q)
    gap = np.max(np.abs(l_values_afe(table, 0.5).values[1:] - l_values_oracle(table, 0.5).values[1:]))
    assert gap < 1e-8, q


def test_one_tail_cut_for_every_afe_route():
    # a cached value set is reused only under the cut it was computed with
    for fn in (l_values_afe, afe_l_value):
        assert inspect.signature(fn).parameters["tail_cut"].default == TAIL_CUT == 40.0


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


HEALTH = {"max": 1e-13, "mean": 1e-15}  # residual statistics for caches whose header is not under test


def test_cache_roundtrip(tmp_path, table101):
    vals = l_values_afe(table101, 0.5)
    path = str(tmp_path / "cache.bin")
    save_l_values(path, 101, 0.5, vals.values, tail_cut=40.0, residual_stats=HEALTH)
    q, s, labels, loaded = load_l_values(path)
    assert q == 101 and s == 0.5
    assert np.array_equal(labels, np.arange(100))
    # bit-exact roundtrip (slot 0 is the NaN sentinel)
    assert loaded.tobytes() == vals.values.tobytes()


def test_cache_roundtrip_keeps_signed_zeros_and_non_finite_parts(tmp_path):
    parts = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.5]
    values = np.empty(len(parts) ** 2, dtype=np.complex128)
    values.real = np.repeat(parts, len(parts))
    values.imag = np.tile(parts, len(parts))
    path = str(tmp_path / "cache.bin")
    save_l_values(path, 101, 0.5, values, tail_cut=40.0, residual_stats=HEALTH)
    _, _, _, loaded = load_l_values(path)
    assert loaded.tobytes() == values.tobytes()


def test_cache_header_carries_afe_settings_and_health(tmp_path, table101):
    vals = l_values_afe(table101, 0.5, tail_cut=40.0, residuals=True)
    path = str(tmp_path / "cache.bin")
    save_l_values(path, 101, 0.5, vals.values, tail_cut=40.0, residual_stats=vals.residual_stats)
    head = read_cache_header(path)
    assert (head.q, head.s, head.tail_cut, head.afe_version, head.count) == (101, 0.5, 40.0, 1, 100)
    assert head.fe_residual_max == vals.residual_stats["max"]
    assert head.fe_residual_mean == vals.residual_stats["mean"]


def test_cached_afe_values_equal_a_computation(tmp_path, table101):
    vals = l_values_afe(table101, 0.5, tail_cut=40.0, residuals=True)
    path = str(tmp_path / "cache.bin")
    save_l_values(path, 101, 0.5, vals.values, tail_cut=40.0, residual_stats=vals.residual_stats)
    hit = cached_afe_values(path, table101, 0.5, 40.0)
    assert hit.values.tobytes() == vals.values.tobytes()
    assert (hit.q, hit.s, hit.method, hit.residual_stats) == (vals.q, vals.s, vals.method, vals.residual_stats)
    assert cached_afe_values(path, table101, 0.5, 20.0) is None
    assert cached_afe_values(path, table101, 0.55, 40.0) is None
    assert cached_afe_values(path, build_table(103), 0.5, 40.0) is None
    # the same values under permuted labels are not the run's values
    save_l_values(path, 101, 0.5, vals.values, labels=np.arange(100)[::-1],
                  tail_cut=40.0, residual_stats=vals.residual_stats)
    assert cached_afe_values(path, table101, 0.5, 40.0) is None


def test_cache_rejects_corruption(tmp_path, table101):
    vals = l_values_afe(table101, 0.5)
    path = str(tmp_path / "cache.bin")
    save_l_values(path, 101, 0.5, vals.values, tail_cut=40.0, residual_stats=HEALTH)
    raw = bytearray(open(path, "rb").read())
    raw[0] ^= 0xFF
    open(path, "wb").write(bytes(raw))
    with pytest.raises(ValueError):
        load_l_values(path)


def test_cache_rejects_truncation_and_old_versions(tmp_path, table101):
    vals = l_values_afe(table101, 0.5)
    path = tmp_path / "cache.bin"
    save_l_values(str(path), 101, 0.5, vals.values, tail_cut=40.0, residual_stats=HEALTH)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    for reader in (load_l_values, read_cache_header):
        with pytest.raises(ValueError, match="stray bytes"):
            reader(str(path))
    path.write_bytes(raw[:30])
    with pytest.raises(ValueError, match="truncated header"):
        read_cache_header(str(path))
    # the version-1 layout: magic, version, q, s, then the same 24-byte records
    path.write_bytes(struct.pack("<4sIQdd", b"LCHI", 1, 101, 0.5, 0.0) + raw[-100 * 24:])
    with pytest.raises(ValueError, match="unsupported version 1"):
        load_l_values(str(path))


def test_cache_write_is_atomic(tmp_path, table101, monkeypatch):
    vals = l_values_afe(table101, 0.5)
    path = tmp_path / "cache.bin"
    save_l_values(str(path), 101, 0.5, vals.values, tail_cut=40.0, residual_stats=HEALTH)
    before = path.read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        save_l_values(str(path), 101, 0.5, 2 * vals.values, tail_cut=40.0, residual_stats=HEALTH)
    # the old cache is intact and no temporary file is left behind
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["cache.bin"]


def test_twisted_second_moment_empirical_pairs_each_label_with_its_conjugate(table101):
    support = np.array([1, 2, 3], dtype=np.int64)
    coeffs = np.array([1.0, -0.5, 0.25j])
    l_alpha = l_values_afe(table101, 0.52).values
    l_beta = l_values_afe(table101, 0.515).values
    twist = batch_character_sums(table101, support, coeffs / np.sqrt(support))
    m = table101.m
    terms = [l_alpha[a] * l_beta[m - a] * twist[a] * twist[m - a] for a in range(2, m, 2)]
    got = twisted_second_moment_empirical(table101, 0.02, 0.015, support, coeffs)
    assert abs(got - np.mean(terms)) < 1e-14


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


def test_twist_support_must_stay_below_modulus(table101):
    with pytest.raises(ValueError):
        twisted_second_moment_empirical(
            table101, 0.0, 0.0, np.array([101]), np.array([1.0 + 0j])
        )
