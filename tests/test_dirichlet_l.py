"""Central L-values: Hurwitz oracle, smoothed functional equation, caches, moments."""

import dataclasses
import math
import os
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molliclt import characters, dirichlet_l
from molliclt.arith import primes_up_to
from molliclt.characters import batch_character_sums, build_table
from molliclt.dirichlet_l import (
    _HEADER,
    _RECORD_DTYPE,
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


def test_tail_cut_is_read_by_every_afe_route(table1009, tmp_path, monkeypatch):
    # a cut of 4 stops both sums far too early: the routes still agree
    # with each other, and the cache records the cut they used
    monkeypatch.setattr(dirichlet_l, "TAIL_CUT", 4.0)
    vals = l_values_afe(table1009, 0.5)
    oracle = l_values_oracle(table1009, 0.5)
    for a in (1, 2, 503, 1007):
        single = afe_l_value(table1009, a, 0.5)
        assert abs(single - vals.values[a]) < 1e-10
        assert abs(single - oracle.values[a]) > 1e-8
    assert np.min(np.abs(vals.values[1:] - oracle.values[1:])) > 1e-8
    path = str(tmp_path / "cache.bin")
    save_l_values(path, vals)
    assert read_cache_header(path).tail_cut == 4.0


def test_functional_equation_residuals_q101(table101):
    vals = l_values_afe(table101, 0.5)
    stats = fe_residual_stats(table101, 0.5, vals.values)
    assert stats["max"] < 1e-8


def test_fe_residuals_off_center_raise(table101):
    vals = l_values_afe(table101, 0.6)
    with pytest.raises(ValueError):
        fe_residual_stats(table101, 0.6, vals.values)


def test_afe_rejects_s_outside_its_disc(table101):
    with pytest.raises(ValueError, match="tuned"):
        l_values_afe(table101, 0.65)
    with pytest.raises(ValueError, match="tuned"):
        afe_l_value(table101, 1, 0.65)


@pytest.mark.parametrize("q, want", [(101, 36), (1009, 114), (10007, 357), (1000003, 3569)])
def test_afe_sums_end_at_the_documented_cut(q, want):
    n, _, _ = dirichlet_l._afe_terms(q, 0.5)
    assert np.array_equal(n, np.arange(1, want + 1))
    assert math.pi * want**2 / q >= dirichlet_l.TAIL_CUT > math.pi * (want - 1) ** 2 / q


@pytest.mark.parametrize("s, calls", [(0.5, 2), (0.52, 4)])
def test_afe_weights_take_one_gamma_call_per_order(monkeypatch, s, calls):
    orders = []
    real = dirichlet_l.upper_regularized_gamma

    def counted(a, x):
        orders.append(a)
        return real(a, x)

    monkeypatch.setattr(dirichlet_l, "upper_regularized_gamma", counted)
    dirichlet_l._afe_terms(1009, complex(s))
    assert len(orders) == calls


def test_afe_singleton_matches_batch(table101):
    batch = l_values_afe(table101, 0.5)
    for a in (1, 2, 50, 99):
        assert abs(afe_l_value(table101, a, 0.5) - batch.values[a]) < 1e-10


@pytest.mark.parametrize("s", [0.52, 0.48])
def test_afe_singleton_matches_batch_off_center(table1009, s):
    # off the central point the dual sum has its own gamma order and transform
    batch = l_values_afe(table1009, s)
    for a in (2, 503):  # one even and one odd label
        assert table1009.delta(a) == a % 2
        assert abs(afe_l_value(table1009, a, s) - batch.values[a]) < 1e-10


def test_afe_value_set_carries_residuals_exactly_at_the_center(table1009):
    vals = l_values_afe(table1009, 0.5)
    assert vals.residual_stats == fe_residual_stats(table1009, 0.5, vals.values)
    assert l_values_afe(table1009, 0.52).residual_stats is None


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
    clt_experiment(t, params_desk(1009, [0.5], c0=1.0), vals)
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
    save_l_values(path, vals)
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
    save_l_values(path, CentralValueSet(q=101, s=0.5, values=values, method="afe", residual_stats={"max": 0.0, "mean": 0.0}))
    _, _, _, loaded = load_l_values(path)
    assert loaded.tobytes() == values.tobytes()


def test_cache_header_carries_afe_settings_and_health(tmp_path, table101):
    vals = l_values_afe(table101, 0.5)
    path = str(tmp_path / "cache.bin")
    save_l_values(path, vals)
    head = read_cache_header(path)
    assert (head.q, head.s, head.tail_cut, head.afe_version, head.count) == (101, 0.5, 40.0, 3, 100)
    assert head.fe_residual_max == vals.residual_stats["max"]
    assert head.fe_residual_mean == vals.residual_stats["mean"]
    # a set without residual statistics has nothing to put in the header
    with pytest.raises(ValueError, match="FE residual statistics"):
        save_l_values(path, l_values_oracle(table101, 0.5))


def test_cached_afe_values_equal_a_computation(tmp_path, table101):
    vals = l_values_afe(table101, 0.5)
    path = tmp_path / "cache.bin"
    save_l_values(str(path), vals)
    hit = cached_afe_values(str(path), table101, 0.5)
    assert hit.values.tobytes() == vals.values.tobytes()
    assert (hit.q, hit.s, hit.method, hit.residual_stats) == (vals.q, vals.s, vals.method, vals.residual_stats)
    assert cached_afe_values(str(path), table101, 0.55) is None
    assert cached_afe_values(str(path), build_table(103), 0.5) is None
    # the same values under permuted labels are not the run's values
    raw = path.read_bytes()
    records = np.frombuffer(raw, dtype=_RECORD_DTYPE, offset=_HEADER.size).copy()
    records["label"] = records["label"][::-1]
    path.write_bytes(raw[: _HEADER.size] + records.tobytes())
    assert cached_afe_values(str(path), table101, 0.5) is None


def test_cache_rejects_corruption(tmp_path, table101):
    vals = l_values_afe(table101, 0.5)
    path = tmp_path / "cache.bin"
    save_l_values(str(path), vals)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_l_values(str(path))


def test_cache_rejects_truncation_and_old_versions(tmp_path, table101):
    vals = l_values_afe(table101, 0.5)
    path = tmp_path / "cache.bin"
    save_l_values(str(path), vals)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    for reader in (load_l_values, read_cache_header):
        with pytest.raises(ValueError, match="stray bytes"):
            reader(str(path))
    path.write_bytes(raw[:30])
    with pytest.raises(ValueError, match="truncated header"):
        read_cache_header(str(path))
    # the version-1 layout: magic, version, q, s, then the same records
    path.write_bytes(struct.pack("<4sIQdd", b"LCHI", 1, 101, 0.5, 0.0) + raw[-100 * _RECORD_DTYPE.itemsize :])
    with pytest.raises(ValueError, match="unsupported version 1"):
        load_l_values(str(path))


def test_cache_write_is_atomic(tmp_path, table101, monkeypatch):
    vals = l_values_afe(table101, 0.5)
    path = tmp_path / "cache.bin"
    save_l_values(str(path), vals)
    before = path.read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        save_l_values(str(path), dataclasses.replace(vals, values=2 * vals.values))
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
    # the equality case: a support element equal to q is refused
    with pytest.raises(ValueError, match="largest support element 101 >= q = 101$"):
        twisted_second_moment_empirical(
            table101, 0.0, 0.0, np.array([1, 101]), np.array([1.0 + 0j, 1.0 + 0j])
        )
