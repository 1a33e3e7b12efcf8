"""Empirical-measure machinery, smoothing kernels, and the end-to-end
weighted CLT experiment at a small desk modulus."""

import dataclasses
import math
import os

import mpmath
import numpy as np
import pytest

from molliclt import stats
from molliclt._special import trigamma
from molliclt.dirichlet_l import CentralValueSet, l_values_afe
from molliclt.mollifier import params_desk
from molliclt.stats import (
    CLTReport,
    SelbergFunction,
    beurling_B,
    char_fn_plain,
    char_fn_weighted,
    clt_experiment,
    gauss_cdf,
    ks_distance,
    selberg_minorant,
    typical_set_filter,
    write_charfn_csv,
    write_interval_csv,
)
from molliclt.stats import _DEFAULT_INTERVALS, _DEFAULT_U_GRID, _interval_sums, _ks_cells

KS_GRID = np.linspace(-4.0, 4.0, 512)


# ---------------------------------------------------------------------------
# gaussian cdf

def test_gauss_cdf_anchors():
    assert gauss_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert gauss_cdf(1.9599639845400545) == pytest.approx(0.975, abs=1e-12)
    assert gauss_cdf(math.inf) == 1.0
    assert gauss_cdf(-math.inf) == 0.0


def test_gauss_cdf_symmetry_and_vector_form():
    ts = np.array([-2.5, -0.3, 0.0, 1.1, 3.7])
    vals = gauss_cdf(ts)
    assert np.allclose(vals + gauss_cdf(-ts), 1.0, atol=1e-15)
    assert np.all(np.diff(vals) > 0)


# ---------------------------------------------------------------------------
# weighted measures: intervals and KS distances

def masked_interval_measures(obs, wt):
    """Reference: one boolean mask and one sum per open interval."""
    return np.array([np.sum(wt[(obs > lo) & (obs < hi)]) for lo, hi in _DEFAULT_INTERVALS]) / np.sum(wt)


def test_measure_total_and_interval():
    rng = np.random.default_rng(3)
    n = 5000
    obs = 1.5 * rng.standard_normal(n)
    wt = rng.uniform(0.2, 1.0, n) * np.exp(0.3j * rng.standard_normal(n))
    got = _interval_sums(obs, wt) / np.sum(wt)
    assert np.max(np.abs(got - masked_interval_measures(obs, wt))) < 1e-14


def test_measure_interval_endpoints_are_open():
    # atoms on every edge -3 ... 3 and outside (-3, 3) lie in no open interval
    obs = np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, -3.5, 3.25, 1e9, -np.inf, np.inf, 0.5, -2.75])
    wt = np.ones(len(obs), dtype=np.complex128)
    wt[-1] = 1.0j
    got = _interval_sums(obs, wt)
    assert list(got) == [1.0j, 0.0, 0.0, 1.0, 0.0, 0.0]
    assert np.array_equal(got / np.sum(wt), masked_interval_measures(obs, wt))


def test_measure_guards():
    obs = np.array([0.0, 1.0])
    cancel = np.array([1.0, -1.0])
    with pytest.raises(ValueError, match="zero total"):
        ks_distance(obs, [np.ones(2), cancel])
    with pytest.raises(ValueError, match="zero total"):
        char_fn_weighted(cancel, obs, 1.0)
    with pytest.raises(ValueError, match="zero total"):
        char_fn_plain(np.array([]), 1.0)
    # a weight row of another length is refused, not broadcast
    with pytest.raises(ValueError):
        ks_distance(obs, [np.ones(3)])
    with pytest.raises(ValueError):
        char_fn_weighted(np.ones(3), obs, 1.0)


def test_ks_distance_single_atom_matches_hand_formula():
    """One unit atom at 0: the CDF is a step, so the KS statistic against
    the Gaussian is max over the grid of |1(t >= 0) - Phi(t)|."""
    expected = float(np.max(np.abs((KS_GRID >= 0.0).astype(float) - gauss_cdf(KS_GRID))))
    assert ks_distance(np.array([0.0]), [np.array([1.0])]) == pytest.approx([expected], abs=1e-15)
    assert 0.49 < expected < 0.5


def test_ks_distance_gaussian_control():
    rng = np.random.default_rng(7)
    obs = rng.standard_normal(10_000)
    (dist,) = ks_distance(obs, [np.ones(len(obs))])
    assert dist < 0.05


def sorted_ks_distance(obs, wt, grid):
    """Reference KS distance: cumulative weights over a stable sort of the
    observations, read at the right insertion point of each grid value."""
    order = np.argsort(obs, kind="stable")
    cum = np.concatenate([[0.0 + 0.0j], np.cumsum(wt[order])]) / np.sum(wt)
    idx = np.searchsorted(obs[order], grid, side="right")
    return float(np.max(np.abs(cum[idx] - gauss_cdf(grid))))


def test_ks_distance_binned_matches_sorted_oracle():
    rng = np.random.default_rng(11)
    n = 4000
    obs = rng.standard_normal(n)
    # atoms exactly on grid points pin the <= side of the cdf
    obs[:200] = rng.choice(KS_GRID, 200)
    wt = rng.uniform(0.2, 1.0, n) * np.exp(0.3j * rng.standard_normal(n))
    wt[rng.random(n) < 0.1] = 0.0  # zero-weight rows, as the typical-set filter leaves them
    kept = wt != 0
    rows = [wt, np.ones(n), np.where(kept, wt, 0.0)]
    want = [
        sorted_ks_distance(obs, wt, KS_GRID),
        sorted_ks_distance(obs, np.ones(n, dtype=complex), KS_GRID),
        sorted_ks_distance(obs[kept], wt[kept], KS_GRID),
    ]
    assert np.max(np.abs(np.array(ks_distance(obs, rows)) - want)) < 1e-12
    for row, expect in zip(rows, want):
        assert abs(ks_distance(obs, [row])[0] - expect) < 1e-12
    # None is the unit row, to the bit
    assert ks_distance(obs, [None]) == ks_distance(obs, [np.ones(n)])


@pytest.mark.parametrize("points", [512, 1000])
def test_ks_cells_match_searchsorted(points, monkeypatch):
    # the run's grid, and one whose estimate also overshoots by one at grid points
    grid = np.linspace(-4.0, 4.0, points)
    monkeypatch.setattr(stats, "_KS_GRID", grid)
    monkeypatch.setattr(stats, "_KS_PADDED", np.concatenate(([np.nan], grid, [np.nan])))
    rng = np.random.default_rng(13)
    obs = np.concatenate([
        grid,
        np.nextafter(grid, np.inf),
        np.nextafter(grid, -np.inf),
        [np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300],
        rng.standard_normal(10**6),
    ])
    assert np.array_equal(_ks_cells(obs), np.searchsorted(grid, obs, side="left"))


# ---------------------------------------------------------------------------
# characteristic functions

def test_char_fn_plain_single_point():
    val = char_fn_plain(np.array([0.7]), 1.3)
    assert val == pytest.approx(complex(math.cos(0.91), math.sin(0.91)), abs=1e-15)


def test_char_fn_plain_two_points_average():
    obs = np.array([0.5, -0.5])
    assert char_fn_plain(obs, 2.0) == pytest.approx(math.cos(1.0), abs=1e-15)


def test_char_fn_weighted_reduces_to_plain_on_unit_weights():
    obs = np.array([0.3, -1.2, 2.4])
    wt = np.ones(3)
    for u in (0.5, 1.0, 3.0):
        assert char_fn_weighted(wt, obs, u) == pytest.approx(char_fn_plain(obs, u), abs=1e-14)


def test_char_fn_weighted_hand_case():
    obs = np.array([1.0, -1.0])
    wt = np.array([2.0, 1.0])
    expect = (2.0 * np.exp(1.0j) + 1.0 * np.exp(-1.0j)) / 3.0
    assert char_fn_weighted(wt, obs, 1.0) == pytest.approx(complex(expect), abs=1e-15)


def test_char_fn_imaginary_frequency_axis():
    obs = np.array([0.25 + 0.5j])
    val = char_fn_plain(obs, 0.0, v=2.0)
    assert val == pytest.approx(np.exp(1.0j), abs=1e-15)


def test_char_fns_array_u_match_scalar_formula():
    rng = np.random.default_rng(5)
    n = 3000
    wt = rng.uniform(0.1, 2.0, n) * np.exp(0.4j * rng.standard_normal(n))
    # an uneven grid (a new step phase at every spacing change, and one
    # step back), then the run's own grid (one step phase) on |x| up to 6
    for us, obs in (
        (np.array([0.0, 0.25, 0.5, 1.3, 3.0, -2.0]), rng.standard_normal(n)),
        (np.array(_DEFAULT_U_GRID), np.concatenate([[-6.0, 6.0], rng.uniform(-6.0, 6.0, n - 2)])),
    ):
        plain = char_fn_plain(obs, us)
        weighted = char_fn_weighted(wt, obs, us)
        assert plain.shape == weighted.shape == us.shape
        for k, u in enumerate(us):
            phases = np.exp(1j * u * obs)
            assert abs(plain[k] - np.mean(phases)) < 1e-14
            assert abs(weighted[k] - np.sum(wt * phases) / np.sum(wt)) < 1e-14
    # complex observations with a v frequency take the same per-u formula
    us = np.array([0.0, 0.25, 0.5, 1.3, 3.0, -2.0])
    zobs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = char_fn_weighted(wt, zobs, us, v=0.7)
    for k, u in enumerate(us):
        want = np.sum(wt * np.exp(1j * (u * zobs.real + 0.7 * zobs.imag))) / np.sum(wt)
        assert abs(got[k] - want) < 1e-14


def test_char_fn_blocks_add_up(monkeypatch):
    rng = np.random.default_rng(9)
    n = 3000
    wt = rng.uniform(0.1, 2.0, n) * np.exp(0.4j * rng.standard_normal(n))
    obs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    us = np.array(_DEFAULT_U_GRID)
    whole = [char_fn_plain(obs, us, v=0.7), char_fn_weighted(wt, obs, us, v=0.7)]
    for block in (7, 1000, n - 1, n):
        monkeypatch.setattr(stats, "_CHAR_FN_BLOCK", block)
        blocked = [char_fn_plain(obs, us, v=0.7), char_fn_weighted(wt, obs, us, v=0.7)]
        assert np.max(np.abs(np.array(blocked) - np.array(whole))) < 1e-14
    # a weight row longer than the observations by whole blocks is refused too
    monkeypatch.setattr(stats, "_CHAR_FN_BLOCK", 7)
    with pytest.raises(ValueError, match="one weight per observation"):
        char_fn_weighted(np.ones(21), obs[:14], 1.0)


# ---------------------------------------------------------------------------
# beurling majorant

def test_trigamma_anchors():
    assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-13)
    assert trigamma(0.5) == pytest.approx(math.pi**2 / 2.0, rel=1e-13)
    assert trigamma(2.0) == pytest.approx(math.pi**2 / 6.0 - 1.0, rel=1e-13)


def test_trigamma_against_mpmath_grid():
    for x in (0.1, 0.7, 1.3, 4.2, 17.5, 120.0):
        ref = float(mpmath.polygamma(1, x))
        assert trigamma(x) == pytest.approx(ref, rel=1e-12)


def test_beurling_interpolates_sign_at_integers():
    # equality cases of the majorant: B(n) = 1 and B(-n) = -1 at integers
    assert np.allclose(beurling_B(np.array([1.0, 2.0, 5.0])), 1.0, atol=1e-12)
    assert np.allclose(beurling_B(np.array([-1.0, -3.0])), -1.0, atol=1e-12)


def test_beurling_majorizes_sign_on_dense_grid():
    xs = np.linspace(-20.0, 20.0, 4001)
    slack = beurling_B(xs) - np.sign(xs)
    assert slack.min() >= -1e-9


def test_beurling_origin_branch():
    assert beurling_B(0.0) == 1.0
    assert beurling_B(1e-9) == pytest.approx(1.0 + 2e-9, abs=1e-18)
    # continuity across the series/Taylor switch at |x| = 1e-8
    assert abs(beurling_B(2e-8) - beurling_B(5e-9)) < 1e-7


def test_beurling_against_pole_series():
    """The defining two-sided pole expansion, summed directly with mpmath:

        B(z) = (sin pi z / pi)^2 (2/z + sum_{n>=0} (z-n)^-2 - sum_{n>=1} (z+n)^-2)

    This route never touches the trigamma reflection the implementation
    rests on, so agreement checks the whole algebraic collapse."""
    mpmath.mp.dps = 30
    for z in (0.3, 1.2, 2.7, -0.6, -3.4):
        zm = mpmath.mpf(z)
        series = (
            2.0 / zm
            + mpmath.nsum(lambda n: (zm - n) ** -2, [0, mpmath.inf])
            - mpmath.nsum(lambda n: (zm + n) ** -2, [1, mpmath.inf])
        )
        ref = float((mpmath.sin(mpmath.pi * zm) / mpmath.pi) ** 2 * series)
        assert beurling_B(z) == pytest.approx(ref, rel=1e-10), z


# ---------------------------------------------------------------------------
# selberg minorant

@pytest.fixture(scope="module")
def selberg():
    return selberg_minorant((-1.0, 1.0), 8.0)


def fejer_pair(s, xs):
    """K(delta (x - a)) + K(delta (b - x)) with the Fejer kernel K = sinc^2."""
    return np.sinc(s.delta * (xs - s.a)) ** 2 + np.sinc(s.delta * (s.b - xs)) ** 2


def test_selberg_constructor_and_guards():
    s = selberg_minorant((0.0, 0.5), 1.0)
    assert isinstance(s, SelbergFunction)
    with pytest.raises(ValueError, match="bandwidth"):
        selberg_minorant((0.0, 1.0), 0.0)
    with pytest.raises(ValueError, match="positive length"):
        selberg_minorant((1.0, 1.0), 2.0)


def test_selberg_sandwich(selberg):
    xs = np.linspace(-5.0, 5.0, 3001)
    ind = ((xs >= selberg.a) & (xs <= selberg.b)).astype(float)
    assert np.min(ind - selberg.minorant(xs)) >= -1e-9
    assert np.min(selberg.majorant(xs) - ind) >= -1e-9


def test_selberg_majorant_minus_minorant_is_the_fejer_pair(selberg):
    # B(t) + B(-t) = 2 K(t) collapses the difference to the two kernels
    xs = np.linspace(-4.0, 4.0, 997)
    gap = selberg.majorant(xs) - selberg.minorant(xs)
    assert np.allclose(gap, fejer_pair(selberg, xs), atol=1e-12)


def test_selberg_fejer_bound_dominates_defect(selberg):
    xs = np.linspace(-6.0, 6.0, 2001)
    ind = ((xs >= selberg.a) & (xs <= selberg.b)).astype(float)
    defect = ind - selberg.minorant(xs)
    assert np.min(fejer_pair(selberg, xs) - defect) >= -1e-9


def test_selberg_narrow_interval_still_sandwiched():
    s = selberg_minorant((0.0, 0.25), 2.0)
    xs = np.linspace(-3.0, 3.0, 1501)
    ind = ((xs >= 0.0) & (xs <= 0.25)).astype(float)
    assert np.min(ind - s.minorant(xs)) >= -1e-9
    assert np.min(s.majorant(xs) - ind) >= -1e-9


def test_selberg_fourier_band_limit_and_mass(selberg):
    freqs, spectrum = selberg.fourier()
    mags = np.abs(spectrum)
    band = (np.abs(freqs) >= selberg.delta) & (np.abs(freqs) <= 1.6 * selberg.delta)
    assert band.any()
    assert mags[band].max() < 1e-6
    zero_idx = int(np.argmin(np.abs(freqs)))
    assert freqs[zero_idx] == 0.0
    f0 = spectrum[zero_idx]
    length = selberg.b - selberg.a
    assert abs(f0 - length) <= 2.0 / selberg.delta + 1e-9
    # the mass defect is the extremal one: exactly 1/delta below the length
    assert abs(f0 - (length - 1.0 / selberg.delta)) < 1e-6
    assert np.all(np.diff(freqs) > 0)


# ---------------------------------------------------------------------------
# typical set filter

def test_typical_set_filter_tallies(table101):
    w = np.array([1.0, 100.0, 0.001, 5.0])
    tail_piece = np.array([1.0, 1.0, 3.0, 1.0])  # tail bound is (log log 101)^2 ~ 2.34
    p = np.array([0.1, 0.2, 0.3, 10.0])
    rep = typical_set_filter(table101, w, [tail_piece], p, prime_sum_limit=3.0)
    assert rep.dropped_weight_band == 2
    assert rep.dropped_tail_product == 1
    assert rep.dropped_prime_sum == 1
    assert list(rep.kept) == [True, False, False, False]
    assert rep.kept_count == 1
    assert rep.tail_bound == pytest.approx(math.log(math.log(101)) ** 2)


def test_typical_set_filter_single_interval_skips_tail_condition(table101):
    w = np.ones(3)
    rep = typical_set_filter(table101, w, [], np.zeros(3), prime_sum_limit=1.0)
    assert rep.dropped_tail_product == 0
    assert rep.kept_count == 3


# ---------------------------------------------------------------------------
# the full experiment

@pytest.fixture(scope="module")
def report1009(table1009):
    params = params_desk(1009, [0.5], c0=1.0)
    return clt_experiment(table1009, params, l_values_afe(table1009, 0.5)), params


def test_clt_report_shape_and_sigma(report1009, table1009):
    report, params = report1009
    assert isinstance(report, CLTReport)
    assert report.q == 1009
    sigma = math.sqrt(0.5 * params.intervals[0].reciprocal_sum())
    assert report.sigma_hat == pytest.approx(sigma, rel=1e-14)
    # with two intervals P still sums over the first, (1, 1009^0.2] = {2, 3},
    # and so does its scale
    two = params_desk(1009, [0.2, 0.5], c0=1.0)
    assert clt_experiment(table1009, two, l_values_afe(table1009, 0.5)).sigma_hat == pytest.approx(math.sqrt(0.5 * (1 / 2 + 1 / 3)), rel=1e-14)
    assert len(report.rows) == 6
    assert len(report.psi) == len(report.u_grid) == len(report.phi) == 12
    assert report.exclusion_count == 0
    assert report.wall_time > 0.0


def test_clt_rows_against_gaussian(report1009):
    report, _ = report1009
    for row in report.rows:
        assert row.gauss == pytest.approx(gauss_cdf(row.hi) - gauss_cdf(row.lo), abs=1e-15)
        assert row.abs_diff == abs(row.mu - row.gauss)
    # the six unit intervals partition (-3, 3): weighted masses sum near 1
    assert sum(row.mu for row in report.rows) == pytest.approx(1.0, abs=0.05)


def test_clt_characteristic_functions_behave(report1009):
    report, _ = report1009
    assert all(abs(p) <= 1.0 + 1e-12 for p in report.psi)
    # plain and weighted tables both track the Gaussian target at this size
    for u, phi in zip(report.u_grid, report.phi):
        assert abs(phi - math.exp(-0.5 * u * u)) < 0.2


def test_clt_ks_statistics(report1009):
    report, _ = report1009
    assert 0.0 <= report.ks_plain < 0.1
    assert report.ks_weighted < 0.25
    assert report.ks_weighted_filtered < 0.3
    assert abs(report.total_weight.imag) < 1e-9 * abs(report.total_weight)


def test_clt_rejects_l_values_of_another_run(table1009, table101, report1009):
    _, params = report1009
    lv = l_values_afe(table1009, 0.5)
    with pytest.raises(ValueError, match="q 101 where the run needs 1009"):
        clt_experiment(table1009, params, l_values=l_values_afe(table101, 0.5))
    with pytest.raises(ValueError, match=r"s \(0.55\+0j\) where the run needs 0.5"):
        clt_experiment(table1009, params, l_values=l_values_afe(table1009, 0.55))
    short = CentralValueSet(q=1009, s=0.5, values=lv.values[:-1])
    with pytest.raises(ValueError, match="length 1007 where the run needs 1008"):
        clt_experiment(table1009, params, l_values=short)


def test_clt_is_deterministic(table1009, report1009):
    report, params = report1009
    rerun = clt_experiment(table1009, params, l_values_afe(table1009, 0.5))
    assert rerun.rows == report.rows
    assert rerun.phi == report.phi
    assert rerun.total_weight == report.total_weight
    assert rerun.filter_report.kept_count == report.filter_report.kept_count


# ---------------------------------------------------------------------------
# csv writers

def test_write_interval_csv_round_trips(report1009, tmp_path):
    report, _ = report1009
    path = tmp_path / "intervals.csv"
    write_interval_csv(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "interval_lo,interval_hi,mu_re,mu_im,gauss,abs_diff"
    assert len(lines) == 1 + len(report.rows)
    first = lines[1].split(",")
    assert float(first[0]) == report.rows[0].lo
    assert float(first[2]) == report.rows[0].mu.real
    assert float(first[5]) == report.rows[0].abs_diff


def test_csv_writes_are_atomic(report1009, tmp_path, monkeypatch):
    report, _ = report1009
    intervals, charfn = str(tmp_path / "intervals.csv"), str(tmp_path / "charfn.csv")
    write_interval_csv(report, intervals)
    write_charfn_csv(report.u_grid, report.phi, charfn)
    before = {name: (tmp_path / name).read_bytes() for name in ("intervals.csv", "charfn.csv")}

    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        write_interval_csv(dataclasses.replace(report, rows=report.rows[:1]), intervals)
    with pytest.raises(OSError, match="interrupted"):
        write_charfn_csv(report.u_grid[:1], report.psi[:1], charfn)
    # the old files are intact and no temporary file is left behind
    assert {name: (tmp_path / name).read_bytes() for name in before} == before
    assert sorted(os.listdir(tmp_path)) == sorted(before)


def test_write_charfn_csv_round_trips(tmp_path):
    path = tmp_path / "charfn.csv"
    write_charfn_csv([0.5, 1.0], [0.8 + 0.01j, 0.6 - 0.02j], str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "u,phi_re,phi_im,target"
    assert len(lines) == 3
    u, re, im, target = (float(v) for v in lines[1].split(","))
    assert (u, re, im) == (0.5, 0.8, 0.01)
    assert target == pytest.approx(math.exp(-0.125), rel=1e-15)
