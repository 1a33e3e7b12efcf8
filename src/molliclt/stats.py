"""Weighted empirical measures over character families, characteristic
functions, Gaussian comparison, Fejer and Beurling-Selberg smoothing,
typical-set filtering, and the end-to-end weighted central-limit
experiment.

The experiment's comparison bands are desk-scale observations, not
asymptotic statements; every tolerance lives in the test suite, and the
report carries enough metadata to reproduce a run byte for byte.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._io import atomic_write
from ._special import trigamma
from .characters import CharacterTable
from .dirichlet_l import CentralValueSet
from .mollifier import MollifierParams, piece_from_prime_sum, prime_sum_polynomial

__all__ = [
    "WeightedEmpiricalMeasure",
    "gauss_cdf",
    "ks_distance",
    "normalized_log_values",
    "char_fn_plain",
    "char_fn_weighted",
    "fejer_K",
    "beurling_B",
    "SelbergFunction",
    "selberg_minorant",
    "TypicalSetReport",
    "typical_set_filter",
    "IntervalRow",
    "CLTReport",
    "clt_experiment",
    "write_interval_csv",
    "write_charfn_csv",
]

_ZERO_CUTOFF = 1e-14
_KS_GRID = np.linspace(-4.0, 4.0, 512)
_SELBERG_SAMPLES = 1 << 20  # Shannon samples behind SelbergFunction.fourier
_WEIGHT_BAND = 25.0  # typical set: 1/_WEIGHT_BAND <= |W| <= _WEIGHT_BAND
_TAIL_EXPONENT = 2.0  # typical set: tail-piece product <= (log log q)^_TAIL_EXPONENT
_P_SIGMA_FACTOR = 3.0  # clt typical set: |P| / sigma_hat <= _P_SIGMA_FACTOR


def gauss_cdf(t):
    """Standard normal CDF, elementwise (accepts +-inf)."""
    if np.ndim(t) == 0:
        return 0.5 * (1.0 + math.erf(float(t) / math.sqrt(2.0)))
    arr = np.asarray(t, dtype=np.float64)
    return np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in arr])


@dataclass(frozen=True)
class WeightedEmpiricalMeasure:
    """Complex-weighted point masses: one observation per character.

    ``wt`` is one weight per observation, or a (k, n) stack of k
    weightings of the same n observations; every query then answers
    once per row, each row normalized by its own total.
    """

    obs: np.ndarray
    wt: np.ndarray

    def __post_init__(self):
        if np.shape(self.wt)[-1:] != (len(self.obs),):
            raise ValueError("observation and weight sequences differ in length")

    @cached_property
    def total(self) -> complex | np.ndarray:
        total = np.sum(self.wt, axis=-1)
        return complex(total) if np.ndim(total) == 0 else total

    def _normalize(self, sums):
        total = self.total
        if np.any(total == 0):
            raise ValueError("zero total weight")
        out = sums / total
        return complex(out) if np.ndim(out) == 0 else out

    def interval(self, lo: float, hi: float) -> complex | np.ndarray:
        mask = (self.obs > lo) & (self.obs < hi)
        return self._normalize(np.sum(self.wt[..., mask], axis=-1))

    def cdf(self, t: float) -> complex | np.ndarray:
        return self._normalize(np.sum(self.wt[..., self.obs <= t], axis=-1))


def _checked_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or len(grid) == 0 or not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
        raise ValueError("KS grid must be a nonempty, finite, strictly ascending 1-d array")
    return grid


def ks_distance(measure: WeightedEmpiricalMeasure, grid: np.ndarray | None = None) -> float | np.ndarray:
    """Sup over a fixed grid of |weighted CDF - standard normal CDF|.

    The weighted CDF is complex in general; the distance uses the
    complex modulus directly, so a drifting imaginary part shows up here
    rather than being silently discarded.  The observations are binned
    onto the grid once (obs <= grid[j] exactly when its cell is <= j),
    so each weighting costs one bincount and a cumulative sum over
    len(grid) + 1 cells; a stacked measure gives one distance per row.
    """
    grid = _KS_GRID if grid is None else _checked_grid(grid)
    cell = np.searchsorted(grid, measure.obs, side="left")
    wt = np.atleast_2d(measure.wt)
    mass = np.zeros((len(wt), len(grid) + 1), dtype=np.complex128)
    for row, out in zip(wt, mass):
        out.real = np.bincount(cell, weights=row.real, minlength=len(grid) + 1)
        if np.iscomplexobj(row):
            out.imag = np.bincount(cell, weights=row.imag, minlength=len(grid) + 1)
    cdf = measure._normalize(np.cumsum(mass[:, :-1], axis=1).T)  # (len(grid), rows)
    dist = np.max(np.abs(cdf - gauss_cdf(grid)[:, None]), axis=0)
    return float(dist[0]) if np.ndim(measure.wt) == 1 else dist


def normalized_log_values(
    l_values,
    variance_mode: str = "asymptotic",
    params: MollifierParams | None = None,
    q: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """log|L| scaled to unit variance, plus the exclusion mask.

    asymptotic mode divides by sqrt(0.5 log log q); empirical mode by
    sqrt(0.5 sum 1/p) over the first mollifier interval, the scale the
    desk-size experiments actually exhibit.  Central values below 1e-14
    in modulus are masked out (their weight vanishes in every weighted
    average) and land as 0.0 in the value slot.
    """
    if isinstance(l_values, CentralValueSet):
        arr = np.asarray(l_values.values[1:])
        q = l_values.q
    else:
        arr = np.asarray(l_values)
    if variance_mode == "asymptotic":
        if q is None:
            raise ValueError("asymptotic mode needs the modulus q")
        scale = math.sqrt(0.5 * math.log(math.log(q)))
    elif variance_mode == "empirical":
        if params is None:
            raise ValueError("empirical mode needs mollifier params")
        scale = math.sqrt(0.5 * params.intervals[0].reciprocal_sum())
    else:
        raise ValueError(f"unknown variance mode {variance_mode!r}")
    mags = np.abs(arr)
    excluded = ~(mags >= _ZERO_CUTOFF)  # catches NaN slots too
    out = np.zeros(len(arr))
    ok = ~excluded
    out[ok] = np.log(mags[ok]) / scale
    return out, excluded


def char_fn_plain(obs: np.ndarray, u: float | np.ndarray, v: float = 0.0) -> complex | np.ndarray:
    """Unweighted empirical characteristic function at frequencies (u, v).

    ``u`` is a scalar or an array; the result has its shape.
    """
    return char_fn_weighted(np.ones(len(obs)), obs, u, v)


def char_fn_weighted(
    wt: np.ndarray, obs: np.ndarray, u: float | np.ndarray, v: float = 0.0
) -> complex | np.ndarray:
    """Weight-normalized characteristic function at frequencies (u, v).

    ``u`` is a scalar or an array, and ``wt`` one weight per observation
    or a (k, n) stack of weightings of the same observations, each
    normalized by its own total; the result has shape
    ``wt.shape[:-1] + np.shape(u)``.  Each phase e^(i(u x + v y)) is
    evaluated once per frequency from real arguments (the v y term only
    for complex observations) and shared by every row.
    """
    wt = np.asarray(wt, dtype=np.complex128)
    total = np.sum(wt, axis=-1)
    if np.any(total == 0):
        raise ValueError("zero total weight")
    obs = np.asarray(obs)
    x = np.asarray(obs.real, dtype=np.float64)
    y = np.asarray(obs.imag, dtype=np.float64) if np.iscomplexobj(obs) and v != 0 else None
    us = np.asarray(u, dtype=np.float64).ravel()
    sums = np.empty(wt.shape[:-1] + us.shape, dtype=np.complex128)
    t, denom = np.empty(len(x)), np.empty(len(x))
    phase = np.empty(len(x), dtype=np.complex128)
    re, im = phase.real, phase.imag
    for k, uk in enumerate(us):
        np.multiply(x, 0.5 * uk, out=t)
        if y is not None:
            t += 0.5 * v * y
        # e^(i theta) = (1 - t^2 + 2 i t) / (1 + t^2) with t = tan(theta / 2):
        # one vectorized tan per frequency costs a fraction of cos plus sin
        np.tan(t, out=t)
        np.multiply(t, t, out=denom)
        np.subtract(1.0, denom, out=re)
        denom += 1.0
        np.divide(re, denom, out=re)
        np.multiply(t, 2.0, out=im)
        np.divide(im, denom, out=im)
        sums[..., k] = wt @ phase
    out = (sums / np.asarray(total)[..., None]).reshape(wt.shape[:-1] + np.shape(u))
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# smoothing kernels

def fejer_K(x) -> np.ndarray:
    """(sin pi x / pi x)^2 with the continuous value 1 at 0."""
    return np.sinc(np.asarray(x, dtype=np.float64)) ** 2


def beurling_B(x) -> np.ndarray:
    """Beurling's entire majorant of sgn(x).

    For x > 0 the two-sided pole series collapses (via the trigamma
    reflection) to 1 + (sin pi x / pi)^2 (2/x - 2 psi_1(1+x)), which is
    numerically stable; negative arguments come from the reflection
    B(-x) = 2 K(x) - B(x), and a Taylor step covers the origin.
    """
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty_like(arr)
    tiny = np.abs(arr) < 1e-8
    out[tiny] = 1.0 + 2.0 * arr[tiny]

    def positive_branch(xs: np.ndarray) -> np.ndarray:
        sin_sq = (np.sin(math.pi * xs) / math.pi) ** 2
        return 1.0 + sin_sq * (2.0 / xs - 2.0 * trigamma(1.0 + xs))

    pos = (arr > 0) & ~tiny
    out[pos] = positive_branch(arr[pos])
    neg = (arr < 0) & ~tiny
    if np.any(neg):
        flipped = -arr[neg]
        out[neg] = 2.0 * np.sinc(flipped) ** 2 - positive_branch(flipped)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class SelbergFunction:
    """Band-limited minorant of the indicator of [a, b] at bandwidth delta.

    ``narrow`` flags delta * (b - a) < 1, where the construction is
    still valid but the minorant dips badly below the indicator.
    """

    a: float
    b: float
    delta: float
    narrow: bool

    def minorant(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return -0.5 * (beurling_B(self.delta * (self.a - x)) + beurling_B(self.delta * (x - self.b)))

    def majorant(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * (beurling_B(self.delta * (x - self.a)) + beurling_B(self.delta * (self.b - x)))

    def fejer_bound(self, x) -> np.ndarray:
        """The kernel sum dominating indicator minus minorant pointwise."""
        x = np.asarray(x, dtype=np.float64)
        return fejer_K(self.delta * (x - self.a)) + fejer_K(self.delta * (self.b - x))

    def fourier(self) -> tuple[np.ndarray, np.ndarray]:
        """Transform of the minorant by Shannon sampling plus FFT.

        The minorant is band-limited to [-delta, delta]; sampling at
        spacing h = 1/(3.2 delta) pushes the alias images 2.2 delta away
        from the band edge, so every reported frequency below 1.6 delta
        is alias-free and the residual there is pure spatial truncation,
        a bit under 1e-6 at _SELBERG_SAMPLES samples.  Returns
        (frequencies ascending, transform values).
        """
        h = 1.0 / (3.2 * self.delta)
        center = 0.5 * (self.a + self.b)
        offsets = (np.arange(_SELBERG_SAMPLES) - _SELBERG_SAMPLES // 2) * h
        vals = self.minorant(center + offsets)
        freqs = np.fft.fftfreq(_SELBERG_SAMPLES, d=h)
        # F(xi) = h sum f(x_n) e^(-2 pi i xi x_n) with x_n = x0 + n h; the FFT
        # supplies the e^(-2 pi i k n / N) part, the grid origin the rest
        x0 = center + offsets[0]
        spectrum = h * np.fft.fft(vals) * np.exp(-2j * math.pi * freqs * x0)
        order = np.argsort(freqs)
        return freqs[order], spectrum[order]


def selberg_minorant(interval: tuple[float, float], delta: float) -> SelbergFunction:
    a, b = float(interval[0]), float(interval[1])
    if not delta > 0:
        raise ValueError("bandwidth must be positive")
    if not a < b:
        raise ValueError("interval must have positive length")
    return SelbergFunction(a=a, b=b, delta=delta, narrow=delta * (b - a) < 1.0)


# ---------------------------------------------------------------------------
# typical set

@dataclass(frozen=True)
class TypicalSetReport:
    """Mask of characters surviving the three typicality conditions."""

    kept: np.ndarray
    dropped_weight_band: int
    dropped_tail_product: int
    dropped_prime_sum: int
    tail_bound: float

    @property
    def kept_count(self) -> int:
        return int(np.sum(self.kept))


def typical_set_filter(
    table: CharacterTable,
    w_values: np.ndarray,
    interval_factors: Sequence[np.ndarray],
    p_values: np.ndarray,
    prime_sum_limit: float,
) -> TypicalSetReport:
    """Apply the three typicality conditions and count each exclusion.

    (1) |W| within [1/_WEIGHT_BAND, _WEIGHT_BAND]; (2) the product of
    the tail mollifier pieces (indices j >= 1) bounded by
    (log log q)^_TAIL_EXPONENT; (3) |P| at most ``prime_sum_limit``, in
    whatever units the caller normalized P to.  Conditions are evaluated
    independently, so one character can count against several drop
    tallies.
    """
    tail_bound = math.log(math.log(table.q)) ** _TAIL_EXPONENT
    w_abs = np.abs(np.asarray(w_values))
    cond1 = (w_abs >= 1.0 / _WEIGHT_BAND) & (w_abs <= _WEIGHT_BAND)
    if len(interval_factors) > 1:
        tail_prod = np.ones(len(w_abs))
        for piece in interval_factors[1:]:
            tail_prod = tail_prod * np.abs(np.asarray(piece))
        cond2 = tail_prod <= tail_bound
    else:
        cond2 = np.ones(len(w_abs), dtype=bool)
    cond3 = np.abs(np.asarray(p_values)) <= prime_sum_limit
    kept = cond1 & cond2 & cond3
    return TypicalSetReport(
        kept=kept,
        dropped_weight_band=int(np.sum(~cond1)),
        dropped_tail_product=int(np.sum(~cond2)),
        dropped_prime_sum=int(np.sum(~cond3)),
        tail_bound=float(tail_bound),
    )


# ---------------------------------------------------------------------------
# the experiment

_DEFAULT_INTERVALS = ((-3.0, -2.0), (-2.0, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 2.0), (2.0, 3.0))
_DEFAULT_U_GRID = tuple(0.25 * k for k in range(1, 13))


@dataclass(frozen=True)
class IntervalRow:
    lo: float
    hi: float
    mu: complex
    gauss: float

    @property
    def abs_diff(self) -> float:
        return abs(self.mu - self.gauss)


@dataclass(frozen=True)
class CLTReport:
    """Everything a weighted CLT run produced, ready for serialization."""

    q: int
    sigma_hat: float
    exclusion_count: int
    rows: tuple[IntervalRow, ...]
    u_grid: tuple[float, ...]
    psi: tuple[complex, ...]
    phi: tuple[complex, ...]
    ks_weighted: float
    ks_weighted_filtered: float
    ks_plain: float
    filter_report: TypicalSetReport
    total_weight: complex
    wall_time: float


def clt_experiment(table: CharacterTable, params: MollifierParams, l_values: CentralValueSet) -> CLTReport:
    """Run the full weighted central-limit pipeline at one modulus.

    Observable: the real part of the first-interval prime sum P, scaled
    by sigma_hat = sqrt(0.5 sum 1/p) over the same primes.  Weight:
    central L-value times the mollifier, evaluated per character.  The
    report carries the weighted measures of _DEFAULT_INTERVALS, both
    characteristic function tables on _DEFAULT_U_GRID against the
    Gaussian target, and grid KS distances raw, plain and
    typical-set-filtered.
    Deterministic: no sampling anywhere.  ``l_values`` must hold
    L(1/2, chi) for this modulus, one value per label.
    """
    t0 = time.perf_counter()
    wrong = [
        f"{name} {got} where the run needs {want}"
        for name, got, want in (
            ("q", l_values.q, table.q), ("s", l_values.s, 0.5), ("length", len(l_values.values), table.m)
        )
        if got != want
    ]
    if wrong:
        raise ValueError("l_values do not fit this run: " + "; ".join(wrong))

    # one transform per interval gives its prime sum P_j, and the piece is
    # e_ell_j(-P_j): no support is enumerated.  P_0 is also the observable.
    p_sums = [prime_sum_polynomial(params, j).evaluate_all(table)[1:] for j in range(params.J + 1)]
    piece_vals = [piece_from_prime_sum(p, ell) for p, ell in zip(p_sums, params.ell)]
    sigma_hat = math.sqrt(0.5 * params.intervals[0].reciprocal_sum())
    obs = p_sums[0].real / sigma_hat
    del p_sums

    # the three weightings of the observations, stacked so the phases and
    # grid cells are computed once for all of them: raw W = L M, unit
    # (plain), and W on the typical set only
    l_arr = np.asarray(l_values.values[1:])
    stack = np.empty((3, len(l_arr)), dtype=np.complex128)
    w = np.multiply(l_arr, piece_vals[0], out=stack[0])
    for extra in piece_vals[1:]:
        w *= extra
    stack[1] = 1.0

    phi, psi = char_fn_weighted(stack[:2], obs, _DEFAULT_U_GRID)

    filt = typical_set_filter(table, w, piece_vals, obs, prime_sum_limit=_P_SIGMA_FACTOR)
    stack[2] = w
    stack[2][~filt.kept] = 0.0

    weighted = WeightedEmpiricalMeasure(obs=obs, wt=w)
    rows = tuple(
        IntervalRow(lo=lo, hi=hi, mu=weighted.interval(lo, hi), gauss=gauss_cdf(hi) - gauss_cdf(lo))
        for lo, hi in _DEFAULT_INTERVALS
    )

    ks_weighted, ks_plain, ks_weighted_filtered = (
        float(d) for d in ks_distance(WeightedEmpiricalMeasure(obs=obs, wt=stack))
    )
    return CLTReport(
        q=table.q,
        sigma_hat=sigma_hat,
        exclusion_count=int(np.sum(~(np.abs(l_arr) >= _ZERO_CUTOFF))),
        rows=rows,
        u_grid=_DEFAULT_U_GRID,
        psi=tuple(complex(p) for p in psi),
        phi=tuple(complex(p) for p in phi),
        ks_weighted=ks_weighted,
        ks_weighted_filtered=ks_weighted_filtered,
        ks_plain=ks_plain,
        filter_report=filt,
        total_weight=weighted.total,
        wall_time=time.perf_counter() - t0,
    )


def write_interval_csv(report: CLTReport, path: str) -> None:
    rows = (
        f"{row.lo!r},{row.hi!r},{row.mu.real!r},{row.mu.imag!r},{row.gauss!r},{row.abs_diff!r}\n"
        for row in report.rows
    )
    atomic_write(path, "".join(["interval_lo,interval_hi,mu_re,mu_im,gauss,abs_diff\n", *rows]).encode("utf-8"))


def write_charfn_csv(u_grid: Sequence[float], values: Sequence[complex], path: str) -> None:
    rows = (f"{u!r},{val.real!r},{val.imag!r},{math.exp(-0.5 * u * u)!r}\n" for u, val in zip(u_grid, values))
    atomic_write(path, "".join(["u,phi_re,phi_im,target\n", *rows]).encode("utf-8"))
