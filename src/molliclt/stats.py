"""Weighted statistics of one observation per character: grid KS
distances against the Gaussian, one per weight row, from a single
binning of the observations; characteristic functions whose phases are
products of step phases along the frequency grid; interval measures
from one floor cell per observation; the Beurling-Selberg minorant,
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
from typing import Sequence

import numpy as np

from ._io import atomic_write
from ._special import trigamma
from .characters import CharacterTable
from .dirichlet_l import CentralValueSet
from .mollifier import MollifierParams, piece_from_prime_sum, prime_sum_polynomial

__all__ = [
    "gauss_cdf",
    "ks_distance",
    "char_fn_plain",
    "char_fn_weighted",
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
# the grid padded at both ends by NaN, which compares false: the cell correction's table
_KS_PADDED = np.concatenate(([np.nan], _KS_GRID, [np.nan]))
_CHAR_FN_BLOCK = 1 << 16  # labels per block of the characteristic-function walk
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


_KS_TARGET = gauss_cdf(_KS_GRID)  # the standard normal CDF on _KS_GRID, every KS distance's target


def _ks_cells(obs: np.ndarray) -> np.ndarray:
    """The number of _KS_GRID points below each observation, as
    ``np.searchsorted(_KS_GRID, obs, side="left")`` gives it, by arithmetic.

    The grid is evenly spaced, so ceil((obs - grid[0]) / step), clipped
    to the grid, is the cell to within one; one comparison each way
    against the grid points themselves makes it exact.  Observations may
    be infinite but not NaN.
    """
    est = np.subtract(obs, _KS_GRID[0])
    est /= _KS_GRID[1] - _KS_GRID[0]
    np.ceil(est, out=est)
    np.clip(est, 0, len(_KS_GRID), out=est)
    cell = est.astype(np.intp)
    del est
    cell += _KS_PADDED[1:][cell] < obs  # grid[cell] lies below obs
    cell -= _KS_PADDED[cell] >= obs  # grid[cell - 1] does not
    return cell


def ks_distance(obs: np.ndarray, rows: Sequence[np.ndarray | None]) -> list[float]:
    """Sup over _KS_GRID of |weighted CDF - standard normal CDF|, one per weight row.

    Each row weights the same observations and is normalized by its own
    total; None stands for unit weights.  The weighted CDF is complex in
    general; the distance uses the complex modulus directly, so a
    drifting imaginary part shows up here rather than being silently
    discarded.  The observations are binned onto the grid once (obs <=
    grid[j] exactly when its cell is <= j), so the unit row and a real
    row cost one bincount, a complex row two, and each a cumulative sum
    over len(_KS_GRID) + 1 cells.
    """
    cell = _ks_cells(obs)
    cells = len(_KS_GRID) + 1
    dists = []
    for row in rows:
        if row is None:
            total, mass = len(cell), np.bincount(cell, minlength=cells)
        else:
            total, mass = np.sum(row), np.bincount(cell, weights=row.real, minlength=cells)
            if np.iscomplexobj(row):
                mass = mass + 1j * np.bincount(cell, weights=row.imag, minlength=cells)
        if total == 0:
            raise ValueError("zero total weight")
        dists.append(float(np.max(np.abs(np.cumsum(mass[:-1]) / total - _KS_TARGET))))
    return dists


def char_fn_plain(obs: np.ndarray, u: float | np.ndarray, v: float = 0.0) -> complex | np.ndarray:
    """Unweighted empirical characteristic function at frequencies (u, v).

    ``u`` is a scalar or an array; the result has its shape.
    """
    return _char_fn(None, obs, u, v)


def char_fn_weighted(
    wt: np.ndarray, obs: np.ndarray, u: float | np.ndarray, v: float = 0.0
) -> complex | np.ndarray:
    """Weight-normalized characteristic function at frequencies (u, v).

    ``wt`` is one weight per observation, ``u`` a scalar or an array;
    the result has the shape of ``u``.
    """
    return _char_fn(np.asarray(wt, dtype=np.complex128), obs, u, v)


def _unit_phase(t: np.ndarray, out: np.ndarray) -> None:
    """e^(2 i t) into ``out`` as (1 - tan^2 + 2 i tan) / (1 + tan^2) of t,
    overwriting ``t``: one vectorized tan costs a fraction of cos plus sin
    or a complex exp."""
    np.tan(t, out=t)
    denom = t * t
    np.subtract(1.0, denom, out=out.real)
    denom += 1.0
    np.divide(out.real, denom, out=out.real)
    np.multiply(t, 2.0, out=out.imag)
    np.divide(out.imag, denom, out=out.imag)


def _char_fn(wt: np.ndarray | None, obs: np.ndarray, u: float | np.ndarray, v: float) -> complex | np.ndarray:
    """Sum of the phases e^(i(u x + v y)), times ``wt`` unless it is None
    (unit weights), over the total weight.

    The labels are walked in blocks of _CHAR_FN_BLOCK, so the phase
    buffers stay small at any modulus, and the block sums add up in
    order.  Within a block the phases are walked along ``u`` in the
    given order: each is the previous one times the step phase
    e^(i(u_k - u_(k-1)) x), and a step is recomputed only where the
    spacing changes, so an evenly spaced grid costs one tan per
    observation.  The v y term (complex observations only) sits in the
    starting phase at u = 0.  The weighted sum is an einsum rather than a
    BLAS dot, whose bits would depend on the BLAS thread count.
    """
    obs = np.asarray(obs)
    if wt is not None and wt.shape != obs.shape:
        raise ValueError("a weight row needs one weight per observation")
    total = len(obs) if wt is None else np.sum(wt)
    if total == 0:
        raise ValueError("zero total weight")
    us = np.asarray(u, dtype=np.float64).ravel()
    twisted = np.iscomplexobj(obs) and v != 0
    size = min(len(obs), _CHAR_FN_BLOCK)
    phase, step = np.empty(size, dtype=np.complex128), np.empty(size, dtype=np.complex128)
    block_sums = []
    for start in range(0, len(obs), _CHAR_FN_BLOCK):
        block = slice(start, start + _CHAR_FN_BLOCK)
        x = np.asarray(obs[block].real, dtype=np.float64)
        ph, st = phase[: len(x)], step[: len(x)]
        if twisted:
            _unit_phase(0.5 * v * np.asarray(obs[block].imag, dtype=np.float64), out=ph)
        else:
            ph.fill(1.0)
        sums = np.empty(len(us), dtype=np.complex128)
        prev, spacing = 0.0, None
        for k, uk in enumerate(us):
            if uk - prev != spacing:
                spacing = uk - prev
                _unit_phase(0.5 * spacing * x, out=st)
            ph *= st
            prev = uk
            sums[k] = ph.sum() if wt is None else np.einsum("i,i->", wt[block], ph)
        block_sums.append(sums)
    out = (np.sum(block_sums, axis=0) / total).reshape(np.shape(u))
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# smoothing kernels

def beurling_B(x) -> np.ndarray:
    """Beurling's entire majorant of sgn(x).

    For x > 0 the two-sided pole series collapses (via the trigamma
    reflection) to 1 + (sin pi x / pi)^2 (2/x - 2 psi_1(1+x)), which is
    numerically stable; negative arguments come from the reflection
    B(-x) = 2 sinc^2(x) - B(x), and a Taylor step covers the origin.
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

    Where delta * (b - a) < 1 the construction is still valid, but the
    minorant dips badly below the indicator.
    """

    a: float
    b: float
    delta: float

    def minorant(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return -0.5 * (beurling_B(self.delta * (self.a - x)) + beurling_B(self.delta * (x - self.b)))

    def majorant(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * (beurling_B(self.delta * (x - self.a)) + beurling_B(self.delta * (self.b - x)))

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
    return SelbergFunction(a=a, b=b, delta=delta)


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
    tail_pieces: Sequence[np.ndarray],
    p_values: np.ndarray,
    prime_sum_limit: float,
) -> TypicalSetReport:
    """Apply the three typicality conditions and count each exclusion.

    (1) |W| within [1/_WEIGHT_BAND, _WEIGHT_BAND]; (2) the product of
    the tail mollifier pieces (intervals j >= 1, none for a single
    interval) bounded by (log log q)^_TAIL_EXPONENT; (3) |P| at most
    ``prime_sum_limit``, in whatever units the caller normalized P to.
    Conditions are evaluated independently, so one character can count
    against several drop tallies.
    """
    tail_bound = math.log(math.log(table.q)) ** _TAIL_EXPONENT
    w_abs = np.abs(np.asarray(w_values))
    cond1 = (w_abs >= 1.0 / _WEIGHT_BAND) & (w_abs <= _WEIGHT_BAND)
    if tail_pieces:
        tail_prod = np.ones(len(w_abs))
        for piece in tail_pieces:
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

# the open unit cells of (-3, 3), as _interval_sums bins them
_DEFAULT_INTERVALS = ((-3.0, -2.0), (-2.0, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 2.0), (2.0, 3.0))
_DEFAULT_U_GRID = tuple(0.25 * k for k in range(1, 13))


def _interval_sums(obs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum of ``w`` over the observations in each of _DEFAULT_INTERVALS.

    One floor cell per observation and two bincounts: an observation on
    an integer edge or outside (-3, 3) lies in no open interval and goes
    to a spare last bin.
    """
    lo, count = _DEFAULT_INTERVALS[0][0], len(_DEFAULT_INTERVALS)
    cell = np.floor(obs)
    inside = (cell != obs) & (obs > lo) & (obs < lo + count)
    idx = np.where(inside, cell - lo, count).astype(np.intp)
    mass = np.bincount(idx, weights=w.real, minlength=count + 1)
    mass = mass + 1j * np.bincount(idx, weights=w.imag, minlength=count + 1)
    return mass[:count]


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

    # the weight W = L M of each observation, in the first piece's buffer
    # (the typical set takes only the tail pieces); the unit (plain) and
    # the typical-set weightings are the other two rows the KS distances read
    l_arr = np.asarray(l_values.values[1:])
    exclusions = int(np.count_nonzero(~(np.abs(l_arr) >= _ZERO_CUTOFF)))
    w = np.multiply(l_arr, piece_vals[0], out=piece_vals[0])
    for extra in piece_vals[1:]:
        w *= extra

    phi = char_fn_weighted(w, obs, _DEFAULT_U_GRID)
    psi = char_fn_plain(obs, _DEFAULT_U_GRID)
    filt = typical_set_filter(table, w, piece_vals[1:], obs, prime_sum_limit=_P_SIGMA_FACTOR)
    total = complex(np.sum(w))
    rows = tuple(
        IntervalRow(lo=lo, hi=hi, mu=complex(mu), gauss=gauss_cdf(hi) - gauss_cdf(lo))
        for (lo, hi), mu in zip(_DEFAULT_INTERVALS, _interval_sums(obs, w) / total)
    )
    ks_weighted, ks_plain = ks_distance(obs, (w, None))
    # the typical-set row: W zeroed off the typical set, in place, as W's last use
    w[~filt.kept] = 0.0
    (ks_weighted_filtered,) = ks_distance(obs, (w,))
    return CLTReport(
        q=table.q,
        sigma_hat=sigma_hat,
        exclusion_count=exclusions,
        rows=rows,
        u_grid=_DEFAULT_U_GRID,
        psi=tuple(complex(p) for p in psi),
        phi=tuple(complex(p) for p in phi),
        ks_weighted=ks_weighted,
        ks_weighted_filtered=ks_weighted_filtered,
        ks_plain=ks_plain,
        filter_report=filt,
        total_weight=total,
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
