"""Special functions used by the L-value and contour machinery.

Only what the package actually needs: a complex Lanczos gamma, scalar
and elementwise over an array, the regularized upper incomplete gamma
on complex order, elementwise over an array of nonnegative real
arguments, and a vectorized trigamma.
Accuracy targets are a couple of ulps beyond what the calling code
requires, not library-grade completeness.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = ["gamma", "gamma_array", "upper_regularized_gamma", "trigamma"]

# Lanczos parameters (g = 607/128, 15 terms): relative error around
# 1e-15 on the right half plane, comfortably inside the 1e-13 budget.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def gamma(z: complex) -> complex:
    """Gamma function for complex argument (Lanczos + reflection)."""
    z = complex(z)
    if z.real < 0.5:
        # Reflection; sin(pi z) vanishes at the poles and the division
        # produces the expected inf/nan there.
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    z -= 1.0
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


def gamma_array(z: np.ndarray) -> np.ndarray:
    """:func:`gamma` elementwise over a complex array: the same Lanczos sum and reflection.

    It agrees with the scalar form to about 1e-14 relative, not bit for
    bit: the power t^(w + 1/2) e^(-t) is formed as one exponential.
    Since Im t = Im w, its phase is Im w (log|t| - 1) + Re(w + 1/2) arg t,
    which leaves no large partial phase to round.
    """
    z = np.asarray(z, dtype=np.complex128)
    left = z.real < 0.5
    w = np.where(left, 1.0 - z, z) - 1.0
    acc = np.full(w.shape, _LANCZOS_C[0], dtype=np.complex128)
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (w + i)
    t = w + _LANCZOS_G + 0.5
    log_abs, arg = np.log(np.abs(t)), np.angle(t)
    b = w.real + 0.5
    power = np.exp(b * log_abs - w.imag * arg - t.real + 1j * (w.imag * (log_abs - 1.0) + b * arg))
    out = math.sqrt(2.0 * math.pi) * power * acc
    out[left] = math.pi / (np.sin(math.pi * z[left]) * out[left])
    return out


def _lower_series(a: complex, x: np.ndarray) -> np.ndarray:
    """Gamma(a) P(a, x) by the standard ascending series, elementwise; wants x below ~a+1.

    An element stops updating at its first term below 1e-17 of its running sum.
    """
    term = np.full(x.shape, 1.0 / a, dtype=np.complex128)
    total = term.copy()
    live = np.ones(x.shape, dtype=bool)
    for n in range(1, 500):
        term[live] *= x[live] / (a + n)
        total[live] += term[live]
        live &= ~(np.abs(term) < 1e-17 * np.abs(total))
        if not live.any():
            break
    else:
        raise RuntimeError(f"incomplete gamma series failed to converge at a={a}, x={x[live][0]}")
    return total * np.exp(-x + a * np.log(x))


def _upper_cf(a: complex, x: np.ndarray) -> np.ndarray:
    """Gamma(a) Q(a, x) by the Lentz-evaluated continued fraction, elementwise; wants x >= ~1.

    An element leaves the recurrence once its last factor is within 1e-16 of one.
    """
    tiny = 1e-300
    total = np.empty(x.shape, dtype=np.complex128)
    live = np.arange(x.size)
    b = x + 1.0 - a
    c = np.full(x.size, 1.0 / tiny, dtype=np.complex128)
    d = 1.0 / np.where(b != 0, b, tiny)
    h = d
    for i in range(1, 500):
        if not live.size:
            break
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < 1e-16
        total[live[done]] = h[done]
        live, b, c, d, h = (v[~done] for v in (live, b, c, d, h))
    else:
        raise RuntimeError(f"incomplete gamma fraction failed to converge at a={a}, x={x[live[0]]}")
    return np.exp(-x + a * np.log(x)) * total


def upper_regularized_gamma(a: complex, x: np.ndarray | float) -> np.ndarray | complex:
    """Q(a, x) = Gamma(a, x) / Gamma(a) for complex a, elementwise over real x >= 0.

    Ascending series below the crossover argument, continued fraction
    above it, Gamma(a) computed once for the whole array.  The crossover
    at 1.5 is tuned for the small |a| this package uses (orders of size
    at most a few).  A scalar x gives a scalar.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError(f"argument must be nonnegative, got {x[x < 0][0]}")
    out = np.ones(x.shape, dtype=np.complex128)
    series = (x > 0) & (x < 1.5)
    fraction = ~(x < 1.5)
    g = gamma(a)
    out[series] = 1.0 - _lower_series(a, x[series]) / g
    out[fraction] = _upper_cf(a, x[fraction]) / g
    return out[()]


# psi'(x) asymptotic tail coefficients: B_{2k} for 2k = 2..14.
_TRIGAMMA_BERN = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def trigamma(x: np.ndarray | float) -> np.ndarray:
    """Trigamma psi'(x) for positive real x, vectorized.

    Recurrence lifts the argument to 8 or above, then the Bernoulli
    asymptotic series finishes the job at full double precision.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64)).copy()
    if np.any(x <= 0):
        raise ValueError("trigamma requires positive arguments")
    acc = np.zeros_like(x)
    for _ in range(8):
        low = x < 8.0
        if not low.any():
            break
        acc[low] += 1.0 / (x[low] * x[low])
        x[low] += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = np.zeros_like(x)
    power = inv  # will hold x^{-(2k+1)} as k advances
    for b in _TRIGAMMA_BERN:
        power = power * inv2
        tail += b * power
    return acc + inv + 0.5 * inv2 + tail
