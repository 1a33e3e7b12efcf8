"""Random multiplicative model: i.i.d. unit-circle values at the primes,
extended completely multiplicatively.

The assignment is a counter-based keyed hash (splitmix64 family), so a
sample is a pure function of (seed, index, prime): reproducible across
runs and machines, no RNG state threading, and a whole block of sample
indices is one uint64 array computation.  Not cryptographic, and makes
no claim to be.

The X_p are independent and uniform on the circle, so E|P|^(2k) of a
prime sum P = sum c_p X_p is a power series product over the primes
(:func:`exact_expectation`), with a Monte Carlo route kept alongside as
an independent check; over one interval, :func:`circle_expectation` is
the circle-quadrature engine.  The truncated exponential and the moment
identity that ties the character average to the model live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .arith import is_prime
from .mollifier import DirichletPolynomial

__all__ = [
    "RandomSample",
    "sample",
    "ExpectationResult",
    "exact_expectation",
    "circle_nodes",
    "circle_expectation",
    "mc_expectation",
    "e_trunc_exact",
    "MomentIdentity",
    "moment_identity_check",
]

_MASK = (1 << 64) - 1
_PHI = np.uint64(0x9E3779B97F4A7C15)
_BLOCK_VALUES = 1 << 16  # unit values drawn per Monte Carlo block


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise mod 2^64."""
    with np.errstate(over="ignore"):
        x = x + _PHI
        x ^= x >> np.uint64(30)
        x = x * np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x = x * np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def _prime_array(prime_list: Iterable[int] | np.ndarray) -> np.ndarray:
    """The listed primes as ascending distinct int64.

    Sorted and deduplicated by hand: ``np.unique`` imports all of ``numpy.ma``.
    """
    primes = np.sort(np.asarray(list(prime_list) if not isinstance(prime_list, np.ndarray) else prime_list, dtype=np.int64))
    primes = primes[np.diff(primes, prepend=primes[:1] - 1) != 0]
    if len(primes) and primes[0] < 2:
        raise ValueError("prime list contains a value below 2")
    return primes


def _draw(primes: np.ndarray, seed: int, indices: np.ndarray) -> np.ndarray:
    """X(p) with one row per sample index and one column per prime.

    The angle is 2 pi u, with u keyed by (seed, index, p).
    """
    seed_key = _mix(np.array([seed & _MASK], dtype=np.uint64))
    key = _mix(seed_key ^ _mix(indices.astype(np.uint64) + np.uint64(1)))[:, None]
    h = _mix(primes.astype(np.uint64) * _PHI + key)
    h = _mix(h ^ key)
    u = (h >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.exp(2j * math.pi * u)


@dataclass(frozen=True)
class RandomSample:
    """One realization of the model: unit-circle value per assigned prime."""

    primes: np.ndarray  # int64, ascending
    values: np.ndarray  # complex128 on the unit circle, parallel


def sample(prime_list: Iterable[int] | np.ndarray, seed: int, index: int) -> RandomSample:
    """Draw X(p) for each listed prime at one sample index (row ``index`` of :func:`mc_expectation`)."""
    primes = _prime_array(prime_list)
    return RandomSample(primes, _draw(primes, seed, np.array([index & _MASK], dtype=np.uint64))[0])


@dataclass(frozen=True)
class ExpectationResult:
    """A Monte Carlo estimate of an expectation over the model, with its standard error."""

    value: complex
    standard_error: float


def exact_expectation(poly: DirichletPolynomial, k: int) -> float:
    """E|P|^(2k) over the model for P = sum over primes p of c_p X_p, c_p = ``poly.scaled_coeff``.

    By the multinomial theorem and E[X^a conj(X)^b] = [a = b] for each of
    the independent X_p, E|P|^(2k) = sum over exponent vectors e with
    |e| = k of (k! / prod e_p!)^2 prod |c_p|^(2 e_p): (k!)^2 times the
    t^k coefficient of the product over p of sum_{e <= k} |c_p|^(2e) t^e / e!^2.
    The independence needs a prime support, so any other raises
    ValueError, as does a negative k.
    """
    if k < 0:
        raise ValueError(f"the moment order k must be nonnegative, got k = {k}")
    composite = [n for n in poly.support.tolist() if not is_prime(n)]
    if composite:
        raise ValueError(f"exact_expectation needs a prime support; {composite[0]} is not prime")
    e = np.arange(k + 1)
    fact = np.cumprod(np.maximum(e, 1)).astype(np.float64)
    series = np.zeros(k + 1)
    series[0] = 1.0
    for factor in (np.abs(poly.scaled_coeff) ** 2)[:, None] ** e / fact**2:
        series = np.convolve(series, factor)[: k + 1]
    return float(fact[k] ** 2 * series[k])


def circle_nodes(n: int) -> np.ndarray:
    """The n trapezoid nodes exp(2 pi i (k + 1/2) / n), k < n, of every circle average."""
    return np.exp(2j * math.pi * (np.arange(n) + 0.5) / n)


def circle_expectation(integrand: np.ndarray, c_x: np.ndarray, c_xb: np.ndarray, ell: int) -> complex:
    """E[prod_p f_p(X_p) e_ell(-sum_p c_x(p) X_p) e_ell(-sum_p c_xb(p) conj(X_p))].

    Row i of ``integrand`` is the i-th prime's f_p at the N nodes
    ``circle_nodes(N)``, N = ``integrand.shape[1]``.  The X_p
    are independent, so the expectation is the sum of the coefficients of
    degree <= ell in s and in t of the product over the primes of
    E[f_p(X) exp(-s c_x X - t c_xb conj X)], whose s^a t^b coefficient is
    (-c_x)^a (-c_xb)^b / (a! b!) times the circle moment E[f_p(X) X^(a-b)].
    """
    n = integrand.shape[1]
    d = np.arange(-ell, ell + 1)
    nodes = circle_nodes(n)
    moments = np.einsum("pk,kd->pd", integrand, nodes[:, None] ** d) / n  # (primes, 2 ell + 1), no BLAS
    k = np.arange(ell + 1)
    fact = np.cumprod(np.maximum(k, 1)).astype(np.float64)
    u, v = ((-c)[:, None] ** k / fact for c in (c_x, c_xb))
    factors = np.zeros((len(moments), ell + 1, 2 * ell + 1), dtype=np.complex128)
    factors[:, :, : ell + 1] = u[:, :, None] * v[:, None, :] * moments[:, ell + k[:, None] - k[None, :]]
    # row a, column b holds the s^a t^b coefficient; a product's t-degree
    # stays below the row width 2 ell + 1, so one flat convolution multiplies
    acc = np.zeros((ell + 1, 2 * ell + 1), dtype=np.complex128)
    acc[0, 0] = 1.0
    for factor in factors:
        acc = np.convolve(acc.ravel(), factor.ravel())[: acc.size].reshape(acc.shape)
        acc[:, ell + 1 :] = 0.0
    return complex(acc.sum())


def mc_expectation(
    evaluator: Callable[[np.ndarray], np.ndarray],
    prime_list: Iterable[int] | np.ndarray,
    n_samples: int,
    seed: int,
) -> ExpectationResult:
    """Monte Carlo estimate of E[evaluator(X)] over samples 0..n_samples-1.

    ``evaluator`` maps a block of draws, one row per sample and one
    column per prime (ascending), to one value per row.  Row i is
    ``sample(prime_list, seed, i).values``, so estimates are reproducible
    for a given seed and extendable by raising ``n_samples``; a block
    holds about _BLOCK_VALUES draws whatever the sample count.
    Non-finite evaluator output aborts with the first offending index.
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples for a meaningful standard error")
    primes = _prime_array(prime_list)
    rows = max(1, _BLOCK_VALUES // max(len(primes), 1))
    values = np.empty(n_samples, dtype=np.complex128)
    for start in range(0, n_samples, rows):
        block = values[start : start + rows]
        block[:] = evaluator(_draw(primes, seed, np.arange(start, start + len(block), dtype=np.uint64)))
        bad = ~np.isfinite(block)
        if bad.any():
            i = start + int(np.argmax(bad))
            raise RuntimeError(f"evaluator returned a non-finite value at sample index {i}: {complex(values[i])}")
    mean = complex(values.mean())
    resid = values - mean
    se = math.sqrt((np.abs(resid) ** 2).mean() / max(n_samples - 1, 1))
    return ExpectationResult(value=mean, standard_error=se)


def e_trunc_exact(ell: int, t: Fraction) -> Fraction:
    """Truncated exponential: sum of t^j / j! for j <= ell, in exact rational arithmetic.

    A float recurrence would lose everything to cancellation for large
    negative t once ell clears |t| (at t = -30, ell = 120 the value is
    ~9e-14 against intermediate terms of size 8e11), so the sum is kept exact.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    t = Fraction(t)
    term = Fraction(1)
    total = Fraction(1)
    for j in range(1, ell + 1):
        term = term * t / j
        total += term
    return total


@dataclass(frozen=True)
class MomentIdentity:
    """Character-side and model-side 2k-th moments of the first-interval prime sum."""

    char_side: float
    random_side: float
    bound: float


def moment_identity_check(values: np.ndarray, poly: DirichletPolynomial, k: int) -> MomentIdentity:
    """Match the 2k-th moment of Re P over all characters mod q to the model.

    P(chi) = sum over the first interval of w(p) chi(p) / sqrt(p), the
    polynomial ``DirichletPolynomial(primes, w)`` (unit weights:
    :func:`prime_sum_polynomial`); ``values`` holds P(chi_a) for
    every label a = 0..q-2 (``poly.evaluate_all(table)``), so
    q = len(values) + 1 and one transform serves every k.  The
    character average (all q - 1 characters, principal included) equals
    the model expectation exactly as long as no two distinct prime
    products in the expansion collide mod q; since every product divides
    into at most 2k interval primes, p_max^(2k) < q suffices and is
    enforced in integer arithmetic.  Both sides are capped by
    k! (sum w^2/p)^k.

    Binomially, (Re P)^(2k) = 4^(-k) sum_j C(2k, j) P^j conj(P)^(2k-j).
    A term with j != k pairs products of j primes against products of
    2k - j primes, which never coincide, so its expectation is 0 and the
    model side is C(2k, k) 4^(-k) E|P|^(2k) (:func:`exact_expectation`).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    q = len(values) + 1
    p_max = int(poly.support[-1])
    if p_max ** (2 * k) >= q:
        raise ValueError(
            f"p_max^2k = {p_max ** (2 * k)} must stay below q = {q} for the exact identity"
        )

    char_side = float(np.mean(values.real ** (2 * k)))

    random_side = math.comb(2 * k, k) * exact_expectation(poly, k) * 2.0 ** (-2 * k)

    w = poly.coeff.real
    bound = math.factorial(k) * float(np.sum(w**2 / poly.support)) ** k
    return MomentIdentity(char_side=char_side, random_side=random_side, bound=bound)
