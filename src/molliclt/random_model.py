"""Random multiplicative model: i.i.d. unit-circle values at the primes,
extended completely multiplicatively.

The assignment is a counter-based keyed hash (splitmix64 family), so a
sample is a pure function of (seed, index, prime): reproducible across
runs and machines, no RNG state threading, and a whole block of sample
indices is one uint64 array computation.  Not cryptographic, and makes
no claim to be.

Expectations of products of short Dirichlet polynomials in the model
are computed exactly from the orthogonality E[X(m) conj(X(n))] = [m=n],
with a Monte Carlo route kept alongside as an independent check.  The
truncated exponential and the moment identity that ties the character
average to the model live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .mollifier import DirichletPolynomial

__all__ = [
    "RandomSample",
    "sample",
    "ExpectationResult",
    "exact_expectation",
    "mc_expectation",
    "e_trunc_exact",
    "MomentIdentity",
    "moment_identity_check",
]

_MASK = (1 << 64) - 1
_PHI = np.uint64(0x9E3779B97F4A7C15)
_BLOCK_VALUES = 1 << 16  # unit values drawn per Monte Carlo block
_PAIR_BUDGET = 10_000_000  # term pairs one exact_expectation convolution step may take


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
    primes = np.unique(np.asarray(list(prime_list) if not isinstance(prime_list, np.ndarray) else prime_list, dtype=np.int64))
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
    """An expectation over the model, tagged with the route that produced it."""

    value: complex
    method: str  # "exact" | "mc"
    n_samples: int | None = None
    standard_error: float | None = None


def _convolve(polys: list[DirichletPolynomial]) -> dict[int, complex]:
    """Coefficient map of the product of the factors, with each 1/sqrt(n) folded in."""
    acc: dict[int, complex] = {1: 1.0 + 0.0j}
    for poly in polys:
        if len(acc) * len(poly.support) > _PAIR_BUDGET:
            raise RuntimeError("exact expectation pair budget exceeded")
        terms = list(zip(poly.support.tolist(), poly.scaled_coeff.tolist()))
        nxt: dict[int, complex] = {}
        for n1, c1 in acc.items():
            for n2, c2 in terms:
                key = n1 * n2
                nxt[key] = nxt.get(key, 0.0j) + c1 * c2
        acc = nxt
    return acc


def exact_expectation(product_spec: list[tuple[DirichletPolynomial, bool]]) -> ExpectationResult:
    """E over the model of a product of polynomial factors.

    Each entry is (factor, conjugated).  Unconjugated factors convolve
    into one map A, conjugated ones into B, and orthogonality collapses
    the expectation to sum over m of A(m) conj(B(m)).
    """
    a = _convolve([poly for poly, conj in product_spec if not conj])
    b = _convolve([poly for poly, conj in product_spec if conj])
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    total = 0.0j
    for n, c in small.items():
        other = large.get(n)
        if other is not None:
            total += (c * other.conjugate()) if small is a else (other * c.conjugate())
    return ExpectationResult(value=complex(total), method="exact")


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
    return ExpectationResult(value=mean, method="mc", n_samples=n_samples, standard_error=se)


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
    k: int


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

    random_side = 0.0
    for j in range(2 * k + 1):
        spec = [(poly, False)] * j + [(poly, True)] * (2 * k - j)
        e_val = exact_expectation(spec).value
        random_side += math.comb(2 * k, j) * e_val.real
    random_side *= 2.0 ** (-2 * k)

    w = poly.coeff.real
    bound = math.factorial(k) * float(np.sum(w**2 / poly.support)) ** k
    return MomentIdentity(char_side=char_side, random_side=random_side, bound=bound, k=k)
