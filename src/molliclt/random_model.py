"""Random multiplicative model: i.i.d. unit-circle values at the primes,
extended completely multiplicatively.

The assignment is a counter-based keyed hash (splitmix64 family), so a
sample is a pure function of (seed, index, prime): reproducible across
runs and machines, cheap to vectorize, no RNG state threading.  Not
cryptographic, and makes no claim to be.

Expectations of products of short Dirichlet polynomials in the model
are computed exactly from the orthogonality E[X(m) conj(X(n))] = [m=n],
with a Monte Carlo route kept alongside as an independent check.  The
truncated exponential, its product form, and the moment identity that
ties the character average to the model live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

import numpy as np

from .arith import factorize, primes_up_to
from .characters import CharacterTable
from .mollifier import DirichletPolynomial, MollifierParams, prime_sum_polynomial

__all__ = [
    "RandomSample",
    "sample",
    "x_of_n",
    "x_table",
    "ExpectationResult",
    "exact_expectation",
    "mc_expectation",
    "e_trunc",
    "e_trunc_exact",
    "d_factor",
    "MomentIdentity",
    "moment_identity_check",
    "TailCensus",
    "tail_census",
]

_MASK = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15


def _mix_int(x: int) -> int:
    """splitmix64 finalizer on a Python int, mod 2^64."""
    x = (x + _PHI) & _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    return x


def _mix_array(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = x + np.uint64(_PHI)
        x ^= x >> np.uint64(30)
        x = x * np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x = x * np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


@dataclass(frozen=True)
class RandomSample:
    """One realization of the model: unit-circle value per assigned prime."""

    primes: np.ndarray  # int64, ascending
    values: np.ndarray  # complex128 on the unit circle, parallel
    seed: int
    index: int

    def value_of_prime(self, p: int) -> complex:
        i = int(np.searchsorted(self.primes, p))
        if i >= len(self.primes) or self.primes[i] != p:
            raise KeyError(f"prime {p} is not in this sample's assignment")
        return complex(self.values[i])


def sample(prime_list: Iterable[int] | np.ndarray, seed: int, index: int) -> RandomSample:
    """Draw X(p) for each listed prime: angle = 2 pi u with u keyed by (seed, index, p)."""
    primes = np.unique(np.asarray(list(prime_list) if not isinstance(prime_list, np.ndarray) else prime_list, dtype=np.int64))
    if len(primes) and primes[0] < 2:
        raise ValueError("prime list contains a value below 2")
    key = _mix_int(_mix_int(seed & _MASK) ^ _mix_int((index & _MASK) + 1))
    with np.errstate(over="ignore"):
        h = primes.astype(np.uint64) * np.uint64(_PHI) + np.uint64(key)
        h = _mix_array(h)
        h = _mix_array(h ^ np.uint64(key))
    u = (h >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return RandomSample(primes=primes, values=np.exp(2j * math.pi * u), seed=seed, index=index)


def x_of_n(s: RandomSample, n: int) -> complex:
    """Completely multiplicative extension X(n); errors on unassigned primes."""
    if n <= 0:
        raise ValueError("n must be positive")
    if n == 1:
        return 1.0 + 0.0j
    out = 1.0 + 0.0j
    f = factorize(n)
    for p, e in zip(f.primes, f.exponents):
        out *= s.value_of_prime(p) ** e
    return out


def x_table(s: RandomSample, limit: int) -> np.ndarray:
    """X(n) for all 1 <= n <= limit as a table (slot 0 unused, set to 0).

    Linear-sieve fill: X(n) = X(n / spf(n)) * X(spf(n)).  Every prime up
    to ``limit`` must be in the sample's assignment.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    need = primes_up_to(limit)
    pos = np.searchsorted(s.primes, need)
    if np.any(pos >= len(s.primes)) or np.any(s.primes[np.minimum(pos, len(s.primes) - 1)] != need):
        raise ValueError(f"sample assignment must cover every prime up to {limit}")
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in need:
        start = int(p)
        spf[start::start] = np.where(spf[start::start] == 0, p, spf[start::start])
    out = np.zeros(limit + 1, dtype=np.complex128)
    out[1] = 1.0
    pval = dict(zip((int(p) for p in s.primes), (complex(v) for v in s.values)))
    for n in range(2, limit + 1):
        p = int(spf[n])
        out[n] = out[n // p] * pval[p]
    return out


@dataclass(frozen=True)
class ExpectationResult:
    """An expectation over the model, tagged with the route that produced it."""

    value: complex
    method: str  # "exact" | "mc"
    n_samples: int | None = None
    standard_error: float | None = None


def _coeff_map(obj) -> dict[int, complex]:
    """Coefficient map of one factor, with the 1/sqrt(n) normalization folded in."""
    if isinstance(obj, Mapping):
        return {int(n): complex(c) for n, c in obj.items()}
    # a DirichletPolynomial: scaled_coeff carries the 1/sqrt(n) its coeff leaves out
    return {int(n): complex(c) for n, c in zip(obj.support, obj.scaled_coeff)}


def _convolve_maps(maps: list[dict[int, complex]], budget: int) -> dict[int, complex]:
    acc: dict[int, complex] = {1: 1.0 + 0.0j}
    for m in maps:
        if len(acc) * len(m) > budget:
            raise RuntimeError("exact expectation pair budget exceeded")
        nxt: dict[int, complex] = {}
        for n1, c1 in acc.items():
            for n2, c2 in m.items():
                key = n1 * n2
                nxt[key] = nxt.get(key, 0.0j) + c1 * c2
        acc = nxt
    return acc


def exact_expectation(
    product_spec: list[tuple[object, bool]], budget: int = 10_000_000
) -> ExpectationResult:
    """E over the model of a product of polynomial factors.

    Each entry is (factor, conjugated); a factor is a DirichletPolynomial
    or a plain {n: coefficient} map (the map is taken as-is, so include
    any normalization yourself).  Unconjugated factors convolve into one
    map A, conjugated ones into B, and orthogonality collapses the
    expectation to sum over m of A(m) conj(B(m)).
    """
    plain = [_coeff_map(obj) for obj, conj in product_spec if not conj]
    conjd = [_coeff_map(obj) for obj, conj in product_spec if conj]
    a = _convolve_maps(plain, budget)
    b = _convolve_maps(conjd, budget)
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    total = 0.0j
    for n, c in small.items():
        other = large.get(n)
        if other is not None:
            total += (c * other.conjugate()) if small is a else (other * c.conjugate())
    return ExpectationResult(value=complex(total), method="exact")


def mc_expectation(
    evaluator: Callable[[RandomSample], complex],
    prime_list: Iterable[int] | np.ndarray,
    n_samples: int,
    seed: int,
) -> ExpectationResult:
    """Monte Carlo estimate of E[evaluator(X)] over fresh samples.

    Sample i uses index i, so estimates are reproducible for a given
    seed and extendable by raising ``n_samples``.  Non-finite evaluator
    output aborts with the offending index.
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples for a meaningful standard error")
    prime_arr = np.asarray(list(prime_list) if not isinstance(prime_list, np.ndarray) else prime_list, dtype=np.int64)
    values = np.empty(n_samples, dtype=np.complex128)
    for i in range(n_samples):
        v = complex(evaluator(sample(prime_arr, seed, i)))
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise RuntimeError(f"evaluator returned a non-finite value at sample index {i}: {v}")
        values[i] = v
    mean = complex(values.mean())
    resid = values - mean
    se = math.sqrt((np.abs(resid) ** 2).mean() / max(n_samples - 1, 1))
    return ExpectationResult(value=mean, method="mc", n_samples=n_samples, standard_error=se)


def e_trunc(ell: int, t: float) -> float:
    """Truncated exponential: sum of t^j / j! for j <= ell (ascending recurrence)."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    term = 1.0
    total = 1.0
    for j in range(1, ell + 1):
        term *= t / j
        total += term
    return total


def e_trunc_exact(ell: int, t: Fraction) -> Fraction:
    """The same sum in exact rational arithmetic.

    The float recurrence loses everything to cancellation for large
    negative t once ell clears |t| (at t = -30, ell = 120 the value is
    ~9e-14 against intermediate terms of size 8e11); identity and
    positivity checks go through here.
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


def d_factor(evals: Iterable[complex], ells: Iterable[int], k: float) -> float:
    """Product over intervals of (1 + e^-ell_j) E_ell_j(2 k Re P_j).

    Even caps only: the truncated exponential of even order is strictly
    positive on the real line, which keeps the product a usable proxy
    weight even where the exponential inequality fails.
    """
    evals = list(evals)
    ells = list(ells)
    if len(evals) != len(ells):
        raise ValueError("need one cap per interval value")
    out = 1.0
    for p_val, ell in zip(evals, ells):
        if ell < 0 or ell % 2:
            raise ValueError(f"interval caps must be even and nonnegative, got {ell}")
        out *= (1.0 + math.exp(-ell)) * e_trunc(ell, 2.0 * k * complex(p_val).real)
    return out


@dataclass(frozen=True)
class MomentIdentity:
    """Character-side and model-side 2k-th moments of the first-interval prime sum."""

    char_side: float
    random_side: float
    bound: float
    k: int


def moment_identity_check(values: np.ndarray, poly: DirichletPolynomial, k: int) -> MomentIdentity:
    """Match the 2k-th moment of Re P over all characters mod q to the model.

    P(chi) = sum over the first interval of w(p) chi(p) / sqrt(p), as
    built by :func:`prime_sum_polynomial`; ``values`` holds P(chi_a) for
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


@dataclass(frozen=True)
class TailCensus:
    """How many characters land outside v standard deviations, against the tail bound."""

    v: float
    sigma: float
    count: int
    bound: float

    @property
    def ratio(self) -> float:
        return self.count / self.bound if self.bound > 0 else math.inf


def tail_census(table: CharacterTable, params: MollifierParams, v: float, weights=None) -> TailCensus:
    """Census of |Re P(chi)| >= v sigma over nonprincipal characters.

    sigma^2 = (1/2) sum of w(p)^2/p over the first interval, the model
    variance of Re P.  The reported bound is q exp(-v^2/9), a deliberately
    generous large-deviation envelope; the interesting output is the
    ratio, which should be well under 1.
    """
    if v <= 0:
        raise ValueError("v must be positive")
    poly = prime_sum_polynomial(params, weights)
    w = poly.coeff.real
    sigma = math.sqrt(0.5 * float(np.sum(w**2 / poly.support)))
    p_all = poly.evaluate_all(table)
    tail = np.abs(p_all.real[1:]) >= v * sigma
    count = int(np.count_nonzero(tail))
    bound = table.q * math.exp(-(v**2) / 9.0)
    return TailCensus(v=v, sigma=sigma, count=count, bound=bound)
