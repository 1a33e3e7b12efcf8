"""Integer arithmetic helpers: sieves, factorization, and the small
multiplicative weights used throughout the mollifier machinery.

Everything here is exact.  Weights that are rational numbers are returned
as :class:`fractions.Fraction`, or for a whole smooth support as exact
integer denominators beside correctly rounded floats.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "FactoredInteger",
    "FactoredSupport",
    "PrimeInterval",
    "check_sieve_limits",
    "sieve_primes",
    "is_prime",
    "factorize",
    "big_omega",
    "liouville",
    "nu",
    "smooth_integers",
    "multiplicative_table",
]

SUPPORT_BUDGET = 2_000_000  # enumeration budget: count of support integers
_BASE_LIMIT = 1_000_000
_MAX_SIEVE_HI = 1_000_000_000
_MAX_SIEVE_SPAN = 50_000_000


@dataclass(frozen=True)
class FactoredInteger:
    """The prime factorization of an integer.

    ``primes`` and ``exponents`` are parallel tuples with the primes in
    increasing order.  ``big_omega`` counts prime factors with
    multiplicity.
    """

    primes: tuple[int, ...]
    exponents: tuple[int, ...]

    @property
    def big_omega(self) -> int:
        return sum(self.exponents)

    def divisors(self) -> list[int]:
        """All positive divisors, in increasing order."""
        divs = [1]
        for p, e in zip(self.primes, self.exponents):
            divs = [d * p**k for d in divs for k in range(e + 1)]
        divs.sort()
        return divs


@dataclass(frozen=True)
class PrimeInterval:
    """Primes in a half-open-below interval ``(lo, hi]``."""

    lo: float
    hi: float
    primes: np.ndarray  # int64, strictly increasing

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"empty interval: ({self.lo}, {self.hi}]")

    def __len__(self) -> int:
        return len(self.primes)

    def reciprocal_sum(self) -> float:
        """sum of 1/p over the primes in the interval."""
        return float(np.sum(1.0 / self.primes.astype(np.float64)))


@lru_cache(maxsize=None)
def _primes_below(bits: int) -> np.ndarray:
    """The primes below 2**bits (bits >= 2), ascending, by an odd-only sieve.

    A caller that needs every prime up to a bound asks for
    ``bound.bit_length()`` bits: the next power of two above the bound,
    so at most twice the sieve it needs, and one cached array per power.
    """
    top = 1 << bits
    odd = np.ones(top // 2, dtype=bool)  # index i <-> 2i + 1
    odd[0] = False
    for i in range(1, (math.isqrt(top - 1) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(odd) + 1)).astype(np.int64)


def check_sieve_limits(lo: float, hi: float) -> None:
    """Raise ValueError if :func:`sieve_primes` cannot sieve ``(lo, hi]``.

    ``hi`` may not exceed 10**9 and the span ``hi - lo`` is capped to
    keep the segment in memory.
    """
    if hi > _MAX_SIEVE_HI:
        raise ValueError(f"sieve bound {hi} exceeds supported maximum {_MAX_SIEVE_HI}")
    if hi - lo > _MAX_SIEVE_SPAN:
        raise ValueError(f"sieve span {hi - lo:.3g} exceeds memory budget {_MAX_SIEVE_SPAN}")


def sieve_primes(lo: float, hi: float) -> PrimeInterval:
    """Primes in ``(lo, hi]`` via a segmented sieve, within :func:`check_sieve_limits`.

    The bounds may be non-integral (interval endpoints like ``q**theta``
    rarely are).
    """
    if hi < lo:
        raise ValueError(f"empty interval: ({lo}, {hi}]")
    check_sieve_limits(lo, hi)
    first = math.floor(lo) + 1  # smallest integer > lo
    last = math.floor(hi)  # largest integer <= hi
    if last < first or last < 2:
        return PrimeInterval(lo, hi, np.empty(0, dtype=np.int64))
    first = max(first, 2)
    if last <= _BASE_LIMIT:
        base = _primes_below(last.bit_length())
        i0 = int(np.searchsorted(base, first, side="left"))
        i1 = int(np.searchsorted(base, last, side="right"))
        return PrimeInterval(lo, hi, base[i0:i1].copy())
    span = last - first + 1
    composite = np.zeros(span, dtype=bool)
    for p in _primes_below(math.isqrt(last).bit_length()):
        p = int(p)
        if p * p > last:
            break
        start = max(p * p, ((first + p - 1) // p) * p)
        composite[start - first :: p] = True
    primes = np.nonzero(~composite)[0] + first
    return PrimeInterval(lo, hi, primes.astype(np.int64))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all ``n < 2**64``."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # Witness set proven sufficient below 3.3 * 10**24.
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """One nontrivial factor of composite odd ``n`` (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        y, c, m = seed % n, (2 * seed + 1) % n, 128
        if c == 0:
            c = 1
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1


def factorize(n: int) -> FactoredInteger:
    """Full prime factorization.

    Trial division by the primes up to min(sqrt(n), 10**6), then
    Miller-Rabin plus Brent-Pollard rho on whatever survives.  Handles
    any positive ``n < 2**63``.
    """
    if n < 1:
        raise ValueError(f"factorize expects a positive integer, got {n}")
    if n >= 2**63:
        raise ValueError(f"{n} out of supported range (< 2**63)")
    m = n
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    if m > 1:
        limit = math.isqrt(m)
        for p in _primes_below(min(limit, _BASE_LIMIT).bit_length())[3:]:
            p = int(p)
            if p > limit:
                break
            if m % p == 0:
                e = 0
                while m % p == 0:
                    e += 1
                    m //= p
                factors[p] = e
                limit = math.isqrt(m)
    # m is now 1, prime, or a composite with no factor below 10**6.
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    primes = tuple(sorted(factors))
    return FactoredInteger(primes, tuple(factors[p] for p in primes))


def big_omega(n: int) -> int:
    """Number of prime factors of ``n`` counted with multiplicity."""
    return factorize(n).big_omega


def liouville(n: int) -> int:
    """(-1) raised to the number of prime factors with multiplicity."""
    return -1 if big_omega(n) & 1 else 1


def nu(n: int) -> Fraction:
    """Multiplicative weight taking the value 1/a! at a prime power p**a.

    This is the coefficient weight that turns a power of a prime sum
    into a sum over integers: expanding ``(sum_p t_p)**k`` and collecting
    by the product of the chosen primes yields exactly ``k! nu(n)`` for
    each ``n`` with ``Omega(n) = k``.
    """
    f = factorize(n)
    out = Fraction(1)
    for e in f.exponents:
        out /= math.factorial(e)
    return out


@dataclass(frozen=True)
class FactoredSupport:
    """Ascending smooth integers with their factorizations.

    Entry k of ``rows``, ``cols`` and ``exps`` says that p^e exactly
    divides ``values[rows[k]]``, with p = ``primes[cols[k]]`` and
    e = ``exps[k]``; the entries run in (row, prime) order.
    Multiplicative functions are products over these entries, so no
    element is ever factorized again.
    """

    primes: np.ndarray  # int64, ascending
    values: np.ndarray  # int64, ascending
    rows: np.ndarray  # int64, nondecreasing
    cols: np.ndarray  # int64, ascending within a row
    exps: np.ndarray  # uint8, positive

    @property
    def omega(self) -> np.ndarray:
        return np.bincount(self.rows, weights=self.exps, minlength=len(self.values)).astype(np.int64)

    @property
    def liouville(self) -> np.ndarray:
        return 1 - 2 * (self.omega & 1)

    @property
    def max_exponent(self) -> int:
        return int(self.exps.max(initial=0))

    def multiplicative(self, local: np.ndarray) -> np.ndarray:
        """prod over p^e || n of local[i, e], p = primes[i], for every element n.

        ``local`` broadcasts to (len(primes), max_exponent + 1).  An
        element's factors multiply in ascending prime order, from 1.
        """
        table = np.broadcast_to(local, (len(self.primes), self.max_exponent + 1))
        out = np.ones(len(self.values), dtype=table.dtype)
        np.multiply.at(out, self.rows, table[self.cols, self.exps])
        return out

    @property
    def nu_denominators(self) -> np.ndarray:
        """prod of e! over p^e || n as Python ints, so nu(n) = 1 / this."""
        factorials = [math.factorial(e) for e in range(self.max_exponent + 1)]
        return self.multiplicative(np.array([factorials], dtype=object))

    @property
    def nu(self) -> np.ndarray:
        """:func:`nu` as correctly rounded floats."""
        return (1 / self.nu_denominators).astype(np.float64)


def smooth_integers(interval: PrimeInterval | np.ndarray | list[int], ell: int) -> FactoredSupport:
    """Integers with at most ``ell`` prime factors (with multiplicity), all in the interval.

    Returns them ascending, starting with 1, with the factorization of
    each over the interval's primes (see :class:`FactoredSupport`).
    Depth-first over the prime list.  Enumerations larger than
    ``SUPPORT_BUDGET`` raise :class:`RuntimeError`.
    """
    primes = interval.primes if isinstance(interval, PrimeInterval) else interval
    plist = sorted(int(p) for p in np.asarray(primes, dtype=np.int64))
    path: list[int] = []  # prime indices of the element being built, nondecreasing
    values: list[int] = []
    sizes = array("q")  # Omega of each element
    paths = array("q")  # the paths, one after another

    def dfs(idx: int, value: int) -> None:
        values.append(value)
        sizes.append(len(path))
        paths.extend(path)
        if len(values) > SUPPORT_BUDGET:
            raise RuntimeError(
                f"smooth enumeration exceeded {SUPPORT_BUDGET} values: {len(plist)} primes "
                f"from {plist[0]} to {plist[-1]}, Omega cap {ell}"
            )
        if len(path) >= ell:
            return
        for j in range(idx, len(plist)):
            path.append(j)
            dfs(j, value * plist[j])
            path.pop()

    dfs(0, 1)
    ints = np.array(values, dtype=np.int64)
    order = np.argsort(ints)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    # one triple per run of equal prime indices in a path
    rows = np.repeat(np.arange(len(values)), np.frombuffer(sizes, dtype=np.int64))
    cols = np.frombuffer(paths, dtype=np.int64)
    first = np.flatnonzero(np.diff(rows, prepend=-1) | np.diff(cols, prepend=-1))
    exps = np.diff(first, append=len(rows)).astype(np.uint8)
    rows = rank[rows[first]]
    by_row = np.argsort(rows, kind="stable")
    return FactoredSupport(
        np.array(plist, dtype=np.int64), ints[order], rows[by_row], cols[first][by_row], exps[by_row]
    )


def multiplicative_table(limit: int, local: Callable[[int, int], object], dtype) -> np.ndarray:
    """f(n) for 0 <= n <= limit (slot 0 set to 0) of the multiplicative f with f(p^e) = local(p, e).

    One sieve pass per prime, largest first: each n takes f(p^e) for
    every p^e || n, so its factors multiply from 1 in descending prime order.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    out = np.ones(limit + 1, dtype=dtype)
    out[0] = 0
    for p in sieve_primes(1, limit).primes[::-1].tolist():
        pe, e = p, 1
        while pe <= limit:
            multiples = np.arange(pe, limit + 1, pe)
            if pe * p <= limit:
                multiples = multiples[multiples % (pe * p) != 0]
            out[multiples] *= local(p, e)
            pe, e = pe * p, e + 1
    return out
