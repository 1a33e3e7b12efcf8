"""Mollifier construction: interval parameters, smoothing weights, the
product Dirichlet polynomials, prime sums, each interval's piece as the
truncated exponential of its prime sum, and the second-moment main
term M(alpha, beta) in three algebraically identical evaluations.

The interval exponents are chosen by hand: the paper's asymptotic
ladder theta_j = eta e^j / (log log q)^5 leaves the first interval
empty for every prime q from 67 up.  The Omega caps keep the paper's
formula.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .arith import (
    SUPPORT_BUDGET, FactoredSupport, PrimeInterval, check_sieve_limits, factorize, is_prime, sieve_primes,
    smooth_integers,
)
from .characters import CharacterTable, batch_character_sums

__all__ = [
    "MollifierParams",
    "DirichletPolynomial",
    "params_desk",
    "check_desk_params",
    "check_first_interval",
    "largest_support_element",
    "check_pair_budget",
    "w_weight",
    "build_dirichlet_mollifier",
    "dirichlet_interval_piece",
    "prime_sum_polynomial",
    "prime_sums_all",
    "piece_from_prime_sum",
    "m_alpha_beta",
    "m_alpha_beta_general",
]

_INT64_MAX = int(np.iinfo(np.int64).max)  # largest support element an int64 array holds
_PAIR_BUDGET = 40_000_000  # n^2 term pairs of a pair sum over an n-element support
_PAIR_BLOCK = 256  # rows of an n x n pair matrix formed at a time


@dataclass(frozen=True)
class MollifierParams:
    """Interval decomposition (c0, y], (q^theta_0, q^theta_1], ... with Omega caps.

    ``theta`` is strictly increasing and ``ell[j]`` caps Omega on
    interval j; :attr:`x` = q^theta_J bounds the whole mollifier range.
    """

    q: int
    c0: float
    theta: tuple[float, ...]
    ell: tuple[int, ...]
    intervals: tuple[PrimeInterval, ...]

    def __post_init__(self) -> None:
        if len(self.ell) != len(self.theta):
            raise ValueError("theta and ell must have the same length")
        if any(b <= a for a, b in zip(self.theta, self.theta[1:])):
            raise ValueError("theta must be strictly increasing")

    @property
    def J(self) -> int:
        """Index of the last interval."""
        return len(self.theta) - 1

    @property
    def x(self) -> float:
        return float(self.q) ** self.theta[-1]

    @cached_property
    def supports(self) -> tuple[FactoredSupport, ...]:
        """Each interval's Omega-capped smooth support, enumerated once per params."""
        return tuple(smooth_integers(iv, ell) for iv, ell in zip(self.intervals, self.ell))


def _ell_from_theta(theta: float) -> int:
    return 2 * math.floor(theta ** (-0.75))


def _interval_bounds(q: int, theta: tuple[float, ...], c0: float) -> list[float]:
    """c0, q^theta_0, ..., q^theta_J: interval j is (bounds[j], bounds[j + 1]]."""
    return [c0] + [float(q) ** t for t in theta]


def _build_intervals(q: int, c0: float, theta: tuple[float, ...]) -> tuple[PrimeInterval, ...]:
    bounds = _interval_bounds(q, theta, c0)
    intervals = []
    for j in range(len(theta)):
        iv = sieve_primes(bounds[j], bounds[j + 1])
        if len(iv) == 0:
            warnings.warn(f"interval {j} = ({bounds[j]:.4g}, {bounds[j+1]:.4g}] contains no primes")
        intervals.append(iv)
    return tuple(intervals)


def check_desk_params(q: int, theta_list: Iterable[float], c0: float) -> tuple[float, ...]:
    """The input rules of :func:`params_desk`, checked without sieving anything.

    theta must be non-empty, finite, positive and strictly increasing,
    1 <= c0 < q^theta_0, and each interval (c0, q^theta_0],
    (q^theta_(j-1), q^theta_j] must lie within the sieve limits.  Raises
    ValueError naming the broken rule; returns theta as a tuple of floats.
    """
    theta = tuple(float(t) for t in theta_list)
    if not theta:
        raise ValueError("need at least one theta interval exponent")
    if not all(0 < t < math.inf for t in theta):
        raise ValueError(f"theta exponents must be positive and finite, got {theta}")
    if not all(b > a for a, b in zip(theta, theta[1:])):
        raise ValueError(f"theta exponents must be strictly increasing, got {theta}")
    bounds = _interval_bounds(q, theta, c0)
    if not 1 <= c0 < bounds[1]:
        raise ValueError(f"c0 must lie in [1, q^theta_0) = [1, {bounds[1]:.6g}), got {c0}")
    for lo, hi in zip(bounds, bounds[1:]):
        check_sieve_limits(lo, hi)
    return theta


def params_desk(q: int, theta_list: Iterable[float], c0: float = 1.0) -> MollifierParams:
    """Desk-scale parameters with hand-picked interval exponents.

    The Omega caps still come from the asymptotic formula
    ell_j = 2*floor(theta_j^(-3/4)).  An interval without primes draws
    a warning.
    """
    theta = check_desk_params(q, theta_list, c0)
    ell = tuple(_ell_from_theta(t) for t in theta)
    return MollifierParams(q=q, c0=c0, theta=theta, ell=ell, intervals=_build_intervals(q, c0, theta))


def _largest_prime(lo: float, hi: float) -> int:
    """The largest prime in (lo, hi], or 1 when there is none, by a downward
    :func:`is_prime` search from hi."""
    n = math.floor(hi)
    while n > lo and not is_prime(n):
        n -= 1
    return n if n > lo else 1


def check_first_interval(q: int, theta: tuple[float, ...], c0: float) -> None:
    """Raise ValueError when the first interval (c0, q^theta_0] holds no prime,
    without sieving: every statistic built on its prime sum needs one."""
    y = _interval_bounds(q, theta, c0)[1]
    if _largest_prime(c0, y) == 1:
        raise ValueError(
            f"the first mollifier interval (c0, q^theta_0] = ({c0:.4g}, {y:.4g}] "
            "contains no primes; raise theta_0 or lower c0"
        )


def largest_support_element(q: int, theta: tuple[float, ...], c0: float) -> int:
    """The largest element of the product mollifier's support, without sieving.

    Interval j's support tops out at its largest prime raised to its
    Omega cap (at 1 when the interval holds no prime), and the product
    support at the product of these.  ``theta`` and ``c0`` must pass
    :func:`check_desk_params`.
    """
    bounds = _interval_bounds(q, theta, c0)
    largest = 1
    for lo, hi, t in zip(bounds, bounds[1:], theta):
        largest *= _largest_prime(lo, hi) ** _ell_from_theta(t)
    return largest


def check_pair_budget(q: int, theta: tuple[float, ...], c0: float) -> None:
    """Raise ValueError when the product mollifier's support is too large for its pair sums.

    The support is counted without enumerating it: interval j contributes
    the products of at most ell_j of its pi_j primes, sum over k <= ell_j
    of C(pi_j + k - 1, k) = C(pi_j + ell_j, ell_j) of them, and the
    product support multiplies these counts.  An interval with ell_j = 0
    contributes 1; the others are sieved, so call this only on inputs that
    :func:`check_twist_length` admits: each of their largest primes is
    then below sqrt(q).
    """
    bounds = _interval_bounds(q, theta, c0)
    count = 1
    for lo, hi, t in zip(bounds, bounds[1:], theta):
        if ell := _ell_from_theta(t):
            count *= math.comb(len(sieve_primes(lo, hi)) + ell, ell)
    if count * count > _PAIR_BUDGET:
        raise ValueError(
            f"the mollifier support has {count} elements; its pair sums need "
            f"count^2 <= {_PAIR_BUDGET}, at most {math.isqrt(_PAIR_BUDGET)} elements"
        )


def w_weight(p: float | np.ndarray, j: int, params: MollifierParams):
    """Smoothing weight w_j(p) = p^(-1/(theta_j log q)) (1 - log p/(theta_j log q)).

    Clamped to 0 once log p reaches theta_j log q (the parenthesis has
    gone negative and the weight has left its design range).  Accepts a
    scalar or an array of primes.
    """
    tlq = params.theta[j] * math.log(params.q)
    logp = np.log(np.asarray(p, dtype=np.float64))
    out = np.exp(-logp / tlq) * (1.0 - logp / tlq)
    out = np.maximum(out, 0.0)
    if np.ndim(p) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class DirichletPolynomial:
    """Sparse coefficients of a sum  c(n) chi(n) / sqrt(n)  over a finite support.

    ``coeff`` stores c(n) itself; the 1/sqrt(n) is applied at evaluation
    time so coefficient identities stay exact.  For the pure Liouville
    mollifier the coefficients are exact rationals, kept in ``exact``
    alongside the float projection.
    """

    support: np.ndarray  # int64, ascending
    coeff: np.ndarray  # complex128, parallel to support
    exact: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.support) != len(self.coeff):
            raise ValueError("support and coeff lengths differ")
        if len(self.support) and np.any(np.diff(self.support) <= 0):
            raise ValueError("support must be strictly ascending")

    def coefficient(self, n: int) -> complex:
        i = int(np.searchsorted(self.support, n))
        if i < len(self.support) and self.support[i] == n:
            return complex(self.coeff[i])
        return 0.0j

    def evaluate(self, table: CharacterTable, a: int) -> complex:
        """Sum of c(n) chi_a(n)/sqrt(n) for one character."""
        values = table.chi_values(a, self.support)
        return complex(np.sum(self.coeff * values / np.sqrt(self.support.astype(np.float64))))

    @property
    def scaled_coeff(self) -> np.ndarray:
        """c(n) / sqrt(n): the coefficient each character value is weighted by."""
        return self.coeff / np.sqrt(self.support.astype(np.float64))

    def evaluate_all(self, table: CharacterTable) -> np.ndarray:
        """The same sum for every label at once (batch transform)."""
        return batch_character_sums(table, self.support, self.scaled_coeff)


def _product(pieces: Sequence[DirichletPolynomial]) -> DirichletPolynomial:
    """Product of exact pieces on disjoint prime sets: every n1 * n2 is a
    distinct element with coefficient c1 * c2, so the product is an outer
    product, sorted.  The coefficients multiply as exact rationals and the
    floats are rounded from them.  Raises RuntimeError when the support
    budget is hit or an element would pass int64.
    """
    support = np.ones(1, dtype=np.int64)
    coeff = np.array([Fraction(1)], dtype=object)
    for piece in pieces:
        if len(support) * len(piece.support) > SUPPORT_BUDGET:
            raise RuntimeError("mollifier support enumeration budget exceeded")
        if (largest := int(support.max()) * int(piece.support[-1])) > _INT64_MAX:
            raise RuntimeError(f"mollifier support element {largest} exceeds the int64 limit {_INT64_MAX}")
        support = np.multiply.outer(support, piece.support).ravel()
        coeff = np.multiply.outer(coeff, piece.exact).ravel()
    order = np.argsort(support)
    fractions = tuple(coeff[order])
    return DirichletPolynomial(support[order], np.array([complex(c) for c in fractions]), fractions)


def _dirichlet_piece(support: FactoredSupport) -> DirichletPolynomial:
    """lambda(n) nu(n) on one interval's support: exact rationals and their floats."""
    exact = tuple(Fraction(sign, den) for sign, den in zip(support.liouville.tolist(), support.nu_denominators))
    return DirichletPolynomial(support.values, np.array([complex(c) for c in exact]), exact)


def build_dirichlet_mollifier(params: MollifierParams) -> DirichletPolynomial:
    """Coefficients of the product over intervals of the Liouville-nu pieces.

    Interval prime sets are disjoint, so the product support is the set
    of products n = n_0 ... n_J (one factor per interval) and the
    coefficient of n is the product of the factors' coefficients, exact
    rationals throughout.
    """
    return _product([_dirichlet_piece(support) for support in params.supports])


def dirichlet_interval_piece(params: MollifierParams, j: int) -> DirichletPolynomial:
    """The single-interval factor of the product mollifier, as a polynomial
    on the interval's Omega-capped support.

    The reference that :func:`piece_from_prime_sum` is tested against;
    the weighted CLT evaluates its pieces from prime sums instead.
    """
    if not 0 <= j <= params.J:
        raise ValueError(f"interval index {j} outside 0..{params.J}")
    return _dirichlet_piece(params.supports[j])


def prime_sum_polynomial(params: MollifierParams, j: int = 0) -> DirichletPolynomial:
    """Interval-j prime sum as a polynomial: c(p) = 1 on the primes of
    interval j (c0 < p <= y for the first).

    A weighted prime sum is ``DirichletPolynomial(primes, w)``.  A first
    interval without primes raises ValueError (:func:`check_first_interval`).
    """
    primes = params.intervals[j].primes
    if j == 0:
        check_first_interval(params.q, params.theta, params.c0)
    return DirichletPolynomial(primes, np.ones(len(primes), dtype=np.complex128))


def prime_sums_all(table: CharacterTable, params: MollifierParams) -> np.ndarray:
    """The unit-weight prime sum for every character label (batch transform)."""
    return prime_sum_polynomial(params).evaluate_all(table)


def piece_from_prime_sum(p_values: np.ndarray, ell: int) -> np.ndarray:
    """An interval's Liouville-nu piece from its prime sum, label by label.

    With P = sum over the interval's primes of chi(p)/sqrt(p), the part of
    sum_{Omega(n) <= ell} lambda(n) nu(n) chi(n)/sqrt(n) with Omega(n) = k
    is (-P)^k / k! by the multinomial theorem (lambda(n) = (-1)^k and
    nu(n) = 1/prod e! there), so the piece is the truncated exponential
    e_ell(-P), summed here by Horner's rule.
    """
    out = np.ones_like(p_values, dtype=np.complex128)
    for k in range(ell, 0, -1):
        out *= p_values
        out *= -1.0 / k
        out += 1.0
    return out


def _pair_budget_check(n: int) -> None:
    if n * n > _PAIR_BUDGET:
        raise RuntimeError(f"support of {n} elements is too large for the pair sum")


def _divisor_pairs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (v, k) with values[v] | values[k] of a strictly
    ascending positive array, in row-major order.  A divisor is never
    above its multiple, so row block R is tested against the columns from
    R on only, _PAIR_BLOCK rows at a time.
    """
    rows, cols = [], []
    for lo in range(0, len(values), _PAIR_BLOCK):
        r, c = np.nonzero(values[None, lo:] % values[lo : lo + _PAIR_BLOCK, None] == 0)
        rows.append(r + lo)
        cols.append(c + lo)
    return np.concatenate(rows), np.concatenate(cols)


def _m_moebius(support: np.ndarray, gamma: np.ndarray, alpha: complex, beta: complex) -> complex:
    """Quadruple sum over (h, d, m, n), regrouped by v = hd.

    sum_{hd=v} mu(d)/(h d^(2+a+b)) = (1/v) sum_{d|v} mu(d) d^(-1-a-b),
    where the squarefree d are the products of subsets of the primes of
    v, summed here prime subset by prime subset.  The support is
    divisor-closed, so v ranges over the support itself, and the m- and
    n-sums of each v run over the pairs (v, vm) of the support's
    divisibility relation.
    """
    v_idx, k_idx = _divisor_pairs(support)
    log_m = np.log((support[k_idx] // support[v_idx]).astype(np.float64))
    g = gamma[k_idx]
    starts = np.searchsorted(v_idx, np.arange(len(support)))  # v | v: no row is empty
    s_alpha = np.add.reduceat(g * np.exp((-1.0 - alpha) * log_m), starts)
    s_beta = np.add.reduceat(g * np.exp((-1.0 - beta) * log_m), starts)
    c_v = np.empty(len(support), dtype=np.complex128)
    for i, v in enumerate(support.tolist()):
        primes = factorize(v).primes
        c_v[i] = sum(
            (-1) ** r * math.prod(subset) ** complex(-1.0 - alpha - beta)
            for r in range(len(primes) + 1)
            for subset in itertools.combinations(primes, r)
        )
    c_v /= support
    return complex(np.sum(c_v * s_alpha * s_beta))


def m_alpha_beta_general(
    support: np.ndarray, gamma: np.ndarray, pairs: Sequence[tuple[complex, complex]]
) -> list[complex]:
    """M(alpha, beta) at each (alpha, beta) of ``pairs``, of any
    divisor-closed support with arbitrary complex coefficients: the
    coprime double sum via the gcd bijection (A,B) = (hm, hn), h = gcd,
    in one gcd pass.  The per-interval product needs the mollifier's
    interval structure and lives on :func:`m_alpha_beta`.

    Each term is [gamma(A) A^(-1-a)] [gamma(B) B^(-1-b)] h^(1+a+b).  The
    gcd matrix is symmetric, so it is built over the upper triangle only:
    row block R against the columns from R on, _PAIR_BLOCK rows at a time
    by ``np.gcd.outer``, and its logs serve every pair.  With H that
    block's powers and H' their part right of the diagonal block, R adds
    x_R . (H y) + y_R . (H' x).  The products are summed by ``np.sum``
    (pairwise), not by BLAS: the result does not depend on the BLAS
    thread count, and no call waits on BLAS threads.
    """
    s = np.asarray(support, dtype=np.int64)
    gamma = np.asarray(gamma, dtype=np.complex128)
    _pair_budget_check(len(s))
    log_s = np.log(s.astype(np.float64))
    xs = [gamma * np.exp((-1.0 - alpha) * log_s) for alpha, _ in pairs]
    ys = [gamma * np.exp((-1.0 - beta) * log_s) for _, beta in pairs]
    totals = [0.0j] * len(pairs)
    for lo in range(0, len(s), _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, len(s))
        log_h = np.log(np.gcd.outer(s[lo:hi], s[lo:]).astype(np.float64))
        for i, ((alpha, beta), x, y) in enumerate(zip(pairs, xs, ys)):
            h_pow = np.exp((1.0 + alpha + beta) * log_h)
            totals[i] += np.sum(x[lo:hi] * np.sum(h_pow * y[lo:], axis=1))
            totals[i] += np.sum(y[lo:hi] * np.sum(h_pow[:, hi - lo :] * x[hi:], axis=1))
    return [complex(t) for t in totals]


def _m_euler_interval(support: FactoredSupport, alpha: complex, beta: complex) -> complex:
    """One interval's factor: the (h, d, m, n) sum with Omega caps on hdm, hdn.

    gamma(hdm) gamma(hdn) = lambda(m) nu(hdm) lambda(n) nu(hdn): the
    lambda(h) lambda(d) factors square away between the two sides.
    Grouped by v = hd, the (h, d) sum  sum_{hd=v} mu(d) / (h d^(2+a+b))
    is multiplicative, p^-e (1 - p^(-1-a-b)) at p^e, so it is a product
    over the exponent matrix; the m- and n-sums run over the pairs
    (v, vm) of the support's divisibility relation.
    """
    values = support.values
    _pair_budget_check(len(values))
    v_idx, k_idx = _divisor_pairs(values)
    log_m = np.log((values[k_idx] // values[v_idx]).astype(np.float64))
    lam = support.liouville
    g = lam[v_idx] * lam[k_idx] * support.nu[k_idx]  # lambda(m) nu(vm)
    starts = np.searchsorted(v_idx, np.arange(len(values)))  # v | v: no row is empty
    s_alpha = np.add.reduceat(g * np.exp((-1.0 - alpha) * log_m), starts)
    s_beta = np.add.reduceat(g * np.exp((-1.0 - beta) * log_m), starts)
    c_p = 1.0 - support.primes.astype(np.float64) ** complex(-1.0 - alpha - beta)
    c_v = support.multiplicative(c_p[:, None]) / values
    return complex(np.sum(c_v * s_alpha * s_beta))


def m_alpha_beta(
    params: MollifierParams,
    alpha: complex,
    beta: complex,
    variant: str = "direct",
    *,
    mol: DirichletPolynomial | None = None,
) -> complex:
    """Second-moment main term M(alpha, beta) of the built mollifier.

    Three algebraically identical routes: ``direct`` (coprime double
    sum via gcd), ``moebius`` (the expanded (h,d,m,n) sum), ``euler``
    (per-interval product of capped quadruple sums).  They must agree
    to near machine precision; the test-suite holds them to 1e-12
    relative.  The direct and Moebius routes take the mollifier
    ``build_dirichlet_mollifier(params)`` as ``mol`` when the caller
    already has it, and build it otherwise.
    """
    if variant in ("direct", "moebius"):
        if mol is None:
            mol = build_dirichlet_mollifier(params)
        if variant == "direct":
            return m_alpha_beta_general(mol.support, mol.coeff, [(alpha, beta)])[0]
        return _m_moebius(mol.support, mol.coeff, alpha, beta)
    if variant == "euler":
        out = 1.0 + 0.0j
        for support in params.supports:
            out *= _m_euler_interval(support, alpha, beta)
        return complex(out)
    raise ValueError(f"unknown variant {variant!r}")
