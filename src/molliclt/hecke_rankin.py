"""Hecke eigenforms, Rankin-Selberg local factors, local expectations of
the random twisted L-value against the exponential mollifier factor,
the smooth Mellin cutoff, and Euler-product evaluation of the expected
random weight.

The two shipped forms are the discriminant cusp form (weight 12) and
the weight-16 level-1 form, presented by their prime coefficients a(p),
recomputed from scratch when a form is built.  Under a CRT stack of
word-sized prime moduli (int64 products stay exact) the eta^24 series is
the eighth power of the sparse cube of the Dedekind eta q-series, which
gives tau(p); the weight-16 a(p) is one dot product of the weight-4
Eisenstein series with tau per prime.  Only the values at the primes are
lifted; they do not fit in 64 bits and are kept as Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from ._special import gamma
from .arith import multiplicative_table, sieve_primes, smooth_integers
from .mollifier import DirichletPolynomial, MollifierParams, hecke_interval_factor, w_weight
from .random_model import RandomSample, x_table

__all__ = [
    "HeckeForm",
    "delta_form",
    "weight16_form",
    "write_eigenvalue_csv",
    "SatakeParams",
    "satake",
    "lambda_prime_power",
    "lambda_table",
    "RankinSelbergPair",
    "rs_local_factor",
    "expectation_local_L",
    "n_coeff",
    "local_expectation",
    "g_p",
    "f_p",
    "quadrature_expectation",
    "v_cutoff",
    "v_cutoff_batch",
    "random_twisted_L",
    "expected_weight_euler",
]

_EIGEN_LIMIT = 10_000
_TRUNC_TOL = 1e-16
_TRUNC_LOOKAHEAD = 10
_TRUNC_MAX_TERMS = 400
_QUADRATURE_NODES = 128
_MAX_TERM_PAIRS = 2_000_000  # random_twisted_L refuses cutoff supports needing more
_EULER_D_CAP = 1_000_000  # largest interval-smooth D in expected_weight_euler
_EULER_TAIL_LIMIT = 10_000  # its Euler product runs over the primes up to here


# ---------------------------------------------------------------------------
# integer coefficients at the primes

def _crt_moduli() -> list[int]:
    """The largest five primes below 2e7.

    The dot-product bound: one coefficient accumulates at most ~1e4
    products each below (2e7)^2 = 4e14, so sums stay under 2^63.
    Five moduli give a combined modulus near 3.2e36, clearing twice the
    largest value we lift (Deligne: |a(p)| <= 2 p^7.5 <= 2e30 for p <= 1e4).
    """
    iv = sieve_primes(2 * 10**7 - 400, 2 * 10**7)
    return [int(p) for p in iv.primes[-5:]]


def _eta_cube(length: int, mod: int) -> np.ndarray:
    """Series of prod (1 - q^n)^3 mod ``mod``: sparse signed triangular terms."""
    out = np.zeros(length, dtype=np.int64)
    k = 0
    while k * (k + 1) // 2 < length:
        term = (2 * k + 1) if k % 2 == 0 else -(2 * k + 1)
        out[k * (k + 1) // 2] = term % mod
        k += 1
    return out


def _eta_24(length: int, mod: int) -> np.ndarray:
    """Series of prod (1 - q^n)^24 mod ``mod`` as (eta^3)^8: seven products
    by the about sqrt(2 length) Jacobi terms of eta^3, each one adding at
    most that many int64 products below mod^2 per coefficient.
    """
    e3 = _eta_cube(length, mod)
    shifts = np.flatnonzero(e3)
    out = e3.copy()
    for _ in range(7):
        acc = np.zeros(length, dtype=np.int64)
        for t in shifts:
            acc[t:] += e3[t] * out[: length - t]
        out = acc % mod
    return out


def _sigma3(length: int) -> np.ndarray:
    out = np.zeros(length, dtype=np.int64)
    for d in range(1, length):
        out[d::d] += d**3
    return out


@lru_cache(maxsize=2)
def _prime_coefficients(limit: int) -> dict[str, dict[int, int]]:
    """Exact coefficients a(n) of both shipped forms at n = 1 and every prime n <= limit.

    Delta's a(n) is the eta^24 coefficient of q^(n-1).  The weight-16
    form is the weight-4 Eisenstein series times the discriminant form,
    so a(n) = sum over k < n of e4(k) tau(n - k): one int64 dot product
    per n and CRT modulus.  Only these values are lifted (Python ints:
    they exceed 64 bits).  a(1) = 1 for both forms is the normalization.
    """
    ns = [1] + [int(p) for p in sieve_primes(1, limit).primes]
    moduli = _crt_moduli()
    e4 = 240 * _sigma3(limit)
    e4[0] = 1
    residues_delta = []
    residues_w16 = []
    for m in moduli:
        eta24 = _eta_24(limit, m)  # tau(n) = eta24[n - 1]
        e4_m = e4 % m
        residues_delta.append([int(eta24[n - 1]) for n in ns])
        residues_w16.append([int(np.dot(e4_m[:n], eta24[n - 1 :: -1])) % m for n in ns])
    # CRT lift with centered representatives
    big_m = math.prod(moduli)
    crt_coeff = [(big_m // m) * pow(big_m // m, -1, m) for m in moduli]
    half = big_m // 2

    def lift(rows: list[list[int]]) -> dict[int, int]:
        out = {}
        for n, column in zip(ns, zip(*rows)):
            r = sum(res * c for res, c in zip(column, crt_coeff)) % big_m
            out[n] = r - big_m if r > half else r
        return out

    return {"delta": lift(residues_delta), "weight16": lift(residues_w16)}


# ---------------------------------------------------------------------------
# forms

@dataclass(frozen=True)
class HeckeForm:
    """A level-1 Hecke eigenform presented by normalized prime eigenvalues.

    ``lambda_cache`` maps p to lambda(p) = a(p) / p^((weight-1)/2) for
    all primes up to the build limit; larger p raises, with the remedy
    (rebuild with a bigger limit) named in the error.
    """

    label: str
    weight: int
    level: int
    root_number: float
    lambda_cache: dict[int, float]
    cache_limit: int

    def lambda_p(self, p: int) -> float:
        try:
            return self.lambda_cache[p]
        except KeyError:
            if p > self.cache_limit:
                raise ValueError(
                    f"{self.label}: prime {p} beyond eigenvalue cache (limit {self.cache_limit}); "
                    f"rebuild the form with limit >= {p} to extend"
                ) from None
            raise ValueError(f"{self.label}: {p} is not prime") from None


def _form_from_coefficients(label: str, weight: int, limit: int) -> HeckeForm:
    coeffs = _prime_coefficients(limit)[label]
    if coeffs[1] != 1:
        raise AssertionError(f"{label}: coefficients are not normalized")
    half = (weight - 1) / 2.0
    cache = {n: a_n / float(n) ** half for n, a_n in coeffs.items() if n > 1}
    # level-1 functional equation sign (-1)^(weight/2): +1 for both shipped weights
    eps = -1.0 if (weight // 2) % 2 else 1.0
    return HeckeForm(
        label=label, weight=weight, level=1, root_number=eps,
        lambda_cache=cache, cache_limit=limit,
    )


@lru_cache(maxsize=4)
def delta_form(limit: int = _EIGEN_LIMIT) -> HeckeForm:
    """The weight-12 discriminant cusp form, eigenvalues from tau at the primes."""
    return _form_from_coefficients("delta", 12, limit)


@lru_cache(maxsize=4)
def weight16_form(limit: int = _EIGEN_LIMIT) -> HeckeForm:
    """The weight-16 level-1 eigenform (Eisenstein-4 times the discriminant form)."""
    return _form_from_coefficients("weight16", 16, limit)


def write_eigenvalue_csv(form: HeckeForm, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# form: {form.label} (weight {form.weight}, level {form.level})\n")
        fh.write("p,lambda_f\n")
        for p in sorted(form.lambda_cache):
            fh.write(f"{p},{form.lambda_cache[p]!r}\n")


# ---------------------------------------------------------------------------
# Satake parameters and prime-power eigenvalues

@dataclass(frozen=True)
class SatakeParams:
    """Roots of X^2 - lambda X + 1: unit-circle conjugates when |lambda| <= 2."""

    alpha1: complex
    alpha2: complex


def satake(lam: float) -> SatakeParams:
    lam = float(lam)
    disc = lam * lam - 4.0
    if disc <= 0.0:
        root = complex(lam / 2.0, math.sqrt(-disc) / 2.0)
        return SatakeParams(root, root.conjugate())
    r = math.sqrt(disc)
    return SatakeParams(complex((lam + r) / 2.0), complex((lam - r) / 2.0))


def lambda_prime_power(f: HeckeForm, p: int, a: int) -> float:
    """lambda(p^a) by the level-1 Hecke recursion."""
    if a < 0:
        raise ValueError("exponent must be nonnegative")
    if a == 0:
        return 1.0
    lam = f.lambda_p(p)
    prev, cur = 1.0, lam
    for _ in range(a - 1):
        prev, cur = cur, lam * cur - prev
    return cur


def lambda_table(f: HeckeForm, limit: int) -> np.ndarray:
    """lambda_f(n) for all n <= limit (slot 0 unused, set to 0)."""
    return multiplicative_table(limit, lambda p, e: lambda_prime_power(f, p, e), np.float64)


# ---------------------------------------------------------------------------
# Rankin-Selberg pair and local factors

@dataclass(frozen=True)
class RankinSelbergPair:
    """An ordered pair of eigenforms for joint local-factor work.

    Joint experiments want distinct forms; evaluators that are
    well-defined for f = g (local factors, the Euler-product expectation)
    accept equal labels, and the ones that are not reject them.
    """

    f: HeckeForm
    g: HeckeForm

    @property
    def distinct(self) -> bool:
        return self.f.label != self.g.label


def _satake_pairs(pair: RankinSelbergPair, p: int) -> tuple[SatakeParams, SatakeParams]:
    return satake(pair.f.lambda_p(p)), satake(pair.g.lambda_p(p))


def _settled_sum(terms: Iterator[complex], failure: str) -> complex:
    """Sum ``terms`` until _TRUNC_LOOKAHEAD consecutive ones fall below
    _TRUNC_TOL in modulus.  The term generators stop after at most
    _TRUNC_MAX_TERMS terms; running out first raises RuntimeError(failure).
    """
    total = 0.0j
    quiet = 0
    for term in terms:
        total += term
        quiet = quiet + 1 if abs(term) < _TRUNC_TOL else 0
        if quiet >= _TRUNC_LOOKAHEAD:
            return total
    raise RuntimeError(failure)


def _diagonal_terms(pair: RankinSelbergPair, p: int, x: complex) -> Iterator[complex]:
    """lambda_f(p^j) lambda_g(p^j) x^j for j = 0, 1, ..., _TRUNC_MAX_TERMS - 1."""
    term_x = 1.0 + 0.0j
    for j in range(_TRUNC_MAX_TERMS):
        yield lambda_prime_power(pair.f, p, j) * lambda_prime_power(pair.g, p, j) * term_x
        term_x *= x


def rs_local_factor(pair: RankinSelbergPair, p: int, s: complex, path: str = "product") -> complex:
    """Local factor of the convolution L-function at p: four Satake factors.

    The series path sums lambda_f(p^j) lambda_g(p^j) p^(-js) and divides
    by (1 - p^(-2s)), the level-one local zeta correction; the two routes
    are independent and must agree.
    """
    s = complex(s)
    if s.real <= 0:
        raise ValueError("local factor needs Re s > 0")
    x = complex(p) ** (-s)
    if path == "product":
        sf, sg = _satake_pairs(pair, p)
        out = 1.0 + 0.0j
        for af in (sf.alpha1, sf.alpha2):
            for ag in (sg.alpha1, sg.alpha2):
                d = 1.0 - af * ag * x
                if abs(d) < 1e-12:
                    raise ValueError(f"local factor pole at p={p}, s={s}")
                out /= d
        return out
    if path == "series":
        total = _settled_sum(_diagonal_terms(pair, p, x), f"local series did not settle at p={p}, s={s}")
        return total / (1.0 - x * x)
    raise ValueError(f"unknown path {path!r}")


def expectation_local_L(pair: RankinSelbergPair, p: int, s: complex, path: str = "formula") -> complex:
    """E over the model of the local twisted-L factor at offset s.

    formula: (1 - p^(-4s-2)) times the convolution local factor at
    2s + 1.  series: the direct expansion sum over j of
    lambda_f(p^j) lambda_g(p^j) p^(-(2s+1)j).  The series converges on
    Re s > -1/2 but slows badly near the edge; it is validated on
    Re s > -0.2 and refuses below -0.45.
    """
    s = complex(s)
    if s.real <= -0.5:
        raise ValueError("expectation needs Re s > -1/2")
    if path == "formula":
        return (1.0 - complex(p) ** (-4.0 * s - 2.0)) * rs_local_factor(pair, p, 2.0 * s + 1.0, "product")
    if path == "series":
        if s.real <= -0.45:
            raise ValueError("series path is unreliable below Re s = -0.45")
        x = complex(p) ** (-(2.0 * s + 1.0))
        return _settled_sum(_diagonal_terms(pair, p, x), f"expectation series did not settle at p={p}, s={s}")
    raise ValueError(f"unknown path {path!r}")


# ---------------------------------------------------------------------------
# local expectations against the exponential mollifier factor

def n_coeff(
    p: int, s: complex, k: int, h1: HeckeForm, h2: HeckeForm, params: MollifierParams
) -> complex:
    """Coefficient of X(p)^k in (local L-factor of h1 at exponent s) times
    the exponential mollifier factor of h2.

    Sum over k1 + k2 = k of
    lambda_h1(p^k1) p^(-k1 s) (-lambda_h2(p) w(p))^k2 p^(-k2/2) / k2!,
    with w the final-interval smoothing weight.  Zero for k < 0.  Note
    ``s`` is the literal exponent: callers at offset u pass u + 1/2.
    """
    if k < 0:
        return 0.0j
    s = complex(s)
    w = w_weight(p, params.J, params)
    a2 = -h2.lambda_p(p) * w
    total = 0.0j
    fact = 1.0
    for k2 in range(k + 1):
        if k2:
            fact *= k2
        k1 = k - k2
        total += (
            lambda_prime_power(h1, p, k1)
            * complex(p) ** (-k1 * s)
            * a2**k2
            * p ** (-k2 / 2.0)
            / fact
        )
    return total


def local_expectation(
    pair: RankinSelbergPair,
    p: int,
    s: complex,
    a: int,
    params: MollifierParams,
    ordering: str = "fg",
) -> complex:
    """E(local twisted L-factor x exponential mollifier factor x X(p)^a).

    The mollifier slots are fixed (f rides X, g rides the conjugate);
    ``ordering`` chooses which form's L-factor rides X.  Series over k
    of n^(L1,f)(k) n^(L2,g)(k+a), truncated by magnitude with a
    lookahead guard.
    """
    if ordering not in ("fg", "gf"):
        raise ValueError(f"unknown ordering {ordering!r}")
    l1, l2 = (pair.f, pair.g) if ordering == "fg" else (pair.g, pair.f)
    sigma = complex(s) + 0.5
    terms = (
        n_coeff(p, sigma, k, l1, pair.f, params) * n_coeff(p, sigma, k + a, l2, pair.g, params)
        for k in range(max(0, -a), _TRUNC_MAX_TERMS)
    )
    return _settled_sum(terms, f"local expectation series did not settle at p={p}, s={s}, a={a}")


def g_p(pair: RankinSelbergPair, p: int, s: complex, params: MollifierParams) -> complex:
    """The order-0 local expectation (no extra X power)."""
    return local_expectation(pair, p, s, 0, params)


def f_p(pair: RankinSelbergPair, p: int, s: complex, params: MollifierParams) -> complex:
    """The Re X(p)-weighted local expectation: half the sum of orders +1 and -1."""
    plus = local_expectation(pair, p, s, 1, params)
    minus = local_expectation(pair, p, s, -1, params)
    return 0.5 * (plus + minus)


def quadrature_expectation(
    pair: RankinSelbergPair, p: int, s: complex, a: int, params: MollifierParams
) -> complex:
    """Independent oracle for :func:`local_expectation` by angle quadrature.

    Evaluates the integrand at _QUADRATURE_NODES uniformly spaced angles
    and averages.  The periodic rule is exact for trigonometric content
    below the node count; the content above it decays like p^(-k/2), so
    the aliasing error is about p^(-N/2) for N nodes: 2^-64 at p = 2,
    below double rounding.  No series coefficients
    are reused: the local factors are evaluated as Satake products and
    a literal exponential.  f's L-factor rides X, g's its conjugate.
    """
    sigma = complex(s) + 0.5
    theta = 2.0 * math.pi * (np.arange(_QUADRATURE_NODES) + 0.5) / _QUADRATURE_NODES
    x = np.exp(1j * theta)
    xb = np.conj(x)
    ps = complex(p) ** (-sigma)
    s1 = satake(pair.f.lambda_p(p))
    s2 = satake(pair.g.lambda_p(p))
    vals = np.ones(_QUADRATURE_NODES, dtype=np.complex128)
    for al in (s1.alpha1, s1.alpha2):
        vals /= 1.0 - al * x * ps
    for al in (s2.alpha1, s2.alpha2):
        vals /= 1.0 - al * xb * ps
    w = w_weight(p, params.J, params)
    root_p = math.sqrt(p)
    vals *= np.exp(-pair.f.lambda_p(p) * w * x / root_p)
    vals *= np.exp(-pair.g.lambda_p(p) * w * xb / root_p)
    vals *= x**a
    return complex(vals.mean())


# ---------------------------------------------------------------------------
# the smooth Mellin cutoff

@lru_cache(maxsize=64)
def _cutoff_node_data(
    weights: tuple[int, int], contour_re: float, t_max: float, nodes_per_panel: int
) -> tuple[np.ndarray, np.ndarray]:
    """Integration nodes s = c + it on [0, t_max] and F(s) * GL-weight at each.

    F is the archimedean ratio (2 pi)^(-2s) Gamma(s + k1/2) Gamma(s + k2/2)
    / (Gamma(k1/2) Gamma(k2/2)) times (cos(pi s/12))^(-48) / s.
    """
    k1, k2 = weights
    base_x, base_w = np.polynomial.legendre.leggauss(nodes_per_panel)
    panels = int(math.ceil(t_max))
    ts = np.concatenate([(base_x + 1.0) / 2.0 + lo for lo in range(panels)])
    ws = np.tile(base_w / 2.0, panels)
    s = contour_re + 1j * ts
    norm = gamma(0.5 * k1) * gamma(0.5 * k2)
    f = np.empty(len(s), dtype=np.complex128)
    for i, sv in enumerate(s):
        f[i] = (
            (2.0 * math.pi) ** (-2.0 * sv)
            * gamma(sv + 0.5 * k1)
            * gamma(sv + 0.5 * k2)
            / norm
            * np.cos(math.pi * sv / 12.0) ** (-48.0)
            / sv
        )
    return s, f * ws


def _cutoff_eval(xis: np.ndarray, weights: tuple[int, int], contour_re: float, nodes: int) -> np.ndarray:
    s, fw = _cutoff_node_data(weights, contour_re, 14.0, nodes)
    log_xi = np.log(xis)
    phase = np.exp(-np.outer(log_xi, s))
    # conjugate symmetry folds the full vertical line onto t >= 0
    return (phase @ fw).real * (1.0 / math.pi)


# Line used for xi < 1/2 once the simple pole at s = 0 (residue 1) is
# crossed.  For weights above 2 no other pole lies in [-1, 2]: the first
# poles to the left are Gamma(s + k/2) at -k/2 and (cos(pi s/12))^(-48)
# at s = -6.
_SHIFTED_CONTOUR_RE = -1.0


def v_cutoff_batch(
    xis: np.ndarray, weights: tuple[int, int] = (12, 16), contour_re: float = 2.0
) -> np.ndarray:
    """Mellin cutoff V at many arguments, with a refinement convergence check.

    V(xi) = (1/2 pi i) integral over a vertical line of the archimedean
    ratio times (cos(pi s/12))^(-48)/s times xi^(-s).  The integrand
    decays like e^(-5 pi t) in the imaginary direction, so a modest
    truncated contour reaches well below 1e-12.

    For xi < 1/2 the line is shifted to Re s = -1, crossing only the
    simple pole at s = 0 (residue 1), so V = 1 + (integral on Re s = -1),
    where |xi^(-s)| = xi.  The line is chosen by its conditioning: on it
    |cos(pi s/12)|^(-48) is about 5 at t = 0, and the absolute quadrature
    terms sum to about 0.44 at xi = 0.4, so nothing cancels.  On
    Re s = -3, half-way to the pole at -6, that factor is 2^24 and the
    terms sum to about 2.6e5 for a result of -0.3, which leaves a
    refinement gap above the guard.

    On each line the 20- and 28-node rules must agree to 1e-9 times the
    larger of 1 and the line integral, else RuntimeError.
    """
    xis = np.atleast_1d(np.asarray(xis, dtype=np.float64))
    if np.any(xis <= 0):
        raise ValueError("cutoff argument must be positive")
    out = np.empty(len(xis))
    for shift, mask in ((False, xis >= 0.5), (True, xis < 0.5)):
        if not np.any(mask):
            continue
        c = _SHIFTED_CONTOUR_RE if shift else float(contour_re)
        coarse = _cutoff_eval(xis[mask], weights, c, 20)
        fine = _cutoff_eval(xis[mask], weights, c, 28)
        gap = float(np.max(np.abs(fine - coarse)))
        guard = 1e-9 * max(1.0, float(np.max(np.abs(fine))))
        if gap > guard:
            raise RuntimeError(
                f"cutoff quadrature did not converge on Re s = {c:g}: "
                f"refinement gap {gap:.3g} > guard {guard:.3g}"
            )
        out[mask] = fine + (1.0 if shift else 0.0)
    return out


def v_cutoff(xi: float, weights: tuple[int, int] = (12, 16), contour_re: float = 2.0) -> float:
    """Scalar cutoff value; see :func:`v_cutoff_batch`."""
    return float(v_cutoff_batch(np.array([float(xi)]), weights, contour_re)[0])


# ---------------------------------------------------------------------------
# random twisted L-values

def _cutoff_support_limit(q_eff: int, pair: RankinSelbergPair, v_floor: float) -> int:
    """Largest product m1 m2 whose cutoff value still clears v_floor."""
    scale = float(q_eff * pair.f.level * pair.g.level) ** 2
    kappas = (pair.f.weight, pair.g.weight)
    lo, hi = 1.0, 2.0
    while v_cutoff(hi, kappas) >= v_floor:
        lo, hi = hi, hi * 2.0
        if hi > 1e12:
            raise RuntimeError("cutoff never fell below the floor")
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if v_cutoff(mid, kappas) >= v_floor:
            lo = mid
        else:
            hi = mid
    return max(1, int(scale * lo))


def random_twisted_L(
    sample: RandomSample,
    pair: RankinSelbergPair,
    q_eff: int,
    v_floor: float = 1e-10,
) -> complex:
    """One realization of the cutoff-smoothed random twisted central L-value.

    Double sum of lambda_f(m1) lambda_g(m2) X(m1) conj(X(m2)) / sqrt(m1 m2)
    weighted by the cutoff at m1 m2 / (q_eff N)^2, symmetrized over the
    two form orderings with the product of root numbers.  ``q_eff`` is a
    model parameter decoupled from any arithmetic modulus: the support
    grows like its square, which is exactly why it must stay small.
    """
    if not 1 <= q_eff <= 200:
        raise ValueError("q_eff must lie in [1, 200]")
    if not pair.distinct:
        raise ValueError("the joint experiment needs two distinct forms")
    d_max = _cutoff_support_limit(q_eff, pair, v_floor)
    est = int(d_max * (math.log(d_max) + 1.0))
    if est > _MAX_TERM_PAIRS:
        raise RuntimeError(
            f"cutoff support needs ~{est} term pairs (> {_MAX_TERM_PAIRS}); "
            "lower q_eff or raise v_floor"
        )
    lam_f = lambda_table(pair.f, d_max)
    lam_g = lambda_table(pair.g, d_max)
    x = x_table(sample, d_max)
    scale = float(q_eff * pair.f.level * pair.g.level) ** 2
    v_d = v_cutoff_batch(np.arange(1, d_max + 1) / scale, (pair.f.weight, pair.g.weight))
    inv_root = 1.0 / np.sqrt(np.arange(0, d_max + 1, dtype=np.float64).clip(min=1.0))

    side_f = lam_f[: d_max + 1] * x[: d_max + 1] * inv_root
    side_g_bar = lam_g[: d_max + 1] * np.conj(x[: d_max + 1]) * inv_root
    side_g = lam_g[: d_max + 1] * x[: d_max + 1] * inv_root
    side_f_bar = lam_f[: d_max + 1] * np.conj(x[: d_max + 1]) * inv_root

    def ordered_sum(a_side: np.ndarray, b_side: np.ndarray) -> complex:
        total = 0.0j
        for m1 in range(1, d_max + 1):
            k = d_max // m1
            products = m1 * np.arange(1, k + 1)
            total += a_side[m1] * np.sum(b_side[1 : k + 1] * v_d[products - 1])
        return total

    l_fg = ordered_sum(side_f, side_g_bar)
    l_gf = ordered_sum(side_g, side_f_bar)
    return 0.5 * (l_fg + pair.f.root_number * pair.g.root_number * l_gf)


# ---------------------------------------------------------------------------
# Euler-product evaluation of the expected random weight

def expected_weight_euler(pair: RankinSelbergPair, params: MollifierParams) -> tuple[float, float]:
    """E(random central L x random mollifier) for both form orderings.

    Euler product in three zones: bare local expectations below the
    mollifier range and on the tail above it (truncated at
    _EULER_TAIL_LIMIT), and per-interval diagonal convolution sums inside:
    sum over interval-smooth D <= _EULER_D_CAP of (1/D) A1(D) A2(D) with
    A(D) = sum over factorizations D = m n, n in the capped mollifier
    support, of lambda_L(m) gamma(n).  The mollifier slots are fixed
    (f with X, g with the conjugate); the orderings swap only which
    L-factor rides which side.  The cutoff is taken at its central value
    1 on this support.  Real output; equal labels are permitted here.
    """
    small = sieve_primes(1.0, params.c0).primes
    tail = sieve_primes(params.x, float(_EULER_TAIL_LIMIT)).primes
    outer = 1.0
    for p in np.concatenate([small, tail]):
        outer *= expectation_local_L(pair, int(p), 0.0, "formula").real

    fg_total, gf_total = outer, outer
    for j in range(params.J + 1):
        support = smooth_integers(params.intervals[j], None, float(_EULER_D_CAP))
        values = support.values
        exponents = range(support.max_exponent + 1)
        lam_cache: dict[str, np.ndarray] = {}
        for form in (pair.f, pair.g):
            if form.label not in lam_cache:
                local = [[lambda_prime_power(form, int(p), e) for e in exponents] for p in support.primes]
                lam_cache[form.label] = support.multiplicative(
                    np.array(local).reshape(len(support.primes), len(exponents))
                )

        gamma_f = hecke_interval_factor(params, j, pair.f)
        gamma_g = hecke_interval_factor(params, j, pair.g)

        def a_convolve(l_form: HeckeForm, gamma: DirichletPolynomial) -> np.ndarray:
            lam_vals = lam_cache[l_form.label]
            acc = np.zeros(len(values))
            for n_m, gval in zip(gamma.support.tolist(), gamma.coeff.real.tolist()):
                cut = int(np.searchsorted(values, _EULER_D_CAP // n_m, side="right"))
                prods = n_m * values[:cut]
                pos = np.searchsorted(values, prods)
                acc[pos] += gval * lam_vals[:cut]
            return acc

        a_ff = a_convolve(pair.f, gamma_f)
        a_gg = a_convolve(pair.g, gamma_g)
        a_gf = a_convolve(pair.g, gamma_f)
        a_fg = a_convolve(pair.f, gamma_g)
        inv = 1.0 / values.astype(np.float64)
        fg_total *= float(np.sum(a_ff * a_gg * inv))
        gf_total *= float(np.sum(a_gf * a_fg * inv))
    return fg_total, gf_total
