"""Hecke eigenforms, Rankin-Selberg local factors, local expectations of
the random twisted L-value against the exponential mollifier factor,
the smooth Mellin cutoff, and Euler-product evaluation of the expected
random weight.

The two shipped forms are the discriminant cusp form (weight 12) and
the weight-16 level-1 form, presented by their prime coefficients a(p),
recomputed from scratch when a form is built.  Modulo each of a CRT
stack of primes below 2^13, eta^24 is three squarings of the Jacobi
series of eta^3, which gives tau(p), and the weight-16 series is one
more product, the weight-4 Eisenstein series times it.  Every product
is one float64 FFT, exact while limit (m - 1)^2 < 2^44, so a limit past
262272 is refused.  Only the values at the primes are lifted; they do
not fit in 64 bits and are kept as Python ints.

Every truncated local series reads one array of lambda(p^j) x^j."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
import numpy as np

from ._special import gamma, gamma_array
from .arith import multiplicative_table, sieve_primes
from .mollifier import MollifierParams, w_weight
from .random_model import circle_expectation

__all__ = [
    "HeckeForm",
    "delta_form",
    "weight16_form",
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
    "check_euler_range",
    "expected_weight_euler",
]

_EIGEN_LIMIT = 10_000
_TRUNC_TOL = 1e-16
_TRUNC_LOOKAHEAD = 10
_TRUNC_MAX_TERMS = 400
_QUADRATURE_NODES = 128
_EULER_TAIL_LIMIT = 10_000  # its Euler product runs over the primes up to here
_CUTOFF_WEIGHTS = (12, 16)  # the cutoff's archimedean factor is that of the shipped pair
_CUTOFF_T_MAX = 14  # the cutoff contour's end; its integrand decays like e^(-5 pi t)


# ---------------------------------------------------------------------------
# integer coefficients at the primes

_MODULI_BELOW = 2**13
# _mulmod stays exact while limit (m - 1)^2 < 2^44 for every modulus m: 262272
_MAX_LIMIT = (2**44 - 1) // (_MODULI_BELOW - 2) ** 2


def _crt_moduli(limit: int) -> list[int]:
    """Primes below 2^13, largest first, until their product clears 4 limit^7.5.

    Deligne bounds the weight-16 |a(p)| by 2 p^7.5 (and tau by less), and
    the centered CRT lift recovers a(p) while the product exceeds 2 |a(p)|.
    """
    moduli: list[int] = []
    for m in sieve_primes(1, _MODULI_BELOW).primes[::-1].tolist():
        if math.prod(moduli) ** 2 > 16 * limit**15:
            break
        moduli.append(m)
    return moduli


def _fft_size(n: int) -> int:
    """The smallest 5-smooth integer 2^i 3^j 5^k at least n: pocketfft's fast lengths."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _mulmod(a: np.ndarray, b: np.ndarray, mod: int) -> np.ndarray:
    """First len(a) coefficients of the product of two residue series, mod ``mod``.

    One float64 rfft/irfft product, rounded with np.rint.  Each raw
    coefficient is a sum of at most len(a) products of residues, so it
    is below len(a) (mod - 1)^2, which callers keep under 2^44; far below
    2^53, the transform's rounding error stays well under 1/4.  A raw
    coefficient more than 1/4 from an integer raises RuntimeError.
    """
    length = len(a)
    size = _fft_size(2 * length - 1)  # no wraparound below index length
    fa = np.fft.rfft(a, size)
    fb = fa if b is a else np.fft.rfft(b, size)
    raw = np.fft.irfft(fa * fb, size)[:length]
    exact = np.rint(raw)
    if (gap := float(np.max(np.abs(raw - exact), initial=0.0))) > 0.25:
        raise RuntimeError(f"FFT product mod {mod} is not exact: a raw coefficient lies {gap:.3g} from an integer")
    return exact.astype(np.int64) % mod


def _eta_cube(length: int, mod: int) -> np.ndarray:
    """Series of prod (1 - q^n)^3 mod ``mod``: sparse signed triangular terms."""
    out = np.zeros(length, dtype=np.int64)
    k = 0
    while k * (k + 1) // 2 < length:
        term = (2 * k + 1) if k % 2 == 0 else -(2 * k + 1)
        out[k * (k + 1) // 2] = term % mod
        k += 1
    return out


def _sigma3(length: int) -> np.ndarray:
    """sigma_3(n) for n < length (slot 0 set to 0): d^3 added at every multiple of d, in one pass.

    The sums stay in int64: at the largest limit they pass 2^53, where a
    float64 ``bincount`` would round them.
    """
    d = np.arange(1, length, dtype=np.int64)
    counts = (length - 1) // d
    divisors = np.repeat(d, counts)
    # the k-th multiple of each divisor, k = 1..counts
    k = np.arange(1, len(divisors) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    out = np.zeros(length, dtype=np.int64)
    np.add.at(out, divisors * k, divisors**3)
    return out


@lru_cache(maxsize=2)
def _prime_coefficients(limit: int) -> dict[str, dict[int, int]]:
    """Exact coefficients a(n) of both shipped forms at n = 1 and every prime n <= limit.

    Per CRT modulus, eta^24 is three squarings of eta^3 and Delta's a(n)
    is its coefficient of q^(n-1); the weight-16 form is the weight-4
    Eisenstein series times the discriminant form, one more product.
    Only the values at the primes are lifted (Python ints: they exceed
    64 bits).  a(1) = 1 for both forms is the normalization.  A limit
    past _MAX_LIMIT, where the FFT products stop being exact, raises
    ValueError.
    """
    if limit > _MAX_LIMIT:
        raise ValueError(f"eigenvalue limit {limit} exceeds the exact range of the FFT products: at most {_MAX_LIMIT}")
    moduli = _crt_moduli(limit)
    ns = np.array([1] + sieve_primes(1, limit).primes.tolist())
    e4 = 240 * _sigma3(limit)
    e4[0] = 1
    residues_delta = []
    residues_w16 = []
    for m in moduli:
        eta24 = _eta_cube(limit, m)
        for _ in range(3):
            eta24 = _mulmod(eta24, eta24, m)
        residues_delta.append(eta24[ns - 1])
        residues_w16.append(_mulmod(e4 % m, eta24, m)[ns - 1])
    # CRT lift with centered representatives, in Python ints (object arrays)
    big_m = math.prod(moduli)
    crt_coeff = np.array([(big_m // m) * pow(big_m // m, -1, m) for m in moduli], dtype=object)
    half = big_m // 2

    def lift(rows: list[np.ndarray]) -> dict[int, int]:
        r = crt_coeff @ np.array(rows, dtype=object) % big_m
        return dict(zip(ns.tolist(), np.where(r > half, r - big_m, r).tolist()))

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
    return HeckeForm(label=label, weight=weight, lambda_cache=cache, cache_limit=limit)


@lru_cache(maxsize=4)
def delta_form(limit: int = _EIGEN_LIMIT) -> HeckeForm:
    """The weight-12 discriminant cusp form, eigenvalues from tau at the primes."""
    return _form_from_coefficients("delta", 12, limit)


@lru_cache(maxsize=4)
def weight16_form(limit: int = _EIGEN_LIMIT) -> HeckeForm:
    """The weight-16 level-1 eigenform (Eisenstein-4 times the discriminant form)."""
    return _form_from_coefficients("weight16", 16, limit)


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


def _lambda_powers(lam: float, x: complex) -> np.ndarray:
    """lambda_f(p^j) x^j for j < _TRUNC_MAX_TERMS, given lam = lambda_f(p),
    by the recursion of :func:`lambda_prime_power`."""
    powers = [1.0, lam]
    for _ in range(_TRUNC_MAX_TERMS - 2):
        powers.append(lam * powers[-1] - powers[-2])
    return np.array(powers) * x ** np.arange(_TRUNC_MAX_TERMS)


def _series_sum(terms: np.ndarray, failure: str) -> complex:
    """Sum of a truncated series whose last _TRUNC_LOOKAHEAD terms must
    fall below _TRUNC_TOL in modulus, else RuntimeError(failure).
    """
    if np.any(np.abs(terms[-_TRUNC_LOOKAHEAD:]) >= _TRUNC_TOL):
        raise RuntimeError(failure)
    return complex(terms.sum())


# ---------------------------------------------------------------------------
# Rankin-Selberg pair and local factors

@dataclass(frozen=True)
class RankinSelbergPair:
    """An ordered pair of eigenforms for joint local-factor work."""

    f: HeckeForm
    g: HeckeForm


def _satake_pairs(pair: RankinSelbergPair, p: int) -> tuple[SatakeParams, SatakeParams]:
    return satake(pair.f.lambda_p(p)), satake(pair.g.lambda_p(p))


def rs_local_factor(pair: RankinSelbergPair, p: int, s: complex) -> complex:
    """Local factor of the convolution L-function at p: the product of the
    four Satake factors 1 / (1 - alpha_f alpha_g p^(-s)).

    Its series form, sum over j of lambda_f(p^j) lambda_g(p^j) p^(-js)
    over the level-one local zeta correction (1 - p^(-2s)), is
    :func:`expectation_local_L`'s series path at offset (s - 1)/2 over
    that correction, so that function's two paths pin this one.
    """
    s = complex(s)
    if s.real <= 0:
        raise ValueError("local factor needs Re s > 0")
    x = complex(p) ** (-s)
    sf, sg = _satake_pairs(pair, p)
    out = 1.0 + 0.0j
    for af in (sf.alpha1, sf.alpha2):
        for ag in (sg.alpha1, sg.alpha2):
            d = 1.0 - af * ag * x
            if abs(d) < 1e-12:
                raise ValueError(f"local factor pole at p={p}, s={s}")
            out /= d
    return out


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
        return (1.0 - complex(p) ** (-4.0 * s - 2.0)) * rs_local_factor(pair, p, 2.0 * s + 1.0)
    if path == "series":
        if s.real <= -0.45:
            raise ValueError("series path is unreliable below Re s = -0.45")
        x = complex(p) ** (-(2.0 * s + 1.0))
        terms = _lambda_powers(pair.f.lambda_p(p), x) * _lambda_powers(pair.g.lambda_p(p), 1.0)
        return _series_sum(terms, f"expectation series did not settle at p={p}, s={s}")
    raise ValueError(f"unknown path {path!r}")


# ---------------------------------------------------------------------------
# local expectations against the exponential mollifier factor

def n_coeff(p: int, s: complex, h1: HeckeForm, h2: HeckeForm, params: MollifierParams) -> np.ndarray:
    """Coefficients of X(p)^k, k < _TRUNC_MAX_TERMS, in (local L-factor
    of h1 at exponent s) times the exponential mollifier factor of h2.

    The k-th is the sum over k1 + k2 = k of
    lambda_h1(p^k1) p^(-k1 s) c^k2 / k2!, with c = -lambda_h2(p) w(p) / sqrt(p)
    and w the final-interval smoothing weight: one convolution.  Note
    ``s`` is the literal exponent: callers at offset u pass u + 1/2.
    Each array is built once per p^(-s), lambda_h1(p) and c and kept,
    read-only: :func:`g_p` and :func:`f_p` at one prime read the same two.
    """
    c = -h2.lambda_p(p) * w_weight(p, params.J, params) / math.sqrt(p)
    return _n_coeff(complex(p) ** (-complex(s)), h1.lambda_p(p), c)


@lru_cache(maxsize=8)
def _n_coeff(x: complex, lam: float, c: float) -> np.ndarray:
    exp_terms = np.cumprod(np.concatenate(([1.0], c / np.arange(1, _TRUNC_MAX_TERMS))))
    out = np.convolve(_lambda_powers(lam, x), exp_terms)[:_TRUNC_MAX_TERMS]
    out.flags.writeable = False
    return out


def local_expectation(pair: RankinSelbergPair, p: int, s: complex, a: int, params: MollifierParams) -> complex:
    """E(local twisted L-factor x exponential mollifier factor x X(p)^a).

    f's L-factor and mollifier factor ride X, g's ride the conjugate.
    Series over k of n^(f,f)(k) n^(g,g)(k+a), one shifted product of
    the two :func:`n_coeff` arrays.
    """
    sigma = complex(s) + 0.5
    n1 = n_coeff(p, sigma, pair.f, pair.f, params)
    n2 = n_coeff(p, sigma, pair.g, pair.g, params)
    terms = n1[max(0, -a) : _TRUNC_MAX_TERMS - max(0, a)] * n2[max(0, a) : _TRUNC_MAX_TERMS - max(0, -a)]
    return _series_sum(terms, f"local expectation series did not settle at p={p}, s={s}, a={a}")


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
def _cutoff_node_data(contour_re: float, nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Integration nodes s = c + it on [0, _CUTOFF_T_MAX], one Gauss-Legendre
    panel per unit of t, and F(s) * GL-weight at each.

    F is the archimedean ratio (2 pi)^(-2s) Gamma(s + k1/2) Gamma(s + k2/2)
    / (Gamma(k1/2) Gamma(k2/2)) times (cos(pi s/12))^(-48) / s.
    """
    k1, k2 = _CUTOFF_WEIGHTS
    base_x, base_w = np.polynomial.legendre.leggauss(nodes_per_panel)
    ts = np.concatenate([(base_x + 1.0) / 2.0 + lo for lo in range(_CUTOFF_T_MAX)])
    ws = np.tile(base_w / 2.0, _CUTOFF_T_MAX)
    s = contour_re + 1j * ts
    norm = gamma(0.5 * k1) * gamma(0.5 * k2)
    f = (
        (2.0 * math.pi) ** (-2.0 * s)
        * gamma_array(s + 0.5 * k1)
        * gamma_array(s + 0.5 * k2)
        / norm
        * np.cos(math.pi * s / 12.0) ** (-48.0)
        / s
    )
    return s, f * ws


def _cutoff_eval(xis: np.ndarray, contour_re: float, nodes: int) -> np.ndarray:
    s, fw = _cutoff_node_data(contour_re, nodes)
    log_xi = np.log(xis)
    phase = np.exp(-np.outer(log_xi, s))
    # conjugate symmetry folds the full vertical line onto t >= 0; einsum keeps the sum out of BLAS
    return np.einsum("xs,s->x", phase, fw).real * (1.0 / math.pi)


# Line used for xi < 1/2 once the simple pole at s = 0 (residue 1) is
# crossed.  For weights above 2 no other pole lies in [-1, 2]: the first
# poles to the left are Gamma(s + k/2) at -k/2 and (cos(pi s/12))^(-48)
# at s = -6.
_SHIFTED_CONTOUR_RE = -1.0


def v_cutoff(xi: float, contour_re: float = 2.0) -> float:
    """Mellin cutoff V(xi) of the shipped weights, with a refinement convergence check.

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

    The 20- and 28-node rules must agree to 1e-9 times the larger of 1
    and the line integral, else RuntimeError.
    """
    xi = float(xi)
    if not xi > 0:
        raise ValueError("cutoff argument must be positive")
    shift = xi < 0.5
    c = _SHIFTED_CONTOUR_RE if shift else float(contour_re)
    coarse = _cutoff_eval(np.array([xi]), c, 20)[0]
    fine = _cutoff_eval(np.array([xi]), c, 28)[0]
    gap = float(abs(fine - coarse))
    guard = 1e-9 * max(1.0, float(abs(fine)))
    if gap > guard:
        raise RuntimeError(
            f"cutoff quadrature did not converge on Re s = {c:g}: "
            f"refinement gap {gap:.3g} > guard {guard:.3g}"
        )
    return float(fine + (1.0 if shift else 0.0))


# ---------------------------------------------------------------------------
# Euler-product evaluation of the expected random weight

def check_euler_range(x: float) -> None:
    """Raise ValueError when the mollifier range x = q^theta_J passes the
    eigenvalue limit of :func:`expected_weight_euler`."""
    if x > _EULER_TAIL_LIMIT:
        raise ValueError(f"the mollifier range x = q^theta_J = {x:.6g} passes the eigenvalue limit {_EULER_TAIL_LIMIT}")


def _central_local_expectations(pair: RankinSelbergPair, primes: np.ndarray) -> np.ndarray:
    """:func:`expectation_local_L` at s = 0 for each of ``primes``, as one array.

    With a = lambda_f(p), b = lambda_g(p) and x = 1/p, the four Satake
    factors of the convolution at s = 1 multiply out (both root pairs
    have product 1) to 1 - ab x + (a^2 + b^2 - 2) x^2 - ab x^3 + x^4,
    so the expectation is (1 - x^2) over that quartic.
    """
    a = np.array([pair.f.lambda_p(p) for p in primes.tolist()])
    b = np.array([pair.g.lambda_p(p) for p in primes.tolist()])
    x = 1.0 / primes
    ab = a * b
    quartic = 1.0 + x * (-ab + x * (a * a + b * b - 2.0 + x * (-ab + x)))
    return (1.0 - x * x) / quartic


def _interval_weights(pair: RankinSelbergPair, params: MollifierParams, j: int) -> tuple[float, float]:
    """Interval j's factor of :func:`expected_weight_euler` for both orderings,
    with mollifier coefficients c(p) = lambda(p) w_J(p)/sqrt(p)."""
    primes = params.intervals[j].primes
    lam_f, lam_g = (np.array([form.lambda_p(p) for p in primes.tolist()]) for form in (pair.f, pair.g))
    # the Satake roots have product 1, so at z = X/sqrt(p) the local factor
    # is 1/(1 - lambda z + z^2); lambda is real, so L(conj X) = conj L(X)
    z = np.exp(2j * math.pi * (np.arange(_QUADRATURE_NODES) + 0.5) / _QUADRATURE_NODES) / np.sqrt(primes)[:, None]
    l_f, l_g = (1.0 / (1.0 - lam[:, None] * z + z * z) for lam in (lam_f, lam_g))
    scale = w_weight(primes, params.J, params) / np.sqrt(primes)
    fg = circle_expectation(l_f * np.conj(l_g), lam_f * scale, lam_g * scale, params.ell[j])
    gf = circle_expectation(l_g * np.conj(l_f), lam_f * scale, lam_g * scale, params.ell[j])
    return fg.real, gf.real


def expected_weight_euler(pair: RankinSelbergPair, params: MollifierParams) -> tuple[float, float]:
    """E(random central L x random mollifier) for both form orderings.

    Euler product in three zones: bare local expectations below the
    mollifier range and on the tail above it (truncated at
    _EULER_TAIL_LIMIT), and inside each interval the exact model value
    of L_f(X) L_g(conj X) M_f(X) M_g(conj X), M the interval's Omega-capped
    mollifier factor, by :func:`circle_expectation`.  The mollifier slots
    are fixed (f with X, g with the conjugate); the orderings swap only
    which L-factor rides which side.  The cutoff is taken at its central
    value 1.  Real output; equal labels are permitted here.  Raises
    ValueError when x = q^theta_J passes _EULER_TAIL_LIMIT.
    """
    check_euler_range(params.x)
    small = sieve_primes(1.0, params.c0).primes
    tail = sieve_primes(params.x, float(_EULER_TAIL_LIMIT)).primes
    outer = float(np.prod(_central_local_expectations(pair, np.concatenate([small, tail]))))

    fg_total, gf_total = outer, outer
    for j in range(params.J + 1):
        fg, gf = _interval_weights(pair, params, j)
        fg_total *= fg
        gf_total *= gf
    return fg_total, gf_total
