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

from ._special import gamma
from .arith import multiplicative_table, sieve_primes, smooth_integers
from .mollifier import DirichletPolynomial, MollifierParams, hecke_interval_factor, w_weight

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
    "expected_weight_euler",
]

_EIGEN_LIMIT = 10_000
_TRUNC_TOL = 1e-16
_TRUNC_LOOKAHEAD = 10
_TRUNC_MAX_TERMS = 400
_QUADRATURE_NODES = 128
_EULER_D_CAP = 1_000_000  # largest interval-smooth D in expected_weight_euler
_EULER_TAIL_LIMIT = 10_000  # its Euler product runs over the primes up to here
_CUTOFF_WEIGHTS = (12, 16)  # the cutoff's archimedean factor is that of the shipped pair


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


def _mulmod(a: np.ndarray, b: np.ndarray, mod: int) -> np.ndarray:
    """First len(a) coefficients of the product of two residue series, mod ``mod``.

    One float64 rfft/irfft product, rounded with np.rint.  Each raw
    coefficient is a sum of at most len(a) products of residues, so it
    is below len(a) (mod - 1)^2, which callers keep under 2^44; far below
    2^53, the transform's rounding error stays well under 1/4.  A raw
    coefficient more than 1/4 from an integer raises RuntimeError.
    """
    length = len(a)
    size = 1 << (2 * length - 2).bit_length()  # no wraparound below index length
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
    out = np.zeros(length, dtype=np.int64)
    for d in range(1, length):
        out[d::d] += d**3
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
        residues_delta.append(eta24[ns - 1].tolist())
        residues_w16.append(_mulmod(e4 % m, eta24, m)[ns - 1].tolist())
    # CRT lift with centered representatives
    big_m = math.prod(moduli)
    crt_coeff = [(big_m // m) * pow(big_m // m, -1, m) for m in moduli]
    half = big_m // 2

    def lift(rows: list[list[int]]) -> dict[int, int]:
        out = {}
        for n, column in zip(ns.tolist(), zip(*rows)):
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


def _lambda_powers(f: HeckeForm, p: int, x: complex) -> np.ndarray:
    """lambda_f(p^j) x^j for j < _TRUNC_MAX_TERMS, by the recursion of :func:`lambda_prime_power`."""
    lam = f.lambda_p(p)
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
        terms = _lambda_powers(pair.f, p, x) * _lambda_powers(pair.g, p, 1.0)
        return _series_sum(terms, f"local series did not settle at p={p}, s={s}") / (1.0 - x * x)
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
        terms = _lambda_powers(pair.f, p, x) * _lambda_powers(pair.g, p, 1.0)
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
    """
    c = -h2.lambda_p(p) * w_weight(p, params.J, params) / math.sqrt(p)
    exp_terms = np.cumprod(np.concatenate(([1.0], c / np.arange(1, _TRUNC_MAX_TERMS))))
    return np.convolve(_lambda_powers(h1, p, complex(p) ** (-complex(s))), exp_terms)[:_TRUNC_MAX_TERMS]


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
    of n^(L1,f)(k) n^(L2,g)(k+a), one shifted product of the two
    :func:`n_coeff` arrays.
    """
    if ordering not in ("fg", "gf"):
        raise ValueError(f"unknown ordering {ordering!r}")
    l1, l2 = (pair.f, pair.g) if ordering == "fg" else (pair.g, pair.f)
    sigma = complex(s) + 0.5
    n1 = n_coeff(p, sigma, l1, pair.f, params)
    n2 = n_coeff(p, sigma, l2, pair.g, params)
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
def _cutoff_node_data(contour_re: float, t_max: float, nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Integration nodes s = c + it on [0, t_max] and F(s) * GL-weight at each.

    F is the archimedean ratio (2 pi)^(-2s) Gamma(s + k1/2) Gamma(s + k2/2)
    / (Gamma(k1/2) Gamma(k2/2)) times (cos(pi s/12))^(-48) / s.
    """
    k1, k2 = _CUTOFF_WEIGHTS
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


def _cutoff_eval(xis: np.ndarray, contour_re: float, nodes: int) -> np.ndarray:
    s, fw = _cutoff_node_data(contour_re, 14.0, nodes)
    log_xi = np.log(xis)
    phase = np.exp(-np.outer(log_xi, s))
    # conjugate symmetry folds the full vertical line onto t >= 0
    return (phase @ fw).real * (1.0 / math.pi)


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
        lam_cache: dict[str, np.ndarray] = {}
        for form in (pair.f, pair.g):
            if form.label not in lam_cache:
                local = [_lambda_powers(form, int(p), 1.0)[: support.max_exponent + 1] for p in support.primes]
                lam_cache[form.label] = support.multiplicative(
                    np.array(local).reshape(len(support.primes), support.max_exponent + 1)
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
