"""Central values of Dirichlet L-functions to prime modulus.

Two independent evaluation routes, kept deliberately separate so each
can audit the other:

* an oracle built on the Hurwitz zeta function,
  L(s, chi) = q^(-s) * sum over r of chi(r) zeta(s, r/q),
  exact up to Euler-Maclaurin truncation, one zeta vector of length
  q - 1 and one batch transform for all characters at once;

* a smoothed approximate functional equation whose two sums are cut by
  regularized upper incomplete gamma factors, O(sqrt(q)) terms whose
  weights take one array call per gamma order, and one batch transform
  for all characters at once.

Also here: functional-equation residuals of a value set at the central
point, a small binary cache, and the averaged twisted second moment
together with its two-term asymptotic prediction.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._io import atomic_write
from ._special import gamma, upper_regularized_gamma
from .characters import (
    CharacterTable, batch_character_sums, even_character_sums, even_fold, even_gauss_fold, gauss_sum, root_numbers,
)
from .mollifier import m_alpha_beta_general

__all__ = [
    "TAIL_CUT",
    "hurwitz_zeta",
    "zeta",
    "CentralValueSet",
    "l_values_oracle",
    "l_values_afe",
    "afe_l_value",
    "root_number",
    "fe_residual_stats",
    "CacheHeader",
    "save_l_values",
    "read_cache_header",
    "load_l_values",
    "cached_afe_values",
    "TwistedSecondMoment",
    "check_even_family",
    "check_twist_length",
    "twisted_second_moment_empirical",
    "twisted_second_moment",
]

# B_2 .. B_26 as exact rationals; the last one only feeds the error estimate.
_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
    Fraction(854513, 138),
    Fraction(-236364091, 2730),
    Fraction(8553103, 6),
)
_EM_ORDER = 12  # correction terms actually summed; the 13th is the sentinel
_HURWITZ_REL_TOL = 1e-13  # the first omitted correction, relative to the value
# Both AFE sums stop at the first n with pi n^2 / q >= TAIL_CUT.  The
# cache records it, so a cached value set is reused only under the same cut.
TAIL_CUT = 40.0


def _hurwitz_fixed(s: complex, x: np.ndarray, n_head: int) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maclaurin evaluation with a fixed head length.

    Returns (values, omitted) where ``omitted`` is the magnitude of the
    first correction term left out, the usual a-posteriori error proxy.
    """
    head = np.zeros(len(x), dtype=np.complex128)
    for k in range(n_head):
        head += np.exp(-s * np.log(k + x))
    base = n_head + x
    log_base = np.log(base)
    head += np.exp((1.0 - s) * log_base) / (s - 1.0)
    head += 0.5 * np.exp(-s * log_base)
    poch = s  # rising factorial s (s+1) ... of odd length
    power = np.exp(-(s + 1.0) * log_base)
    inv2 = np.exp(-2.0 * log_base)
    fact = 2.0
    for j in range(1, _EM_ORDER + 1):
        coeff = float(_BERNOULLI[j - 1]) / fact
        head += coeff * poch * power
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        power = power * inv2
        fact *= (2 * j + 1) * (2 * j + 2)
    omitted = abs(float(_BERNOULLI[_EM_ORDER]) / fact) * np.abs(poch * power)
    return head, omitted


def hurwitz_zeta(s: complex, x: np.ndarray | float) -> np.ndarray:
    """Hurwitz zeta(s, x) for Re s > -2, s != 1, and positive x, vectorized in x.

    The head length adapts until the first omitted Euler-Maclaurin
    correction is below _HURWITZ_REL_TOL relative to the value.
    """
    s = complex(s)
    if abs(s - 1.0) < 1e-8:
        raise ValueError("the zeta pole at s = 1 is excluded")
    if s.real <= -2.0:
        raise ValueError(f"Re s = {s.real} is out of the supported half-plane Re s > -2")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(x <= 0):
        raise ValueError("hurwitz_zeta requires x > 0")
    values = np.empty(len(x), dtype=np.complex128)
    todo = np.arange(len(x))
    for n_head in (20, 40, 80):
        got, omitted = _hurwitz_fixed(s, x[todo], n_head)
        ok = omitted <= _HURWITZ_REL_TOL * np.maximum(np.abs(got), 1e-300)
        values[todo[ok]] = got[ok]
        todo = todo[~ok]
        if len(todo) == 0:
            break
    else:
        raise RuntimeError(
            f"Euler-Maclaurin failed to reach {_HURWITZ_REL_TOL} at s={s} for {len(todo)} points"
        )
    return values


def zeta(s: complex) -> complex:
    """Riemann zeta away from s = 1."""
    return complex(hurwitz_zeta(s, 1.0)[0])


@dataclass(frozen=True)
class CentralValueSet:
    """L(s, chi_a) for every label of one modulus.

    ``values`` has length q - 1 and is indexed by label; slot 0 (the
    principal character, out of scope for the statistics) holds NaN.
    ``residual_stats`` summarizes the functional-equation residuals of
    an AFE set at s = 1/2, else None.
    """

    q: int
    s: complex
    values: np.ndarray
    residual_stats: dict[str, float] | None = None


def _oracle_values(table: CharacterTable, s: complex) -> np.ndarray:
    q = table.q
    r = np.arange(1, q, dtype=np.int64)
    hz = hurwitz_zeta(s, r / q)
    out = np.exp(-s * math.log(q)) * batch_character_sums(table, r, hz)
    out[0] = complex("nan")
    return out


def _afe_terms(
    q: int, s: complex, parities: tuple[int, ...] = (0, 1)
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]], list[complex]]:
    """The AFE's n range 1..N (N the first n with pi n^2 / q >= TAIL_CUT),
    per parity delta of ``parities`` the first and dual coefficient vectors
    n^-s Q((s+delta)/2, pi n^2/q) and n^(s-1) Q((1-s+delta)/2, pi n^2/q),
    and per parity the dual sum's prefactor.  Each weight vector is one
    array call of the incomplete gamma; at s = 1/2 the dual vector is the
    first one and is not computed again.  Valid for |s - 1/2| <= 0.1.
    """
    if abs(s - 0.5) > 0.1:
        raise ValueError("the smoothed functional equation is tuned for |s - 1/2| <= 0.1")
    n_max = math.ceil(math.sqrt(TAIL_CUT * q / math.pi))
    n = np.arange(1, n_max + 1, dtype=np.int64)
    xs = math.pi * n.astype(np.float64) ** 2 / q
    log_n = np.log(n.astype(np.float64))
    power_first = np.exp(-s * log_n)
    power_dual = np.exp((s - 1.0) * log_n)

    coeffs, prefac = [], []
    for delta in parities:
        a1 = (s + delta) / 2.0
        a2 = (1.0 - s + delta) / 2.0
        first = power_first * upper_regularized_gamma(a1, xs)
        dual = first if a2 == a1 else power_dual * upper_regularized_gamma(a2, xs)
        coeffs.append((first, dual))
        prefac.append((math.pi / q) ** (s - 0.5) * gamma(a2) / gamma(a1))
    return n, coeffs, prefac


def _assemble(first: np.ndarray, dual: np.ndarray, eps: np.ndarray, prefac: complex | list[complex]) -> np.ndarray:
    """L = first + eps (prefac dual), formed in place in ``dual`` and returned.

    ``dual`` is already read at the conjugate labels, so the caller picks the
    labels covered: all of them, the even half or one."""
    dual *= prefac
    np.multiply(eps, dual, out=dual)
    return np.add(first, dual, out=dual)


def _afe_values(table: CharacterTable, s: complex) -> np.ndarray:
    # the root numbers first, so their transform's buffers are gone before
    # the sums are live
    eps = root_numbers(table)
    n, coeffs, prefac = _afe_terms(table.q, s)
    # one transform per sum, each parity class with its own coefficients;
    # at s = 1/2 the dual sum equals the first and is not transformed again
    first, dual = zip(*coeffs)
    first_sums = batch_character_sums(table, n, *first)
    central = all(d is f for f, d in coeffs)
    dual_sums = first_sums if central else batch_character_sums(table, n, *dual)

    # slot a reads label m - a, the conjugate character (parity is preserved),
    # and takes the prefactor of its parity through the (even, odd) pairs view
    out = np.concatenate((dual_sums[:1], dual_sums[:0:-1]))
    del dual_sums
    _assemble(*(x.reshape(-1, 2) for x in (first_sums, out, eps)), prefac)
    out[0] = complex("nan")
    return out


def fe_residual_stats(table: CharacterTable, values: np.ndarray) -> dict[str, float]:
    """Relative functional-equation residuals at s = 1/2 over all nonprincipal labels.

    For each label the residual is |L(1/2, chi) - eps(chi) L(1/2, chi-bar)|
    scaled by the larger of the two magnitudes.  The completed function
    multiplies L(1/2, chi) by (q/pi)^((1/2+delta)/2) Gamma((1/2+delta)/2);
    chi and chi-bar have the same parity delta, so that factor is the
    same positive number on both sides and cancels in the relative
    residual, and the values are compared as they are.  ``values`` must
    be taken at s = 1/2: off the central point the reflection pairs s with
    1 - s.
    """
    values = np.asarray(values, dtype=np.complex128)
    # labels 1..m-1 against their conjugates m-1..1; the conjugate side's
    # buffer then takes the difference
    lhs = values[1:]
    rhs = np.multiply(root_numbers(table)[1:], values[:0:-1])
    scale = np.abs(lhs)
    np.maximum(scale, np.abs(rhs), out=scale)
    np.maximum(scale, 1e-300, out=scale)
    res = np.abs(np.subtract(lhs, rhs, out=rhs))
    del rhs
    res /= scale
    return {"max": float(res.max()), "mean": float(res.mean())}


def l_values_oracle(table: CharacterTable, s: complex) -> CentralValueSet:
    """Central value set by the Hurwitz zeta route.

    One zeta vector of length q - 1 plus one batch character transform,
    the same transform the AFE route runs: about 0.12 s at q = 100003 and
    1 s at q = 1000003 on two cores.
    """
    s = complex(s)
    return CentralValueSet(q=table.q, s=s, values=_oracle_values(table, s))


def l_values_afe(table: CharacterTable, s: complex) -> CentralValueSet:
    """Central value set by the smoothed approximate functional equation.

    Both sums run to the first n with pi n^2 / q >= TAIL_CUT; beyond
    that the incomplete-gamma weights are below 1e-16 and the tail is
    dropped.  One batch transform per sum, the parity-0 and parity-1
    weights riding as one pair; at s = 1/2 the two sums coincide and one
    transform serves both.  The chi-bar sum is read off by the label flip
    a -> m - a, the root numbers come from the table, and :func:`_assemble`
    forms the values.  Valid in a small disc around the central point (the
    even-half moment's full-length reference off it).  At s = 1/2 the set
    carries its functional-equation residual statistics; else they are None.
    """
    s = complex(s)
    values = _afe_values(table, s)
    stats = fe_residual_stats(table, values) if s == 0.5 else None
    return CentralValueSet(q=table.q, s=s, values=values, residual_stats=stats)


def afe_l_value(table: CharacterTable, a: int, s: complex) -> complex:
    """L(s, chi_a) for a single nonprincipal label, from the batch's terms.

    Direct O(sqrt(q)) character sums and the label's own root number,
    combined by the batch's assembly (:func:`_assemble`): a spot check on
    the batch transforms, the label flip a -> m - a and the table's root
    numbers without building the whole set.
    """
    s = complex(s)
    if a % table.m == 0:
        raise ValueError("principal label has no functional equation")
    a = a % table.m
    n, coeffs, prefac = _afe_terms(table.q, s)
    delta = table.delta(a)
    first, dual = coeffs[delta]
    own = np.sum(table.chi_values(a, n) * first)
    conj = np.sum(table.chi_values(table.conjugate_label(a), n) * dual, keepdims=True)
    return complex(_assemble(own, conj, root_number(table, a), prefac[delta])[0])


def root_number(table: CharacterTable, a: int) -> complex:
    """Functional-equation root number tau(chi) / (i^delta sqrt(q)) for one label."""
    if a % table.m == 0:
        raise ValueError("principal character has no root number")
    eps = gauss_sum(table, a) / math.sqrt(table.q)
    if table.delta(a):
        eps /= 1j
    return complex(eps)


_CACHE_MAGIC = b"LCHI"
_CACHE_VERSION = 2
# Bump whenever the AFE arithmetic changes: caches written before then no
# longer hold the values this code computes, and are not reused.
_AFE_VERSION = 4
# magic, version, q, Re s, Im s, tail cut, AFE version, FE residual max, mean
_HEADER = struct.Struct("<4sIQdddIdd")
_RECORD_DTYPE = np.dtype([("label", "<u4"), ("re", "<f8"), ("im", "<f8")])
_READ_CHUNK = 1 << 16  # records per read of a cache


@dataclass(frozen=True)
class CacheHeader:
    """Header fields of an L-value cache, plus its record count."""

    q: int
    s: complex
    tail_cut: float
    afe_version: int
    fe_residual_max: float
    fe_residual_mean: float
    count: int


def save_l_values(path: str, value_set: CentralValueSet) -> None:
    """Write a binary cache of an AFE value set atomically: fixed header, then packed records.

    Header layout (little-endian, unpadded): magic ``LCHI``, format
    version (u32), modulus (u64), s as two doubles, the AFE tail cut
    (double), the AFE format version (u32), and the FE residual max and
    mean (doubles).  Each record is a u32 label (0..m-1 in order) and the
    value's real and imaginary parts as doubles.  The file is written
    under a temporary name in the same directory and renamed into place.
    """
    stats = value_set.residual_stats
    if stats is None:
        raise ValueError("the cache header records FE residual statistics; this value set has none")
    values = np.asarray(value_set.values, dtype=np.complex128)
    records = np.empty(len(values), dtype=_RECORD_DTYPE)
    records["label"] = np.arange(len(values))
    records["re"] = values.real
    records["im"] = values.imag
    s = complex(value_set.s)
    header = _HEADER.pack(
        _CACHE_MAGIC, _CACHE_VERSION, value_set.q, s.real, s.imag,
        TAIL_CUT, _AFE_VERSION, stats["max"], stats["mean"],
    )
    atomic_write(path, header, records)


def _parse_header(path: str, head: bytes, size: int) -> CacheHeader:
    if len(head) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, q, s_re, s_im, tail_cut, afe_version, res_max, res_mean = _HEADER.unpack_from(head)
    if magic != _CACHE_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != _CACHE_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    count, stray = divmod(size - _HEADER.size, _RECORD_DTYPE.itemsize)
    if stray:
        raise ValueError(f"{path}: record section has stray bytes")
    return CacheHeader(q, complex(s_re, s_im), tail_cut, afe_version, res_max, res_mean, count)


def read_cache_header(path: str) -> CacheHeader:
    """The header of a cache written by :func:`save_l_values`, without its records."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        size = os.fstat(fh.fileno()).st_size
    return _parse_header(path, head, size)


def load_l_values(path: str) -> tuple[int, complex, np.ndarray, np.ndarray]:
    """Read a cache written by :func:`save_l_values`.

    Returns ``(q, s, labels, values)``: the labels as stored (u32), the
    values bit for bit as saved.  The records are read _READ_CHUNK at a
    time into one small buffer, so the read holds no copy of the file.
    Rejects wrong magic, unknown versions, trailing garbage and a file
    that ends early.
    """
    with open(path, "rb") as fh:
        header = _parse_header(path, fh.read(_HEADER.size), os.fstat(fh.fileno()).st_size)
        labels = np.empty(header.count, dtype=np.uint32)
        values = np.empty(header.count, dtype=np.complex128)
        chunk = np.empty(min(header.count, _READ_CHUNK), dtype=_RECORD_DTYPE)
        for start in range(0, header.count, _READ_CHUNK):
            records = chunk[: header.count - start]
            if fh.readinto(records.view(np.uint8)) != records.nbytes:
                raise ValueError(f"{path}: truncated records")
            stop = start + len(records)
            labels[start:stop] = records["label"]
            values.real[start:stop] = records["re"]
            values.imag[start:stop] = records["im"]
    return header.q, header.s, labels, values


def _in_order(labels: np.ndarray) -> bool:
    """Whether labels[a] == a for every a, checked _READ_CHUNK labels at a time."""
    return all(
        np.array_equal(labels[start : start + _READ_CHUNK], np.arange(start, min(start + _READ_CHUNK, len(labels))))
        for start in range(0, len(labels), _READ_CHUNK)
    )


def cached_afe_values(path: str, table: CharacterTable, s: complex) -> CentralValueSet | None:
    """The AFE value set at ``s`` from a cache, or None if the cache holds other values.

    A hit needs the cache's modulus, s, tail cut (TAIL_CUT), AFE version
    and record count to match, and its labels to run 0..m-1; the gate
    outcome of the run that wrote it plays no part.  The result is bit
    for bit what ``l_values_afe(table, s)`` computes, with the residual
    statistics read from the header.  An unreadable file raises OSError
    or ValueError.
    """
    head = read_cache_header(path)
    want = (table.q, complex(s), TAIL_CUT, _AFE_VERSION, table.m)
    if (head.q, head.s, head.tail_cut, head.afe_version, head.count) != want:
        return None
    _, _, labels, values = load_l_values(path)
    if not _in_order(labels):
        return None
    stats = {"max": head.fe_residual_max, "mean": head.fe_residual_mean}
    return CentralValueSet(q=table.q, s=head.s, values=values, residual_stats=stats)


_POLE_STEP = 1e-4  # half-width of the alpha average across the alpha + beta = 0 pole


@dataclass(frozen=True)
class TwistedSecondMoment:
    """Averaged twisted second moment and its asymptotic prediction."""

    empirical: complex
    predicted: complex
    diagonal_term: complex
    reflected_term: complex
    error_scale: float  # q^(-1/2) * (largest twist length): the error unit
    m_diagonal: complex | None  # M(alpha, beta) of the twist; None on the antidiagonal

    @property
    def discrepancy(self) -> float:
        return abs(self.empirical - self.predicted)

    @property
    def relative_discrepancy(self) -> float:
        return self.discrepancy / abs(self.predicted)


def check_even_family(q: int) -> None:
    """Raise ValueError when q has no even nonprincipal character to average over."""
    if q < 5:
        raise ValueError(f"q = {q} has no even nonprincipal character: the averaged family is empty")


def check_twist_length(largest: int, q: int) -> None:
    """Raise ValueError when the largest twist support element reaches q."""
    if largest >= q:
        raise ValueError(f"twist length must stay below the modulus: largest support element {largest} >= q = {q}")


def twisted_second_moment_empirical(
    table: CharacterTable,
    alpha: complex,
    beta: complex,
    support: np.ndarray,
    coeffs: np.ndarray,
) -> complex:
    """Average of L(1/2+alpha, chi) L(1/2+beta, chi-bar) A(chi) A(chi-bar).

    A(chi) is the twist sum of coeffs[n] chi(n) / sqrt(n).  The average
    runs over the even nonprincipal labels ((q-3)/2 of them), and only
    the even half of each sum is computed: the label 2b sees every
    coefficient folded onto ind(n) mod h, h = (q-1)/2 (:func:`even_fold`,
    the batch transform's fold), so each sum is a length-h transform of real
    folds, two folds per transform (:func:`even_character_sums`).  The twist
    rides with the Gauss sums that give the even root numbers, then the
    first and dual sums of the smoothed functional equation at 1/2 + alpha,
    then at 1/2 + beta, each pair formed into L on the even-half views by
    :func:`_assemble`.  Complex coefficients or shifts split into real and
    imaginary folds, which take more transforms.
    """
    q = table.q
    check_even_family(q)
    support = np.asarray(support, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if len(support):
        check_twist_length(int(support[-1]), q)
    twist = even_fold(table, support, coeffs / np.sqrt(support.astype(np.float64)))
    # the Gauss fold is scaled to the root numbers tau(chi) / sqrt(q) before
    # the transform: a fold whose sums are sqrt(q) times the twist's would
    # swamp the twist's share of one FFT in rounding
    twist, eps = even_character_sums(table, twist, even_gauss_fold(table) / math.sqrt(q))
    # labels 2b, b = 1..h-1, against their conjugates 2(h - b), read reversed
    own, conj = slice(1, None), slice(None, 0, -1)
    terms = twist[own] * twist[conj]
    del twist
    for s, here, there in ((0.5 + alpha, own, conj), (0.5 + beta, conj, own)):
        n, weights, prefac = _afe_terms(q, s, parities=(0,))
        first, dual = even_character_sums(table, *(even_fold(table, n, w) for w in weights[0]))
        terms *= _assemble(first[here], dual[there], eps[here], prefac[0])
        del first, dual
    return complex(np.mean(terms))


def _twisted_main_terms(
    alpha: complex, beta: complex, m_direct: complex, m_reflect: complex
) -> tuple[complex, complex]:
    """The diagonal and reflected terms before the (q/pi) factor, given M(alpha, beta) and M(-beta, -alpha)."""
    term1 = zeta(1.0 + alpha + beta) * m_direct
    g_ratio = (
        gamma((0.5 - alpha) / 2.0)
        * gamma((0.5 - beta) / 2.0)
        / (gamma((0.5 + alpha) / 2.0) * gamma((0.5 + beta) / 2.0))
    )
    term2 = g_ratio * zeta(1.0 - alpha - beta) * m_reflect
    return term1, term2


def twisted_second_moment(
    table: CharacterTable,
    alpha: complex,
    beta: complex,
    support: np.ndarray,
    coeffs: np.ndarray,
) -> TwistedSecondMoment:
    """Empirical twisted second moment over even characters, with prediction.

    The prediction is the two-term main formula: a zeta(1 + alpha + beta)
    diagonal piece and a reflected piece carrying the gamma-factor ratio
    and (q/pi)^-(alpha+beta).  On the antidiagonal alpha + beta = 0 both
    pieces have a pole that cancels in the sum; it is handled by
    averaging the prediction at alpha +- _POLE_STEP.  Off it, the
    diagonal piece's M(alpha, beta) is returned as ``m_diagonal``.
    """
    q = table.q
    support = np.asarray(support, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    emp = twisted_second_moment_empirical(table, alpha, beta, support, coeffs)

    # on the antidiagonal, both terms at alpha +- _POLE_STEP; one gcd pass
    # serves every M(alpha, beta) and M(-beta, -alpha) these need
    on_pole = abs(alpha + beta) < 1e-7
    shifts = (alpha + _POLE_STEP, alpha - _POLE_STEP) if on_pole else (alpha,)
    m_values = m_alpha_beta_general(support, coeffs, [pair for a in shifts for pair in ((a, beta), (-beta, -a))])
    term1 = term2 = 0.0
    for i, a in enumerate(shifts):
        t1, t2 = _twisted_main_terms(a, beta, m_values[2 * i], m_values[2 * i + 1])
        term1 += t1
        term2 += (q / math.pi) ** (-(a + beta)) * t2
    term1 /= len(shifts)
    term2 /= len(shifts)
    m_diagonal = None if on_pole else m_values[0]
    predicted = term1 + term2
    scale = q**-0.5 * float(np.max(support)) if len(support) else q**-0.5
    return TwistedSecondMoment(
        empirical=complex(emp),
        predicted=complex(predicted),
        diagonal_term=complex(term1),
        reflected_term=complex(term2),
        error_scale=scale,
        m_diagonal=m_diagonal,
    )
