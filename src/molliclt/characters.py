"""Dirichlet characters to prime modulus, indexed by discrete logarithm.

For prime ``q`` every character mod ``q`` is a power of the character
attached to a fixed primitive root ``g``: with ``ind`` the discrete log
base ``g``, the label ``a`` in ``0..q-2`` gives

    chi_a(n) = e(a * ind(n) / (q - 1)),   chi_a(n) = 0 for q | n.

Label 0 is the principal character; every other label is primitive, so
there are exactly ``q - 2`` primitive characters.  Conjugation flips the
label to ``q - 1 - a``, and chi_a(-1) = (-1)^a fixes the parity.

The workhorse is :func:`batch_character_sums`, which evaluates a sparse
coefficient sum against every character at once: after reindexing
n = g^k it is one length-(q-1) discrete Fourier transform over the
character group.  Since ind(-1) = (q-1)/2, that transform splits into
two numpy FFTs of half length, one per parity class, and each parity
class may carry its own coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .arith import factorize, is_prime

__all__ = [
    "MAX_MODULUS",
    "CharacterTable",
    "build_table",
    "primitive_root",
    "roots_of_unity",
    "batch_character_sums",
    "gauss_sum",
    "gauss_sums_all",
    "root_numbers",
]

MAX_MODULUS = 10_000_000


def primitive_root(q: int) -> int:
    """Smallest primitive root modulo prime ``q``."""
    if q == 2:
        return 1
    if q < 2 or not is_prime(q):
        raise ValueError(f"modulus must be prime, got {q}")
    phi = q - 1
    prime_divisors = factorize(phi).primes
    g = 2
    while True:
        if all(pow(g, phi // p, q) != 1 for p in prime_divisors):
            return g
        g += 1


@dataclass(frozen=True)
class CharacterTable:
    """Discrete-log tables for the characters mod prime ``q``.

    ``index[n]`` is the discrete log of ``n`` base ``g`` for
    ``1 <= n < q`` (``index[0]`` is a -1 sentinel), ``power[k]`` is the
    inverse table g^k mod q, and ``roots[k] = e(k/(q-1))`` is the cached
    root-of-unity table every evaluation path shares.
    """

    q: int
    g: int
    index: np.ndarray  # int64, length q
    power: np.ndarray  # int64, length q-1
    roots: np.ndarray  # complex128, length q-1

    @property
    def m(self) -> int:
        """Group order q - 1."""
        return self.q - 1

    def delta(self, a: int) -> int:
        """Parity exponent: 0 for even characters (chi(-1)=+1), 1 for odd."""
        return a & 1

    def conjugate_label(self, a: int) -> int:
        return (self.m - a) % self.m

    def chi(self, a: int, n: int) -> complex:
        """chi_a(n) for a single argument."""
        n %= self.q
        if n == 0:
            return 0.0j
        return complex(self.roots[(a * int(self.index[n])) % self.m])

    def chi_values(self, a: int, ns: np.ndarray) -> np.ndarray:
        """chi_a evaluated at an integer array (entries divisible by q give 0)."""
        ns = np.asarray(ns, dtype=np.int64) % self.q
        res = np.zeros(len(ns), dtype=np.complex128)
        nz = ns != 0
        res[nz] = self.roots[(a * self.index[ns[nz]]) % self.m]
        return res

    @cached_property
    def eps(self) -> np.ndarray:
        """Root numbers, from one Gauss-sum transform on first use; read-only."""
        eps = gauss_sums_all(self) / math.sqrt(self.q)
        eps[1::2] /= 1j
        eps.flags.writeable = False
        return eps


@lru_cache(maxsize=8)
def build_table(q: int) -> CharacterTable:
    """Build (and cache) the character table for prime ``3 <= q <= 10^7``.

    Smallest primitive root, then the power table in blocks,
    g^(iB + j) = g^(iB) * g^j mod q with B about sqrt(q), as one int64
    outer product (entries below q^2 <= 10^14); the discrete-log table
    is its inverse permutation.
    """
    if q < 3 or q > MAX_MODULUS:
        raise ValueError(f"modulus must lie in [3, {MAX_MODULUS}], got {q}")
    f = factorize(q)
    if f.primes != (q,):
        raise ValueError(f"modulus {q} is not prime")
    g = primitive_root(q)
    m = q - 1
    block = math.isqrt(m) + 1
    low = np.array([pow(g, j, q) for j in range(block)], dtype=np.int64)
    high = np.array([pow(g, i, q) for i in range(0, m, block)], dtype=np.int64)
    power = (high[:, None] * low[None, :] % q).ravel()[:m]
    index = np.full(q, -1, dtype=np.int64)
    index[power] = np.arange(m, dtype=np.int64)
    return CharacterTable(q, g, index, power, roots_of_unity(m))


def roots_of_unity(m: int) -> np.ndarray:
    """e(k/m) for k = 0..m-1.

    Built from a fresh complex exponential every 64 entries with small
    precomputed offset factors in between, so the rounding error stays
    at the few-ulp level uniformly in k instead of drifting the way a
    single long recurrence would.
    """
    if m < 1:
        raise ValueError("m must be positive")
    block = 64
    offsets = np.exp(2j * np.pi * np.arange(block) / m)
    anchors = np.exp(2j * np.pi * np.arange(0, m, block) / m)
    out = (anchors[:, None] * offsets[None, :]).ravel()
    return out[:m]


def _fold_support(table: CharacterTable, support: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Collapse coefficients onto log classes: z[k] = sum of c(n) over ind(n) = k."""
    support = np.asarray(support, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if support.shape != coeffs.shape:
        raise ValueError("support and coeffs must have matching shapes")
    residues = support % table.q
    keep = residues != 0
    logs = table.index[residues[keep]]
    kept = coeffs[keep]
    z = np.empty(table.m, dtype=np.complex128)
    z.real = np.bincount(logs, weights=kept.real, minlength=table.m)
    z.imag = np.bincount(logs, weights=kept.imag, minlength=table.m)
    return z


def _parity_split_transform(table: CharacterTable, z: np.ndarray, z_odd: np.ndarray) -> np.ndarray:
    """S[a] = sum_k z[k] e(a k / m) on even labels, the same with z_odd on odd ones.

    Because e(a (k + h) / m) = (-1)^a e(a k / m) for h = m / 2, the even
    labels need only the half-length transform of z[:h] + z[h:], and the
    odd labels that of (z_odd[:h] - z_odd[h:]) e(k / m): two numpy FFTs
    of length h in all.
    """
    h = table.m // 2
    out = np.empty(table.m, dtype=np.complex128)
    # norm="forward" leaves the inverse transform unscaled: a plain sum of e(+bk/h) terms
    out[0::2] = np.fft.ifft(z[:h] + z[h:], norm="forward")
    out[1::2] = np.fft.ifft((z_odd[:h] - z_odd[h:]) * table.roots[:h], norm="forward")
    return out


def batch_character_sums(
    table: CharacterTable,
    support: np.ndarray,
    coeffs: np.ndarray,
    odd_coeffs: np.ndarray | None = None,
) -> np.ndarray:
    """S[a] = sum over the support of c[i] * chi_a(support[i]), for every a.

    ``c`` is ``coeffs`` on even labels and ``odd_coeffs`` (default: the
    same ``coeffs``) on odd labels.  Support entries divisible by q
    contribute nothing (chi vanishes there).

    With z the coefficients folded onto log classes, S[a] is the DFT
    sum_k z[k] e(a k / m), m = q - 1, evaluated by the parity-split
    transform.
    """
    z = _fold_support(table, support, coeffs)
    z_odd = z if odd_coeffs is None else _fold_support(table, support, odd_coeffs)
    return _parity_split_transform(table, z, z_odd)


def gauss_sum(table: CharacterTable, a: int) -> complex:
    """tau(chi_a) = sum over n mod q of chi_a(n) e(n/q), computed directly."""
    if a % table.m == 0:
        raise ValueError("Gauss sum is defined here for primitive labels only (a != 0)")
    q = table.q
    n = np.arange(1, q, dtype=np.int64)
    values = table.chi_values(a, n)
    return complex(np.sum(values * np.exp(2j * np.pi * n / q)))


def gauss_sums_all(table: CharacterTable) -> np.ndarray:
    """Gauss sums for every label at once (one parity-split transform).

    Indexed by log class the Gauss-sum coefficients are already folded:
    z[k] = e(g^k / q).  The principal entry S[0] equals -1 (it is not a
    primitive Gauss sum).
    """
    z = np.exp(2j * np.pi * table.power / table.q)
    return _parity_split_transform(table, z, z)


def root_numbers(table: CharacterTable) -> np.ndarray:
    """Functional-equation root numbers eps[a] = tau(chi_a) / (i^delta sqrt(q)).

    Computed once per table and kept there, read-only.  For primitive
    labels they lie on the unit circle; the principal slot is
    meaningless and left as computed.
    """
    return table.eps
