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
character group.  Since ind(-1) = (q-1)/2, the even labels see only the
coefficients folded onto half the group and the odd labels only their
alternating fold, so each parity class may carry its own coefficients;
for real coefficients both classes together take one numpy FFT of half
length.
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
    if not is_prime(q):
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


def _real_transform(table: CharacterTable, even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """S[a] = sum_k c[k] e(a k / m) for real log-class vectors c = u on even
    labels and c = v on odd ones, given their half-length folds
    even[k] = u[k] + u[k + h] and odd[k] = v[k] - v[k + h], h = m / 2.

    Because e(a (k + h) / m) = (-1)^a e(a k / m), S is the length-m DFT of
    the real sequence w with w[k] + w[k + h] = even[k] and
    w[k] - w[k + h] = odd[k].  A real DFT of length m is one complex FFT of
    length h: the transform X of x[j] = w[2j] + i w[2j + 1] splits by
    conjugate symmetry into the transforms 2E = X + conj(X[-b]) and
    2iO = X - conj(X[-b]) of the even- and odd-indexed entries, and
    S[b] = E[b] + e(b / m) O[b], S[b + h] = E[b] - e(b / m) O[b].
    """
    h = table.m // 2
    # the steps write into a few preallocated buffers: fresh temporaries
    # raised the peak RSS of lvalues at q = 1000003 from 190 to 205 MB
    w2 = np.empty(table.m)  # 2w
    np.add(even, odd, out=w2[:h])
    np.subtract(even, odd, out=w2[h:])
    # norm="forward" leaves the inverse transform unscaled: a plain sum of e(+bj/h) terms
    x = np.fft.ifft(w2.view(np.complex128), norm="forward")  # 2X
    del w2
    flip = np.roll(x[::-1], 1)  # 2X[-b]
    np.conjugate(flip, out=flip)
    out = np.empty(table.m, dtype=np.complex128)
    e4 = np.add(x, flip, out=out[:h])  # 4E
    o4 = np.subtract(x, flip, out=x)
    del flip
    o4 *= table.roots[:h]
    o4 *= -1j  # 4 e(b/m) O
    np.subtract(e4, o4, out=out[h:])
    e4 += o4
    out *= 0.25
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
    sum_k z[k] e(a k / m), m = q - 1.  Real coefficients take one
    half-length FFT (:func:`_real_transform`); an imaginary part, where
    one is nonzero, takes a second.
    """
    support = np.asarray(support, dtype=np.int64)
    coeffs = np.asarray(coeffs)
    odd = coeffs if odd_coeffs is None else np.asarray(odd_coeffs)
    if support.shape != coeffs.shape or support.shape != odd.shape:
        raise ValueError("support and coeffs must have matching shapes")
    residues = support % table.q
    keep = residues != 0
    logs = table.index[residues[keep]]
    h = table.m // 2

    def transform(part) -> np.ndarray:
        # fold onto log classes, z[k] = sum of c(n) over ind(n) = k, then by parity
        z = np.bincount(logs, weights=part(coeffs)[keep], minlength=table.m)
        z_odd = z if odd_coeffs is None else np.bincount(logs, weights=part(odd)[keep], minlength=table.m)
        return _real_transform(table, z[:h] + z[h:], z_odd[:h] - z_odd[h:])

    out = transform(np.real)
    if np.any(np.imag(coeffs)) or np.any(np.imag(odd)):
        out += 1j * transform(np.imag)
    return out


def gauss_sum(table: CharacterTable, a: int) -> complex:
    """tau(chi_a) = sum over n mod q of chi_a(n) e(n/q), computed directly."""
    if a % table.m == 0:
        raise ValueError("Gauss sum is defined here for primitive labels only (a != 0)")
    q = table.q
    n = np.arange(1, q, dtype=np.int64)
    values = table.chi_values(a, n)
    return complex(np.sum(values * np.exp(2j * np.pi * n / q)))


def gauss_sums_all(table: CharacterTable) -> np.ndarray:
    """Gauss sums for every label at once (one real half-length transform).

    Indexed by log class the Gauss-sum coefficients are already folded:
    z[k] = e(g^k / q).  Since g^(k + h) = -g^k, z[k + h] = conj(z[k]), so
    the even labels see the real fold 2 cos(2 pi g^k / q) and the odd
    labels i times the real fold 2 sin(2 pi g^k / q), k < h.  The
    principal entry S[0] equals -1 (it is not a primitive Gauss sum).
    """
    h = table.m // 2
    z = np.exp(2j * np.pi * table.power[:h] / table.q)
    out = _real_transform(table, 2.0 * z.real, 2.0 * z.imag)
    out[1::2] *= 1j
    return out


def root_numbers(table: CharacterTable) -> np.ndarray:
    """Functional-equation root numbers eps[a] = tau(chi_a) / (i^delta sqrt(q)).

    Computed once per table and kept there, read-only.  For primitive
    labels they lie on the unit circle; the principal slot is
    meaningless and left as computed.
    """
    return table.eps
