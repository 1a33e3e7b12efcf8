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
for real coefficients both classes together take one complex transform
of half length h = (q-1)/2.  That transform is split at the largest
prime P of h, h = c P (the four-step FFT of Bailey, "FFTs in external or
hierarchical memory", 1990): one numpy FFT of length P over c rows and
one of length c over P columns, neither with a prime factor above P, so
any Bluestein step is confined to length P instead of h.  When h is
prime the split is the plain FFT.
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
    "roots_of_unity",
    "orthogonality_gram",
    "roots_residual",
    "batch_character_sums",
    "gauss_sum",
    "gauss_sums_all",
    "root_numbers",
]

MAX_MODULUS = 10_000_000
_ROOTS_BLOCK = 1 << 16  # table entries per block of roots_residual


def _smallest_generator(q: int, prime_divisors: tuple[int, ...]) -> int:
    """Smallest g whose order mod prime ``q`` is q - 1, given the primes dividing q - 1."""
    phi = q - 1
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
    root-of-unity table every evaluation path shares.  ``fft_prime`` is
    the largest prime factor of the half length (q-1)/2 (1 for q = 3),
    where :func:`_split_ifft` splits every transform.

    ``index`` and ``power`` are int32 (every entry is below q <= 10^7),
    half the bytes of int64.  A product of a label and a log reaches
    about q^2, past int32, and an int32 array times a Python int stays
    int32 and wraps silently: widen the logs to int64 before any such
    product, as :meth:`chi_values` does.
    """

    q: int
    g: int
    index: np.ndarray  # int32, length q
    power: np.ndarray  # int32, length q-1
    roots: np.ndarray  # complex128, length q-1
    fft_prime: int

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
        logs = self.index[ns[nz]].astype(np.int64)  # a ind(n) reaches q^2, past int32
        logs *= a
        logs %= self.m
        res[nz] = self.roots[logs]
        return res

    @cached_property
    def eps(self) -> np.ndarray:
        """Root numbers, from one Gauss-sum transform on first use; read-only."""
        eps = gauss_sums_all(self)
        eps /= math.sqrt(self.q)
        eps[1::2] /= 1j
        eps.flags.writeable = False
        return eps


@lru_cache(maxsize=8)
def build_table(q: int) -> CharacterTable:
    """Build (and cache) the character table for prime ``3 <= q <= 10^7``.

    One factorization of q - 1 gives the smallest primitive root and the
    transform split.  Then the power table in blocks,
    g^(iB + j) = g^(iB) * g^j mod q with B about sqrt(q), as one int64
    outer product (entries below q^2 <= 10^14) reduced in place and
    stored as int32; the discrete-log table is its inverse permutation.
    """
    if q < 3 or q > MAX_MODULUS:
        raise ValueError(f"modulus must lie in [3, {MAX_MODULUS}], got {q}")
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")
    m = q - 1
    primes = factorize(m).primes
    g = _smallest_generator(q, primes)
    block = math.isqrt(m) + 1
    low = np.array([pow(g, j, q) for j in range(block)], dtype=np.int64)
    high = np.array([pow(g, i, q) for i in range(0, m, block)], dtype=np.int64)
    blocks = high[:, None] * low[None, :]
    blocks %= q
    power = blocks.ravel()[:m].astype(np.int32)
    del blocks
    index = np.full(q, -1, dtype=np.int32)
    index[power] = np.arange(m, dtype=np.int32)
    # the largest prime of m divides h = m / 2 unless h = 1 (q = 3)
    return CharacterTable(q, g, index, power, roots_of_unity(m), primes[-1] if m > 2 else 1)


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


def orthogonality_gram(table: CharacterTable, span: int) -> np.ndarray:
    """G[i, k] = sum over all m labels a of conj(chi_a(i + 1)) chi_a(k + 1),
    for i, k < ``span``: m times the identity when the table is right.

    Factored over the labels: with B = isqrt(m - 1) + 1 (so B^2 >= m)
    write a = b B + j, 0 <= j < B and 0 <= b < nb = m // B.  Then
    chi_a(n) = e(b B ind(n) / m) chi_j(n), so the full blocks sum to
    G0 * (Phi^H Phi), entrywise, with G0 the Gram of the labels 0..B-1
    and Phi[b, n] = roots[b B ind(n) mod m]; the ragged labels
    nb B .. m - 1 are added directly.  Every term is read off the table,
    O(sqrt(m) span) entries of it, in O(sqrt(m) span^2) work.  Each
    product is one ``np.einsum`` without ``optimize``, a fixed-order sum
    that does not go through BLAS, so the result does not depend on the
    BLAS thread count.
    """
    m = table.m
    logs = table.index[1 : span + 1].astype(np.int64)  # a ind(n) reaches q^2, past int32
    block = math.isqrt(m - 1) + 1
    full = m // block * block

    def gram(labels: np.ndarray) -> np.ndarray:
        # the Gram of chi_a(n), a in labels, n = 1..span
        args = np.multiply.outer(labels, logs)
        args %= m
        chi = table.roots[args]
        return np.einsum("an,ak->nk", chi.conj(), chi)

    out = gram(np.arange(block, dtype=np.int64))
    out *= gram(np.arange(0, full, block, dtype=np.int64))
    out += gram(np.arange(full, m, dtype=np.int64))
    return out


def roots_residual(table: CharacterTable) -> float:
    """max over k of |roots[k] - e(k/m)|, each e(k/m) a fresh complex
    exponential, ``_ROOTS_BLOCK`` entries at a time.

    Every slot is checked, including those the factored
    :func:`orthogonality_gram` never reads.
    """
    m = table.m
    worst = 0.0
    for start in range(0, m, _ROOTS_BLOCK):
        stop = min(start + _ROOTS_BLOCK, m)
        diff = np.arange(start, stop) * (2j * np.pi / m)
        np.exp(diff, out=diff)
        diff -= table.roots[start:stop]
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def _split_ifft(table: CharacterTable, x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """X[b] = sum_j x[j] e(b j / h) for a complex vector x of length h = m / 2,
    by the four-step split h = c P at P = ``table.fft_prime``.

    With j = c r + s and b = k + P t (r, k < P and s, t < c),
    e(b j / h) = e(k r / P) e(k s / h) e(t s / c): one length-P FFT along
    the c rows of x.reshape(P, c).T (one plan serves every row), the
    twiddles e(k s / h) = roots[2 k s] (2 k s < m, so strided slices of
    the table, no index array), then one length-c FFT down the columns.
    Neither length has a prime factor above P, so any Bluestein step
    is confined to length P instead of h.  When h is prime, c = 1
    and this is the plain length-h FFT, bit for bit.  The first pass is
    written into ``scratch`` (contiguous complex, length h) and the
    result over ``x`` when it is contiguous.
    """
    h = len(x)
    p = table.fft_prime
    c = h // p
    # norm="forward" leaves the inverse transforms unscaled: plain sums of e(+) terms
    y = np.fft.ifft(x.reshape(p, c).T, norm="forward", out=scratch.reshape(c, p))  # y[s, k]
    # the twiddles go on line by line along the shorter side of y
    lines = y if c <= p else y.T
    for r in range(1, len(lines)):
        lines[r] *= table.roots[: 2 * r * lines.shape[1] : 2 * r]
    # [t, k] -> X[k + P t], into x's buffer: x is spent
    return np.fft.ifft(y, axis=0, norm="forward", out=x.reshape(c, p)).ravel()


def _real_transform(table: CharacterTable, folds: np.ndarray) -> np.ndarray:
    """S[a] = sum_k c[k] e(a k / m) for real log-class vectors c = u on even
    labels and c = v on odd ones, given their half-length folds side by
    side, folds = [even | odd] with even[k] = u[k] + u[k + h] and
    odd[k] = v[k] - v[k + h], h = m / 2.  ``folds`` is overwritten.

    Because e(a (k + h) / m) = (-1)^a e(a k / m), S is the length-m DFT of
    the real sequence w with w[k] + w[k + h] = even[k] and
    w[k] - w[k + h] = odd[k].  A real DFT of length m is one complex FFT of
    length h: the transform X of x[j] = w[2j] + i w[2j + 1] splits by
    conjugate symmetry into the transforms 2E = X + conj(X[-b]) and
    2iO = X - conj(X[-b]) of the even- and odd-indexed entries, and
    S[b] = E[b] + e(b / m) O[b], S[b + h] = E[b] - e(b / m) O[b].  The
    length-h FFT is split at the largest prime of h (:func:`_split_ifft`).

    Apart from one half-length difference on the way to 2w, two buffers
    carry every step: ``folds`` holds 2w, then 2X, then 4 e(b/m) O, and
    the output's upper half holds the split's first pass, then the flip
    conj(2X[-b]), then S[b + h].
    """
    h = table.m // 2
    even, odd = folds[:h], folds[h:]
    diff = even - odd
    even += odd
    odd[:] = diff  # 2w
    del diff
    out = np.empty(table.m, dtype=np.complex128)
    upper = out[h:]
    x = _split_ifft(table, folds.view(np.complex128), scratch=upper)  # 2X
    upper[0] = x[0].conjugate()  # conj(2X[-b])
    np.conjugate(x[:0:-1], out=upper[1:])
    e4 = np.add(x, upper, out=out[:h])  # 4E
    o4 = np.subtract(x, upper, out=x)
    o4 *= table.roots[:h]
    o4 *= -1j  # 4 e(b/m) O
    np.subtract(e4, o4, out=upper)
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
    # each support entry's log class, k < h or k + h, in support order
    upper = logs >= h
    classes = ((logs[~upper], ~upper), (logs[upper] - h, upper))

    def halves(c: np.ndarray) -> list[np.ndarray]:
        # z[k] and z[k + h], z[k] the sum of c(n) over ind(n) = k
        c = c[keep]
        return [np.bincount(ks, weights=c[side], minlength=h) for ks, side in classes]

    def transform(part) -> np.ndarray:
        # the parity folds z[k] + z[k + h] and z_odd[k] - z_odd[k + h], side by side
        folds = np.empty(table.m)
        low, high = halves(part(coeffs))
        np.add(low, high, out=folds[:h])
        if odd_coeffs is not None:
            low, high = halves(part(odd))
        np.subtract(low, high, out=folds[h:])
        del low, high
        return _real_transform(table, folds)

    out = transform(np.real)
    if np.any(np.imag(coeffs)) or np.any(np.imag(odd)):
        out += 1j * transform(np.imag)
    return out


def gauss_sum(table: CharacterTable, a: int) -> complex:
    """tau(chi_a) = sum over n mod q of chi_a(n) e(n/q), computed directly."""
    if a % table.m == 0:
        raise ValueError("Gauss sum is defined here for primitive labels only (a != 0)")
    # chi_a(n) = roots[a ind(n) mod m] for n = 1..q-1, times e(n/q) in place
    logs = table.index[1:].astype(np.int64)
    logs *= a
    logs %= table.m
    chi = table.roots[logs]
    del logs
    terms = 2j * np.pi * np.arange(1, table.q, dtype=np.int64)
    terms /= table.q
    np.exp(terms, out=terms)
    terms *= chi
    return complex(np.sum(terms))


def gauss_sums_all(table: CharacterTable) -> np.ndarray:
    """Gauss sums for every label at once (one real half-length transform).

    Indexed by log class the Gauss-sum coefficients are already folded:
    z[k] = e(g^k / q).  Since g^(k + h) = -g^k, z[k + h] = conj(z[k]), so
    the even labels see the real fold 2 cos(2 pi g^k / q) and the odd
    labels i times the real fold 2 sin(2 pi g^k / q), k < h.  The
    principal entry S[0] equals -1 (it is not a primitive Gauss sum).
    """
    h = table.m // 2
    z = 2j * np.pi * table.power[:h]
    z /= table.q
    np.exp(z, out=z)
    folds = np.empty(table.m)
    np.multiply(2.0, z.real, out=folds[:h])
    np.multiply(2.0, z.imag, out=folds[h:])
    del z
    out = _real_transform(table, folds)
    out[1::2] *= 1j
    return out


def root_numbers(table: CharacterTable) -> np.ndarray:
    """Functional-equation root numbers eps[a] = tau(chi_a) / (i^delta sqrt(q)).

    Computed once per table and kept there, read-only.  For primitive
    labels they lie on the unit circle; the principal slot is
    meaningless and left as computed.
    """
    return table.eps
