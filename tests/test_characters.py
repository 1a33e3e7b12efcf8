"""Character tables: discrete logs, orthogonality, Gauss sums, batch transforms."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from molliclt import characters
from molliclt.arith import sieve_primes
from molliclt.characters import (
    _split_ifft,
    batch_character_sums,
    build_table,
    gauss_sum,
    gauss_sums_all,
    orthogonality_gram,
    root_numbers,
    roots_of_unity,
    roots_residual,
)


def naive_character_sums(table, support, coeffs):
    """Reference transform: the O(m * nnz) product of exact root phases."""
    residues = np.asarray(support, dtype=np.int64) % table.q
    keep = residues != 0
    logs = table.index[residues[keep]]
    labels = np.arange(table.m, dtype=np.int64)
    phases = table.roots[(labels[:, None] * logs[None, :]) % table.m]
    return phases @ np.asarray(coeffs, dtype=np.complex128)[keep]


def loop_table(q, g):
    """Reference discrete-log and power tables, one multiplication per step."""
    index = np.full(q, -1, dtype=np.int64)
    power = np.empty(q - 1, dtype=np.int64)
    value = 1
    for i in range(q - 1):
        index[value] = i
        power[i] = value
        value = value * g % q
    return index, power


def test_primitive_root_anchors():
    # the table's generator is the smallest primitive root
    assert build_table(5).g == 2
    assert build_table(7).g == 3
    assert build_table(10007).g == 5


def test_primitive_root_rejects_composite():
    with pytest.raises(ValueError, match="not prime"):
        build_table(15)


def test_index_power_inverse(table101):
    t = table101
    for n in range(1, t.q):
        assert t.power[t.index[n]] == n
    assert t.index[0] == -1


@pytest.mark.parametrize("q", [3, 5, 101, 1009, 10007])
def test_blocked_tables_match_loop(q):
    t = build_table(q)
    index, power = loop_table(q, t.g)
    assert np.array_equal(t.index, index)
    assert np.array_equal(t.power, power)


def test_roots_of_unity_closure():
    r = roots_of_unity(12)
    assert np.allclose(r**12, 1.0, atol=1e-14)
    assert abs(r[1] - cmath.exp(2j * math.pi / 12)) < 1e-15


def test_chi_principal_is_one_on_units(table101):
    t = table101
    vals = [t.chi(0, n) for n in range(1, t.q)]
    assert np.allclose(vals, 1.0, atol=1e-15)


def test_chi_vanishes_on_multiples_of_q(table101):
    assert table101.chi(3, 0) == 0
    assert table101.chi(3, 101) == 0
    assert table101.chi(3, 2 * 101) == 0


@given(
    st.integers(min_value=0, max_value=99),
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=1, max_value=100),
)
@settings(max_examples=120, deadline=None)
def test_chi_multiplicative(table101, a, m, n):
    t = table101
    lhs = t.chi(a, (m * n) % t.q) if (m * n) % t.q else 0.0
    assert abs(lhs - t.chi(a, m) * t.chi(a, n)) < 1e-12


def test_int32_tables_widen_label_log_products():
    # at q = 1000003 a label near m times a log near m is about 10^12, far
    # past int32: every product must be formed in int64
    t = build_table(1000003)
    assert t.index.dtype == np.int32 and t.power.dtype == np.int32
    ns = np.concatenate((t.power[-4:], [2, 3, t.q - 1, t.q + 2, 2 * t.q]))  # logs m - 4 .. m - 1 first
    for a in (t.m - 1, t.m - 2, t.m // 2 + 1):
        want = np.array([t.chi(a, int(n)) for n in ns])
        assert np.array_equal(t.chi_values(a, ns), want)


def test_conjugate_label_conjugates(table101):
    t = table101
    for a in (1, 7, 50, 99):
        b = t.conjugate_label(a)
        for n in (2, 3, 17, 100):
            assert abs(t.chi(b, n) - t.chi(a, n).conjugate()) < 1e-14


def test_parity_matches_chi_at_minus_one(table101):
    t = table101
    for a in range(0, t.m):
        want = 1.0 if a % 2 == 0 else -1.0
        assert abs(t.chi(a, t.q - 1) - want) < 1e-12
        assert (-1) ** (a & 1) == want
        assert t.delta(a) == (a & 1)


def test_orthogonality_exhaustive_q31():
    """(1/m) sum over chi of chi(m) conj(chi(n)) is the mod-q equality indicator."""
    t = build_table(31)
    m = t.m
    worst = 0.0
    for n1 in range(1, t.q):
        v1 = np.array([t.chi(a, n1) for a in range(m)])
        for n2 in range(1, t.q):
            v2 = np.array([t.chi(a, n2) for a in range(m)])
            avg = np.sum(v1 * v2.conjugate()) / m
            target = 1.0 if n1 == n2 else 0.0
            worst = max(worst, abs(avg - target))
    assert worst < 1e-12


def direct_gram(table, span):
    """Reference Gram: every label's character values gathered at once."""
    logs = table.index[1 : span + 1].astype(np.int64)
    chi = table.roots[np.outer(np.arange(table.m, dtype=np.int64), logs) % table.m]
    return chi.conj().T @ chi


@pytest.mark.parametrize("q", [int(p) for p in sieve_primes(2, 300).primes] + [10007])
def test_factored_gram_matches_direct_gram(q):
    # with B = isqrt(m - 1) + 1 and nb = m // B: the span is q - 1 < 100 up to
    # q = 97, the ragged block is empty where B divides m (q = 3, 5, 7, 13, ...),
    # and B > nb at q = 3, 7, 13, ...
    t = build_table(q)
    span = min(q - 1, 100)
    gram = orthogonality_gram(t, span)
    assert gram.shape == (span, span)
    assert np.max(np.abs(gram - direct_gram(t, span))) / t.m < 1e-13


def test_roots_residual_checks_every_slot():
    t = build_table(100003)
    assert roots_residual(t) < 1e-14
    # the last slot, in the second block of 2^16
    roots = t.roots.copy()
    roots[-1] *= cmath.exp(1e-9j)
    bad = characters.CharacterTable(t.q, t.g, t.index, t.power, roots, t.fft_prime)
    assert 0.9e-9 < roots_residual(bad) < 1.1e-9


def test_gauss_sum_magnitudes(table101):
    t = table101
    for a in range(1, t.m):
        assert abs(abs(gauss_sum(t, a)) ** 2 - t.q) < 1e-9 * t.q


def test_gauss_sum_rejects_principal(table101):
    with pytest.raises(ValueError):
        gauss_sum(table101, 0)


def test_gauss_sum_quadratic_character_q5():
    # even quadratic character mod 5: tau = sqrt(5) exactly
    t = build_table(5)
    assert abs(gauss_sum(t, 2) - math.sqrt(5)) < 1e-13


def test_gauss_sum_quadratic_character_q3():
    # odd quadratic character mod 3: tau = i sqrt(3)
    t = build_table(3)
    assert abs(gauss_sum(t, 1) - 1j * math.sqrt(3)) < 1e-13


def test_gauss_sums_all_matches_singletons(table101):
    t = table101
    batch = gauss_sums_all(t)
    for a in (1, 2, 17, 63, 99):
        assert abs(batch[a] - gauss_sum(t, a)) < 1e-11


@pytest.mark.parametrize("q", [3, 101, 10007])
def test_gauss_sums_all_equals_folded_batch_sum(q):
    """The log-class coefficients e(g^k / q) are what folding the support
    1..q-1 with coefficients e(n / q) produces.  The batch route transforms
    their real and imaginary parts, gauss_sums_all one real fold per parity,
    so the two agree to rounding, not bit for bit."""
    t = build_table(q)
    n = np.arange(1, q, dtype=np.int64)
    folded = batch_character_sums(t, n, np.exp(2j * np.pi * n / q))
    assert np.max(np.abs(gauss_sums_all(t) - folded)) <= 1e-13 * math.sqrt(q)


def test_batch_sums_fft_vs_naive(table1009):
    t = table1009
    rng = np.random.default_rng(3)
    support = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29], dtype=np.int64)
    coeffs = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
    got = batch_character_sums(t, support, coeffs)
    assert np.max(np.abs(got - naive_character_sums(t, support, coeffs))) < 1e-10


def test_batch_sums_parity_pair(table1009):
    """Even labels see the first coefficient vector, odd labels the second."""
    t = table1009
    rng = np.random.default_rng(5)
    support = rng.integers(1, 3 * t.q, 40)
    c0 = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    c1 = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    got = batch_character_sums(t, support, c0, c1)
    assert np.max(np.abs(got[0::2] - naive_character_sums(t, support, c0)[0::2])) < 1e-10
    assert np.max(np.abs(got[1::2] - naive_character_sums(t, support, c1)[1::2])) < 1e-10


@pytest.mark.parametrize("q", [3, 5])
def test_batch_sums_smallest_moduli(q):
    t = build_table(q)
    support = np.array([1, 2, q - 1, q, q + 1, 3 * q + 2], dtype=np.int64)
    coeffs = np.array([1.0, -2.0j, 0.5, 9.0, 1 + 1j, -3.0])
    got = batch_character_sums(t, support, coeffs)
    assert got.shape == (q - 1,)
    assert np.max(np.abs(got - naive_character_sums(t, support, coeffs))) < 1e-12


def test_batch_sums_empty_support(table101):
    empty = np.array([], dtype=np.int64)
    got = batch_character_sums(table101, empty, np.array([], dtype=np.complex128))
    assert got.shape == (table101.m,)
    assert not np.any(got)


@st.composite
def transform_cases(draw):
    """A prime q below 2000, so (q-1)/2 odd or even, a support holding
    multiples of q, and complex, real, or per-parity real coefficients."""
    q = draw(st.sampled_from([int(p) for p in sieve_primes(2, 2000).primes]))
    kind = draw(st.sampled_from(["complex", "real", "parity pair"]))
    support = draw(st.lists(st.integers(min_value=0, max_value=4 * q), min_size=0, max_size=30))
    support += [q * k for k in draw(st.lists(st.integers(0, 3), max_size=3))]
    parts = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)

    def vector(imag):
        if imag:
            return np.array([complex(draw(parts), draw(parts)) for _ in support], dtype=np.complex128)
        return np.array([draw(parts) for _ in support], dtype=np.float64)

    coeffs = vector(kind == "complex")
    odd = vector(False) if kind == "parity pair" else None
    return q, np.array(support, dtype=np.int64), coeffs, odd


@given(transform_cases())
@example((3, np.array([1, 2, 4, 6]), np.array([1.0, -2.0, 0.5, 7.0]), None))
@example((3, np.array([1, 2, 4, 6]), np.array([1.0, -2.0, 0.5, 7.0]), np.array([3.0, 1.0, -1.5, 2.0])))
@example((5, np.array([1, 2, 3, 9, 10]), np.array([1.0, 2.5, -3.0, 0.5, 4.0]), None))
@example((5, np.array([1, 2, 3, 9, 10]), np.array([1.0, 2.5, -3.0, 0.5, 4.0]), np.array([-1.0, 2.0, 0.25, 1.0, 8.0])))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_batch_sums_property_fft_vs_naive(case):
    q, support, coeffs, odd = case
    t = build_table(q)
    got = batch_character_sums(t, support, coeffs, odd)
    want = naive_character_sums(t, support, coeffs)
    if odd is not None:
        want[1::2] = naive_character_sums(t, support, odd)[1::2]
    mass = np.sum(np.abs(coeffs)) + (0.0 if odd is None else np.sum(np.abs(odd)))
    assert np.max(np.abs(got - want)) <= 1e-10 * (1.0 + mass)


def test_one_half_length_fft_per_real_sum(table1009, ifft_calls):
    t = table1009
    support = np.arange(1, 60, dtype=np.int64)
    weights = 1.0 / np.sqrt(support)
    for coeffs, odd_coeffs, ffts in (
        (weights, None, 1),
        (weights, -weights, 1),  # a real parity pair
        (weights * (1 + 0j), None, 1),  # complex dtype, zero imaginary part
        (weights * (1 + 1j), None, 2),
    ):
        ifft_calls.clear()
        batch_character_sums(t, support, coeffs, odd_coeffs)
        assert ifft_calls == [t.m // 2] * ffts
    ifft_calls.clear()
    gauss_sums_all(t)
    assert ifft_calls == [t.m // 2]


@pytest.mark.parametrize(
    "q, prime, exact",
    [
        (10007, 5003, True),  # h prime: c = 1, the plain FFT bit for bit
        (1399, 233, False),  # h = 3 * 233
        (100003, 2381, False),  # h = 3 * 7 * 2381
        (1009, 7, False),  # h = 2^3 * 3^2 * 7, smooth
        (257, 2, False),  # h = 2^7
        (65537, 2, False),  # h = 2^15
    ],
)
def test_split_ifft_matches_plain_ifft(q, prime, exact, monkeypatch):
    t = build_table(q)
    h = t.m // 2
    assert t.fft_prime == prime
    rng = np.random.default_rng(q)
    x = rng.standard_normal(h) + 1j * rng.standard_normal(h)
    want = np.fft.ifft(x, norm="forward")
    lengths = []
    ifft = np.fft.ifft

    def counted(a, *args, axis=-1, **kwargs):
        lengths.append(a.shape[axis])
        return ifft(a, *args, axis=axis, **kwargs)

    monkeypatch.setattr(characters.np.fft, "ifft", counted)
    got = _split_ifft(t, x, np.empty(h, dtype=np.complex128))
    # one FFT of length P over all c rows, one of length c down the columns
    assert lengths == [prime, h // prime]
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_batch_sums_match_naive(table101):
    t = table101
    support = np.array([2, 3, 4, 7, 30, 99], dtype=np.int64)
    coeffs = np.array([1.0, -2.0, 0.5, 1j, 3.0, -1.5j])
    batch = batch_character_sums(t, support, coeffs)
    for a in range(0, t.m, 9):
        naive = sum(c * t.chi(a, int(n)) for n, c in zip(support, coeffs))
        assert abs(batch[a] - naive) < 1e-11


def test_batch_sums_drop_multiples_of_q(table101):
    t = table101
    support = np.array([2, 101, 202], dtype=np.int64)
    coeffs = np.array([1.0, 5.0, -7.0])
    batch = batch_character_sums(t, support, coeffs)
    only2 = batch_character_sums(t, np.array([2]), np.array([1.0]))
    assert np.max(np.abs(batch - only2)) < 1e-12


def test_root_numbers_unimodular(table101):
    eps = root_numbers(table101)
    assert np.max(np.abs(np.abs(eps[1:]) - 1.0)) < 1e-12
    assert root_numbers(table101) is eps
    assert not eps.flags.writeable


def test_root_number_quadratic_q5_is_plus_one():
    t = build_table(5)
    eps = root_numbers(t)
    assert abs(eps[2] - 1.0) < 1e-12
