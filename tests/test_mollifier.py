"""Mollifier construction: parameter ladders, interval pieces, quadratic forms."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from molliclt.arith import PrimeInterval, big_omega, factorize, nu, sieve_primes, smooth_integers
from molliclt import hecke_rankin, mollifier
from molliclt.characters import build_table
from molliclt.mollifier import (
    DirichletPolynomial,
    MollifierParams,
    build_dirichlet_mollifier,
    check_desk_params,
    dirichlet_interval_piece,
    hecke_interval_factor,
    largest_support_element,
    m_alpha_beta,
    m_alpha_beta_general,
    params_desk,
    piece_from_prime_sum,
    prime_sum_polynomial,
    prime_sums_all,
    w_weight,
)


# --- parameter ladders ---------------------------------------------------


def test_params_desk_basic_shape(desk_quarter):
    p = desk_quarter
    assert p.J == 0
    assert p.ell == (4,)  # 2*floor(0.25^(-3/4))
    assert math.isclose(p.y, 10007**0.25)
    assert p.x == p.y
    assert list(p.intervals[0].primes) == [2, 3, 5, 7]


def test_omega_cap_formula_anchor():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = params_desk(10007, [0.01])
    assert p.ell == (62,)


def test_params_desk_warns_only_on_an_empty_interval():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params_desk(10007, [0.25])
        params_desk(10007, [0.2, 0.3, 0.5])
    # 10007^0.01 = 1.096: the interval (1, 1.096] holds no prime
    with pytest.warns(UserWarning, match=r"interval 0 = \(1, 1.096\] contains no primes"):
        params_desk(10007, [0.01])


def test_params_desk_validates():
    with pytest.raises(ValueError):
        params_desk(10007, [])
    with pytest.raises(ValueError):
        params_desk(10007, [-0.1])
    with pytest.raises(ValueError):
        params_desk(10007, [0.3, 0.2])  # not increasing


def test_params_desk_checks_inputs_before_sieving(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("sieved before the inputs were checked")

    monkeypatch.setattr(mollifier, "sieve_primes", forbidden)
    # 10007^0.25 = 10.0017
    for theta, c0, rule in (
        ([], 1.0, "at least one theta"),
        ([0.2, math.nan], 1.0, "positive and finite"),
        ([0.2, math.inf], 1.0, "positive and finite"),
        ([0.0], 1.0, "positive and finite"),
        ([0.3, 0.3], 1.0, "strictly increasing"),
        ([0.25], 0.999, r"c0 must lie in \[1, q\^theta_0\) = \[1, 10.0017\), got 0.999"),
        ([0.25], 10.0018, "c0 must lie in"),
        ([0.25], math.nan, "c0 must lie in"),
    ):
        with pytest.raises(ValueError, match=rule):
            params_desk(10007, theta, c0=c0)
    assert check_desk_params(10007, [0.2, 0.3], 1.0) == (0.2, 0.3)
    assert check_desk_params(10007, (0.25,), 10.0) == (0.25,)


def test_multi_interval_partition(table10007):
    p = params_desk(10007, [0.2, 0.3], c0=1.0)
    assert p.J == 1
    # intervals tile (c0, x] with no prime shared or skipped
    all_primes = [int(v) for iv in p.intervals for v in iv.primes]
    assert all_primes == sorted(set(all_primes))
    assert all_primes == [int(v) for v in sieve_primes(1.0, p.x).primes]


# --- smoothing weights ----------------------------------------------------


def test_w_weight_matches_formula(desk_quarter):
    p = desk_quarter
    t_log_q = p.theta[0] * math.log(p.q)
    for prime in (2, 3, 5, 7):
        want = prime ** (-1.0 / t_log_q) * (1.0 - math.log(prime) / t_log_q)
        assert math.isclose(w_weight(prime, 0, p), want, rel_tol=1e-14)


def test_w_weight_clamps_to_zero(desk_quarter):
    # log p beyond theta log q would go negative; the weight floors at 0
    assert w_weight(1000.0, 0, desk_quarter) == 0.0


def test_w_weight_vectorized(desk_quarter):
    ps = np.array([2.0, 3.0, 5.0])
    vec = w_weight(ps, 0, desk_quarter)
    assert vec.shape == (3,)
    assert np.allclose(vec, [w_weight(float(v), 0, desk_quarter) for v in ps])


def test_w_weight_decreasing_in_p(desk_half):
    ws = [w_weight(float(p), 0, desk_half) for p in (2, 3, 5, 11, 31, 97)]
    assert all(a > b for a, b in zip(ws, ws[1:]))


# --- Dirichlet mollifier coefficients --------------------------------------


def test_coefficient_anchors(desk_quarter):
    mol = build_dirichlet_mollifier(desk_quarter)
    want = {1: 1.0, 2: -1.0, 3: -1.0, 4: 0.5, 6: 1.0, 9: 0.5}
    for n, c in want.items():
        assert mol.coefficient(n) == c
    assert mol.coefficient(11) == 0  # 11 outside the interval


def test_support_divisor_closed(desk_quarter):
    mol = build_dirichlet_mollifier(desk_quarter)
    values = set(int(n) for n in mol.support)
    for n in values:
        for d in factorize(n).divisors():
            assert d in values


def test_exact_coefficients_match_brute_force_convolution():
    """Independent reconstruction: per-interval lambda*nu maps convolved by hand."""
    p = params_desk(10007, [0.2, 0.3], c0=1.0)
    mol = build_dirichlet_mollifier(p)

    maps = []
    for j in range(p.J + 1):
        piece: dict[int, Fraction] = {}
        support = smooth_integers(p.intervals[j], p.ell[j], math.inf)
        for n, om in zip(support.values.tolist(), support.omega.tolist()):
            piece[n] = Fraction(-1 if om & 1 else 1) * nu(n)
        maps.append(piece)
    brute: dict[int, Fraction] = {1: Fraction(1)}
    for piece in maps:
        nxt: dict[int, Fraction] = {}
        for n1, c1 in brute.items():
            for n2, c2 in piece.items():
                nxt[n1 * n2] = nxt.get(n1 * n2, Fraction(0)) + c1 * c2
        brute = nxt

    assert mol.exact is not None
    got = dict(zip((int(n) for n in mol.support), mol.exact))
    assert got == {n: c for n, c in brute.items() if c != 0}


def test_interval_pieces_multiply_to_full_mollifier(desk_quarter):
    p = params_desk(10007, [0.2, 0.3], c0=1.0)
    mol = build_dirichlet_mollifier(p)
    pieces = [dirichlet_interval_piece(p, j) for j in range(p.J + 1)]
    acc: dict[int, complex] = {1: 1.0 + 0j}
    for piece in pieces:
        nxt: dict[int, complex] = {}
        for n1, c1 in acc.items():
            for n2, c2 in zip(piece.support.tolist(), piece.coeff.tolist()):
                nxt[n1 * n2] = nxt.get(n1 * n2, 0j) + c1 * c2
        acc = nxt
    for n, c in acc.items():
        assert mol.coefficient(n) == pytest.approx(c, abs=1e-15)


def test_each_interval_support_is_enumerated_once(monkeypatch):
    """The mollifier, its pieces, the Euler route of M and the Euler-product
    expected weight all read one Omega-capped enumeration per interval."""
    calls = []
    enumerate_support = mollifier.smooth_integers

    def counted(interval, ell, cap, *rest):
        calls.append((tuple(interval.primes.tolist()), ell, cap))
        return enumerate_support(interval, ell, cap, *rest)

    monkeypatch.setattr(mollifier, "smooth_integers", counted)
    monkeypatch.setattr(hecke_rankin, "smooth_integers", counted)
    p = params_desk(10007, [0.2, 0.3], c0=1.0)
    build_dirichlet_mollifier(p)
    for j in range(p.J + 1):
        dirichlet_interval_piece(p, j)
    m_alpha_beta(p, 0.02, 0.015, "euler")
    pair = hecke_rankin.RankinSelbergPair(hecke_rankin.delta_form(), hecke_rankin.weight16_form())
    hecke_rankin.expected_weight_euler(pair, p)
    capped = [call for call in calls if call[1] is not None]
    assert capped == [(tuple(iv.primes.tolist()), ell, math.inf) for iv, ell in zip(p.intervals, p.ell)]
    # the expected weight's own D-capped supports are a different set
    assert len(calls) - len(capped) == p.J + 1


@pytest.mark.filterwarnings("ignore:interval .* contains no primes")
@pytest.mark.parametrize("q", [101, 1009, 10007, 100003])
@pytest.mark.parametrize("theta, c0", [
    ((0.01,), 1.0),  # an empty interval
    ((0.25,), 1.0),
    ((0.25,), 3.0),
    ((0.5,), 1.0),
    ((0.2, 0.3), 1.0),
    ((0.1, 0.2), 1.0),
    ((0.3, 0.4), 1.0),
])
def test_largest_support_element_matches_the_built_mollifier(q, theta, c0):
    params = params_desk(q, theta, c0=c0)
    assert largest_support_element(q, params.theta, c0) == int(build_dirichlet_mollifier(params).support[-1])


def test_product_refuses_elements_past_int64():
    def piece(support):
        support = np.asarray(support, dtype=np.int64)
        return DirichletPolynomial(support, np.ones(len(support), dtype=np.complex128), (Fraction(1),) * len(support))

    fits = mollifier._product([piece([1, 2**31]), piece([1, 3**19])])
    assert fits.support.tolist() == [1, 3**19, 2**31, 2**31 * 3**19]
    with pytest.raises(RuntimeError, match="exceeds the int64 limit 9223372036854775807"):
        mollifier._product([piece([1, 2**40]), piece([1, 3**25])])
    with pytest.raises(RuntimeError, match="enumeration budget"):
        mollifier._product([piece([1, 2])] + [piece(np.arange(1, 2001))] * 2)


def test_interval_piece_index_validation(desk_quarter):
    with pytest.raises(ValueError):
        dirichlet_interval_piece(desk_quarter, 1)


@st.composite
def piece_cases(draw):
    q = draw(st.sampled_from([101, 1009, 10007, 100003]))
    # J + 1 = 1..3 interval exponents; the Omega caps they imply run from 2 to 8
    hundredths = draw(st.lists(st.integers(min_value=10, max_value=55), min_size=1, max_size=3, unique=True))
    return q, tuple(sorted(h / 100 for h in hundredths))


@given(piece_cases())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_piece_from_prime_sum_matches_the_support_route(case):
    """e_ell(-P_j) against the interval's Omega-capped polynomial, every label.

    The gap is taken relative to the largest value, not label by label:
    a piece such as 1 - P + P^2/2 vanishes at P = 1 +- i.
    """
    q, theta = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a tail interval may hold no prime
        p = params_desk(q, theta)
    assume(len(p.intervals[0]) > 0)
    table = build_table(q)
    for j, ell in enumerate(p.ell):
        got = piece_from_prime_sum(prime_sum_polynomial(p, j).evaluate_all(table), ell)
        ref = dirichlet_interval_piece(p, j).evaluate_all(table)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (q, theta, j, ell)


def test_evaluate_matches_direct_character_sum(table101):
    p = params_desk(101, [0.25], c0=1.0)
    mol = build_dirichlet_mollifier(p)
    for a in (1, 17, 60):
        direct = sum(
            mol.coefficient(int(n)) * table101.chi(a, int(n)) / math.sqrt(int(n))
            for n in mol.support
        )
        assert abs(mol.evaluate(table101, a) - direct) < 1e-13
    batch = mol.evaluate_all(table101)
    assert abs(batch[17] - mol.evaluate(table101, 17)) < 1e-12


# --- quadratic form M(alpha, beta) -----------------------------------------


def test_m_alpha_beta_variants_agree(desk_quarter):
    vals = {v: m_alpha_beta(desk_quarter, 0.02, 0.015, v) for v in ("direct", "moebius", "euler")}
    ref = vals["direct"]
    for v, x in vals.items():
        assert abs(x - ref) <= 1e-12 * abs(ref), v


def test_m_alpha_beta_takes_a_built_mollifier(desk_quarter, monkeypatch):
    want = {v: m_alpha_beta(desk_quarter, 0.02, 0.015, v) for v in ("direct", "moebius", "euler")}
    mol = build_dirichlet_mollifier(desk_quarter)

    def rebuild(*args, **kwargs):
        raise AssertionError("mollifier rebuilt although one was passed")

    monkeypatch.setattr(mollifier, "build_dirichlet_mollifier", rebuild)
    for v, x in want.items():
        assert m_alpha_beta(desk_quarter, 0.02, 0.015, v, mol=mol) == x, v


def test_m_alpha_beta_variants_agree_multi_interval():
    p = params_desk(10007, [0.2, 0.3], c0=1.0)
    vals = {v: m_alpha_beta(p, 0.02 + 0.01j, 0.015 - 0.02j, v) for v in ("direct", "moebius", "euler")}
    ref = vals["direct"]
    for v, x in vals.items():
        assert abs(x - ref) <= 1e-12 * abs(ref), v


@st.composite
def interval_configs(draw):
    """Random primes <= 60 split into one or two intervals, caps 2..4, small complex shifts."""
    chosen = sorted(draw(st.sets(st.sampled_from(sieve_primes(1, 60).primes.tolist()), min_size=1, max_size=6)))
    cut = draw(st.integers(1, len(chosen)))
    groups = [chosen[:cut], chosen[cut:]] if cut < len(chosen) else [chosen]
    ell = tuple(draw(st.integers(2, 4)) for _ in groups)
    intervals = tuple(PrimeInterval(g[0] - 0.5, g[-1], np.array(g, dtype=np.int64)) for g in groups)
    theta = tuple(0.1 * (j + 1) for j in range(len(groups)))
    params = MollifierParams(
        q=10007, c0=1.0, J=len(groups) - 1, theta=theta, ell=ell,
        y=float(groups[0][-1]), x=float(groups[-1][-1]), intervals=intervals,
    )
    shift = st.complex_numbers(max_magnitude=0.05, allow_nan=False, allow_infinity=False)
    return params, draw(shift), draw(shift)


@given(interval_configs())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_m_alpha_beta_routes_agree_property(case):
    params, alpha, beta = case
    direct = m_alpha_beta(params, alpha, beta, "direct")
    for variant in ("moebius", "euler"):
        got = m_alpha_beta(params, alpha, beta, variant)
        assert abs(got - direct) <= 1e-12 * abs(direct), variant


def test_m_alpha_beta_general_hand_case():
    # support {1, 2}, gamma = (1, c): pairs (1,1), (1,2), (2,1), (2,2)
    support = np.array([1, 2], dtype=np.int64)
    c = -0.7
    gamma = np.array([1.0, c])
    alpha, beta = 0.1, 0.2
    want = (
        1.0
        + c * 2.0 ** -(1 + beta)
        + c * 2.0 ** -(1 + alpha)
        + c * c / 2.0
    )
    got = m_alpha_beta_general(support, gamma, alpha, beta)
    assert abs(got - want) < 1e-14
    assert abs(mollifier._m_moebius(support, gamma, alpha, beta) - want) < 1e-14


def test_m_alpha_beta_unknown_variant(desk_quarter):
    with pytest.raises(ValueError):
        m_alpha_beta(desk_quarter, 0.0, 0.0, "simpson")


# --- prime sums ---------------------------------------------------------------


def test_prime_sum_matches_naive(table101):
    p = params_desk(101, [0.25], c0=1.0)
    primes = [int(v) for v in p.intervals[0].primes]
    assert primes == [2, 3]
    for a in (1, 9, 42):
        naive = sum(table101.chi(a, v) / math.sqrt(v) for v in primes)
        assert abs(prime_sum_polynomial(p).evaluate(table101, a) - naive) < 1e-14


def test_prime_sum_of_an_empty_first_interval_names_it():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = params_desk(101, [0.01], c0=1.0)
    with pytest.raises(ValueError, match=r"\(c0, q\^theta_0\] = \(1, 1\.047\] contains no primes"):
        prime_sum_polynomial(p)


def test_prime_sums_all_orthogonality_second_moment(table101):
    """Mean of |S|^2 over all labels collapses to sum 1/p by orthogonality."""
    p = params_desk(101, [0.25], c0=1.0)
    sums = prime_sums_all(table101, p)
    want = 1 / 2 + 1 / 3
    assert abs(np.mean(np.abs(sums) ** 2) - want) < 1e-12


# --- Hecke-weighted variant ---------------------------------------------


def test_hecke_interval_factor_values(desk_quarter):
    class UnitForm:
        def lambda_p(self, p):
            return 1.0 / w_weight(p, desk_quarter.J, desk_quarter)

    # lambda = 1 / w_J makes every a(p) one: the Dirichlet coefficients
    factor = hecke_interval_factor(desk_quarter, 0, UnitForm())
    for n, c in zip(factor.support.tolist(), factor.coeff.tolist()):
        om = big_omega(n)
        assert c == pytest.approx(float((-1) ** om * nu(n)), rel=1e-15)

