"""Mollifier construction: parameter ladders, interval pieces, quadratic forms."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molliclt.arith import PrimeInterval, big_omega, factorize, nu, primes_up_to, sieve_primes, smooth_integers
from molliclt import mollifier
from molliclt.dirichlet_l import l_values_afe
from molliclt.mollifier import (
    DirichletPolynomial,
    MollifierParams,
    ParamsDegenerateError,
    build_dirichlet_mollifier,
    build_hecke_mollifier,
    check_desk_params,
    dirichlet_interval_piece,
    hecke_interval_factor,
    m_alpha_beta,
    m_alpha_beta_general,
    params_desk,
    params_paper,
    prime_sum_polynomial,
    prime_sum_S,
    prime_sums_all,
    w_weight,
    weight_W,
    weights_all,
)


# --- parameter ladders ---------------------------------------------------


def test_params_paper_degenerate_below_double_log_threshold():
    with pytest.raises(ParamsDegenerateError, match="log log q"):
        params_paper(13, 0.9)


def test_params_paper_degenerate_empty_first_interval():
    # at desk moduli y = q^theta_0 never clears c0 = 2
    with pytest.raises(ParamsDegenerateError, match="params_desk"):
        params_paper(10007, 0.9)


def test_params_paper_validates_inputs():
    with pytest.raises(ValueError):
        params_paper(10007, 1.5)
    with pytest.raises(ValueError):
        params_paper(10007, 0.9, c0=1.0)


def test_params_desk_basic_shape(desk_quarter):
    p = desk_quarter
    assert p.mode == "desk"
    assert p.J == 0
    assert p.ell == (4,)  # 2*floor(0.25^(-3/4))
    assert math.isclose(p.y, 10007**0.25)
    assert p.x == p.y
    assert list(p.intervals[0].primes) == [2, 3, 5, 7]


def test_omega_cap_formula_anchor():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = params_desk(10007, [0.01], theta_cap=None)
    assert p.ell == (62,)


def test_params_desk_warns_above_cap():
    with pytest.warns(UserWarning, match="asymptotic-regime cap"):
        params_desk(10007, [0.25])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", message="interval .* contains no primes")
        params_desk(10007, [0.015])  # below default cap: silent
        params_desk(10007, [0.25], theta_cap=None)  # cap disabled: silent


def test_params_desk_validates():
    with pytest.raises(ValueError):
        params_desk(10007, [])
    with pytest.raises(ValueError):
        params_desk(10007, [-0.1])
    with pytest.raises(ValueError):
        params_desk(10007, [0.3, 0.2], theta_cap=None)  # not increasing


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
    p = params_desk(10007, [0.2, 0.3], c0=1.0, theta_cap=None)
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
    p = params_desk(10007, [0.2, 0.3], c0=1.0, theta_cap=None)
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
    p = params_desk(10007, [0.2, 0.3], c0=1.0, theta_cap=None)
    mol = build_dirichlet_mollifier(p)
    pieces = [dirichlet_interval_piece(p, j) for j in range(p.J + 1)]
    acc: dict[int, complex] = {1: 1.0 + 0j}
    for piece in pieces:
        nxt: dict[int, complex] = {}
        for n1, c1 in acc.items():
            for n2, c2 in piece.as_map().items():
                nxt[n1 * n2] = nxt.get(n1 * n2, 0j) + c1 * c2
        acc = nxt
    for n, c in acc.items():
        assert mol.coefficient(n) == pytest.approx(c, abs=1e-15)


def test_interval_piece_index_validation(desk_quarter):
    with pytest.raises(ValueError):
        dirichlet_interval_piece(desk_quarter, 1)


def test_evaluate_matches_direct_character_sum(table101):
    p = params_desk(101, [0.25], c0=1.0, theta_cap=None)
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
    p = params_desk(10007, [0.2, 0.3], c0=1.0, theta_cap=None)
    vals = {v: m_alpha_beta(p, 0.02 + 0.01j, 0.015 - 0.02j, v) for v in ("direct", "moebius", "euler")}
    ref = vals["direct"]
    for v, x in vals.items():
        assert abs(x - ref) <= 1e-12 * abs(ref), v


@st.composite
def interval_configs(draw):
    """Random primes <= 60 split into one or two intervals, caps 2..4, small complex shifts."""
    chosen = sorted(draw(st.sets(st.sampled_from(primes_up_to(60).tolist()), min_size=1, max_size=6)))
    cut = draw(st.integers(1, len(chosen)))
    groups = [chosen[:cut], chosen[cut:]] if cut < len(chosen) else [chosen]
    ell = tuple(draw(st.integers(2, 4)) for _ in groups)
    intervals = tuple(PrimeInterval(g[0] - 0.5, g[-1], np.array(g, dtype=np.int64)) for g in groups)
    theta = tuple(0.1 * (j + 1) for j in range(len(groups)))
    params = MollifierParams(
        q=10007, mode="desk", eta=None, c0=1.0, J=len(groups) - 1, theta=theta, ell=ell,
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
    assert abs(m_alpha_beta_general(support, gamma, alpha, beta, "moebius") - want) < 1e-14


def test_m_alpha_beta_unknown_variant(desk_quarter):
    with pytest.raises(ValueError):
        m_alpha_beta(desk_quarter, 0.0, 0.0, "simpson")


# --- prime sums and weights -------------------------------------------------


def test_prime_sum_matches_naive(table101):
    p = params_desk(101, [0.25], c0=1.0, theta_cap=None)
    primes = [int(v) for v in p.intervals[0].primes]
    assert primes == [2, 3]
    for a in (1, 9, 42):
        naive = sum(table101.chi(a, v) / math.sqrt(v) for v in primes)
        assert abs(prime_sum_S(table101, a, p) - naive) < 1e-14


def test_prime_sum_of_an_empty_first_interval_names_it():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = params_desk(101, [0.01], c0=1.0)
    with pytest.raises(ValueError, match=r"\(c0, q\^theta_0\] = \(1, 1\.047\] contains no primes"):
        prime_sum_polynomial(p)


def test_prime_sums_all_orthogonality_second_moment(table101):
    """Mean of |S|^2 over all labels collapses to sum 1/p by orthogonality."""
    p = params_desk(101, [0.25], c0=1.0, theta_cap=None)
    sums = prime_sums_all(table101, p)
    want = 1 / 2 + 1 / 3
    assert abs(np.mean(np.abs(sums) ** 2) - want) < 1e-12


def test_prime_sum_weights_callable_and_array_agree(table101):
    p = params_desk(101, [0.25], c0=1.0, theta_cap=None)
    fn = lambda v: 1.0 / (1.0 + v)
    arr = np.array([fn(v) for v in p.intervals[0].primes])
    for a in (3, 77):
        assert abs(
            prime_sum_S(table101, a, p, weights=fn) - prime_sum_S(table101, a, p, weights=arr)
        ) < 1e-14


def test_weight_w_is_l_times_mollifier(table101):
    p = params_desk(101, [0.25], c0=1.0, theta_cap=None)
    mol = build_dirichlet_mollifier(p)
    lvals = l_values_afe(table101, 0.5)
    for a in (1, 50):
        want = lvals.values[a] * mol.evaluate(table101, a)
        assert abs(weight_W(table101, a, lvals, mol) - want) < 1e-12
    with pytest.raises(ValueError):
        weight_W(table101, 0, lvals, mol)


def test_weights_all_zeroes_principal(table101):
    p = params_desk(101, [0.25], c0=1.0, theta_cap=None)
    mol = build_dirichlet_mollifier(p)
    lvals = l_values_afe(table101, 0.5)
    w = weights_all(table101, lvals, mol)
    assert w[0] == 0
    assert abs(w[7] - weight_W(table101, 7, lvals, mol)) < 1e-12


# --- Hecke-weighted variant ---------------------------------------------


def test_hecke_interval_factor_values(desk_quarter):
    class UnitForm:
        def lambda_p(self, p):
            return 1.0

    # weight 1 everywhere and lambda = 1 collapses to the Dirichlet coefficients
    factor = hecke_interval_factor(desk_quarter, 0, UnitForm(), weight_fn=lambda p: 1.0)
    for n, c in factor.items():
        om = big_omega(n)
        assert c == pytest.approx(float((-1) ** om * nu(n)), rel=1e-15)


def test_hecke_mollifier_scales_by_eigenvalue_products(desk_quarter):
    class ScaledForm:
        def lambda_p(self, p):
            return 0.5

    mol = build_hecke_mollifier(desk_quarter, ScaledForm(), weight_fn=lambda p: 1.0)
    ref = build_dirichlet_mollifier(desk_quarter)
    for n in (2, 4, 6, 9):
        want = ref.coefficient(n) * 0.5 ** big_omega(n)
        assert mol.coefficient(n) == pytest.approx(want, rel=1e-14)
