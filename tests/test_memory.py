"""Memory regressions: tracemalloc peaks at q = 100003, and the fixed costs
of the integer helpers every command runs.

Each per-label bound is the peak measured on a 2-core x86-64 host with
numpy 2.4 (16.0, 48.0, 55.5 and 40.5 bytes per label) plus 4 bytes per
label of margin.  The characters check and the single-label Gauss sum do
not grow with the label count, so their bounds are a fixed number of MB.
The peaks count numpy's array buffers only: pocketfft's internal
buffers (its Bluestein plan and scratch) are not traced, so they are
not bounded here.
"""

import tracemalloc

import numpy as np
import pytest

from molliclt import arith, characters
from molliclt.characters import build_table, gauss_sum, orthogonality_gram, roots_residual
from molliclt.dirichlet_l import l_values_afe, twisted_second_moment_empirical
from molliclt.hecke_rankin import _MAX_LIMIT, _sigma3
from molliclt.mollifier import build_dirichlet_mollifier, params_desk
from molliclt.stats import clt_experiment

Q = 100003


@pytest.fixture(scope="module")
def table():
    t = build_table(Q)
    t.eps  # the root numbers are kept on the table, outside every traced call
    return t


def traced_peak(call) -> int:
    """The traced peak of ``call()`` in bytes, above what was live before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before


def peak_per_label(table, call) -> float:
    return traced_peak(call) / table.m


def test_real_transform_peak(table):
    # the output (16 bytes per label); the half-length difference (4) is
    # freed before the output is allocated, and every later step reuses the two
    folds = np.random.default_rng(1).standard_normal(table.m)
    assert peak_per_label(table, lambda: characters._real_transform(table, folds)) <= 20.0


def test_l_values_afe_peak(table):
    # set by fe_residual_stats: the values (16), the conjugate side (16),
    # the scale (8) and one modulus (8)
    assert peak_per_label(table, lambda: l_values_afe(table, 0.5)) <= 52.0


def test_clt_experiment_peak(table):
    # set by the characteristic-function walk: W in the first piece's buffer
    # (16) and the observable (8) under the walk's fixed-size phase blocks,
    # about 30 bytes per label at this modulus
    values = l_values_afe(table, 0.5)
    params = params_desk(Q, (0.5,), c0=1.0)
    assert peak_per_label(table, lambda: clt_experiment(table, params, values)) <= 59.5


def test_twisted_second_moment_empirical_peak(table):
    # only half-length arrays, set by the AFE transforms: the even root
    # numbers (8) and the running product (8) beside one transform's two
    # real folds (8) and two buffers (16); the full-length L-value sets
    # and twist this replaced peaked at 64.9 with the root numbers prebuilt
    mol = build_dirichlet_mollifier(params_desk(Q, (0.25,), c0=1.0))
    peak = peak_per_label(table, lambda: twisted_second_moment_empirical(table, 0.02, 0.015, mol.support, mol.coeff))
    assert peak <= 44.5


def test_characters_check_peak(table):
    # measured 2.17 MB: the roots check's blocks of 2^16 entries (2.0 MB)
    # and the Gram's B x 100 gathers, B = 317 (1.6 MB), against 66 MB for
    # the blocks of 16384 labels this check replaced
    def check():
        orthogonality_gram(table, 100)
        roots_residual(table)

    assert traced_peak(check) <= 3_000_000


def test_gauss_sum_peak():
    # measured 3.15 MB at q = 1000003: one block of 2^16 terms (the phases,
    # the gathered character values and the int64 logs), against 40.1 MB
    # for the three length-q arrays of the unblocked sum
    table = build_table(1000003)
    assert traced_peak(lambda: gauss_sum(table, 12345)) <= 4_000_000


def test_factorize_sieves_only_to_the_root():
    # measured 0.012 MB: isqrt(9999990) = 3162 has 12 bits, so trial division
    # sieves and reads only the 564 primes below 2^12; a fixed sieve to 10^6
    # cost 2.9 MB
    for helper in vars(arith).values():
        if hasattr(helper, "cache_clear"):
            helper.cache_clear()
    assert traced_peak(lambda: arith.factorize(9999990)) <= 100_000


def test_sigma3_peak_at_the_top_of_its_range():
    # measured 5.2 MB: the output and one slice's cubes, 2.1 MB each, against
    # 112 MB for the N log N index arrays of the one-pass sum this replaced
    assert traced_peak(lambda: _sigma3(_MAX_LIMIT + 1)) <= 8_000_000
