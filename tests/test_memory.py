"""Memory regressions: tracemalloc peaks per label at q = 100003.

Each bound is the peak measured on a 2-core x86-64 host with numpy 2.4
(16.0, 48.0 and 55.5 bytes per label) plus 4 bytes per label of margin.
The peaks count numpy's array buffers only: pocketfft's internal
buffers (its Bluestein plan and scratch) are not traced, so they are
not bounded here.
"""

import tracemalloc

import numpy as np
import pytest

from molliclt import characters
from molliclt.characters import build_table
from molliclt.dirichlet_l import l_values_afe
from molliclt.mollifier import params_desk
from molliclt.stats import clt_experiment

Q = 100003


@pytest.fixture(scope="module")
def table():
    t = build_table(Q)
    t.eps  # the root numbers are kept on the table, outside every traced call
    return t


def peak_per_label(table, call) -> float:
    """The traced peak of ``call()`` above what was live before it, per label."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / table.m


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
