"""The regularized upper incomplete gamma behind every AFE value, on both
sides of its series / continued-fraction crossover at x = 1.5, and the
complex gamma, scalar and array, behind the AFE weights and the cutoff."""

import math

import mpmath
import numpy as np
import pytest

from molliclt._special import gamma, gamma_array, upper_regularized_gamma
from molliclt.hecke_rankin import _cutoff_node_data

# below 1.5 the ascending series runs, from 1.5 on the continued fraction
SERIES_XS = (1e-6, 1e-3, 0.05, 0.3, 0.9, 1.2, 1.4999)
FRACTION_XS = (1.5, 1.7, 2.5, 5.0, 12.0, 30.0, 80.0)
# one array call covers x = 0 and both regimes at once
ARRAY_XS = np.array((0.0,) + SERIES_XS + FRACTION_XS)

CLOSED_FORMS = {
    0.5: lambda x: math.erfc(math.sqrt(x)),
    1.0: lambda x: math.exp(-x),
    1.5: lambda x: math.erfc(math.sqrt(x)) + 2.0 * math.sqrt(x / math.pi) * math.exp(-x),
}


@pytest.mark.parametrize("a", sorted(CLOSED_FORMS))
def test_upper_gamma_closed_forms(a):
    for x in SERIES_XS + FRACTION_XS:
        want = CLOSED_FORMS[a](x)
        assert upper_regularized_gamma(a, x) == pytest.approx(want, rel=1e-13, abs=0.0), (a, x)
    want = np.array([CLOSED_FORMS[a](x) for x in ARRAY_XS])
    got = upper_regularized_gamma(a, ARRAY_XS)
    assert got.shape == ARRAY_XS.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), (a, got, want)


# the AFE orders (s + delta) / 2 at s = 1/2, and complex orders near them
@pytest.mark.parametrize("a", (0.25, 0.75, 0.25 + 0.1j, 0.25 - 0.7j, 0.75 - 0.2j, 0.75 + 1.5j))
def test_upper_gamma_vs_mpmath(a):
    mpmath.mp.dps = 30
    for x in SERIES_XS + FRACTION_XS:
        want = complex(mpmath.gammainc(mpmath.mpc(a), mpmath.mpf(x), mpmath.inf, regularized=True))
        got = upper_regularized_gamma(a, x)
        assert abs(got - want) <= 1e-13 * abs(want), (a, x, got, want)
    want = np.array([complex(mpmath.gammainc(mpmath.mpc(a), mpmath.mpf(x), mpmath.inf, regularized=True)) for x in ARRAY_XS])
    got = upper_regularized_gamma(a, ARRAY_XS)
    assert got.shape == ARRAY_XS.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), (a, got, want)


def test_upper_gamma_edges():
    assert upper_regularized_gamma(0.25, 0.0) == 1.0
    with pytest.raises(ValueError, match="nonnegative"):
        upper_regularized_gamma(0.25, -1.0)


# the reflection branch (Re z < 1/2), the AFE orders and both half-planes
GAMMA_POINTS = (
    0.5, 1.0, 2.5, 6.0, 8.0, 10.5, 3 + 10j, 1 - 20j, 0.3 + 0.2j, 0.25 + 0.1j, 0.125, 0.2425, 0.2575,
    0.49999, 0.1, -0.1 + 1j, -0.5, -1.5 + 2j, -3.3 - 4j, -7.2 + 0.1j, -10.5,
)
# the cutoff's archimedean factor reads gamma at s + 6 and s + 8 on its
# 20- and 28-node contours at Re s = -1 (shifted), 2 and 2.2
CUTOFF_POINTS = np.concatenate([
    _cutoff_node_data(c, nodes)[0] + shift
    for c in (-1.0, 2.0, 2.2) for nodes in (20, 28) for shift in (6, 8)
])


def _mp_gamma(points):
    mpmath.mp.dps = 30
    return np.array([complex(mpmath.gamma(mpmath.mpc(z))) for z in points])


@pytest.mark.parametrize("points", [GAMMA_POINTS, CUTOFF_POINTS], ids=["planes", "cutoff"])
def test_gamma_vs_mpmath(points):
    want = _mp_gamma(points)
    scalar = np.array([gamma(z) for z in points])
    array = gamma_array(np.array(points, dtype=np.complex128))
    assert array.shape == want.shape
    for got in (scalar, array):
        rel = np.abs(got - want) / np.abs(want)
        assert rel.max() <= 1e-14, points[int(np.argmax(rel))]
    # each is within 1e-14 of the truth, so they are within 2e-14 of each other
    assert np.all(np.abs(array - scalar) <= 2e-14 * np.abs(scalar))

