"""The regularized upper incomplete gamma behind every AFE value, on both
sides of its series / continued-fraction crossover at x = 1.5."""

import math

import mpmath
import numpy as np
import pytest

from molliclt._special import upper_regularized_gamma

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
