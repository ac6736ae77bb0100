"""The Chebyshev oracle's Bessel functions against scipy, and its
vectorized Bessel sum against the per-order reference form."""

import numpy as np
import pytest
import scipy.special

from tcspin.dynamics import TimeGrid

from chebyshev_oracle import _bessel_column, _bessel_series, _bessel_series_per_order


class TestChebyshevOracle:
    # z <= 1e-5 takes the 2^-500 rescale of Miller's recurrence
    @pytest.mark.parametrize("z", [0.0, 1e-20, 1e-8, 1e-5, 0.3, 50.0, 780.0])
    def test_bessel_column_matches_scipy(self, z):
        column = _bessel_column(z)
        orders = np.arange(len(column))
        assert np.max(np.abs(column - scipy.special.jv(orders, z))) < 1e-13

    def test_bessel_series_matches_scipy(self):
        z = np.array([0.0, 1e-20, 1e-8, 1e-5, 0.3, -0.3, 50.0, -50.0, 780.0, -780.0, 1e-40])
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=900) + 1j * rng.normal(size=900)
        orders = np.arange(len(coeffs))
        expected = [np.sum(coeffs * scipy.special.jv(orders, x)) for x in z]
        # each J_k is within about 1e-14, and the 900 coefficients are O(1)
        assert np.max(np.abs(_bessel_series(z, coeffs) - expected)) < 1e-12
        for k in (0, 1, 2, 799):
            unit = np.zeros(k + 1)
            unit[k] = 1.0
            assert np.max(np.abs(_bessel_series(z, unit) - scipy.special.jv(k, z))) < 1e-13

    @pytest.mark.parametrize(
        "z",
        [
            # grids through t = 0 and at negative t, scaled as the correlator scales them
            6.5 * TimeGrid(-12.0, 12.0, 49).times(),
            11.0 * TimeGrid(-60.0, 0.0, 33).times(),
            13.3 * TimeGrid(0.0, 60.0, 128).times(),
            # |z| <= 1e-5 takes the 2^-500 rescale, 1e-40 the z = 0 branch
            np.array([1e-40, -1e-20, 1e-12, -3e-8, 1e-5, 0.0, -0.5, 7.0, -900.0]),
        ],
        ids=["symmetric", "negative", "positive", "rescaled"],
    )
    @pytest.mark.parametrize("complex_coeffs", [True, False])
    def test_bessel_series_is_bit_identical_to_the_per_order_loop(self, z, complex_coeffs):
        rng = np.random.default_rng(17)
        coeffs = rng.normal(size=900)
        if complex_coeffs:
            coeffs = coeffs + 1j * rng.normal(size=900)
        assert _bessel_series(z, coeffs).tobytes() == _bessel_series_per_order(z, coeffs).tobytes()

