"""The regularized incomplete beta I_x(a, b), through `Beta(a, b).cdf`."""

import math

import numpy as np
import pytest
from scipy import special as sp

from stochbisect import distributions
from stochbisect.distributions import Beta, DomainError


class TestRegularizedIncompleteBeta:
    # Oracle: scipy's betainc, an independent implementation of I_x(a, b).
    @pytest.mark.parametrize("a,b", [
        (0.1, 2.0), (0.5, 2.0), (2.0, 2.0), (2.0, 0.5), (5.0, 50.0),
        (1.0, 1.0), (0.3, 0.7), (10.0, 3.0),
    ])
    def test_matches_scipy(self, a, b):
        xs = np.linspace(0.0, 1.0, 41)
        ours = np.array([Beta(a, b).cdf(x) for x in xs])
        assert np.max(np.abs(ours - sp.betainc(a, b, xs))) < 1e-12

    def test_frozen_quadrature_oracle(self):
        # integral of the Beta(0.5, 2) density over [0, 0.2], computed by
        # adaptive quadrature (scipy.integrate.quad, abserr 9.4e-15).
        assert Beta(0.5, 2.0).cdf(0.2) == pytest.approx(0.6260990336999412, abs=1e-12)

    def test_endpoints_exact(self):
        assert Beta(2.0, 3.0).cdf(0.0) == 0.0
        assert Beta(2.0, 3.0).cdf(1.0) == 1.0
        assert math.copysign(1.0, Beta(2.0, 3.0).cdf(-0.0)) == 1.0

    def test_symmetry(self):
        for x in (0.1, 0.37, 0.9):
            assert Beta(2.0, 2.0).cdf(x) == pytest.approx(
                1.0 - Beta(2.0, 2.0).cdf(1.0 - x), abs=1e-14)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            Beta(2.0, 2.0).cdf(1.5)

    def test_fraction_past_its_iteration_cap_raises(self, monkeypatch):
        # The CLI maps ArithmeticError to exit 3; x = 0.3 takes the
        # symmetric branch, whose fraction needs more than one pass.
        monkeypatch.setattr(distributions, "_BETACF_MAX_ITER", 1)
        with pytest.raises(ArithmeticError, match="did not converge"):
            Beta(5.0, 50.0).cdf(0.3)
