import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sps

from stochbisect import theory
from stochbisect.distributions import (
    Bates,
    Beta,
    Distribution,
    DomainError,
    Empirical,
    NoDensityError,
    PointMass,
    Uniform,
    parse_spec,
)
from stochbisect.markov import GridCdf, ell_cdf_general
from stochbisect.seeding import substream
from step_oracle import drawn_step

DENSITY_KINDS = [Uniform(), Beta(2, 2), Beta(0.5, 2), Beta(2, 0.5), Bates(20)]
ALL_KINDS = DENSITY_KINDS + [PointMass(0.5), Empirical([0.2, 0.5, 0.7])]


def ell_cdf(dist, t):
    """H(t) for a uniform root: the root-law CDF on the identity grid."""
    return ell_cdf_general(GridCdf.identity(2), dist, t)


class TestConditionalExpectedLength:
    def test_uniform_center_and_edge(self):
        assert theory.conditional_expected_length(0.5, Uniform()) == pytest.approx(0.75, abs=1e-10)
        assert theory.conditional_expected_length(0.0, Uniform()) == pytest.approx(0.5, abs=1e-10)
        assert theory.conditional_expected_length(1.0, Uniform()) == pytest.approx(0.5, abs=1e-10)

    def test_uniform_closed_form_polynomial(self):
        for r0 in np.linspace(0, 1, 21):
            expected = (1 + 2 * r0 - 2 * r0 * r0) / 2
            assert theory.conditional_expected_length(float(r0), Uniform()) == pytest.approx(
                expected, abs=1e-10)

    def test_beta22_closed_form_polynomial(self):
        # (1/2 - 2 r^3 + 3/2 r^4) + (3 r^2 - 4 r^3 + 3/2 r^4)
        for r0 in (0.0, 0.2, 0.37, 0.5, 0.8, 1.0):
            expected = (0.5 - 2 * r0**3 + 1.5 * r0**4) + (3 * r0**2 - 4 * r0**3 + 1.5 * r0**4)
            assert theory.conditional_expected_length(r0, Beta(2, 2)) == pytest.approx(
                expected, abs=1e-9)

    def test_beta22_at_one_is_half(self):
        assert theory.conditional_expected_length(1.0, Beta(2, 2)) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("a, b, r0", [(1.5, 50, 1e-4), (1.5, 50, 1e-7), (50, 1.5, 1 - 1e-4)])
    def test_breakpoint_near_a_graded_endpoint_matches_quad(self, a, b, r0):
        # r0 is a panel edge a hair from the endpoint where the fractional
        # shape 1.5 needs graded panels; the grading must survive it.
        law = sps.beta(a, b)
        edges = [0.0, *sorted({r0, 0.3, 0.7}), 1.0]  # the mass sits within 0.3 of an end
        oracle = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            value, err = integrate.quad(lambda c: (c if lo >= r0 else 1.0 - c) * law.pdf(c),
                                        lo, hi, epsabs=1e-16, epsrel=1e-13, limit=200)
            assert err < 1e-14
            oracle += value
        assert abs(theory.conditional_expected_length(r0, Beta(a, b)) - oracle) < 1e-12

    def test_point_mass(self):
        # deterministic midpoint cut: factor 1/2 at the root, worse elsewhere
        assert theory.conditional_expected_length(0.5, PointMass(0.5)) == 0.5
        assert theory.conditional_expected_length(0.9, PointMass(0.5)) == 0.5


class TestContractionMoments:
    @pytest.mark.parametrize("dist,expected", [
        (Uniform(), 2 / 3),
        (Beta(2, 2), 0.6),
        (Beta(0.5, 2), 27 / 35),
        (Bates(20), 61 / 120),
        (PointMass(0.5), 0.5),
    ], ids=lambda v: str(v))
    def test_expected_contraction_closed_forms(self, dist, expected):
        assert theory.expected_contraction(dist) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("dist,expected", [
        (PointMass(0.5), 0.0),
        (Uniform(), 1 / 18),
        (Beta(2, 2), 0.04),
    ], ids=["point", "uniform", "beta22"])
    def test_contraction_variance_closed_forms(self, dist, expected):
        assert theory.contraction_variance(dist) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("dist", [Uniform(), Beta(2, 2)], ids=lambda d: d.spec)
    def test_variance_monte_carlo_cross_check(self, dist):
        rng = substream(0, "var-mc", dist.spec)
        roots = rng.uniform(size=1_000_000)
        ells, _ = drawn_step(roots, dist, rng)
        assert abs(ells.var() - theory.contraction_variance(dist)) < 5e-4

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec)
    def test_optimality_bounds(self, dist):
        q = theory.cut_concavity(dist)
        assert 0.0 <= q <= 0.25
        contraction = theory.expected_contraction(dist)
        assert 0.5 <= contraction <= 1.0
        assert theory.contraction_variance(dist) >= 0.0

    def test_half_attained_only_by_midpoint_mass(self):
        assert theory.expected_contraction(PointMass(0.5)) == 0.5
        for dist in DENSITY_KINDS + [PointMass(0.3), Empirical([0.2, 0.8])]:
            assert theory.expected_contraction(dist) > 0.5


class TestEllDistribution:
    def test_uniform_cdf_is_t_squared(self):
        for t in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert ell_cdf(Uniform(), t) == pytest.approx(t * t, abs=1e-10)

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec)
    def test_cdf_endpoints_and_monotone(self, dist):
        assert ell_cdf(dist, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert ell_cdf(dist, 1.0) == pytest.approx(1.0, abs=1e-12)
        ts = np.linspace(0, 1, 41)
        values = [ell_cdf(dist, float(t)) for t in ts]
        assert all(a <= b + 1e-10 for a, b in zip(values, values[1:]))

    def test_point_mass_step_law(self):
        assert ell_cdf(PointMass(0.5), 0.6) == pytest.approx(1.0, abs=1e-12)
        assert ell_cdf(PointMass(0.5), 0.4) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_pdf(self):
        assert theory.ell_pdf(Uniform(), 0.5) == pytest.approx(1.0, abs=1e-12)
        assert type(theory.ell_pdf(Uniform(), 0.5)) is float
        for t in (0.1, 0.7):
            assert theory.ell_pdf(Uniform(), t) == pytest.approx(2 * t, abs=1e-12)

    def test_beta22_pdf_closed_form(self):
        # h(t) = t * 6 [t(1-t) + (1-t)t] = 12 t^2 (1-t)
        for t in (0.2, 0.5, 0.8):
            assert theory.ell_pdf(Beta(2, 2), t) == pytest.approx(
                12 * t * t * (1 - t), abs=1e-12)
        assert theory.ell_pdf(Beta(2, 2), 0.5) == pytest.approx(1.5, abs=1e-12)

    def test_pdf_requires_density(self):
        with pytest.raises(NoDensityError):
            theory.ell_pdf(PointMass(0.5), 0.5)
        with pytest.raises(NoDensityError):
            theory.ell_pdf(Empirical([0.5]), 0.5)

    @pytest.mark.parametrize("dist", DENSITY_KINDS, ids=lambda d: d.spec)
    def test_pdf_normalization(self, dist):
        total, err = integrate.quad(
            lambda t: theory.ell_pdf(dist, t), 0.0, 1.0,
            points=[0.25, 0.5, 0.75], limit=200)
        assert err < 1e-9
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dist", [Uniform(), Beta(2, 2), Beta(0.5, 2)],
                             ids=lambda d: d.spec)
    def test_cdf_pdf_consistency(self, dist):
        # H(b) - H(a) equals the integral of h over [a, b].
        for a, b in [(0.1, 0.4), (0.3, 0.9)]:
            mass, err = integrate.quad(lambda t: theory.ell_pdf(dist, t), a, b, limit=200)
            assert err < 1e-7
            assert ell_cdf(dist, b) - ell_cdf(dist, a) == pytest.approx(
                mass, abs=1e-8)


class TestCrossValidationInvariants:
    @pytest.mark.parametrize("dist", DENSITY_KINDS, ids=lambda d: d.spec)
    def test_contraction_equals_mean_of_ell_law(self, dist):
        # E[ell] = int t dH(t) = 1 - int H(t) dt by parts.
        integral, err = integrate.quad(
            lambda t: ell_cdf(dist, t), 0.0, 1.0, limit=200)
        assert err < 1e-9
        assert 1.0 - integral == pytest.approx(
            theory.expected_contraction(dist), abs=1e-8)

    @pytest.mark.parametrize("dist", DENSITY_KINDS + [PointMass(0.5)],
                             ids=lambda d: d.spec)
    def test_contraction_equals_integrated_conditional(self, dist):
        integral, err = integrate.quad(
            lambda r: theory.conditional_expected_length(r, dist), 0.0, 1.0,
            limit=200)
        assert err < 1e-8
        assert integral == pytest.approx(theory.expected_contraction(dist), abs=1e-8)


class TestExpectedIntervalLength:
    def test_uniform_monte_carlo_cross_check(self):
        rng = substream(1, "len-mc")
        roots = rng.uniform(size=1_000_000)
        e1, roots = drawn_step(roots, Uniform(), rng)
        e2, _ = drawn_step(roots, Uniform(), rng)
        lengths = e1 * e2
        se = lengths.std() / math.sqrt(lengths.size)
        assert abs(lengths.mean() - 4 / 9) < 3 * se


# Laws whose K-cut rates have no closed form: a singular density, a
# piecewise-cubic one with knots at 1/3 and 2/3, and two atom sets.
K_CUT_LAWS = [Beta(0.5, 2), Bates(3), PointMass(0.3),
              parse_spec(f"empirical:{Path(__file__).parent / 'golden' / 'cuts.txt'}")]
# Every cut law of a golden report, and the equal-q pair bates:3 and beta:4,4.
GOLDEN_LAWS = K_CUT_LAWS + [Uniform(), Beta(2, 2), Beta(2, 0.5), Beta(2.5, 1.5),
                            Beta(0.5, 0.5), Beta(5, 50), Bates(5), Bates(20),
                            PointMass(0.5), Beta(4, 4)]


def _uniform_conditional(r0, k):
    """E[ell_K | r0] for K uniform cuts: (2 - r0^(K+1) - (1-r0)^(K+1)) / (K+1)."""
    return (2.0 - r0 ** (k + 1) - (1.0 - r0) ** (k + 1)) / (k + 1)


class TestKsection:
    def test_k1_coincides_with_single_cut(self):
        for r0 in (0.0, 0.25, 0.5, 0.9):
            assert theory._k_cut_length(Uniform(), 1, r0) == pytest.approx(
                theory.conditional_expected_length(r0, Uniform()), abs=1e-10)

    def test_expected_min_of_two_uniforms(self):
        # at r0 = 0 the kept gap is [0, min of the cuts]; E[min] = 1/3.
        assert theory.conditional_expected_length(0.0, Uniform(), 2) == pytest.approx(
            1 / 3, abs=1e-14)
        rng = substream(2, "minmc")
        mins = rng.uniform(size=(500_000, 2)).min(axis=1)
        assert abs(mins.mean() - 1 / 3) < 3 * mins.std() / math.sqrt(mins.size)

    def test_k3_center_value(self):
        assert theory.conditional_expected_length(0.5, Uniform(), 3) == pytest.approx(
            15 / 32, abs=1e-14)

    @pytest.mark.parametrize("k,expected", [(1, 2 / 3), (2, 0.5), (4, 1 / 3)])
    def test_ksection_expected(self, k, expected):
        assert theory.expected_contraction(Uniform(), k) == pytest.approx(expected, abs=1e-14)

    def test_uniform_cuts_match_the_closed_forms(self):
        for k in range(1, 11):
            assert abs(theory.expected_contraction(Uniform(), k) - 2 / (k + 2)) < 1e-14
            for r0 in (0.0, 0.1, 0.37, 0.5, 0.8, 1.0):
                assert abs(theory.conditional_expected_length(r0, Uniform(), k)
                           - _uniform_conditional(r0, k)) < 1e-14

    def test_beta22_two_cuts(self):
        assert abs(theory.expected_contraction(Beta(2, 2), 2) - 31 / 70) < 1e-12

    def test_conditional_integrates_to_expected(self):
        # Gauss-Legendre nodes: the conditional is a degree K+1 polynomial,
        # so a 16-point rule is exact for every K tested.
        nodes, weights = np.polynomial.legendre.leggauss(16)
        r = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        for k in range(1, 11):
            integral = float(w @ [theory.conditional_expected_length(float(x), Uniform(), k)
                                  for x in r])
            assert integral == pytest.approx(theory.expected_contraction(Uniform(), k), abs=1e-10)

    def test_invalid_k(self):
        # inf is not an ArithmeticError (OverflowError) but the same config error.
        for k in (0, -1, 2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="whole number of cuts"):
                theory.expected_contraction(Uniform(), k)
            with pytest.raises(ValueError, match="whole number of cuts"):
                theory.conditional_expected_length(0.5, Uniform(), k)


class TestKCutLaws:
    @pytest.mark.parametrize("law", K_CUT_LAWS, ids=lambda d: d.spec)
    @pytest.mark.parametrize("k", [2, 3])
    def test_rates_match_population_step(self, law, k):
        rng = substream(3, "k-cut-mc", law.spec, k)
        chains = 200_000
        cases = [(theory.expected_contraction(law, k), rng.uniform(size=chains))]
        cases += [(theory.conditional_expected_length(r0, law, k), np.full(chains, r0))
                  for r0 in (0.3, 0.31, 0.7)]  # 0.3 and 0.31 are atoms of two laws
        for value, roots in cases:
            ells, _ = drawn_step(roots, law, rng, k)
            se = float(ells.std()) / math.sqrt(chains)
            assert abs(float(ells.mean()) - value) <= 4.0 * se + 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_root_on_the_atom_keeps_the_lower_gap(self, k):
        # A cut equal to the root keeps [0, c]; every other root keeps the gap
        # on its side of the midpoint cut.
        for r0 in (0.5, 0.9):
            assert theory.conditional_expected_length(r0, PointMass(0.5), k) == pytest.approx(
                0.5, abs=1e-14)
        assert theory.conditional_expected_length(0.3, PointMass(0.3), k) == pytest.approx(
            0.3, abs=1e-14)

    @pytest.mark.parametrize("law", K_CUT_LAWS, ids=lambda d: d.spec)
    @pytest.mark.parametrize("k", [2, 3])
    def test_conditional_integrates_to_expected(self, law, k):
        # r = u^2 smooths the singular end of beta:0.5,2; panel edges at the
        # knots and atoms leave a smooth integrand on every panel.
        knots = np.sqrt(law._kinks()[0])
        edges = np.unique(np.concatenate((np.linspace(0.0, 1.0, 5), knots)))
        nodes, weights = np.polynomial.legendre.leggauss(16)
        integral = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            u = lo + 0.5 * (hi - lo) * (nodes + 1.0)
            values = [theory.conditional_expected_length(x * x, law, k) for x in u]
            integral += 0.5 * (hi - lo) * float((weights * 2.0 * u) @ values)
        assert abs(integral - theory.expected_contraction(law, k)) < 1e-10

    @pytest.mark.parametrize("law", GOLDEN_LAWS, ids=lambda d: d.spec)
    def test_one_cut_matches_the_closed_forms(self, law):
        assert abs(theory._k_cut_length(law, 1) - theory.expected_contraction(law)) < 1e-12
        for r0 in np.linspace(0.0, 1.0, 11):
            assert abs(theory._k_cut_length(law, 1, r0)
                       - theory.conditional_expected_length(r0, law)) < 1e-12

    def test_two_cut_rate_is_not_a_function_of_q(self):
        # bates:3 and beta:4,4 share q = 2/9, and so E[ell_1] = 5/9.
        bates, beta = Bates(3), Beta(4, 4)
        assert theory.cut_concavity(bates) == pytest.approx(theory.cut_concavity(beta), abs=1e-15)
        assert theory.expected_contraction(bates, 2) - theory.expected_contraction(beta, 2) > 6e-4


class TestArrayConditional:
    @pytest.mark.parametrize("law", GOLDEN_LAWS, ids=lambda d: d.spec)
    def test_array_matches_the_scalar_loop(self, law):
        r0 = np.linspace(0.0, 1.0, 2049)
        loop = [theory.conditional_expected_length(x, law) for x in r0.tolist()]
        assert np.max(np.abs(theory.conditional_expected_length(r0, law) - loop)) < 1e-14

    @pytest.mark.parametrize("k", [1, 3])
    def test_result_keeps_the_input_shape(self, k):
        law = Beta(0.5, 2)
        r0 = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        values = theory.conditional_expected_length(r0, law, k)
        assert values.shape == (3, 4)
        assert values.tolist() == [[theory.conditional_expected_length(x, law, k) for x in row]
                                   for row in r0.tolist()]
        zero_d = theory.conditional_expected_length(np.array(0.3), law, k)
        assert type(zero_d) is float and zero_d == theory.conditional_expected_length(0.3, law, k)

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5])
    def test_a_point_outside_the_unit_interval_raises(self, bad):
        for k in (1, 3):
            with pytest.raises(DomainError, match="r0 must be in"):
                theory.conditional_expected_length(np.array([0.2, bad, 0.7]), Uniform(), k)

    def test_theory_report_series_is_one_quadrature_call(self, monkeypatch):
        from stochbisect.experiments import run_theory_report

        calls, inside = [], []
        quadrature, conditional = Distribution.quadrature, theory.conditional_expected_length

        def counting(self, breakpoints=()):
            calls.append(breakpoints)
            return quadrature(self, breakpoints)

        def watched(*args, **kwargs):
            before = len(calls)
            out = conditional(*args, **kwargs)
            inside.append(len(calls) - before)
            return out

        monkeypatch.setattr(Distribution, "quadrature", counting)
        monkeypatch.setattr(theory, "conditional_expected_length", watched)
        report = run_theory_report("bates:20")
        assert inside == [1]
        assert report.series["conditional_expected_length"][1].shape == (11, 2)


@pytest.mark.parametrize("spec", ["beta:1e4,1", "beta:1e4,2", "beta:5000,50", "beta:3000,1"])
def test_concentrated_beta_conditional_matches_scipy(spec):
    # Narrower than a panel: without edges of their own these laws read a
    # conditional off by up to 9e-3, and beta:1e4,2 above 1.
    law = parse_spec(spec)
    oracle = sps.beta(law.a, law.b).expect(lambda c: np.where(c >= 0.3, c, 1.0 - c), points=[0.3])
    assert abs(theory.conditional_expected_length(0.3, law) - oracle) < 1e-9
    assert np.all(theory.conditional_expected_length(np.linspace(0.0, 1.0, 11), law) <= 1.0)
