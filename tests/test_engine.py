import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochbisect.distributions import Bates, Beta, DomainError, PointMass, Uniform
from stochbisect.engine import (
    BracketError,
    CutRedrawError,
    NonFiniteValueError,
    bisection_run,
    draw_cut,
    multisection_population_step,
    multisection_step,
    population_step,
    skewed_dyadic,
)
from stochbisect.seeding import substream
from stochbisect.stats import bootstrap_mean_ci, ks_critical_value, ks_statistic


class TestSkewedDyadic:
    def test_classical_dyadic(self):
        assert skewed_dyadic(0.5, 0.25) == 0.5

    def test_upper_branch(self):
        assert skewed_dyadic(0.3, 0.65) == pytest.approx(0.5, abs=1e-15)

    def test_tie_takes_first_branch(self):
        assert skewed_dyadic(0.3, 0.3) == 1.0

    def test_degenerate_cuts_rejected(self):
        for c in (0.0, 1.0):
            with pytest.raises(DomainError):
                skewed_dyadic(c, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(min_value=1e-9, max_value=1 - 1e-9),
           r=st.floats(min_value=0.0, max_value=1.0))
    def test_maps_into_unit_interval(self, c, r):
        assert 0.0 <= skewed_dyadic(c, r) <= 1.0


class TestDrawCut:
    def test_endpoint_law_errors_after_redraw_cap(self):
        with pytest.raises(CutRedrawError):
            draw_cut(PointMass(0.0), substream(0, "redraw"))

    def test_interior_law_ok(self):
        c = draw_cut(Uniform(), substream(0, "ok"))
        assert 0.0 < c < 1.0


class TestBisectionRun:
    def test_deterministic_27_iterations(self):
        # A dyadic root would be hit exactly; 0.3 never is.
        trace = bisection_run(lambda x: x - 0.3, 0.0, 1.0, PointMass(0.5),
                              1e-8, 1000, substream(0, "det"))
        assert trace.iterations == 27
        assert trace.terminated_by == "tolerance"

    def test_bracketing_invariant(self):
        f = lambda x: x - 0.3
        trace = bisection_run(f, 0.0, 1.0, Uniform(), 1e-10, 200,
                              substream(1, "bracket"), root=0.3)
        for rec in trace.records:
            assert rec.a <= 0.3 <= rec.b
            assert f(rec.a) * f(rec.b) <= 0.0
            assert rec.a <= rec.cut <= rec.b
            assert 0.0 <= rec.r_normalized <= 1.0

    def test_interval_nesting(self):
        trace = bisection_run(lambda x: x - 0.7, 0.0, 1.0, Beta(2, 2),
                              1e-9, 100, substream(2, "nest"))
        for prev, cur in zip(trace.records, trace.records[1:]):
            assert prev.a <= cur.a and cur.b <= prev.b

    def test_telescoping_product(self):
        trace = bisection_run(lambda x: x - 0.42, 0.25, 1.75, Uniform(),
                              1e-12, 200, substream(3, "tele"))
        prod = 1.0
        for rec in trace.records:
            prod *= rec.ell
            assert rec.L == pytest.approx(prod, rel=1e-12)
            assert rec.L == pytest.approx((rec.b - rec.a) / 1.5, rel=1e-12)
        # log-sum companion tracks the same lengths
        assert trace.log_L[-1] == pytest.approx(math.log(trace.records[-1].L), rel=1e-9)

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            bisection_run(lambda x: x + 2.0, 0.0, 1.0, Uniform(), 1e-8, 10,
                          substream(4, "bad"))
        with pytest.raises(BracketError):
            bisection_run(lambda x: x - 0.5, 1.0, 0.0, Uniform(), 1e-8, 10,
                          substream(4, "bad"))

    def test_mean_scaling_ci_contains_two_thirds(self):
        # fixed root 0.3, uniform cuts, 500 runs x 30 iterations
        ells = []
        for m in range(500):
            rng = substream(5, "meanell", m)
            trace = bisection_run(lambda x: x - 0.3, 0.0, 1.0, Uniform(),
                                  1e-15, 30, rng)
            ells.extend(rec.ell for rec in trace.records)
        ci = bootstrap_mean_ci(ells, rng=substream(5, "meanell", "boot"))
        assert ci.contains(2 / 3)

    def test_max_iterations_termination(self):
        trace = bisection_run(lambda x: x - 0.5, 0.0, 1.0, Uniform(), 1e-300, 5,
                              substream(6, "cap"))
        assert trace.iterations == 5
        assert trace.terminated_by == "max_iterations"

    def test_identical_seeds_identical_traces(self):
        runs = [
            bisection_run(lambda x: x - 0.3, 0.0, 1.0, Beta(2, 2), 1e-10, 50,
                          substream(7, "det"))
            for _ in range(2)
        ]
        assert runs[0].records == runs[1].records

    def test_tiny_scale_sign_test_does_not_underflow(self):
        # fa * fc underflows to 0 for every cut; the bracket must survive.
        trace = bisection_run(lambda x: 1e-200 * (x - 0.3), 0.0, 1.0, Uniform(),
                              1e-10, 200, substream(8, "tiny"), root=0.3)
        assert trace.terminated_by == "tolerance"
        for rec in trace.records:
            assert rec.a <= 0.3 <= rec.b

    def test_cut_on_root_stops_exactly(self):
        trace = bisection_run(lambda x: x - 0.5, 0.0, 1.0, PointMass(0.5),
                              1e-8, 100, substream(8, "exact"), root=0.5)
        assert trace.terminated_by == "exact_root"
        last = trace.records[-1]
        assert (trace.iterations, last.a, last.b, last.cut) == (1, 0.5, 0.5, 0.5)
        assert (last.ell, last.L, trace.log_L[-1]) == (0.0, 0.0, -math.inf)

    def test_exact_root_after_several_steps(self):
        # Point-mass cuts on [0, 1] visit 0.5, 0.25, ... and hit 0.25 exactly.
        trace = bisection_run(lambda x: x - 0.25, 0.0, 1.0, PointMass(0.5),
                              1e-8, 100, substream(8, "exact2"))
        assert trace.terminated_by == "exact_root"
        assert [rec.cut for rec in trace.records] == [0.5, 0.25]
        assert trace.records[-1].a == trace.records[-1].b == 0.25

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_raises(self, bad):
        f = lambda x: bad if x == 0.5 else x - 0.3
        # at the first cut, and at a starting endpoint
        with pytest.raises(NonFiniteValueError):
            bisection_run(f, 0.0, 1.0, PointMass(0.5), 1e-8, 100, substream(8, "nan"))
        with pytest.raises(NonFiniteValueError):
            bisection_run(f, 0.0, 0.5, Uniform(), 1e-8, 100, substream(8, "nan"))

    def test_zero_at_endpoint_is_not_a_bracket(self):
        with pytest.raises(BracketError):
            bisection_run(lambda x: x, 0.0, 1.0, Uniform(), 1e-8, 10, substream(8, "zero"))


class TestPopulationStep:
    def test_matches_skewed_dyadic_on_replayed_cuts(self):
        m = 2_000
        cuts = Uniform().sample(substream(9, "replay"), size=m)
        assert np.all((cuts > 0.0) & (cuts < 1.0))
        roots = substream(9, "roots").uniform(size=m)
        roots[::5] = cuts[::5]  # ties c == r keep [0, c]
        roots[1], roots[2] = 0.0, 1.0
        ells, new_roots = population_step(roots, Uniform(), substream(9, "replay"))
        for c, r, ell, r_next in zip(cuts, roots, ells, new_roots):
            assert ell == (c if c >= r else 1.0 - c)
            assert r_next == skewed_dyadic(c, r)
        assert np.all(ells[::5] == cuts[::5]) and np.all(new_roots[::5] == 1.0)

    def test_tiny_cut_does_not_warn(self):
        # r / c overflows for the subnormal cut, but only where c < r, whose
        # branch is discarded; the suite turns any warning into an error.
        c = 1e-310
        roots = np.array([0.0, 1e-320, 0.5, 1.0])
        ells, new_roots = population_step(roots, PointMass(c), substream(9, "tiny"))
        for r, ell, r_next in zip(roots, ells, new_roots):
            assert ell == (c if c >= r else 1.0 - c)
            assert r_next == skewed_dyadic(c, r)

    def test_beta22_cut_mean_scaling(self):
        rng = substream(3, "beta22")
        roots = rng.uniform(size=10_000)
        total = []
        for _ in range(30):
            ells, roots = population_step(roots, Beta(2, 2), rng)
            total.append(ells.mean())
        assert 0.595 <= np.mean(total) <= 0.605


class TestMultisection:
    def test_k1_matches_single_cut_step(self):
        # With one cut the gap bracketing reduces to the basic rescaling.
        for seed in range(20):
            r = float(substream(seed, "r").uniform())
            c = float(substream(seed, "c").uniform())
            ell, r_next = multisection_step(r, 1, substream(seed, "c"))
            assert ell == pytest.approx(c if c > r else 1 - c, abs=1e-15)
            assert r_next == pytest.approx(skewed_dyadic(c, r), abs=1e-12)

    @pytest.mark.parametrize("k,lo,hi", [(2, 0.495, 0.505), (3, 0.395, 0.405)])
    def test_mean_gap_against_theory(self, k, lo, hi):
        rng = substream(1, "gap", k)
        roots = rng.uniform(size=1_000_000)
        ells, _ = multisection_population_step(roots, k, rng)
        assert lo <= ells.mean() <= hi

    def test_population_step_matches_scalar(self):
        k = 3
        roots = substream(2, "rs").uniform(size=50)
        pop_ells, pop_roots = multisection_population_step(roots, k, substream(2, "cuts"))
        rng = substream(2, "cuts")
        for i, r in enumerate(roots):
            cuts = np.sort(rng.uniform(size=k))
            j = int(np.searchsorted(cuts, r, side="right"))
            lo = 0.0 if j == 0 else cuts[j - 1]
            hi = 1.0 if j == k else cuts[j]
            assert pop_ells[i] == pytest.approx(hi - lo, abs=1e-15)
            assert pop_roots[i] == pytest.approx((r - lo) / (hi - lo), abs=1e-12)

    def test_rejects_no_cuts(self):
        with pytest.raises(ValueError):
            multisection_step(0.5, 0, substream(3, "k0"))

    def test_gap_brackets_root(self):
        rng = substream(4, "brk")
        for _ in range(200):
            r = float(rng.uniform())
            ell, r_next = multisection_step(r, 4, rng)
            assert 0.0 < ell <= 1.0
            assert 0.0 <= r_next <= 1.0


class TestStationarityAndIndependence:
    def test_uniform_stationary_through_ten_iterations(self):
        m = 10_000
        rng = substream(0, "stat10")
        roots = rng.uniform(size=m)
        crit = ks_critical_value(m, alpha=0.01)
        for _ in range(10):
            _, roots = population_step(roots, Beta(2, 2), rng)
            assert ks_statistic(roots) < crit

    def test_multisection_stationary(self):
        m = 10_000
        rng = substream(1, "statk")
        roots = rng.uniform(size=m)
        crit = ks_critical_value(m, alpha=0.01)
        for _ in range(10):
            _, roots = multisection_population_step(roots, 3, rng)
            assert ks_statistic(roots) < crit

    @pytest.mark.parametrize("cut", [Uniform(), Beta(2, 2), Bates(20)],
                             ids=lambda d: d.spec)
    def test_pairwise_decorrelation(self, cut):
        m = 10_000
        rng = substream(2, "decorr", cut.spec)
        roots = rng.uniform(size=m)
        ells = np.empty((6, m))
        for n in range(6):
            ells[n], roots = population_step(roots, cut, rng)
        corr = np.corrcoef(ells)
        off = corr[~np.eye(6, dtype=bool)]
        assert np.max(np.abs(off)) < 4.0 / math.sqrt(m)

    def test_root_independent_of_scaling_factor(self):
        # P[r1 < t, ell1 < u] factorizes; check on a coarse grid.
        m = 200_000
        rng = substream(3, "indep")
        roots = rng.uniform(size=m)
        ells, r1 = population_step(roots, Beta(2, 2), rng)
        for t in (0.3, 0.7):
            for u in (0.5, 0.8):
                joint = np.mean((r1 < t) & (ells < u))
                product = np.mean(r1 < t) * np.mean(ells < u)
                assert abs(joint - product) < 5e-3
