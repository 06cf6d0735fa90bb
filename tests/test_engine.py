import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from stochbisect import stats as stats_module
from stochbisect.distributions import Bates, Beta, DomainError, Empirical, PointMass, Uniform
from stochbisect.engine import (
    _PREFETCH_MIN_CUTS,
    BracketError,
    CutRedrawError,
    IterationRecord,
    NonFiniteValueError,
    _draw_cuts,
    _evolve,
    _sampled_cuts,
    bisection_run,
    draw_cut,
    multisection_step,
    population_step,
)
from stochbisect.experiments import (
    run_correlation_experiment,
    run_decay_experiment,
    run_stationarity_experiment,
)
from stochbisect.seeding import substream
from stochbisect.stats import bootstrap_mean_ci, ks_critical_value, ks_statistic
from step_oracle import (
    drawn_step,
    k_cut_step,
    reference_bisection_run,
    reference_multisection_step,
    skewed_dyadic,
)
from thread_probe import codes_called_off_thread, public_code


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


class ScriptedLaw:
    """A cut law that plays back a fixed sequence of draws, honouring `size`."""

    spec = "scripted"

    def __init__(self, values):
        self.values = list(values)
        self.draws = 0

    def sample(self, rng, size=None):
        start = self.draws
        self.draws += 1 if size is None else size
        return self.values[start] if size is None else np.array(self.values[start:self.draws])


ONE_CUT = {"draw_cut": draw_cut,
           "population": lambda law, rng: float(_draw_cuts(law, rng, 1)[0])}


class TestDrawCut:
    def test_endpoint_law_errors_after_redraw_cap(self):
        with pytest.raises(CutRedrawError):
            draw_cut(PointMass(0.0), substream(0, "redraw"))

    @pytest.mark.parametrize("draw", ONE_CUT.values(), ids=ONE_CUT.keys())
    @pytest.mark.parametrize("script, cut, draws", [
        ([0.0, 1.0, 0.3], 0.3, 3),
        ([math.nan, 0.3], 0.3, 2),
        ([0.0] * 100 + [0.4], 0.4, 101),  # the last redraw is checked
        ([0.0, 1.0] * 51, None, 101),
    ], ids=["third", "nan", "last-redraw", "all-endpoints"])
    def test_first_interior_of_1_plus_100_draws(self, draw, script, cut, draws):
        # A lone cut takes the same rule on the scalar and the population path.
        law = ScriptedLaw(script)
        if cut is None:
            with pytest.raises(CutRedrawError):
                draw(law, substream(0, "scripted"))
        else:
            assert draw(law, substream(0, "scripted")) == cut
        assert law.draws == draws

    @pytest.mark.parametrize("law", [Uniform(), Beta(0.5, 2), Bates(20), PointMass(0.3),
                                     Empirical([0.1, 0.2, 0.9])], ids=lambda d: d.spec)
    def test_one_element_draw_takes_the_scalar_stream(self, law):
        # draw_cut's redraws use size 1: the same values as scalar draws.
        scalar, sized = substream(0, "size-1"), substream(0, "size-1")
        for _ in range(20):
            assert float(law.sample(sized, size=1)[0]) == float(law.sample(scalar))

    @pytest.mark.parametrize("law", [Beta(0.001, 0.001), Empirical([0.0, 0.4, 1.0])],
                             ids=["beta:0.001,0.001", "empirical-endpoints"])
    def test_redraws_keep_the_scalar_rejection_stream(self, law):
        # Laws that hit 0 or 1 often: each cut is the first interior scalar draw.
        rng, reference = substream(0, "stream"), substream(0, "stream")
        endpoints = 0
        for _ in range(200):
            c = float(law.sample(reference))
            while not 0.0 < c < 1.0:
                endpoints += 1
                c = float(law.sample(reference))
            assert draw_cut(law, rng) == c
        assert endpoints > 20

    def test_interior_law_ok(self):
        c = draw_cut(Uniform(), substream(0, "ok"))
        assert 0.0 < c < 1.0


class TestBisectionRun:
    def test_deterministic_27_iterations(self):
        # A dyadic root would be hit exactly; 0.3 never is.
        trace = bisection_run(lambda x: x - 0.3, 0.0, 1.0, PointMass(0.5),
                              1e-8, 1000, substream(0, "det"))
        assert len(trace) == 27
        assert trace.terminated_by == "tolerance"

    def test_bracketing_invariant(self):
        f = lambda x: x - 0.3
        trace = bisection_run(f, 0.0, 1.0, Uniform(), 1e-10, 200,
                              substream(1, "bracket"))
        for rec in trace.records:
            assert rec.a <= 0.3 <= rec.b
            assert f(rec.a) * f(rec.b) <= 0.0
            assert rec.a <= rec.cut <= rec.b

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

    def test_records_are_immutable_and_read_by_name(self):
        # A cut at 1/2 halves the bracket: ell is 1/2 and L is 2^-n exactly.
        trace = bisection_run(lambda x: x - 0.3, 0.0, 1.0, PointMass(0.5),
                              1e-8, 1000, substream(0, "det"))
        rec = trace.records[0]
        with pytest.raises(AttributeError):
            rec.ell = 0.25
        assert (rec.n, rec.a, rec.b, rec.cut, rec.ell, rec.L) == (1, 0.0, 0.5, 0.5, 0.5, 0.5)
        assert np.array_equal(trace.ells(), np.full(27, 0.5))
        assert trace.records[-1].L == 2.0 ** -27
        assert trace.records[-1].n == 27

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            bisection_run(lambda x: x + 2.0, 0.0, 1.0, Uniform(), 1e-8, 10,
                          substream(4, "bad"))
        with pytest.raises(BracketError):
            bisection_run(lambda x: x - 0.5, 1.0, 0.0, Uniform(), 1e-8, 10,
                          substream(4, "bad"))

    @pytest.mark.parametrize("a, b", [(-1e308, 1e308), (0.0, math.inf), (-math.inf, 1.0),
                                      (-math.inf, math.inf)])
    def test_non_finite_width_is_not_a_bracket(self, a, b):
        # b - a is inf, so a + (b - a) * c is inf or NaN: the cut leaves [a, b].
        with pytest.raises(BracketError, match="finite width"):
            bisection_run(lambda x: math.tanh(x - 0.5), a, b, Uniform(), 1e-10, 100,
                          substream(4, "wide"))

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
        assert len(trace) == 5
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
                              1e-10, 200, substream(8, "tiny"))
        assert trace.terminated_by == "tolerance"
        for rec in trace.records:
            assert rec.a <= 0.3 <= rec.b

    def test_sign_test_ignores_the_scale_of_f(self):
        # fa * fc overflows to inf at 1e200 and underflows to 0 at 1e-200.
        traces = [
            bisection_run(lambda x, s=scale: s * (x - 0.3), 0.0, 1.0, Uniform(),
                          1e-10, 200, substream(8, "scale"))
            for scale in (1e200, 1e-200, 1.0)
        ]
        assert traces[0].records == traces[1].records == traces[2].records
        assert traces[0].terminated_by == "tolerance"

    def test_cut_on_root_stops_exactly(self):
        trace = bisection_run(lambda x: x - 0.5, 0.0, 1.0, PointMass(0.5),
                              1e-8, 100, substream(8, "exact"))
        assert trace.terminated_by == "exact_root"
        last = trace.records[-1]
        assert (len(trace), last.a, last.b, last.cut) == (1, 0.5, 0.5, 0.5)
        assert (last.ell, last.L) == (0.0, 0.0)

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

    def test_non_finite_message_prints_plain_floats(self):
        with np.errstate(divide="ignore"), pytest.raises(
                NonFiniteValueError, match=r"^f\(0\.0\) = -inf is not finite$"):
            bisection_run(np.log, 0, 2, Uniform(), 1e-8, 100, substream(8, "log"))

    def test_zero_at_endpoint_is_not_a_bracket(self):
        with pytest.raises(BracketError):
            bisection_run(lambda x: x, 0.0, 1.0, Uniform(), 1e-8, 10, substream(8, "zero"))

    def test_nan_tol_raises(self):
        # b - a >= nan is false, so a NaN tol would end the run at once.
        with pytest.raises(ValueError, match="tol"):
            bisection_run(lambda x: x - 0.3, 0.0, 1.0, Uniform(), math.nan, 10,
                          substream(8, "nan-tol"))


class TestScalarStepsMatchTheReference:
    """The scalar steps give the frozen references' records, stops, errors and draws."""

    STREAMS = 200
    LAWS = {
        "uniform": Uniform(),
        "beta:2,2": Beta(2, 2),
        "bates:20": Bates(20),
        "beta:0.003,0.003": Beta(0.003, 0.003),  # most draws land on 0 or 1: redrawn
        "empirical": Empirical(np.r_[0.0, 1.0, substream(9, "emp").beta(2, 5, size=40)]),
        "point:0.5": PointMass(0.5),  # stops at dyadic roots
    }

    @staticmethod
    def _problem(i: int):
        """(f, a, b) for stream i: shifted lines with dyadic and drawn roots, cos, a cubic."""
        if i % 4 == 0:
            return np.cos, 1.0, 2.0
        if i % 4 == 1:
            return (lambda x: x ** 3 - 2.0 * x - 5.0), 2.0, 3.0
        root = (1 + 2 * (i % 16)) / 32 if i % 4 == 2 else float(substream(9, "root", i).random())
        return (lambda x: x - root), 0.0, 1.0

    @staticmethod
    def _bits(trace):
        return [tuple(map(repr, rec)) for rec in trace.records], trace.terminated_by

    @pytest.mark.parametrize("spec", list(LAWS))
    def test_bisection_run_records(self, spec):
        law, stops = self.LAWS[spec], set()
        for i in range(self.STREAMS):
            f, a, b = self._problem(i)
            got_rng, want_rng = substream(9, spec, i), substream(9, spec, i)
            got = bisection_run(f, a, b, law, 1e-12, 60, got_rng)
            want = reference_bisection_run(f, a, b, law, 1e-12, 60, want_rng)
            assert all(type(rec) is IterationRecord for rec in got.records)
            assert self._bits(got) == self._bits(want), (spec, i)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            stops.add(got.terminated_by)
        if spec == "point:0.5":
            assert stops == {"exact_root", "tolerance"}

    @pytest.mark.parametrize("k", range(1, 7))
    def test_multisection_step(self, k):
        for i in range(self.STREAMS):
            got_rng, want_rng = substream(9, "ms", k, i), substream(9, "ms", k, i)
            # Every fourth chain starts on its first cut: the tie c == r keeps [lo, c].
            r = float(substream(9, "ms", k, i).random()) if i % 4 == 0 else i / (self.STREAMS - 1)
            s = r
            for _ in range(5):
                got = multisection_step(r, k, got_rng)
                want = reference_multisection_step(s, k, want_rng)
                assert tuple(map(repr, got)) == tuple(map(repr, want)), (k, i)
                r, s = got[1], want[1]
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @staticmethod
    def _error(step, *args):
        with pytest.raises(Exception) as info:
            step(*args)
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("f, a, b, law", [
        (lambda x, bad: bad if x == 0.5 else x - 0.3, 0.0, 1.0, PointMass(0.5)),  # at a cut
        (lambda x, bad: bad if abs(x - 0.3) < 1e-3 else x - 0.3, 0.0, 1.0, Uniform()),  # later
        (lambda x, bad: bad if x == 0.0 else x - 0.3, 0.0, 1.0, Uniform()),  # at a
        (lambda x, bad: bad if x == 1.0 else x - 0.3, 0.0, 1.0, Uniform()),  # at b
    ])
    def test_non_finite_f_errors(self, f, a, b, law, bad):
        g = lambda x: f(x, bad)
        got = self._error(bisection_run, g, a, b, law, 1e-12, 60, substream(9, "nan"))
        want = self._error(reference_bisection_run, g, a, b, law, 1e-12, 60, substream(9, "nan"))
        assert got == want
        assert got[0] is NonFiniteValueError

    @pytest.mark.parametrize("f, a, b, tol", [
        (lambda x: x + 2.0, 0.0, 1.0, 1e-8),  # no sign change
        (lambda x: x, 0.0, 1.0, 1e-8),  # zero at a
        (lambda x: x - 1.0, 0.0, 1.0, 1e-8),  # zero at b
        (lambda x: x - 0.5, 1.0, 0.0, 1e-8),  # a > b
        (lambda x: x - 0.5, 0.5, 0.5, 1e-8),  # a == b
        (lambda x: math.tanh(x), -1e308, 1e308, 1e-8),  # width overflows
        (lambda x: x - 0.5, 0.0, math.inf, 1e-8),
        (lambda x: x - 0.3, 0.0, 1.0, math.nan),  # NaN tol
    ])
    def test_bad_bracket_errors(self, f, a, b, tol):
        got = self._error(bisection_run, f, a, b, Uniform(), tol, 60, substream(9, "bad"))
        want = self._error(reference_bisection_run, f, a, b, Uniform(), tol, 60,
                           substream(9, "bad"))
        assert got == want

    @pytest.mark.parametrize("r, k", [(0.5, 0), (0.5, -1), (1.5, 2), (-0.1, 2), (math.nan, 2)])
    def test_multisection_errors(self, r, k):
        got = self._error(multisection_step, r, k, substream(9, "bad"))
        assert got == self._error(reference_multisection_step, r, k, substream(9, "bad"))


class TestPopulationStep:
    def test_matches_skewed_dyadic_on_replayed_cuts(self):
        m = 2_000
        cuts = Uniform().sample(substream(9, "replay"), size=m)
        assert np.all((cuts > 0.0) & (cuts < 1.0))
        roots = substream(9, "roots").uniform(size=m)
        roots[::5] = cuts[::5]  # ties c == r keep [0, c]
        roots[1], roots[2] = 0.0, 1.0
        ells, new_roots = population_step(roots, cuts[None])
        for c, r, ell, r_next in zip(cuts, roots, ells, new_roots):
            assert ell == (c if c >= r else 1.0 - c)
            assert r_next == skewed_dyadic(c, r)
        assert np.all(ells[::5] == cuts[::5]) and np.all(new_roots[::5] == 1.0)

    @pytest.mark.parametrize("bad", [1.5, -0.2, math.nan], ids=["above", "below", "nan"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_root_outside_unit_interval_rejected(self, bad, k):
        # multisection_step raises DomainError for the same root.
        roots = np.array([0.3, bad, 0.7])
        with pytest.raises(DomainError):
            population_step(roots, np.full((k, 3), 0.5))

    def test_tiny_cut_does_not_warn(self):
        # r / c overflows for the subnormal cut, but only where c < r, whose
        # branch is discarded; the suite turns any warning into an error.
        c = 1e-310
        roots = np.array([0.0, 1e-320, 0.5, 1.0])
        ells, new_roots = population_step(roots, np.full((1, 4), c))
        for r, ell, r_next in zip(roots, ells, new_roots):
            assert ell == (c if c >= r else 1.0 - c)
            assert r_next == skewed_dyadic(c, r)

    @pytest.mark.parametrize("law", [Uniform(), Beta(2, 2), PointMass(0.375)],
                             ids=lambda law: law.spec)
    @pytest.mark.parametrize("shape", [(600,), (20, 30), (100_000,)], ids=["1d", "2d", "100k"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_gap_matches_the_masked_reduction(self, k, shape, law):
        # The running in-place max/min over cut rows gives the masked
        # reduction's gap bit for bit, ties c == r and end roots included.
        cuts = law.sample(substream(4, "gap", k), size=k * math.prod(shape))
        assert np.all((cuts > 0.0) & (cuts < 1.0))  # cuts the step accepts
        cuts = cuts.reshape(k, *shape)
        roots = substream(4, "gap-roots", k).uniform(size=shape)
        flat = roots.reshape(-1)
        flat[::5] = cuts[0].reshape(-1)[::5]
        flat[2::5] = cuts[-1].reshape(-1)[2::5]
        flat[1], flat[3] = 0.0, 1.0
        ells, new_roots = population_step(roots, cuts)
        want_ells, want_roots = k_cut_step(roots, cuts)
        assert ells.shape == new_roots.shape == shape
        assert np.array_equal(ells, want_ells)
        assert np.array_equal(new_roots, want_roots)

    def test_beta22_cut_mean_scaling(self):
        rng = substream(3, "beta22")
        roots = rng.uniform(size=10_000)
        total = []
        for _ in range(30):
            ells, roots = drawn_step(roots, Beta(2, 2), rng)
            total.append(ells.mean())
        assert 0.595 <= np.mean(total) <= 0.605

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.2, math.nan],
                             ids=["zero", "one", "above", "below", "nan"])
    def test_cut_outside_open_interval_rejected(self, bad):
        cuts = np.full((2, 3), 0.5)
        cuts[1, 2] = bad
        with pytest.raises(DomainError, match="cuts must lie in"):
            population_step(np.array([0.3, 0.5, 0.7]), cuts)

    @pytest.mark.parametrize("shape", [(1, 2), (1, 3, 1), (3,), ()], ids=str)
    def test_cut_rows_of_another_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="at least one cut row of shape"):
            population_step(np.array([0.3, 0.5, 0.7]), np.full(shape, 0.5))

    def test_empty_population_steps(self):
        ells, roots = population_step(np.empty(0), np.empty((2, 0)))
        assert ells.shape == roots.shape == (0,)


# Half of these Empirical and beta:0.003,0.003 draws land on 0 or 1 and are redrawn.
_BLOCK_LAWS = [Empirical([0.0, 0.25, 0.5, 1.0]), Bates(20), Beta(0.003, 0.003)]


class TestCutBlocks:
    """The population experiments' steps, their cut blocks drawn one step ahead past a size."""

    @pytest.mark.parametrize("size", [_PREFETCH_MIN_CUTS - 1, _PREFETCH_MIN_CUTS],
                             ids=["inline", "prefetched"])
    @pytest.mark.parametrize("law", _BLOCK_LAWS, ids=lambda law: law.spec)
    def test_blocks_are_the_sequential_draws(self, law, size):
        # Bit for bit the steps `drawn_step` takes in turn, redraws included,
        # with the same final stream; only the larger block is drawn off the
        # thread, and every step runs on the calling thread.
        rng, ref = substream(5, "blocks", law.spec), substream(5, "blocks", law.spec)
        roots = substream(5, "roots").random(size)
        steps = []
        seen = codes_called_off_thread(lambda: steps.extend(_evolve(roots, law, rng, 3)))
        assert (_sampled_cuts.__code__ in seen) == (size >= _PREFETCH_MIN_CUTS)
        assert population_step.__code__ not in seen
        assert len(steps) == 3
        for ells, new_roots in steps:
            assert ells.shape == new_roots.shape == (size,)
            expected_ells, roots = drawn_step(roots, law, ref)
            assert np.array_equal(ells, expected_ells)
            assert np.array_equal(new_roots, roots)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("size", [_PREFETCH_MIN_CUTS - 1, _PREFETCH_MIN_CUTS],
                             ids=["inline", "prefetched"])
    def test_stall_raises_at_the_block_that_stalls(self, size):
        # The third block and all its redraws land on 0: both paths take
        # two steps, then raise the same error for the third.
        law, draws = Uniform(), []
        real = law._sample

        def stalls_from_the_third_block(rng, size):
            draws.append(size)
            return np.zeros(size) if len(draws) > 2 else real(rng, size)

        law._sample = stalls_from_the_third_block
        handed = []
        with pytest.raises(CutRedrawError) as error:
            for step in _evolve(np.full(size, 0.5), law, substream(5, "stall"), 4):
                handed.append(step)
        assert len(handed) == 2
        assert str(error.value) == "uniform kept producing cuts at 0 or 1 after 100 redraws"
        assert draws == [size] * 3 + [size] * 100  # no fourth block is drawn

    @pytest.mark.parametrize("runs", [1000, 70_000], ids=["inline", "prefetched"])
    def test_endpoint_law_raises_the_same_error(self, runs):
        message = "point:0 kept producing cuts at 0 or 1 after 100 redraws"
        for runner in (run_stationarity_experiment, run_decay_experiment,
                       run_correlation_experiment):
            with pytest.raises(CutRedrawError) as error:
                runner("uniform", "point:0", runs, 3)
            assert str(error.value) == message

    @pytest.mark.parametrize("runner", [run_stationarity_experiment, run_decay_experiment,
                                        run_correlation_experiment],
                             ids=["stationarity", "decay", "correlation"])
    @pytest.mark.parametrize("dist", ["beta:2,2", "bates:20"])
    def test_worker_runs_no_public_function(self, runner, dist):
        seen = codes_called_off_thread(runner, "beta:0.5,2", dist, 70_000, 3)
        assert _sampled_cuts.__code__ in seen  # the hook saw the worker
        assert [code.co_name for code in seen if code in public_code()] == []

    def test_success_leaves_no_thread(self):
        before = threading.active_count()
        for runner in (run_stationarity_experiment, run_decay_experiment,
                       run_correlation_experiment):
            runner("uniform", "beta:2,2", 70_000, 3)
            assert threading.active_count() == before

    @pytest.mark.parametrize("failing", ["worker", "caller", "both"])
    def test_failure_raises_and_leaves_no_thread(self, monkeypatch, failing):
        # The worker is still drawing the second block when the calling
        # thread measures the first; either side may fail there.
        sample, ks, calls = Beta._sample, stats_module.ks_statistic, []

        def second_block(self, rng, size):
            calls.append(threading.get_ident())
            if len(calls) == 2:
                time.sleep(0.2)
                if failing != "caller":
                    raise MemoryError("worker")
            return sample(self, rng, size)

        def first_statistic(samples):
            if failing != "worker":
                raise MemoryError("caller")
            return ks(samples)

        monkeypatch.setattr(Beta, "_sample", second_block)
        monkeypatch.setattr(stats_module, "ks_statistic", first_statistic)
        before = threading.active_count()
        # The held error keeps the runner's frame, and so its steps, alive.
        with pytest.raises(MemoryError) as error:
            run_stationarity_experiment("uniform", "beta:2,2", 70_000, 5)
        assert threading.active_count() == before
        # With both failing, the calling thread's own error is the one raised.
        assert str(error.value) == ("worker" if failing == "worker" else "caller")
        assert len(calls) == 2 and threading.get_ident() not in calls


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
        ells, _ = drawn_step(roots, Uniform(), rng, k)
        assert lo <= ells.mean() <= hi

    @pytest.mark.parametrize("a,b,k,expected", [(2, 2, 2, 0.44286), (2, 2, 3, 0.35584),
                                                (0.5, 2, 2, 0.63786)])
    def test_mean_gap_for_any_cut_law(self, a, b, k, expected):
        # A uniform root shares its gap with a second uniform point y unless a
        # cut falls between them: E[ell] = 2 int_{x<y} (1 - F(y) + F(x))^K dx dy,
        # integrated over x = s^2, y = t^2 so F's square-root edge is smooth.
        cdf = stats.beta(a, b).cdf
        half, _ = integrate.dblquad(
            lambda t, s: 4.0 * s * t * (1.0 - cdf(t * t) + cdf(s * s)) ** k,
            0.0, 1.0, lambda s: s, 1.0)
        assert 2.0 * half == pytest.approx(expected, abs=5e-6)
        rng = substream(6, "gap-law", f"{a},{b}", k)
        roots = rng.uniform(size=1_000_000)
        ells, _ = drawn_step(roots, Beta(a, b), rng, k)
        assert abs(ells.mean() - 2.0 * half) < 5.0 * ells.std() / math.sqrt(ells.size)

    def test_population_step_matches_scalar(self):
        # A single chain of the vectorized kernel takes the scalar step's
        # draws, so replayed substreams give the same chain bit for bit.
        for k in (1, 2, 3, 5):
            for seed in range(20):
                rng_scalar, rng_pop = (substream(seed, "chain", k) for _ in range(2))
                r = float(substream(seed, "r0", k).uniform())
                roots = np.array([r])
                for _ in range(30):
                    ell, r = multisection_step(r, k, rng_scalar)
                    ells, roots = drawn_step(roots, Uniform(), rng_pop, k)
                    assert (ells.tolist(), roots.tolist()) == ([ell], [r])

    def test_population_cut_layout(self):
        # k * M cuts in k rows of M: chain i takes draws i, M + i, ...
        k, m = 3, 50
        roots = substream(2, "rs").uniform(size=m)
        cuts = Uniform().sample(substream(2, "cuts"), size=k * m).reshape(k, m)
        ells, new_roots = drawn_step(roots, Uniform(), substream(2, "cuts"), k)
        for i, r in enumerate(roots):
            lo = max((c for c in cuts[:, i] if c < r), default=0.0)
            hi = min((c for c in cuts[:, i] if c >= r), default=1.0)
            assert ells[i] == hi - lo
            assert new_roots[i] == (r - lo) / (hi - lo)

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("r", [0.0, 1.0])
    def test_endpoint_root_keeps_the_end_gap(self, r, k):
        # Cuts lie in (0, 1), so r == 0 keeps the first gap and r == 1 the
        # last; both steppers agree bit for bit on the same cuts.
        for seed in range(20):
            cuts = np.sort(substream(seed, "end", k).uniform(size=k))
            lo, hi = (0.0, cuts[0]) if r == 0.0 else (cuts[-1], 1.0)
            ell, r_next = multisection_step(r, k, substream(seed, "end", k))
            ells, roots = drawn_step(np.array([r]), Uniform(), substream(seed, "end", k), k)
            assert ell == ells[0] == hi - lo
            assert r_next == roots[0] == (r - lo) / (hi - lo)

    @pytest.mark.parametrize("k", [1, 3])
    def test_tie_keeps_the_lower_gap(self, k):
        # A cut equal to the root keeps [lo, c] in all three rules.
        roots = np.array([0.25, 0.5, 0.75])
        ells, new_roots = population_step(roots, np.full((k, 3), 0.5))
        assert ells.tolist() == [0.5, 0.5, 0.5]
        assert new_roots.tolist() == [0.5, 1.0, 0.5]
        assert skewed_dyadic(0.5, 0.5) == 1.0
        for seed in range(20):
            cuts = np.sort(substream(seed, "tie", k).uniform(size=k))
            for j, c in enumerate(cuts):
                lo = cuts[j - 1] if j else 0.0
                ell, r_next = multisection_step(float(c), k, substream(seed, "tie", k))
                assert (ell, r_next) == (c - lo, 1.0)

    def test_zero_root_redraws_a_zero_cut(self):
        # A cut at exactly 0 would leave r == 0 an empty gap; it is redrawn.
        class ZeroFirst:
            def __init__(self):
                self.draws = [np.array([0.0, 0.5]), np.array([0.25])]

            def random(self, size=None):
                return self.draws.pop(0)

        ell, r_next = multisection_step(0.0, 2, ZeroFirst())
        assert (ell, r_next) == (0.25, 0.0)

    def test_population_rejects_no_cuts(self):
        with pytest.raises(ValueError, match="at least one cut"):
            population_step(np.array([0.5]), np.empty((0, 1)))

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
        crit = ks_critical_value(m)
        for _ in range(10):
            _, roots = drawn_step(roots, Beta(2, 2), rng)
            assert ks_statistic(roots) < crit

    def test_multisection_stationary(self):
        m = 10_000
        rng = substream(1, "statk")
        roots = rng.uniform(size=m)
        crit = ks_critical_value(m)
        for _ in range(10):
            _, roots = drawn_step(roots, Uniform(), rng, 3)
            assert ks_statistic(roots) < crit

    def test_k_cut_stationary_under_beta_cuts(self):
        m = 10_000
        rng = substream(4, "statk-beta")
        roots = rng.uniform(size=m)
        crit = ks_critical_value(m)
        for _ in range(10):
            _, roots = drawn_step(roots, Beta(2, 2), rng, 3)
            assert ks_statistic(roots) < crit

    @pytest.mark.parametrize("cut", [Uniform(), Beta(2, 2), Bates(20)],
                             ids=lambda d: d.spec)
    def test_pairwise_decorrelation(self, cut):
        m = 10_000
        rng = substream(2, "decorr", cut.spec)
        roots = rng.uniform(size=m)
        ells = np.empty((6, m))
        for n in range(6):
            ells[n], roots = drawn_step(roots, cut, rng)
        corr = np.corrcoef(ells)
        off = corr[~np.eye(6, dtype=bool)]
        assert np.max(np.abs(off)) < 4.0 / math.sqrt(m)

    def test_root_independent_of_scaling_factor(self):
        # P[r1 < t, ell1 < u] factorizes; check on a coarse grid.
        m = 200_000
        rng = substream(3, "indep")
        roots = rng.uniform(size=m)
        ells, r1 = drawn_step(roots, Beta(2, 2), rng)
        for t in (0.3, 0.7):
            for u in (0.5, 0.8):
                joint = np.mean((r1 < t) & (ells < u))
                product = np.mean(r1 < t) * np.mean(ells < u)
                assert abs(joint - product) < 5e-3
