import copy
import logging
import pickle
import threading
import time

import numpy as np
import pytest

from operator_oracle import apply_operator_to_function
from stochbisect import cli, markov, theory
from stochbisect.distributions import Bates, Beta, Empirical, PointMass, Uniform
from stochbisect.markov import (
    EndpointAtomError,
    GridCdf,
    apply_operator,
    ell_cdf_general,
    hn_mean_var,
    iterate_operator,
    rate_bound,
)
from thread_probe import codes_called_off_thread, public_code

N = 2049
ALL_KINDS = [Uniform(), Beta(2, 2), Beta(0.5, 2), Beta(2, 0.5), Beta(0.5, 0.5), Bates(20),
             PointMass(0.5), Empirical([0.2, 0.5, 0.7])]


def cubic_grid(n=N):
    return GridCdf.from_callable(lambda t: t * (4 * t * t - 6 * t + 3), n)


def closed_form_cubic_iterate(k, t):
    return t * ((2 * t * t - 3 * t + 1) / 2 ** (k - 1) + 1)


class BareMeasure:
    """A cut law reduced to its quadrature measure.

    `apply_operator` then takes the kernel path for every law, the uniform
    one included, whose own type selects the closed form.
    """

    def __init__(self, dist):
        self.measure = dist.quadrature()

    def quadrature(self, breakpoints=()):
        return self.measure


KERNEL_CUTS = [Uniform(), Beta(2, 2), Beta(0.5, 2), Beta(0.5, 0.5), Bates(20),
               PointMass(0.5), PointMass(0.3),
               Empirical([0.1, 0.25, 0.25, 0.5, 0.5, 0.5, 0.9])]


class TestGridCdf:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridCdf(np.array([0.5]))
        with pytest.raises(ValueError):
            GridCdf(np.array([0.0, 0.8, 0.5, 1.0]))
        with pytest.raises(ValueError):
            GridCdf(np.array([0.0, 0.5, 0.9]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("at", [1, 2])
    def test_non_finite_value_rejected(self, bad, at):
        # A NaN node used to be kept and spread by the monotone clamp, so
        # iterating T carried it into every moment of H.
        values = np.array([0.0, 0.25, 0.5, 1.0])
        values[at] = bad
        with pytest.raises(ValueError, match="finite"):
            GridCdf(values)

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda grid: pickle.loads(pickle.dumps(grid))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_stay_read_only(self, duplicate):
        # numpy restores a pickled or copied array writeable, which would let
        # a copy become a non-monotone CDF past the constructor's checks.
        grid = GridCdf.identity(5)
        twin = duplicate(grid)
        assert twin.values.tobytes() == grid.values.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            twin.values[2] = 0.9

    def test_interpolation_between_nodes(self):
        grid = GridCdf(np.array([0.0, 0.5, 1.0]))
        assert grid(0.25) == pytest.approx(0.25)
        assert np.allclose(grid(np.array([0.0, 0.75, 1.0])), [0.0, 0.75, 1.0])

    def test_from_distribution_hits_cdf(self):
        grid = GridCdf.from_distribution(Beta(2, 2), 257)
        assert grid.values[128] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("root", [PointMass(1.0), Empirical([0.3, 1.0, 0.5])],
                             ids=lambda d: d.spec)
    def test_from_distribution_rejects_an_atom_at_one(self, root):
        # The grid pins G(1) = 1, so the atom would become a ramp on the last
        # cell that T then flattens, although a root at 1 never moves.
        with pytest.raises(EndpointAtomError, match="mass at 1"):
            GridCdf.from_distribution(root, 65)

    @pytest.mark.parametrize("root, below_one", [(PointMass(0.999), 0.0),
                                                 (Empirical([0.3, 0.999]), 0.5)],
                             ids=["point:0.999", "empirical"])
    def test_from_distribution_keeps_atoms_inside(self, root, below_one):
        assert GridCdf.from_distribution(root, 65).values[-2] == below_one

    def test_node_integrals_exact_for_linear(self):
        grid = GridCdf.identity(101)
        assert grid.node_integrals()[-1] == pytest.approx(0.5, abs=1e-15)
        assert grid.integral_to(0.3) == pytest.approx(0.045, abs=1e-15)


class TestApplyOperator:
    def test_identity_is_fixed(self):
        grid = GridCdf.identity(N)
        for cut in (Uniform(), Beta(2, 2), PointMass(0.3)):
            out = apply_operator(grid, cut)
            assert np.max(np.abs(out.values - grid.values)) < 1e-9

    @pytest.mark.parametrize("cut", [Uniform(), Beta(2, 2), Beta(0.5, 2),
                                     PointMass(0.3), Empirical([0.2, 0.6, 0.9])],
                             ids=lambda d: d.spec)
    def test_linear_functions_fixed(self, cut):
        ts = np.linspace(0, 1, N)
        grid = GridCdf(0.25 + 0.75 * ts)
        out = apply_operator(grid, cut)
        assert np.max(np.abs(out.values - grid.values)) < 1e-9

    def test_cubic_iterates_match_closed_form(self):
        grid = cubic_grid()
        ts = grid.nodes
        for k, it in enumerate(iterate_operator(grid, Uniform(), 3), start=1):
            assert np.max(np.abs(it.values - closed_form_cubic_iterate(k, ts))) < 1e-6

    def test_cubic_distance_halves_each_step(self):
        grid = cubic_grid()
        d0 = grid.sup_distance_to_identity()
        iterates = iterate_operator(grid, Uniform(), 3)
        for k, it in enumerate(iterates, start=1):
            assert it.sup_distance_to_identity() / d0 == pytest.approx(
                0.5**k, abs=1e-5)

    def test_point_mass_matches_direct_bracket(self):
        rng = np.random.default_rng(11)
        values = np.sort(rng.uniform(size=N))
        values[0], values[-1] = 0.0, 1.0
        grid = GridCdf(values)
        c = 0.5
        ts = grid.nodes
        direct = grid(ts * c) + grid(ts + (1 - ts) * c) - grid(c)
        out = apply_operator(grid, PointMass(c))
        assert np.max(np.abs(out.values - np.maximum.accumulate(direct))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 65, 2049])
    @pytest.mark.parametrize("cut", KERNEL_CUTS, ids=lambda d: d.spec)
    def test_kernel_matches_three_term_oracle(self, cut, n):
        # point:0.5 puts cuts exactly on grid nodes; the empirical law has
        # tied atoms; the second start has G(0) > 0.
        rng = np.random.default_rng(n)
        measure = BareMeasure(cut)
        for g0 in (0.0, 0.2):
            values = np.sort(rng.uniform(g0, 1.0, size=n))
            values[0], values[-1] = g0, 1.0
            grid = GridCdf(values)
            out = apply_operator(grid, measure).values
            oracle = apply_operator_to_function(grid, measure, grid.nodes)
            assert np.max(np.abs(out[1:-1] - oracle[1:-1]), initial=0.0) <= 1e-13
            assert out[0] == values[0]
            assert out[-1] == 1.0

    def test_large_empirical_atom_set_stays_bounded(self):
        # 2049 nodes x 100k atoms is 1.6 GB as one array: the kernel must
        # walk the atoms in blocks.
        rng = np.random.default_rng(3)
        cut = Empirical(rng.uniform(0.05, 0.95, size=100_000))
        grid = GridCdf.from_distribution(Beta(2, 2), N)
        out = apply_operator(grid, cut)
        assert np.all(np.diff(out.values) >= 0.0)
        # one operator step keeps the identity fixed regardless of atoms
        ident = apply_operator(GridCdf.identity(N), cut)
        assert ident.sup_distance_to_identity() < 1e-9
        hs = ell_cdf_general(grid, cut, np.linspace(0, 1, 9))
        assert np.all(np.diff(hs) >= -1e-12)

    @pytest.mark.parametrize("cut", [Beta(2, 2), Bates(20), Beta(0.5, 2), PointMass(0.3),
                                     pytest.param(Empirical(np.random.default_rng(5).uniform(
                                         size=1000)), id="empirical-1000")],
                             ids=lambda d: d.spec)
    def test_threaded_branches_equal_sequential_evaluation(self, cut):
        # At 2049 nodes a 64K-value block holds 31 cut nodes, so every law
        # but the point mass walks several blocks in each branch.
        grid = GridCdf.from_distribution(Beta(0.5, 2), N)
        g = grid.values
        pts, wts = cut.quadrature()
        low = markov._scale_mixture(g, pts, wts)
        high = markov._scale_mixture(1.0 - g[::-1], 1.0 - pts, wts)
        seq = low - low[-1] + wts.sum() - high[::-1]
        seq[0], seq[-1] = g[0], g[-1]
        expected = GridCdf(np.maximum.accumulate(seq)).values
        assert np.array_equal(apply_operator(grid, cut).values, expected)

    def test_second_thread_runs_no_public_function(self):
        # A fresh law builds its measure, on the calling thread only.
        seen = codes_called_off_thread(apply_operator, cubic_grid(257), Beta(2, 2))
        assert markov._scale_mixture.__code__ in seen  # the hook saw the worker
        assert [code.co_name for code in seen if code in public_code()] == []

    @pytest.mark.parametrize("failing", ["reflected", "main", "both"])
    def test_branch_failure_raises_and_leaves_no_thread(self, monkeypatch, failing):
        # point:0.3 tells the calls apart: the reflected one gets 1 - 0.3.
        kernel = markov._scale_mixture

        def flaky(g, pts, wts):
            branch = "reflected" if pts[0] > 0.5 else "main"
            if failing == "both" and branch == "main":
                time.sleep(0.2)  # the reflected branch has failed by now
            if failing in (branch, "both"):
                raise MemoryError(branch)
            if branch == "reflected":
                time.sleep(0.2)  # still running when the main branch fails
            return kernel(g, pts, wts)

        monkeypatch.setattr(markov, "_scale_mixture", flaky)
        before = threading.active_count()
        # With both failing, the calling thread's own error is the one raised.
        with pytest.raises(MemoryError, match="reflected" if failing == "reflected" else "main"):
            apply_operator(cubic_grid(65), PointMass(0.3))
        assert threading.active_count() == before

    @pytest.mark.parametrize("cut", [Beta(2, 2), PointMass(0.3)], ids=lambda d: d.spec)
    def test_success_leaves_no_thread(self, cut):
        before = threading.active_count()
        apply_operator(cubic_grid(65), cut)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cut", [Uniform(), Beta(2, 2), Bates(5)],
                             ids=lambda d: d.spec)
    def test_output_monotone_and_endpoint_preserving(self, cut):
        grid = GridCdf.from_distribution(Beta(0.5, 2), 513)
        out = apply_operator(grid, cut)
        assert np.all(np.diff(out.values) >= 0.0)
        assert out.values[0] == pytest.approx(grid.values[0], abs=1e-9)
        assert out.values[-1] == pytest.approx(grid.values[-1], abs=1e-9)

    def test_quadratic_test_function(self):
        # T phi for phi(t) = t^2 equals 2 t (1-t) q + t^2 with q = E[c(1-c)].
        ts = np.linspace(0, 1, 513)
        for cut in (Uniform(), Beta(2, 2), Beta(0.5, 2), Bates(20), PointMass(0.3)):
            q = theory.cut_concavity(cut)
            got = apply_operator_to_function(lambda x: x * x, cut, ts)
            assert np.max(np.abs(got - (2 * ts * (1 - ts) * q + ts * ts))) < 1e-8


class TestRepairBudget:
    """T's output is clamped nondecreasing only within the 1e-9 budget."""

    NODE = 20  # an interior node of the 65-node grid

    def dip(self, monkeypatch, depth):
        # Lower the main branch at NODE until T's output there, for the
        # cubic under beta:2,2 cuts, sits `depth` below its value at NODE - 1.
        out = apply_operator(cubic_grid(65), Beta(2, 2)).values
        drop = out[self.NODE] - out[self.NODE - 1] + depth
        kernel = markov._scale_mixture

        def dipped(g, pts, wts):
            values = kernel(g, pts, wts)
            if pts[0] < pts[-1]:  # the main branch; the reflected one gets 1 - pts
                values[self.NODE] -= drop
            return values

        monkeypatch.setattr(markov, "_scale_mixture", dipped)

    def test_dip_past_the_budget_raises(self, monkeypatch):
        self.dip(monkeypatch, 1e-6)
        with pytest.raises(ArithmeticError, match="exceeds the 1e-09 budget"):
            apply_operator(cubic_grid(65), Beta(2, 2))

    def test_dip_past_the_budget_exits_3(self, monkeypatch, capsys):
        self.dip(monkeypatch, 1e-6)
        argv = ["operator", "--dist", "beta:2,2", "--k", "1", "--grid", "65"]
        assert cli.main(argv) == cli.EXIT_NUMERICAL
        assert "exceeds the 1e-09 budget" in capsys.readouterr().err

    def test_dip_within_the_budget_is_repaired_and_logged(self, monkeypatch, caplog):
        self.dip(monkeypatch, 1e-12)
        with caplog.at_level(logging.DEBUG, logger=markov.__name__):
            values = apply_operator(cubic_grid(65), Beta(2, 2)).values
        assert np.all(np.diff(values) >= 0.0)
        assert values[self.NODE] == values[self.NODE - 1]
        [record] = [r for r in caplog.records if r.name == markov.__name__]
        assert record.levelno == logging.DEBUG
        assert record.getMessage().startswith("monotone repair applied")
        assert record.args[0] == pytest.approx(1e-12, rel=1e-3)


class TestIterateOperator:
    def test_identity_iterates_stay_identity(self):
        for it in iterate_operator(GridCdf.identity(257), Beta(2, 2), 4):
            assert it.sup_distance_to_identity() < 1e-9

    def test_endpoint_atom_rejected(self):
        values = np.linspace(0, 1, 257)
        atom = GridCdf(np.clip(values + 0.2, 0.0, 1.0))  # G(0) = 0.2
        with pytest.raises(EndpointAtomError):
            iterate_operator(atom, Uniform(), 1)
        with pytest.raises(EndpointAtomError):
            iterate_operator(GridCdf.identity(257), PointMass(0.0), 1)

    def test_endpoint_atom_message_prints_a_plain_float(self):
        with pytest.raises(EndpointAtomError, match=r"G\(0\)=1\.0$"):
            iterate_operator(GridCdf.from_distribution(PointMass(0.0), 5), Uniform(), 1)

    @pytest.mark.parametrize("samples", [[0, 0, 1], [0, 1, 1, 1, 1, 1, 1]])
    def test_endpoint_only_empirical_rejected(self, samples):
        # q rounds to -2.8e-17 and +1.4e-17 here, so the test needs a tolerance.
        with pytest.raises(EndpointAtomError):
            iterate_operator(GridCdf.identity(257), Empirical(samples), 1)

    def test_beta_05_2_empirical_rate(self):
        grid = GridCdf.from_distribution(Beta(0.5, 2), N)
        iterates = iterate_operator(grid, Uniform(), 30)
        distances = [grid.sup_distance_to_identity()] + [
            it.sup_distance_to_identity() for it in iterates]
        ratios = [b / a for a, b in zip(distances, distances[1:])]
        assert max(ratios[5:]) <= 27 / 35 + 0.02


class TestEllCdfGeneral:
    @pytest.mark.parametrize("cut", [Uniform(), Beta(2, 2), PointMass(0.3)],
                             ids=lambda d: d.spec)
    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1], ids=["nan", "below", "above"])
    def test_t_outside_unit_interval_rejected(self, cut, bad):
        # NaN used to pass the range check: Beta(2, 2) returned 0.5 for it,
        # PointMass(0.3) returned 0.3 and Uniform raised IndexError.
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
            ell_cdf_general(GridCdf.identity(2), cut, [0.3, bad])

    def test_endpoints(self):
        for grid in (cubic_grid(513), GridCdf.identity(2)):
            for cut in ALL_KINDS:
                assert ell_cdf_general(grid, cut, 0.0) == pytest.approx(0.0, abs=1e-12)
                assert ell_cdf_general(grid, cut, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_sup_bound_against_uniform_root_law(self):
        # ||H_n - H|| <= 2 ||G_n - t||
        grid = GridCdf.from_distribution(Beta(0.5, 2), N)
        ts = grid.nodes
        h_ref = ts * ts  # uniform-cut law
        for it in iterate_operator(grid, Uniform(), 10):
            hn = np.asarray(ell_cdf_general(it, Uniform(), ts))
            assert np.max(np.abs(hn - h_ref)) <= 2 * it.sup_distance_to_identity() + 1e-9


class TestRateBounds:
    def test_identity_bound_is_zero(self):
        ident = GridCdf.identity(257)
        for k in (1, 5, 20):
            assert rate_bound(ident, Uniform(), k) == 0.0

    def test_cubic_bound_dominates_first_step(self):
        grid = cubic_grid()
        d1 = iterate_operator(grid, Uniform(), 1)[0].sup_distance_to_identity()
        assert rate_bound(grid, Uniform(), 1) >= d1

    def test_beta_01_2_bound_holds_thirty_steps(self):
        grid = GridCdf.from_distribution(Beta(0.1, 2), N)
        for k, it in enumerate(iterate_operator(grid, Uniform(), 30), start=1):
            assert it.sup_distance_to_identity() <= rate_bound(grid, Uniform(), k)

    def test_mean_bound_holds(self):
        # ||H_k - H|| <= 2 ||G_k - t||, so twice the sup-norm bound holds for the mean.
        grid = GridCdf.from_distribution(Beta(2, 2), 513)
        mu_limit = theory.expected_contraction(Uniform())
        for k, it in enumerate(iterate_operator(grid, Uniform(), 10), start=1):
            mean_k, _ = hn_mean_var(it, Uniform())
            bound = 2 * rate_bound(grid, Uniform(), k)
            assert abs(mean_k - mu_limit) <= bound + 1e-6


class TestMomentConvergence:
    def test_mean_within_twice_sup_distance(self):
        grid = GridCdf.from_distribution(Beta(0.5, 2), N)
        mu_limit = theory.expected_contraction(Uniform())
        var_limit = theory.contraction_variance(Uniform())
        iterates = iterate_operator(grid, Uniform(), 20)
        for it in iterates:
            mean_k, _ = hn_mean_var(it, Uniform())
            assert abs(mean_k - mu_limit) <= 2 * it.sup_distance_to_identity() + 1e-6
        final_mean, final_var = hn_mean_var(iterates[-1], Uniform())
        assert final_mean == pytest.approx(mu_limit, abs=1e-3)
        assert final_var == pytest.approx(var_limit, abs=1e-3)
