import bisect
import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathfunc.errors import EvaluationError, PreconditionError
from pathfunc.functionals import (FunctionalSpec, constant_payoff,
                                  discontinuity_mass_estimate,
                                  discrete_barrier_call, evaluate,
                                  fold_args_batch, observe_args_batch,
                                  up_and_in_call)
from pathfunc.models import SdeModel, gbm, stoch_vol
from pathfunc.paths import BarrierPair, SampleVector, StepPath
from pathfunc.schemes import (RngStream, SchemeConfig, simulate_path, simulate_states,
                              simulate_values)

from conftest import barrier_pairs, step_paths, value_at


# sigma in [0.2, 0.8] everywhere: a safe band for the variable-step tree
BOUNDED_VOL = SdeModel("bounded_vol", 1, 1,
                       drift=lambda y, t: 0.05 * np.ones_like(y),
                       diffusion=lambda y, t: (0.5 + 0.3 * np.sin(y))[..., None],
                       y0=np.array([1.0]), sigma_eps=0.15)


def make_path(times, values):
    return StepPath(np.asarray(times, dtype=float), np.asarray(values, dtype=float))


def spec_with(barriers, m=2, payoff_batch=None):
    nu = SampleVector.uniform(m)
    return FunctionalSpec(
        m=m, nu1=nu, nu2=nu, nu3=nu, nu4=nu,
        payoff_batch=payoff_batch or (lambda x: np.sum(x, axis=1)),
        bounded=False, barriers=barriers)


def payoff_of(spec, args):
    """The payoff of one argument vector, as a block of one row."""
    return float(spec.payoff_batch(np.asarray(args, dtype=np.float64)[None, :])[0])


def path_args(p, spec):
    """The [z1 | z2 | z3 | z4 | tau] argument vector of one path."""
    return observe_args_batch(p.times, p.values[None], spec)[0]


def reference_args(times, x, spec):
    """Plain-Python [z1 | z2 | z3 | z4 | tau] of one scalar path, read off
    the definitions: first grid exit time, running maximum, right-continuous
    sampling."""
    lo, hi = spec.barriers.lower, spec.barriers.upper
    tau = next((t for t, v in zip(times, x) if v <= lo or v >= hi), 1.0)
    run_max = list(itertools.accumulate(x, max))

    def at(vals, s):
        return vals[bisect.bisect_right(times, s) - 1]

    return np.array([at(x, tau * s) for s in spec.nu1.entries]
                    + [at(x, s) for s in spec.nu2.entries]
                    + [at(run_max, tau * s) for s in spec.nu3.entries]
                    + [at(run_max, s) for s in spec.nu4.entries] + [tau])


class TestObserve:
    def test_unbounded_band_gives_tau_one(self):
        p = make_path([0, 0.5, 1], [0.5, 2.0, 0.25])
        spec = spec_with(BarrierPair.unbounded())
        # m = 2: z1 = x(tau/2), x(tau); z2 = x(1/2), x(1); z3, z4 the running max
        npt.assert_array_equal(path_args(p, spec),
                               [2.0, 0.25, 2.0, 0.25, 2.0, 2.0, 2.0, 2.0, 1.0])

    def test_all_ones_sampling_vector_reads_value_at_tau(self):
        p = make_path([0, 0.25, 1], [0.5, 3.0, 0.25])
        nu = SampleVector([1.0, 1.0])
        spec = FunctionalSpec(m=2, nu1=nu, nu2=nu, nu3=nu, nu4=nu,
                              payoff_batch=lambda x: np.zeros(len(x)), bounded=True,
                              barriers=BarrierPair(-np.inf, 2.0))
        args = path_args(p, spec)
        assert args[8] == 0.25  # tau
        npt.assert_array_equal(args[0:2], [3.0, 3.0])  # z1 = x(tau) twice
        npt.assert_array_equal(args[2:4], [0.25, 0.25])  # z2 = x(1) twice

    def test_grazing_path_observables(self):
        n = 2000
        t = np.arange(n + 1) / n
        p = StepPath(t, 1.0 - (t - 0.5) ** 2)
        spec = spec_with(BarrierPair(-np.inf, 1.0), m=2)
        args = path_args(p, spec)
        assert args[8] == 0.5  # tau
        assert args[7] == 1.0  # terminal running maximum reaches the peak

    def test_multidim_uses_designated_coordinate(self):
        times = np.array([0.0, 0.5, 1.0])
        vals = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        p = StepPath(times, vals)
        spec = spec_with(BarrierPair.unbounded(), m=1)
        # every payoff reads column 0: z2 = x(1) and z4 = M(1) with m = 1
        assert path_args(p, spec)[[1, 3]].tolist() == [3.0, 3.0]


class TestEvaluate:
    def test_constant_payoff(self):
        p = make_path([0, 1], [1.0, 2.0])
        assert evaluate(p, constant_payoff(3.25)) == 3.25

    def test_discrete_barrier_examples(self):
        spec = discrete_barrier_call(strike=0.5, barrier_level=1.0, r=0.1, m=12)
        # monthly maximum 1.1 with terminal 0.6: payoff e^{-0.1} * 0.1
        args = np.zeros(49)
        args[12:24] = 0.6
        args[17] = 1.1
        args[23] = 0.6
        assert payoff_of(spec, args) == pytest.approx(np.exp(-0.1) * 0.1)
        # out-of-the-money terminal 0.4: zero
        args[23] = 0.4
        args2 = args.copy()
        assert payoff_of(spec, args2) == 0.0

    def test_up_in_call_examples(self):
        spec = up_and_in_call(strike=0.5, barrier_level=1.0, r=0.07)
        args = np.array([0.0, 1.0, 0.0, 1.0, 1.0])  # terminal 1, running max 1
        assert payoff_of(spec, args) == pytest.approx(np.exp(-0.07) * 0.5)
        args[3] = 0.99  # barrier not reached
        assert payoff_of(spec, args) == 0.0
        args[3] = 1.5
        args[1] = 0.5  # at the strike: zero intrinsic
        assert payoff_of(spec, args) == 0.0

    def test_single_monitor_reduction(self):
        spec = discrete_barrier_call(strike=0.5, barrier_level=1.0, r=0.0, m=1)
        args = np.array([0.0, 1.2, 0.0, 0.0, 1.0])
        assert payoff_of(spec, args) == pytest.approx(0.7)

    def test_nonfinite_payoff_raises(self):
        p = make_path([0, 1], [1.0, 2.0])
        bad = spec_with(BarrierPair.unbounded(), m=1,
                        payoff_batch=lambda x: np.full(len(x), np.nan))
        with pytest.raises(EvaluationError):
            evaluate(p, bad)

    @given(step_paths())
    def test_bounded_payoff_respects_bound(self, p):
        spec = FunctionalSpec(
            m=1, nu1=SampleVector([1.0]), nu2=SampleVector([1.0]),
            nu3=SampleVector([1.0]), nu4=SampleVector([1.0]),
            payoff_batch=lambda x: np.tanh(np.sum(x, axis=1)),
            bounded=True, barriers=BarrierPair.unbounded())
        assert abs(evaluate(p, spec)) <= 1.0

    @given(step_paths(), st.integers(0, 2**31))
    def test_invariant_under_grid_refinement(self, p, seed):
        rng = np.random.default_rng(seed)
        spec = discrete_barrier_call(0.5, 1.0, 0.05, m=3)
        extra = rng.uniform(0.0, 1.0, size=6)
        refined = StepPath(np.unique(np.concatenate([p.times, extra])),
                           value_at(p, np.unique(np.concatenate([p.times, extra]))))
        assert evaluate(p, spec) == evaluate(refined, spec)

    def test_monotone_in_monitored_values(self):
        spec = discrete_barrier_call(0.5, 1.0, 0.0, m=4)
        args = np.zeros(17)
        args[4:8] = [0.7, 0.8, 0.9, 0.95]  # monitored values, below barrier
        base = payoff_of(spec, args)
        assert base == 0.0
        bumped = args.copy()
        bumped[5] = 1.0  # raising one monitored value can only help
        assert payoff_of(spec, bumped) >= base

    def test_unbounded_band_payoff_ignores_z1_z3(self):
        spec = up_and_in_call(0.5, 1.0, 0.1)
        args = np.array([9.0, 0.8, 9.0, 1.3, 1.0])
        scrambled = args.copy()
        scrambled[[0, 2]] = -7.0  # z1 and z3 are inert for this payoff
        assert payoff_of(spec, args) == payoff_of(spec, scrambled)


class TestBatchObservation:
    @given(barrier_pairs(), st.integers(0, 2**31))
    def test_batch_matches_per_path(self, band, seed):
        rng = np.random.default_rng(seed)
        m = gbm(0.1, 0.4, 1.0)
        cfg = SchemeConfig("euler", h=2**-5)
        streams = [RngStream(int(rng.integers(2**31)), i) for i in range(8)]
        times, values = simulate_values(m, cfg, streams)
        nu = SampleVector(np.sort(rng.uniform(0, 1, size=3)))
        spec = FunctionalSpec(m=3, nu1=nu, nu2=nu, nu3=nu, nu4=nu,
                              payoff_batch=lambda x: np.zeros(len(x)), bounded=True,
                              barriers=band)
        args = observe_args_batch(times, values, spec)
        for i in range(len(streams)):
            npt.assert_array_equal(args[i], reference_args(times, values[i, :, 0], spec))

    def test_padded_row_grids_match_evaluate(self):
        # tree paths on their own grids, padded after t = 1, against a band
        # they cross, with tau-scaled sampling in z1 and z3
        m = BOUNDED_VOL
        cfg = SchemeConfig("binomial_variable", h=2**-6)
        streams = [RngStream(21, i) for i in range(16)]
        times, values = simulate_values(m, cfg, streams)
        paths = [simulate_path(m, cfg, s) for s in streams]
        weights = np.arange(1.0, 14.0)
        spec = FunctionalSpec(m=3, nu1=SampleVector([0.2, 0.5, 1.0]),
                              nu2=SampleVector([0.1, 0.6, 1.0]),
                              nu3=SampleVector([0.3, 0.7, 1.0]),
                              nu4=SampleVector([0.25, 0.5, 1.0]),
                              payoff_batch=lambda x: x @ weights,
                              bounded=True,
                              barriers=BarrierPair(0.4, 1.6))
        args = observe_args_batch(times, values, spec)
        assert 0 < np.count_nonzero(args[:, -1] < 1.0) < len(streams)
        assert len({p.times.size for p in paths}) > 1
        for i, p in enumerate(paths):
            npt.assert_array_equal(args[i], reference_args(p.times, p.values, spec))
            assert float(args[i] @ weights) == evaluate(p, spec)

    def test_batch_payoff_matches_scalar(self):
        # the block against the formula written out per row: the call leg
        # reads the last monitored value, the knock-in their maximum
        spec = discrete_barrier_call(0.5, 1.0, 0.1, m=12)
        rng = np.random.default_rng(0)
        args = rng.uniform(0.0, 1.4, size=(64, 49))
        expected = np.array([np.exp(-0.1) * max(a[23] - 0.5, 0.0) * (max(a[12:24]) >= 1.0)
                             for a in args])
        assert 0 < np.count_nonzero(expected) < 64
        npt.assert_array_equal(spec.payoff_batch(args), expected)


class TestFold:
    @given(st.sampled_from([("euler", gbm(0.1, 0.4, 1.0)),
                            ("euler", stoch_vol(0.1, 0.3, 1.0)),
                            ("binomial_variable", BOUNDED_VOL)]),
           st.sampled_from([2**-5, 0.3, 0.07, 1 / 12]),
           st.integers(1, 4), barrier_pairs(), st.data(), st.integers(0, 2**31))
    def test_fold_equals_reference(self, scheme, h, m, band, data, seed):
        # folding the stream of states gives each row's arguments as read
        # off the definitions, on grids whose last step is truncated, on the
        # tree's padded per-row grids, and on infinite, half-infinite and
        # finite bands alike
        kind, model = scheme
        nus = [SampleVector(np.sort(data.draw(st.lists(st.floats(0.0, 1.0), min_size=m,
                                                       max_size=m))))
               for _ in range(4)]
        spec = FunctionalSpec(m, *nus, payoff_batch=lambda x: np.zeros(len(x)), bounded=True,
                              barriers=band)
        cfg = SchemeConfig(kind, h=h)
        streams = [RngStream(seed, i) for i in range(6)]
        times, values = simulate_values(model, cfg, streams)
        folded = fold_args_batch(*simulate_states(model, cfg, streams), spec)
        row_times = np.broadcast_to(times, values.shape[:2])
        for i in range(len(streams)):
            npt.assert_array_equal(folded[i], reference_args(row_times[i],
                                                             values[i, :, 0], spec))

    def test_finite_band_folds_to_reference(self):
        # some rows leave the band and some do not; z1 and z3 sample at tau
        spec = spec_with(BarrierPair(0.7, 1.3), m=3)
        model, cfg = gbm(0.1, 0.3, 1.0), SchemeConfig("euler", h=2**-6)
        streams = [RngStream(4, i) for i in range(32)]
        times, values = simulate_values(model, cfg, streams)
        folded = fold_args_batch(*simulate_states(model, cfg, streams), spec)
        assert 0 < np.count_nonzero(folded[:, -1] < 1.0) < len(streams)
        for i in range(len(streams)):
            npt.assert_array_equal(folded[i], reference_args(times, values[i, :, 0], spec))


class TestDiscontinuityMass:
    def test_empty_locus_is_zero(self):
        assert discontinuity_mass_estimate(constant_payoff(1.0), np.ones((3, 5)), 0.1) == 0.0

    def test_path_pinned_at_barrier_flagged(self):
        spec = discrete_barrier_call(0.5, 1.0, 0.0, m=2)
        times = np.array([0.0, 0.5, 1.0])
        values = np.ones((4, 3))  # monitored max exactly 1 on every row
        args = observe_args_batch(times, values, spec)
        assert discontinuity_mass_estimate(spec, args, 1e-6) == 1.0

    def test_fraction_of_rows(self):
        spec = up_and_in_call(0.5, 1.0, 0.0)
        args = np.zeros((8, 5))
        args[:, 3] = [1.0, 1.0 + 1e-9, 0.5, 2.0, 0.9, 1.1, 0.0, 1.0 - 5e-7]
        assert discontinuity_mass_estimate(spec, args, 1e-6) == 3 / 8

    def test_empty_block_refused(self):
        spec = up_and_in_call(0.5, 1.0, 0.0)
        with pytest.raises(PreconditionError):
            discontinuity_mass_estimate(spec, np.zeros((0, 5)), 0.1)

    def test_gbm_mass_small_and_decreasing_in_delta(self):
        spec = discrete_barrier_call(0.5, 1.0, 0.1, m=12)
        model = gbm(0.1, 0.3, 0.8)
        cfg = SchemeConfig("euler", h=2**-7)
        streams = [RngStream(3, i, namespace=40) for i in range(400)]
        args = observe_args_batch(*simulate_values(model, cfg, streams), spec)
        f_coarse = discontinuity_mass_estimate(spec, args, 2e-2)
        f_fine = discontinuity_mass_estimate(spec, args, 1e-3)
        assert f_coarse <= 0.1
        assert f_fine <= f_coarse
