import dataclasses
import functools
import math
import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor

import numpy as np
import pytest

from noisysum import harness, model
from noisysum.harness import (
    EXPERIMENT_COLUMNS,
    ExperimentRecord,
    TrialConfig,
    bias_decay_sweep,
    distinguishability_experiment,
    run_trials,
    success_budget,
    zero_one_experiment,
)
from noisysum.lowerbound import construct_matched_pair, realize_integer_counts
from noisysum.model import Distribution, Population, make_perturbed

F_HALF = "1/2"


def uniform(n):
    return Distribution(np.full(n, 1.0 / n))


POP10 = Population([1.0, 0.0])
PAIR55 = make_perturbed(uniform(2), [0.5, -0.5], 0.5)


def config(**overrides):
    base = dict(pop=POP10, pair=PAIR55, k=2, m=30, t=10, trials=40,
                base_seed=100, eps1=0.25, eps2=0.5)
    base.update(overrides)
    return TrialConfig(**base)


class TestTrialConfig:
    def test_zero_t_rejected(self):
        with pytest.raises(ValueError, match="t >= 1"):
            config(t=0)
        config(t=1)  # fine

    def test_zero_m_named_before_t(self):
        # the CLI defaults t to m, so m = 0 was reported as "t >= 1"
        with pytest.raises(ValueError, match="m must be at least 1"):
            config(m=0, t=0)

    def test_unknown_functional(self):
        with pytest.raises(ValueError, match="functional"):
            config(error_functional="l2")

    def test_needs_trials(self):
        with pytest.raises(ValueError):
            config(trials=0)

    @pytest.mark.parametrize("eps", [
        {"eps1": math.nan}, {"eps1": -1.0}, {"eps1": math.inf},
        {"eps2": math.nan}, {"eps2": -1.0}, {"eps2": math.inf},
    ])
    def test_eps_finite_and_nonnegative(self, eps):
        # the success budget, and so the success rate, meant nothing
        with pytest.raises(ValueError, match="^eps1 and eps2 must be finite and nonnegative$"):
            config(**eps)
        config(eps1=0.0, eps2=0.0)  # fine


class TestSuccessBudget:
    def test_positive_sum(self):
        c = config(error_functional="positive_sum", eps1=0.1, eps2=0.2)
        assert success_budget(c) == pytest.approx(0.1 * 1.0 + 0.2)

    def test_mean_abs_dev(self):
        # E_P|x/P - mu| = .5|2-1| + .5|0-1| = 1; budget = .1*1.5*1 + .2
        c = config(error_functional="mean_abs_dev", eps1=0.1, eps2=0.2)
        assert success_budget(c) == pytest.approx(0.35)

    def test_zero_one(self):
        # mu = 1, N = 2: eps1 * (1 + sqrt(2))
        c = config(error_functional="zero_one", eps1=0.25)
        assert success_budget(c) == pytest.approx(0.25 * (1 + math.sqrt(2.0)))

    def test_mean_abs_dev_beyond_float_range_raises(self):
        # x/P overflows at P = 5e-324: the budget was nan, so no trial succeeded
        nominal = Distribution([5e-324, 1.0])
        pair = make_perturbed(nominal, [0.0, 0.0], 0.0)
        c = config(pop=Population([1.0, 1.0]), pair=pair, eps1=0.0, eps2=0.0)
        with pytest.raises(OverflowError, match="mean absolute deviation"):
            success_budget(c)
        with pytest.raises(OverflowError, match="mean absolute deviation"):
            run_trials(c)

    def test_positive_sum_beyond_float_range_raises(self):
        # sum_i |x_i| overflows to inf: every trial succeeded, with exit 0
        c = config(pop=Population([1e308, -1e308]), error_functional="positive_sum")
        with pytest.raises(OverflowError, match="sum of absolute values"):
            success_budget(c)
        with pytest.raises(OverflowError, match="sum of absolute values"):
            run_trials(c)

    def test_zero_one_rejects_negative_mu(self):
        c = config(pop=Population([-1.0, 0.0]), error_functional="zero_one")
        with pytest.raises(ValueError):
            success_budget(c)

    @pytest.mark.parametrize("functional", harness.ERROR_FUNCTIONALS)
    def test_population_and_nominal_of_different_sizes_raise(self, functional):
        # three values against a nominal over two indices
        c = config(pop=Population([1.0, 0.0, 2.0]), error_functional=functional)
        with pytest.raises(ValueError, match="population and distribution disagree on N"):
            success_budget(c)
        with pytest.raises(ValueError, match="population and distribution disagree on N"):
            run_trials(c)


class TestRatio:
    @pytest.mark.parametrize("part, whole, expected", [
        (0.0, 0.0, 0.0),  # nothing against nothing
        (2.0, 0.0, math.inf),  # something against nothing
        (3.0, 4.0, 0.75),
    ], ids=["zero-over-zero", "x-over-zero", "x-over-y"])
    def test_three_cases(self, part, whole, expected):
        assert harness._ratio(part, whole) == expected


class TestRunTrials:
    @pytest.mark.parametrize("estimates, values, message", [
        ([1.7e308] * 4, [1.0, 0.0], "empirical mean of the estimates"),  # the sum overflows
        ([1e160, -1e160] * 2, [1.0, 0.0], "empirical variance of the estimates"),  # squares
        ([-1e308], [1e308, 0.0], r"largest error \|estimate - mu\|"),  # estimate - mu
    ], ids=["mean", "variance", "error"])
    def test_statistics_beyond_float_range_raise(self, monkeypatch, estimates, values, message):
        # numpy warned, and the row held inf or nan
        monkeypatch.setattr(harness, "_collect_estimates", lambda c, threads: np.array(estimates))
        c = config(pop=Population(values), trials=len(estimates), error_functional="positive_sum")
        with pytest.raises(OverflowError, match=message + " = inf is not finite"):
            run_trials(c)

    def test_thread_count_never_changes_results(self):
        c = config(trials=24)
        serial = run_trials(c, threads=1)
        parallel = run_trials(c, threads=4)
        excess = run_trials(c, threads=64)  # more workers than trials
        assert serial == parallel == excess

    @pytest.mark.parametrize("cpus, pool_sizes", [(3, [3]), (None, [])])
    def test_worker_count_capped_at_cpu_count(self, monkeypatch, cpus, pool_sizes):
        # The fake pool records its size and runs chunks inline, so no
        # process starts however many workers are asked for.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, initializer=None, initargs=()):
                sizes.append(max_workers)
                if initializer is not None:
                    initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness, "_worker_config", None)  # restored afterwards
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        c = config(trials=24)
        assert run_trials(c, threads=100_000) == run_trials(c, threads=1)
        assert sizes == pool_sizes

    def test_no_worker_builds_an_alias_table(self, monkeypatch):
        # The parent builds Q's table before the pool starts; a forked
        # worker that built its own would raise here.  The pair is fresh
        # and the pool runs before the serial call, so nothing has cached
        # its table yet.
        parent = os.getpid()
        build = model._build_alias_table

        def parent_only_build(probs):
            if os.getpid() != parent:
                raise AssertionError("a worker rebuilt the alias table")
            return build(probs)

        monkeypatch.setattr(model, "_build_alias_table", parent_only_build)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        c = config(pair=make_perturbed(uniform(2), [0.5, -0.5], 0.5), trials=24)
        parallel = run_trials(c, threads=2)
        assert parallel == run_trials(c, threads=1)

    @pytest.mark.parametrize("method", ["forkserver", "spawn"])
    def test_pool_without_fork_matches_serial(self, monkeypatch, method):
        # Without fork the config reaches each worker pickled, table included.
        monkeypatch.setattr(harness, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        pop = Population([1.0, 0.0, 2.0, -1.0])
        pair = make_perturbed(uniform(4), [0.4, -0.4, 0.2, -0.2], 0.4)
        c = config(pop=pop, pair=pair, trials=24)
        assert run_trials(c, threads=2) == run_trials(c, threads=1)

    def test_zero_variance_instance(self):
        # x = 3p: every order-1 estimate is exactly 3
        p = np.array([0.25, 0.75])
        pop = Population(3.0 * p)
        pair = make_perturbed(Distribution(p), [0.3, -0.1], 0.3)
        for t in (1, 5, 7, 10):
            c = TrialConfig(pop=pop, pair=pair, k=1, m=10, t=t, trials=20,
                            base_seed=0, eps1=0.1, eps2=0.1)
            stats = run_trials(c)
            assert stats.empirical_mean == 3.0
            assert stats.empirical_variance == 0.0
            assert stats.success_rate == 1.0
            assert stats.error_quantiles == (0.0, 0.0, 0.0)

    def test_single_trial_variance_defined_zero(self):
        stats = run_trials(config(trials=1))
        assert stats.empirical_variance == 0.0

    def test_mean_tracks_expectation_at_identity(self):
        # Q = P, k=1: unbiased whatever the pilot; 5 sigma window on the mean
        pair = make_perturbed(uniform(2), [0.0, 0.0], 0.0)
        trials, m = 5000, 50
        c = TrialConfig(pop=POP10, pair=pair, k=1, m=m, t=5, trials=trials,
                        base_seed=7, eps1=0.5, eps2=0.5)
        stats = run_trials(c, threads=4)
        stderr = math.sqrt(stats.empirical_variance / trials)
        assert abs(stats.empirical_mean - 1.0) <= 5 * stderr
        # single-draw variance is var_hh = 1, so trial variance ~ 1/m
        assert stats.empirical_variance == pytest.approx(1.0 / m, rel=0.3)

    def test_quantiles_are_ordered(self):
        stats = run_trials(config(trials=200))
        q50, q90, q99 = stats.error_quantiles
        assert 0.0 <= q50 <= q90 <= q99


class TestBiasDecay:
    def test_even_orders_saturate_on_all_ones(self):
        rows = bias_decay_sweep(Population([1.0, 1.0]), uniform(2), 0.5,
                                ks=range(1, 7))
        ratios = [r.ratio for r in rows]
        # +g on index 1, -g on index 2: odd-order deviation terms cancel
        assert ratios == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]

    def test_odd_orders_saturate_on_mixed_signs(self):
        rows = bias_decay_sweep(Population([1.0, -1.0]), uniform(2), 0.5,
                                ks=range(1, 7))
        ratios = [r.ratio for r in rows]
        assert ratios == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]

    def test_bound_is_gamma_power_times_mu_plus(self):
        rows = bias_decay_sweep(Population([1.0, 1.0]), uniform(2), 0.5, ks=(3,))
        assert rows[0].bound == pytest.approx(0.5**3 * 2.0)

    def test_ratio_never_exceeds_one(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            x = rng.standard_normal(4)
            rows = bias_decay_sweep(Population(x), uniform(4),
                                    float(rng.uniform(0.1, 0.9)), ks=(1, 2, 3))
            for row in rows:
                assert row.ratio <= 1.0 + 1e-12

    def test_requires_an_order(self):
        # wrote a header-only table
        with pytest.raises(ValueError, match="at least one order"):
            bias_decay_sweep(Population([1.0, 1.0]), uniform(2), 0.5, ks=range(1, 1))

    def test_requires_balanced_prefix(self):
        with pytest.raises(ValueError, match="prefix"):
            bias_decay_sweep(Population([1.0, 0.0, 0.0]),
                             Distribution([0.6, 0.2, 0.2]), 0.5, ks=(1,))

    def test_nonuniform_balanced_prefix_accepted(self):
        rows = bias_decay_sweep(Population([1.0, 0.0, 0.0, 1.0]),
                                Distribution([0.2, 0.3, 0.3, 0.2]), 0.5, ks=(2,))
        assert rows[0].bound == pytest.approx(0.25 * 2.0)


class TestZeroOne:
    def test_small_run_shape(self):
        out = zero_one_experiment(n=100, fraction_ones=0.5, gamma=0.5,
                                  eps=0.25, trials=50, base_seed=1)
        assert out.exp == "zero-one"
        assert out.config.k == 2
        # m = ceil(4 * 100^(1/2) * 0.25^(-1)) = 160
        assert out.config.m == 160
        assert float(np.sum(out.config.pop.values)) == 50.0
        assert out.config.eps2 == pytest.approx(0.25 * math.sqrt(50.0 * 100.0))
        assert success_budget(out.config) == pytest.approx(0.25 * (50.0 + math.sqrt(5000.0)))
        assert 0.0 <= out.stats.success_rate <= 1.0

    def test_seeded_run_mostly_succeeds(self):
        out = zero_one_experiment(n=100, fraction_ones=0.5, gamma=0.5,
                                  eps=0.25, trials=60, base_seed=3, threads=2)
        assert out.stats.success_rate >= 0.6

    def test_all_zeros_population(self):
        out = zero_one_experiment(n=50, fraction_ones=0.0, gamma=0.5,
                                  eps=0.25, trials=10, base_seed=0)
        assert float(np.sum(out.config.pop.values)) == 0.0
        assert out.stats.success_rate == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            zero_one_experiment(n=100, fraction_ones=0.5, gamma=0.25,
                                eps=0.5, trials=10, base_seed=0)  # eps >= gamma
        with pytest.raises(ValueError):
            zero_one_experiment(n=101, fraction_ones=0.5, gamma=0.5,
                                eps=0.25, trials=10, base_seed=0)  # odd n
        with pytest.raises(ValueError):
            zero_one_experiment(n=100, fraction_ones=1.5, gamma=0.5,
                                eps=0.25, trials=10, base_seed=0)


    def test_size_beyond_int64_names_the_size(self):
        # np.zeros raised "Maximum allowed dimension exceeded"
        with pytest.raises(OverflowError, match=(
            r"^population size 100000000000000000000000 is beyond the int64 index range$"
        )):
            zero_one_experiment(n=10**23, fraction_ones=0.5, gamma=0.5,
                                eps=0.25, trials=1, base_seed=0)


class TestDistinguishability:
    def setup_method(self):
        self.realized = realize_integer_counts(
            construct_matched_pair(1, F_HALF, 30))

    def test_rows_shape_and_determinism(self):
        rows = distinguishability_experiment(self.realized, m_values=(10, 40),
                                             trials=30, base_seed=5)
        again = distinguishability_experiment(self.realized, m_values=(10, 40),
                                              trials=30, base_seed=5, threads=3)
        assert rows == again
        assert [r.m for r in rows] == [10, 40]
        for r in rows:
            assert r.separation_z >= 0.0

    def test_null_calibration_shows_no_separation(self):
        rows = distinguishability_experiment(self.realized, m_values=(40,),
                                             trials=200, base_seed=11,
                                             null_calibration=True)
        assert rows[0].separation_z < 3.0

    def test_real_arms_separate_more_with_samples(self):
        rows = distinguishability_experiment(self.realized, m_values=(5, 160),
                                             trials=150, base_seed=2, threads=4)
        assert rows[1].separation_z > rows[0].separation_z

    def test_trials_floor(self):
        with pytest.raises(ValueError, match="30"):
            distinguishability_experiment(self.realized, m_values=(10,),
                                          trials=10, base_seed=0)


class TestExperimentRecord:
    def test_row_covers_all_columns(self):
        c = config(trials=5)
        stats = run_trials(c)
        record = ExperimentRecord("trials", c, stats)
        row = record.row()
        assert tuple(row) == EXPERIMENT_COLUMNS
        assert row["mean"] == stats.empirical_mean
        assert row["success_rate"] == stats.success_rate
        # the plan columns are read from the config
        assert (row["exp"], row["n"], row["gamma"], row["eps1"], row["eps2"]) == (
            "trials", 2, 0.5, 0.25, 0.5)
        assert (row["k"], row["m"], row["t"], row["T"], row["seed"]) == (2, 30, 10, 5, 100)

    def test_fields_are_exp_config_stats(self):
        assert [f.name for f in dataclasses.fields(ExperimentRecord)] == [
            "exp", "config", "stats"]
