"""Monte-Carlo experiments: trial sweeps, bias decay, counting, separability.

A ``TrialConfig`` is the one record of an experiment's plan (k, m, t,
eps1, eps2, trials, seed); every trial runs the two-stage estimator
under it, and an ``ExperimentRecord`` pairs it with its ``TrialStats``.
The counting experiment plans k and t with ``plan_parameters``, as the
CLI does for a population file, and sizes only its main stage itself.

Determinism: trial i always uses seed ``base_seed + i``.  Parallel runs
split the trial range into contiguous chunks, compute each chunk in a
worker process, and fold the results back in trial order, so statistics
are bit-identical for any worker count.  The count is capped at the CPU
count, since more processes than cores only add overhead.

The parent builds the alias table of Q before it starts the pool, and
each worker receives the config once, through the pool initializer; a
submitted chunk carries only its trial range.  Under fork the workers
inherit the config and its cached table copy-on-write; under forkserver
or spawn the config, table included, is pickled once per worker.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .estimators import (
    C_M, C_T, _plan_size, closed_form_expectation, improved_estimate_sum, plan_parameters,
    required_order,
)
from .lowerbound import MomentMatchedPair, build_reduction_instance
from .model import (
    Distribution, PerturbedPair, Population, check_array_length, population_stats, worst_case_pair
)

# Success budgets, named by what they measure:
#   positive_sum : eps1 * sum_i |x_i|                     + eps2
#   mean_abs_dev : eps1 * (1+gamma) * E_P|x_X/P(X) - mu|  + eps2
#   zero_one     : eps1 * (mu + sqrt(mu * N))   (counting instances)
ERROR_FUNCTIONALS = ("positive_sum", "mean_abs_dev", "zero_one")


@dataclass(frozen=True)
class TrialConfig:
    """One repeated-trial experiment: the plan every trial runs.

    Each trial runs the two-stage estimator, a pilot of ``t`` samples and
    then ``m`` main samples at order ``k``.
    """

    pop: Population
    pair: PerturbedPair
    k: int
    m: int
    t: int
    trials: int
    base_seed: int
    eps1: float
    eps2: float
    error_functional: str = "mean_abs_dev"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.m < 1:  # before t, which the CLI defaults to m
            raise ValueError("m must be at least 1")
        if self.t < 1:
            raise ValueError("the pilot stage needs t >= 1")
        if self.error_functional not in ERROR_FUNCTIONALS:
            raise ValueError(f"unknown error functional {self.error_functional!r}")


@dataclass(frozen=True)
class TrialStats:
    empirical_mean: float
    empirical_variance: float
    success_rate: float
    error_quantiles: tuple[float, float, float]  # |error| at 50/90/99%


def success_budget(config: TrialConfig) -> float:
    """The absolute error a trial may incur and still count as a success.

    The positive_sum and mean_abs_dev budgets raise OverflowError when the
    statistic they scale is not finite.
    """
    stats = population_stats(config.pop, config.pair.nominal)
    if config.error_functional == "positive_sum":
        if not math.isfinite(stats.mu_plus):
            raise OverflowError(
                f"sum of absolute values sum_i |x_i| = {stats.mu_plus!r} is not finite"
            )
        return config.eps1 * stats.mu_plus + config.eps2
    if config.error_functional == "mean_abs_dev":
        p = config.pair.nominal.probs
        with np.errstate(over="ignore", invalid="ignore"):
            mad = float(np.sum(p * np.abs(config.pop.values / p - stats.mu)))
        if not math.isfinite(mad):
            raise OverflowError(f"mean absolute deviation E_P|x/P - mu| = {mad!r} is not finite")
        return config.eps1 * (1.0 + config.pair.gamma_bound) * mad + config.eps2
    if stats.mu < 0.0:
        raise ValueError("the zero_one budget needs a nonnegative mu")
    return config.eps1 * (stats.mu + math.sqrt(stats.mu * config.pop.size))


def _chunk_estimates(config: TrialConfig, start: int, stop: int) -> list[float]:
    return [
        improved_estimate_sum(
            config.pop, config.pair, config.m, config.t, config.k, config.base_seed + i
        ).estimate
        for i in range(start, stop)
    ]


# The config of the pool this process works for, set once by ``_install``.
_worker_config: TrialConfig | None = None


def _install(config: TrialConfig) -> None:
    global _worker_config
    _worker_config = config


def _worker_chunk(start: int, stop: int) -> list[float]:
    return _chunk_estimates(_worker_config, start, stop)


def _collect_estimates(config: TrialConfig, threads: int) -> np.ndarray:
    trials = config.trials
    workers = min(threads, trials, os.cpu_count() or 1)
    if workers <= 1:
        values = _chunk_estimates(config, 0, trials)
        return np.asarray(values, dtype=np.float64)
    # workers <= trials, so the bounds strictly increase: no chunk is empty
    bounds = np.linspace(0, trials, workers + 1, dtype=int).tolist()
    config.pair.true_dist._alias_table  # build once here, not once per worker
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_install, initargs=(config,)
    ) as pool:
        futures = [pool.submit(_worker_chunk, a, b) for a, b in zip(bounds, bounds[1:])]
        # Chunks are folded in trial order regardless of completion order.
        return np.concatenate([f.result() for f in futures])


def run_trials(config: TrialConfig, threads: int = 1) -> TrialStats:
    """Run ``config.trials`` independent estimates and summarize them.

    Raises OverflowError when their mean, their variance or an error is
    not finite.
    """
    budget = success_budget(config)  # before any trial: it may refuse the config
    estimates = _collect_estimates(config, threads)
    mu = float(np.sum(config.pop.values))
    with np.errstate(over="ignore", invalid="ignore"):
        errors = np.abs(estimates - mu)
        mean = float(np.mean(estimates))
        variance = float(np.var(estimates, ddof=1)) if estimates.size > 1 else 0.0
    for name, value in (("empirical mean of the estimates", mean),
                        ("empirical variance of the estimates", variance),
                        ("largest error |estimate - mu|", float(np.max(errors)))):
        if not math.isfinite(value):
            raise OverflowError(f"{name} = {value!r} is not finite")
    q50, q90, q99 = (float(v) for v in np.quantile(errors, [0.5, 0.9, 0.99]))
    return TrialStats(
        empirical_mean=mean,
        empirical_variance=variance,
        success_rate=float(np.mean(errors <= budget)),
        error_quantiles=(q50, q90, q99),
    )


@dataclass(frozen=True)
class BiasDecayRow:
    k: int
    exact_bias: float
    bound: float
    ratio: float


def _balanced_prefix_split(nominal: Distribution) -> list[int]:
    cum = np.cumsum(nominal.probs)
    j = int(np.searchsorted(cum, 0.5))
    if j >= nominal.size or abs(float(cum[j]) - 0.5) > 1e-12:
        raise ValueError("no prefix of indices carries exactly half the nominal mass")
    return list(range(1, j + 2))


def bias_decay_sweep(
    pop: Population, nominal: Distribution, gamma: float, ks
) -> tuple[BiasDecayRow, ...]:
    """Exact bias of the worst-case perturbation against gamma^k * mu_plus.

    No sampling: the bias comes from the closed-form expectation.  The
    worst-case pair puts +gamma on a mass-balanced prefix of the indices.
    The ratio never exceeds 1; it hits 1 exactly when the deviation signs
    align with the value signs at order k (parity matters: on x=(1,1) the
    odd orders cancel instead of saturating).  ``ks`` must name at least
    one order.
    """
    ks = tuple(ks)
    if not ks:
        raise ValueError("bias decay needs at least one order k")
    split = _balanced_prefix_split(nominal)
    pair = worst_case_pair(nominal, gamma, split)
    stats = population_stats(pop, nominal)
    rows = []
    for k in ks:
        exact_bias = abs(closed_form_expectation(pop, pair, k, 0.0) - stats.mu)
        bound = gamma**k * stats.mu_plus
        if bound == 0.0:
            ratio = 0.0 if exact_bias == 0.0 else math.inf
        else:
            ratio = exact_bias / bound
        rows.append(BiasDecayRow(k=k, exact_bias=exact_bias, bound=bound, ratio=ratio))
    return tuple(rows)


def zero_one_experiment(
    n: int,
    fraction_ones: float,
    gamma: float,
    eps: float,
    trials: int,
    base_seed: int,
    c_m: float = C_M,
    c_t: float = C_T,
    threads: int = 1,
) -> ExperimentRecord:
    """Count ceil(fraction_ones * n) ones out of n under adversarial skew.

    The perturbation oversamples the first half of the index range (which
    contains the ones block) by (1+gamma).  The order k and the pilot
    budget t come from ``plan_parameters`` at eps1 = eps and the variance
    scale eps2 = eps * sqrt(mu n), or eps2 = 0 when x_i / P(i) is constant
    (all zeros or all ones).  Only the main stage is sized for counting:
    m = ceil(c_m n^(1-1/k) eps^(-2/k)), at least k.  Success means
    |estimate - sum| <= eps * (mu + sqrt(mu n)).  The record's config
    holds the plan.
    """
    if not (0.0 < eps < gamma < 1.0):
        raise ValueError("need 0 < eps < gamma < 1")
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be even so a balanced split exists")
    if not (0.0 <= fraction_ones <= 1.0):
        raise ValueError("fraction_ones must lie in [0, 1]")
    k = required_order(gamma, eps)  # before any N-sized array
    check_array_length("population size", n)
    ones = math.ceil(fraction_ones * n)
    x = np.zeros(n)
    x[:ones] = 1.0
    pop = Population(x)
    nominal = Distribution(np.full(n, 1.0 / n))
    pair = worst_case_pair(nominal, gamma, np.arange(1, n // 2 + 1))
    stats = population_stats(pop, nominal)
    eps2 = 0.0 if stats.var_hh == 0.0 else eps * math.sqrt(stats.mu * n)
    plan = plan_parameters(gamma, eps, eps2, stats.n_tilde, stats.var_hh, c_m, c_t)
    m = max(k, _plan_size("m", lambda: c_m * n ** (1.0 - 1.0 / k) * eps ** (-2.0 / k)))
    config = TrialConfig(
        pop=pop,
        pair=pair,
        k=k,
        m=m,
        t=plan.t,
        trials=trials,
        base_seed=base_seed,
        eps1=eps,
        eps2=eps2,
        error_functional="zero_one",
    )
    return ExperimentRecord("zero-one", config, run_trials(config, threads=threads))


@dataclass(frozen=True)
class SeparationRow:
    m: int
    mean_ones_large: float
    mean_other: float
    separation_z: float


def distinguishability_experiment(
    realized: MomentMatchedPair,
    m_values,
    trials: int,
    base_seed: int,
    threads: int = 1,
    null_calibration: bool = False,
) -> tuple[SeparationRow, ...]:
    """How many samples until the two matched instances pull apart.

    For each m, both scenario instances are estimated ``trials`` times
    with the two-stage estimator (pilot budget t = m).  The estimator
    runs at order k+1, one above the matched moments: orders up to k are
    blind to the gap by construction, since the bias they leave behind
    absorbs exactly the difference the spectra were built to hide.  At
    order k+1 the arm expectations split by roughly the support gap, so
    separation_z (gap of arm means over pooled standard error) stays in
    the noise for small m and climbs once m tames the variance.  With
    ``null_calibration`` both arms run the same scenario, so z should
    stay below ~3.
    """
    if trials < 30:
        raise ValueError("need at least 30 trials per arm for a stable z")
    order = realized.k + 1
    if any(int(m) < order for m in m_values):
        raise ValueError(f"every m must be at least k+1 = {order}")
    seeds = [int(s) for s in np.random.SeedSequence(base_seed).generate_state(4, np.uint64)]
    scenario_b = "ones-large" if null_calibration else "ones-small"
    inst_a = build_reduction_instance(realized, "ones-large", seeds[0])
    inst_b = build_reduction_instance(realized, scenario_b, seeds[1])
    rows = []
    for m in m_values:
        m = int(m)
        arm_a, arm_b = (
            run_trials(TrialConfig(
                pop=inst.population, pair=inst.pair, k=order, m=m, t=m, trials=trials,
                base_seed=trial_base, eps1=1.0, eps2=0.0, error_functional="positive_sum",
            ), threads=threads)
            for inst, trial_base in ((inst_a, seeds[2]), (inst_b, seeds[3]))
        )
        mean_a, mean_b = arm_a.empirical_mean, arm_b.empirical_mean
        var_a, var_b = arm_a.empirical_variance, arm_b.empirical_variance
        pooled = math.sqrt(var_a / trials + var_b / trials)
        gap = abs(mean_a - mean_b)
        if pooled == 0.0:
            z = 0.0 if gap == 0.0 else math.inf
        else:
            z = gap / pooled
        rows.append(
            SeparationRow(m=m, mean_ones_large=mean_a, mean_other=mean_b, separation_z=z)
        )
    return tuple(rows)


# ---------------------------------------------------------------------------
# Tabular output records

EXPERIMENT_COLUMNS = (
    "exp", "n", "gamma", "eps1", "eps2", "k", "m", "t", "T", "seed",
    "mean", "var", "q50", "q90", "q99", "success_rate",
)


@dataclass(frozen=True)
class ExperimentRecord:
    """One experiment: its name, the config it ran and the summary statistics."""

    exp: str
    config: TrialConfig
    stats: TrialStats

    def row(self) -> dict:
        c, s = self.config, self.stats
        return dict(zip(EXPERIMENT_COLUMNS, (
            self.exp, c.pop.size, c.pair.gamma_bound, c.eps1, c.eps2,
            c.k, c.m, c.t, c.trials, c.base_seed,
            s.empirical_mean, s.empirical_variance, *s.error_quantiles, s.success_rate,
        ), strict=True))
