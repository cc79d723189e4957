#!/usr/bin/env python3
"""From accuracy targets to sample budgets, and checking they deliver.

plan_parameters turns (gamma, eps1, eps2) plus two population scalars
into a triple (k, m, t): the order that cancels bias to eps1 relative,
the main-stage budget that holds the fluctuation at scale eps2, and the
pilot budget.  The second half replays the plan on a counting instance
under the worst skew the closeness bound allows and reports how often
the error stays inside eps * (mu + sqrt(mu * n)).
"""

from noisysum.estimators import plan_parameters
from noisysum.harness import success_budget, zero_one_experiment


def show_plans():
    print("plans for n_tilde = 2, var_hh = 1 (two-point uniform):")
    print("  gamma  eps1   eps2   ->  k    m     t")
    for gamma, eps1, eps2 in (
        (0.5, 0.25, 1.0),
        (0.5, 0.1, 1.0),
        (0.5, 0.25, 0.25),
        (0.9, 0.25, 1.0),
    ):
        plan = plan_parameters(gamma, eps1, eps2, n_tilde=2.0, var_hh=1.0)
        print(f"  {gamma:<6} {eps1:<6} {eps2:<6} ->  {plan.k:<4} {plan.m:<5} {plan.t}")


def replay_counting():
    # n = 2000, half ones, skew 0.5, target eps = gamma^2: the plan picks
    # k = 2 and the success rate should clear 2/3 by a wide margin.
    out = zero_one_experiment(
        n=2000, fraction_ones=0.5, gamma=0.5, eps=0.25,
        trials=500, base_seed=99, threads=4,
    )
    plan = out.config
    mu = plan.pop.values.sum()
    print(f"\ncounting 1000 ones among n = 2000 under 50% skew:")
    print(f"  plan: k = {plan.k}, m = {plan.m}, pilot t = {plan.t}")
    print(f"  error budget = {success_budget(plan):.1f} around mu = {mu:.0f}")
    print(f"  success rate over 500 trials = {out.stats.success_rate:.3f}")
    q50, q90, q99 = out.stats.error_quantiles
    print(f"  |error| quantiles: 50% = {q50:.1f}, 90% = {q90:.1f}, 99% = {q99:.1f}")


if __name__ == "__main__":
    show_plans()
    replay_counting()
