"""Exact estimator moments by full enumeration of sample outcomes.

Ground truth for testing: expectation and variance of the order-k
estimator are computed by walking every possible sample outcome and
weighting by its exact probability under the true distribution.  The
estimator value here is evaluated straight from its definition with
``math.comb``, deliberately not sharing code with the incremental-product
implementation it is used to check.

The estimator depends on a batch only through its frequency vector, so
outcomes are enumerated as multisets (combinations with replacement) and
weighted by exact multinomial coefficients; this visits each distinct
frequency vector once instead of each of the N^m ordered outcomes.
``outcome_count`` still reports N^m; the budget caps the C(N+m-1, m)
multisets actually visited.  Accumulation uses ``math.fsum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, groupby

from .model import PerturbedPair, Population, check_nominal

DEFAULT_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """The outcome space is too large to enumerate."""


@dataclass(frozen=True)
class ExactMoments:
    expectation: float
    variance: float
    outcome_count: int
    total_prob: float


def _multinomial(m: int, counts) -> int:
    # prod_j C(remaining, y_j); exact, bounded by N^m, no factorial blowup.
    coeff = 1
    remaining = m
    for y in counts:
        coeff *= math.comb(remaining, y)
        remaining -= y
    return coeff


def _enumerate(pop, pair, m, k, pilot, budget, value_fn):
    check_nominal(pop, pair.nominal)
    n = pop.size
    if m < 1:
        raise ValueError("m must be at least 1")
    if not (1 <= k <= m):
        raise ValueError("need 1 <= k <= m")
    multisets = math.comb(n + m - 1, m)
    if multisets > budget:
        raise BudgetExceededError(
            f"C(N+m-1, m) = {multisets} multisets for N={n}, m={m} exceed the budget {budget}"
        )
    q = pair.true_dist.probs
    p = pair.nominal.probs
    xbar = pop.values - p * pilot
    probs, firsts, seconds = [], [], []
    for outcome in combinations_with_replacement(range(n), m):
        pairs = [(i, len(list(g))) for i, g in groupby(outcome)]
        weight = float(_multinomial(m, (y for _, y in pairs)))
        for i, y in pairs:
            weight *= q[i] ** y
        value = value_fn(pairs, xbar, p, m, k, pilot)
        probs.append(weight)
        firsts.append(weight * value)
        seconds.append(weight * value * value)
    total = math.fsum(probs)
    expectation = math.fsum(firsts)
    variance = math.fsum(seconds) - expectation**2
    variance = max(variance, 0.0)  # exact in theory; negatives are float cancellation
    return ExactMoments(
        expectation=expectation,
        variance=variance,
        outcome_count=n**m,
        total_prob=total,
    )


def _collision_sum(pairs, xbar, p, h) -> float:
    # sum_i C(Y_i, h) xbar_i / P(i)^h over indices drawn at least h times.
    return math.fsum(math.comb(y, h) * xbar[i] / p[i] ** h for i, y in pairs if y >= h)


def _estimator_value(pairs, xbar, p, m, k, pilot) -> float:
    value = pilot
    for h in range(1, k + 1):
        acc = _collision_sum(pairs, xbar, p, h)
        value += (-1.0) ** (h + 1) * math.comb(k, h) * acc / math.comb(m, h)
    return value


def exact_estimator_moments(
    pop: Population,
    pair: PerturbedPair,
    m: int,
    k: int,
    pilot: float = 0.0,
    budget: int = DEFAULT_BUDGET,
) -> ExactMoments:
    """Exact expectation/variance of the order-k estimate from m samples."""
    return _enumerate(pop, pair, m, k, pilot, budget, _estimator_value)


def exact_xi_moments(
    pop: Population,
    pair: PerturbedPair,
    m: int,
    h: int,
    pilot: float = 0.0,
    budget: int = DEFAULT_BUDGET,
) -> ExactMoments:
    """Exact moments of the single order-h collision average."""

    def value_fn(pairs, xbar, p, m_, _k, _pilot):
        return _collision_sum(pairs, xbar, p, h) / math.comb(m_, h)

    return _enumerate(pop, pair, m, h, pilot, budget, value_fn)
