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
``outcome_count`` still reports N^m; the fixed budget ``DEFAULT_BUDGET``
caps the C(N+m-1, m) multisets actually visited.  That cap is what lets a
row's sorted counts, as digits in base m + 1, key its multinomial weight in
an int64: the key is below (m+1)^min(N, m) < 2^63 at every N >= 2 within
the budget, and is the count m itself at N = 1.

Multisets are processed in blocks of numpy rows, ``BLOCK_DRAWS`` drawn
indices at a time, so memory stays bounded at any m.  A row
holds one multiset's (index, count) pairs in ascending index order.  Each
outcome's weight and value come from the same floating-point operations,
in the same order, as a loop over one outcome at a time: the powers and
terms are tabulated with scalar arithmetic, and each order's collision sum
is a vectorized, correctly rounded row sum equal to ``math.fsum`` of the
row.  The per-multiset weights and values are kept, and the moments are
``math.fsum`` over all of them, taken by ``model.fsum_array``: bit for bit
the same sums, by error-free extraction in numpy passes.

Both public functions value an outcome one way: a base plus a coefficient
times each order's collision average, summed in order of h.  The order-k
estimate starts from the pilot, with coefficients (-1)^(h+1) C(k, h); the
single average starts from -0.0 with coefficient 1 (-0.0 + v is v,
+0.0 included).  Moments are returned only where they are finite: an
outcome value, expectation, squared expectation or variance beyond the
float range raises ``OverflowError``.  A row sum that leaves the float range (fsum's own
intermediate overflow, or an inf among the terms) makes its outcome value
inf or nan, so the one check on the outcome values covers every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, islice

import numpy as np

from .model import PerturbedPair, Population, check_nominal, fsum_array

DEFAULT_BUDGET = 10**7
# Drawn indices per block: a block holds BLOCK_DRAWS // m multisets (at
# least one), so its arrays stay small at any m.  Larger blocks raise peak
# memory for little speed.
BLOCK_DRAWS = 2**14


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


def _msum_rows(terms: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a (rows x width) float array, vectorized.

    CPython's msum with one fixed slot per column: each new term is
    two-summed against every earlier slot, leaving the rounding error in
    the slot, so the nonzero slots are exactly fsum's partials.  The
    top-down pass over the nonzero slots then stops at the first inexact
    addition and applies fsum's half-even correction.  Every finite result
    equals ``math.fsum`` of the row.  Where fsum would overflow, or the row
    holds an inf or a nan, the result is not finite.
    """
    rows, width = terms.shape
    slots = np.empty_like(terms)
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(width):
            x = terms[:, c]
            for j in range(c):
                y = slots[:, j]
                swap = np.abs(x) < np.abs(y)
                big = np.where(swap, y, x)
                small = np.where(swap, x, y)
                x = big + small
                slots[:, j] = small - (x - big)
            slots[:, c] = x
        hi = np.zeros(rows)
        lo = np.zeros(rows)
        unseen = np.ones(rows, dtype=bool)  # no nonzero slot met yet
        exact = np.zeros(rows, dtype=bool)  # summing, every addition exact so far
        pending = np.zeros(rows, dtype=bool)  # inexact; next nonzero slot decides the tie
        for j in reversed(range(width)):
            y = slots[:, j]
            nonzero = y != 0.0
            step = nonzero & exact
            total = hi + y
            err = y - (total - hi)
            broke = step & (err != 0.0)
            twice = lo * 2.0
            nudged = hi + twice
            fix = nonzero & pending & (((lo < 0.0) & (y < 0.0)) | ((lo > 0.0) & (y > 0.0)))
            fix &= (nudged - hi) == twice
            start = nonzero & unseen
            hi = np.where(step, total, np.where(fix, nudged, np.where(start, y, hi)))
            lo = np.where(broke, err, lo)
            exact = (exact & ~broke) | start
            pending = (pending & ~nonzero) | broke
            unseen &= ~nonzero
    return hi


def _pattern_weights(counts: np.ndarray, m: int) -> np.ndarray:
    """float(multinomial) of each row's counts, computed once per count pattern."""
    ranked = np.sort(counts, axis=1)
    keys = ranked @ (m + 1) ** np.arange(ranked.shape[1], dtype=np.int64)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    coeffs = np.array([float(_multinomial(m, ranked[r].tolist())) for r in first])
    return coeffs[inverse.ravel()]


@np.errstate(all="ignore")  # a value beyond the float range is refused below, not warned about
def _enumerate(pop, pair, m, pilot, base, coeffs):
    """Moments of base + sum_h coeffs[h] * A_h, A_h the order-h collision average."""
    check_nominal(pop, pair.nominal)
    n = pop.size
    if m < 1:
        raise ValueError("m must be at least 1")
    if not (1 <= max(coeffs, default=0) <= m):
        raise ValueError("need 1 <= k <= m")
    if not math.isfinite(pilot):
        raise ValueError("pilot must be finite")
    multisets = math.comb(n + m - 1, m)
    if multisets > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"C(N+m-1, m) = {multisets} multisets for N={n}, m={m} exceed the budget {DEFAULT_BUDGET}"
        )
    q = pair.true_dist.probs
    p = pair.nominal.probs
    xbar = pop.values - p * pilot
    # Scalar numpy arithmetic, as a per-outcome loop does it: array powers
    # can differ from scalar ones in the last bit.  Count 0 is padding.
    qpow = np.ones((n, m + 1))
    term = np.zeros((len(coeffs), n, m + 1))
    for i in range(n):
        for y in range(1, m + 1):
            qpow[i, y] = q[i] ** y
        for o, h in enumerate(coeffs):
            for y in range(h, m + 1):
                term[o, i, y] = math.comb(y, h) * xbar[i] / p[i] ** h
    width = min(n, m)
    draws = chain.from_iterable(combinations_with_replacement(range(n), m))
    weights = np.empty(multisets)
    values = np.empty(multisets)
    done = 0
    block_draws = max(1, BLOCK_DRAWS // m) * m
    while (flat := np.fromiter(islice(draws, block_draws), dtype=np.intp)).size:
        drawn = flat.reshape(-1, m)
        rows = len(drawn)
        new = np.ones(drawn.shape, dtype=bool)
        new[:, 1:] = drawn[:, 1:] != drawn[:, :-1]
        slot = np.cumsum(new, axis=1) - 1 + width * np.arange(rows)[:, None]
        count = np.bincount(slot.ravel(), minlength=rows * width).reshape(rows, width)
        index = np.zeros(rows * width, dtype=np.intp)
        index[slot[new]] = drawn[new]
        index = index.reshape(rows, width)
        weight = _pattern_weights(count, m)
        for c in range(width):
            weight = weight * qpow[index[:, c], count[:, c]]
        # Per order: the row's terms with count >= h, in index order, then 0.0 padding.
        value = base
        for o, h in enumerate(coeffs):
            used = count >= h
            place = np.cumsum(used, axis=1) - 1
            packed = np.zeros((rows, int(place[:, -1].max()) + 1))
            packed[np.nonzero(used)[0], place[used]] = term[o, index[used], count[used]]
            value = value + coeffs[h] * _msum_rows(packed) / float(math.comb(m, h))
        weights[done : done + rows] = weight
        values[done : done + rows] = value
        done += rows
    if not np.isfinite(values).all():
        raise OverflowError("an outcome's value is not finite")
    total = fsum_array(weights)
    firsts = weights * values
    expectation = fsum_array(firsts)
    second = fsum_array(firsts * values)
    try:
        variance = second - expectation**2  # a float power: it raises where it overflows
    except OverflowError:
        raise OverflowError(f"expectation {expectation!r}, second moment {second!r}") from None
    variance = max(variance, 0.0)  # exact in theory; negatives are float cancellation
    if not (math.isfinite(expectation) and math.isfinite(variance)):
        raise OverflowError(f"expectation {expectation!r}, variance {variance!r}")
    return ExactMoments(
        expectation=expectation,
        variance=variance,
        outcome_count=n**m,
        total_prob=total,
    )


def exact_estimator_moments(
    pop: Population,
    pair: PerturbedPair,
    m: int,
    k: int,
    pilot: float = 0.0,
) -> ExactMoments:
    """Exact expectation/variance of the order-k estimate from m samples.

    Raises ``OverflowError`` where an outcome's value or a moment is beyond
    the float range.
    """
    # Orders stop at m + 1: any beyond m is refused, so a huge k costs nothing.
    coeffs = {h: (-1.0) ** (h + 1) * math.comb(k, h) for h in range(1, min(k, m + 1) + 1)}
    return _enumerate(pop, pair, m, pilot, pilot, coeffs)


def exact_xi_moments(
    pop: Population,
    pair: PerturbedPair,
    m: int,
    h: int,
    pilot: float = 0.0,
) -> ExactMoments:
    """Exact moments of the single order-h collision average.

    Raises ``OverflowError`` where an outcome's value or a moment is beyond
    the float range.
    """
    return _enumerate(pop, pair, m, pilot, -0.0, {h: 1.0})
