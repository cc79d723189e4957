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
caps the C(N+m-1, m) multisets actually visited.

Multisets are enumerated by support size d = 1..min(N, m): a multiset with
d distinct indices is one ascending d-combination of indices paired with
one composition of m into d positive counts, its columns in ascending
index order.  A block pairs a chunk of combinations with a chunk of
compositions, about ``BLOCK_DRAWS // d`` multisets, so memory stays
bounded at any m; the shorter list is held and the longer streamed.  A
composition carries its multinomial (one Python int per sorted count
pattern) and, per order h, a column map: its columns with count >= h in
ascending order, padded with columns whose terms are 0.0, and its rank
differences.  Each multiset is written at its rank, its position in
``combinations_with_replacement`` order: one gather per column from those
int64 differences of binomials.  Each outcome's weight and value come from
the same floating-point operations, in the same order, as a loop over one
outcome at a time: the powers and terms are tabulated with scalar
arithmetic, and each order's collision sum is ``math.fsum`` of the row,
taken for all rows at once by ``model.fsum_rows``.  The moments are
``math.fsum`` over the kept weights and values, by ``model.fsum_array``,
whose fallback to ``math.fsum`` depends on their order, hence the ranks.

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
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .model import PerturbedPair, Population, check_nominal, fsum_array, fsum_rows

DEFAULT_BUDGET = 10**7
# Index entries per block: a block at support size d holds about
# BLOCK_DRAWS // d multisets (at least one), so its arrays stay small at
# any m.  Larger blocks raise peak memory for little speed.
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


def _combination_rows(pool: range, size: int, rows: int):
    """The combinations of ``size`` items of ``pool`` (size <= len(pool)),
    in lexicographic order, as int arrays of ``rows`` combinations (the
    last may hold fewer).

    Built a level at a time: each prefix is repeated once per item that can
    follow it (``np.repeat``), and the new items are the prefix's last item
    plus an arange offset.  A run of consecutive prefixes is completed at
    once when its combinations fit in a buffer; a prefix with more is split
    by its next item first.  The buffer holds as many whole chunks as fit
    in ``BLOCK_DRAWS`` items, at least one, so short chunks cost few numpy
    calls; the pieces are copied into it in order and cut into chunks.
    """
    n = len(pool)
    room = rows * max(1, BLOCK_DRAWS // (rows * max(size, 1)))

    def extend(prefix):
        # Item i can follow a prefix of s items if size - s - 1 items remain after it.
        s = prefix.shape[1]
        last = prefix[:, -1] if s else np.full(len(prefix), -1)
        top = n - size + s  # the largest item that can follow
        counts = top - last
        ends = counts.cumsum()
        out = np.empty((int(ends[-1]), s + 1), dtype=np.intp)
        out[:, :s] = prefix.repeat(counts, axis=0)
        out[:, s] = np.arange(len(out)) + (top + 1 - ends).repeat(counts)
        return out

    def pieces(prefix):
        s = prefix.shape[1]
        last = prefix[:, -1].tolist() if s else [-1]
        total = list(accumulate(math.comb(n - 1 - i, size - s) for i in last))
        start = 0
        while start < len(prefix):
            stop = bisect_right(total, (total[start - 1] if start else 0) + room, lo=start)
            if stop == start:  # one prefix with more combinations than the buffer holds
                yield from pieces(extend(prefix[start : start + 1]))
                stop = start + 1
            else:
                piece = prefix[start:stop]
                while piece.shape[1] < size:
                    piece = extend(piece)
                yield piece
            start = stop

    left = math.comb(n, size)
    buffer, filled = np.empty((min(room, left), size), dtype=np.intp), 0
    for piece in pieces(np.empty((1, 0), dtype=np.intp)):
        while len(piece):
            take = min(len(piece), len(buffer) - filled)
            buffer[filled : filled + take] = piece[:take]
            piece, filled = piece[take:], filled + take
            if filled == len(buffer):
                buffer += pool.start
                for at in range(0, filled, rows):
                    yield buffer[at : at + rows]
                left -= filled
                buffer, filled = np.empty((min(room, left), size), dtype=np.intp), 0


def _rank_table(n: int, m: int) -> np.ndarray:
    """C(r + u, u) for r < n and u <= m, an (n, m + 1) int64 table.

    Built by Pascal's rule, one cumulative sum per row or per column,
    whichever are fewer.  The entries grow along both axes, so the largest
    is the last, C(n + m - 1, m): the multiset count, within the budget.
    """
    table = np.ones((n, m + 1), dtype=np.int64)
    if n <= m:
        for r in range(1, n):
            table[r] = np.cumsum(table[r - 1])
    else:
        for u in range(1, m + 1):
            table[:, u] = np.cumsum(table[:, u - 1])
    return table


def _rank_differences(table: np.ndarray, left: np.ndarray) -> np.ndarray:
    """D[i, j, c] = T[n-1-i, left[j, c]] - T[n-1-i, left[j, c+1]], T =
    ``_rank_table(n, m)``, for a chunk of compositions, left[j, c] being m
    minus composition j's draws before column c: (n, chunk, d) int64 entries
    in [0, C(n+m-1, m)], as T grows along its rows.  Built per chunk: one
    table over all pairs of left values would hold n (m+1)^2 entries.
    """
    rows = table[::-1]
    return rows[:, left[:, :-1]] - rows[:, left[:, 1:]]


def _cwr_rank(multisets: int, differences: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Each multiset's position in ``combinations_with_replacement(range(n), m)``,
    at [a, j] for combination a of ``index`` and composition j of ``differences``.

    With sorted draws i_t and j_t = i_t + t - 1, the multisets are the
    m-subsets of range(n + m - 1) in lexicographic order, so the rank is
    C(n + m - 1, m) - 1 - sum_t C(n + m - 2 - j_t, m - t + 1); a run of
    draws of one index telescopes to one entry of ``differences``.
    """
    compositions, d = differences.shape[1:]
    start = index * (compositions * d)
    offset = np.arange(compositions * d).reshape(compositions, d)
    rank = multisets - 1
    for c in range(d):
        rank = rank - differences.ravel()[start[:, c, None] + offset[:, c]]
    return rank


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
    # can differ from scalar ones in the last bit.  A term below count h is
    # 0.0, the row sums' padding.
    qpow = np.ones((n, m + 1))
    term = np.zeros((len(coeffs), n, m + 1))
    for i in range(n):
        for y in range(1, m + 1):
            qpow[i, y] = q[i] ** y
        for o, h in enumerate(coeffs):
            for y in range(h, m + 1):
                term[o, i, y] = math.comb(y, h) * xbar[i] / p[i] ** h
    # Both tables flattened, indexed by i * (m + 1) + y.
    qpow = qpow.ravel()
    term = term.reshape(len(coeffs), -1)
    table = _rank_table(n, m)
    weights = np.empty(multisets)
    values = np.empty(multisets)
    multinomials = {}

    def parts_of(cuts):
        """A chunk of compositions of m, from their cut points: the counts,
        the multinomials, the rank differences and, per order,
        a column map and its counts (None and all counts where every column
        has count >= h)."""
        bounds = np.pad(cuts, ((0, 0), (1, 1)), constant_values=(0, m))
        count = np.diff(bounds, axis=1)
        mult = np.empty(len(cuts))
        for r, row in enumerate(count.tolist()):
            key = tuple(sorted(row))
            if key not in multinomials:
                multinomials[key] = float(_multinomial(m, key))
            mult[r] = multinomials[key]
        orders = []
        for h in coeffs:
            used = count >= h
            if used.all():
                orders.append((None, count))
                continue
            # The columns with count >= h in ascending order, then as many
            # others as the widest row needs: their counts are below h, so
            # their terms are the 0.0 padding.
            width = int(used.sum(axis=1).max())
            column = np.argsort(~used, axis=1, kind="stable")[:, :width]
            orders.append((column, np.take_along_axis(count, column, 1)))
        return count, mult, _rank_differences(table, m - bounds), orders

    def block(index, parts):
        """Weights and values of every combination in ``index`` paired with
        every composition in ``parts``, written at their ranks."""
        count, mult, differences, orders = parts
        rows = len(index) * len(count)
        at = index * (m + 1)
        weight = mult
        for c in range(index.shape[1]):
            weight = weight * qpow[at[:, c, None] + count[:, c]]
        # Per order: the row's terms with count >= h, in index order, then 0.0 padding.
        value = base
        for o, h in enumerate(coeffs):
            column, picked = orders[o]
            where = (at[:, None, :] if column is None else np.take(at, column, axis=1)) + picked
            packed = term[o, where].reshape(rows, where.shape[-1])
            value = value + coeffs[h] * fsum_rows(packed) / float(math.comb(m, h))
        rank = _cwr_rank(multisets, differences, index).ravel()
        weights[rank] = weight.ravel()
        values[rank] = value

    # One support size d at a time: a multiset with d distinct indices is an
    # ascending d-combination of indices times a composition of m into d
    # positive counts.  The shorter of the two lists is held, the longer is
    # streamed, and a block pairs about BLOCK_DRAWS // d of them.
    for d in range(1, min(n, m) + 1):
        combos, comps = math.comb(n, d), math.comb(m - 1, d - 1)
        rows = max(1, BLOCK_DRAWS // d)
        if comps <= combos:
            chunk = min(comps, rows)
            held = [parts_of(cuts) for cuts in _combination_rows(range(1, m), d - 1, chunk)]
            for index in _combination_rows(range(n), d, max(1, rows // chunk)):
                for parts in held:
                    block(index, parts)
        else:
            chunk = min(combos, rows)
            held = list(_combination_rows(range(n), d, chunk))
            for cuts in _combination_rows(range(1, m), d - 1, max(1, rows // chunk)):
                parts = parts_of(cuts)
                for index in held:
                    block(index, parts)
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
