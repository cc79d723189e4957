import math
from itertools import combinations, combinations_with_replacement, groupby

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from noisysum import model, oracle
from noisysum.estimators import closed_form_expectation, estimate_sum, variance_bound
from noisysum.model import (
    Distribution, Population, draw_samples, fsum_array, fsum_rows, make_perturbed,
)
from noisysum.oracle import (
    BudgetExceededError,
    ExactMoments,
    _combination_rows,
    _cwr_rank,
    _rank_differences,
    _rank_table,
    exact_estimator_moments,
    exact_xi_moments,
)


def uniform(n):
    return Distribution(np.full(n, 1.0 / n))


POP10 = Population([1.0, 0.0])
IDENTITY_PAIR = make_perturbed(uniform(2), [0.0, 0.0], 0.0)
PAIR55 = make_perturbed(uniform(2), [0.5, -0.5], 0.5)
SEEDS = 400  # consecutive seeds behind each sample mean


class TestHandEnumeration:
    def test_importance_weighted_variance_frozen(self):
        # x=(1,0), uniform, Q=P, m=2, k=1.  Four equally likely ordered
        # outcomes -> estimates 2,1,1,0: E = 1, E[sq] = 3/2, Var = 1/2.
        res = exact_estimator_moments(POP10, IDENTITY_PAIR, m=2, k=1)
        assert abs(res.expectation - 1.0) <= 1e-12
        assert abs(res.variance - 0.5) <= 1e-12
        assert res.outcome_count == 4
        assert abs(res.total_prob - 1.0) <= 1e-12

    def test_perturbed_order_one_frozen(self):
        # Q=(3/4,1/4), estimates per draw: 2 w.p. 3/4, 0 w.p. 1/4
        # single draw: E = 3/2, E[sq] = 3, Var = 3/4; m=2 halves variance
        res = exact_estimator_moments(POP10, PAIR55, m=2, k=1)
        assert res.expectation == pytest.approx(1.5, abs=1e-12)
        assert res.variance == pytest.approx(0.375, abs=1e-12)

    def test_xi_two_frozen(self):
        # m=2: xi_2 = C(Y_1,2) x_1/p_1^2 = 4 iff both draws hit index 1
        # (prob 9/16), else 0 -> E = 9/4, E[sq] = 9, Var = 9 - 81/16
        res = exact_xi_moments(POP10, PAIR55, m=2, h=2)
        assert res.expectation == pytest.approx(2.25, abs=1e-12)
        assert res.variance == pytest.approx(9.0 - 81.0 / 16.0, abs=1e-12)


class TestAgainstClosedForm:
    def pairs(self):
        yield Population([2.0]), make_perturbed(uniform(1), [0.0], 0.0)
        yield Population([1.0, -0.5]), make_perturbed(uniform(2), [0.4, -0.4], 0.4)
        yield (Population([1.0, 0.0, -2.0]),
               make_perturbed(Distribution([0.5, 0.3, 0.2]),
                              [0.2, -0.1, -0.35], 0.35))

    def test_expectation_matches_for_all_small_cases(self):
        for pop, pair in self.pairs():
            mu = float(np.sum(pop.values))
            for m in range(1, 5):
                for k in range(1, m + 1):
                    for pilot in (0.0, 0.5 * mu, mu, 1.3):
                        res = exact_estimator_moments(pop, pair, m=m, k=k, pilot=pilot)
                        want = closed_form_expectation(pop, pair, k, pilot)
                        scale = max(1.0, abs(want))
                        assert abs(res.expectation - want) <= 1e-9 * scale

    def test_variance_within_bound(self):
        for pop, pair in self.pairs():
            gamma = pair.gamma_bound
            for m in range(1, 5):
                for k in range(1, m + 1):
                    res = exact_estimator_moments(pop, pair, m=m, k=k, pilot=0.0)
                    bound = variance_bound(pop, pair.nominal, gamma, k, m, pilot=0.0)
                    assert res.variance <= bound * (1 + 1e-12) + 1e-12

    def test_xi_expectation_is_tilted_sum(self):
        # E[xi_h] = sum_i (1+g_i)^h xbar_i for every h
        pop, pair = Population([1.0, -2.0]), PAIR55
        for m in (2, 3, 4):
            for h in range(1, m + 1):
                res = exact_xi_moments(pop, pair, m=m, h=h)
                want = float(np.sum((1.0 + pair.deviations) ** h * pop.values))
                assert res.expectation == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_unbiased_when_q_equals_p(self):
        pop = Population([0.7, -1.1, 2.4])
        pair = make_perturbed(uniform(3), [0.0, 0.0, 0.0], 0.0)
        for k in (1, 2, 3):
            res = exact_estimator_moments(pop, pair, m=3, k=k, pilot=0.2)
            assert res.expectation == pytest.approx(2.0, rel=1e-12)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def small_instances(draw, max_n=4, max_m=5):
    """(pop, pair, m, k, pilot) with N <= max_n, m <= max_m and 1 <= k <= m."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    k = draw(st.integers(1, m))
    x = draw(st.lists(_floats(-10.0, 10.0), min_size=n, max_size=n))
    w = np.array(draw(st.lists(_floats(0.05, 1.0), min_size=n, max_size=n)))
    p = w / w.sum()
    r = np.array(draw(st.lists(_floats(-1.0, 1.0), min_size=n, max_size=n)))
    gamma = draw(_floats(0.0, 0.9))
    # |r - E_P r| <= 2, so the deviations stay within gamma and balance under P
    deviations = 0.5 * gamma * (r - float(np.dot(r, p)))
    pair = make_perturbed(Distribution(p), deviations, gamma)
    return Population(x), pair, m, k, draw(_floats(-5.0, 5.0))


class TestAgainstClosedFormProperty:
    @given(small_instances())
    @settings(max_examples=200, deadline=None)
    def test_expectation_matches_closed_form(self, instance):
        pop, pair, m, k, pilot = instance
        res = exact_estimator_moments(pop, pair, m=m, k=k, pilot=pilot)
        want = closed_form_expectation(pop, pair, k, pilot)
        assert abs(res.expectation - want) <= 1e-9 * max(1.0, abs(want))


class TestSampleMeanProperty:
    # A 5-standard-error bound is statistical, so the examples are fixed
    # (derandomize) rather than new on every run.
    @given(small_instances())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_mean_over_seeds_matches_oracle(self, instance):
        pop, pair, m, k, pilot = instance
        res = exact_estimator_moments(pop, pair, m=m, k=k, pilot=pilot)
        estimates = [
            estimate_sum(draw_samples(pair, m, seed), k, pilot, pop, pair.nominal).estimate
            for seed in range(SEEDS)
        ]
        stderr = math.sqrt(res.variance / SEEDS)
        slack = 5.0 * stderr + 1e-9 * max(1.0, abs(res.expectation))
        assert abs(math.fsum(estimates) / SEEDS - res.expectation) <= slack


class TestBookkeeping:
    def test_outcome_count_and_total_prob(self):
        res = exact_estimator_moments(POP10, PAIR55, m=5, k=2)
        assert res.outcome_count == 2**5
        assert abs(res.total_prob - 1.0) <= 1e-12

    def test_budget_enforced(self, monkeypatch):
        pop = Population(np.ones(10))
        pair = make_perturbed(uniform(10), np.zeros(10), 0.0)
        with pytest.raises(BudgetExceededError):
            exact_estimator_moments(pop, pair, m=20, k=1)
        # a smaller budget raises earlier
        monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 100)
        with pytest.raises(BudgetExceededError):
            exact_estimator_moments(pop, pair, m=3, k=1)

    def test_budget_counts_multisets_not_ordered_outcomes(self, monkeypatch):
        # 3^16 ~ 4.3e7 ordered outcomes were refused, but only C(18,16) = 153
        # multisets are enumerated
        pop = Population([1.0, -2.0, 0.5])
        pair = make_perturbed(Distribution([0.5, 0.3, 0.2]), [0.2, -0.2, -0.2], 0.2)
        res = exact_estimator_moments(pop, pair, m=16, k=3, pilot=0.5)
        closed = closed_form_expectation(pop, pair, 3, 0.5)
        assert abs(res.expectation - closed) <= 1e-9 * max(1.0, abs(closed))
        assert res.outcome_count == 3**16
        assert abs(res.total_prob - 1.0) <= 1e-12
        monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 152)
        with pytest.raises(BudgetExceededError, match="153"):
            exact_estimator_moments(pop, pair, m=16, k=3, pilot=0.5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            exact_estimator_moments(POP10, PAIR55, m=0, k=1)
        with pytest.raises(ValueError):
            exact_estimator_moments(POP10, PAIR55, m=2, k=3)
        with pytest.raises(ValueError):
            exact_estimator_moments(Population([1.0]), PAIR55, m=2, k=1)

    def test_variance_never_negative(self):
        # constant estimator: x = 3p makes every order-1 estimate exactly 3
        p = np.array([0.25, 0.75])
        pop = Population(3.0 * p)
        pair = make_perturbed(Distribution(p), [0.3, -0.1], 0.3)
        res = exact_estimator_moments(pop, pair, m=4, k=1)
        assert res.expectation == pytest.approx(3.0, rel=1e-12)
        assert res.variance == 0.0


# The oracle as a loop over one outcome at a time, with one math.fsum per
# order: the blocked enumeration must reproduce it bit for bit.
def _loop_moments(pop, pair, m, pilot, value_fn):
    n = pop.size
    q = pair.true_dist.probs
    p = pair.nominal.probs
    xbar = pop.values - p * pilot
    probs, firsts, seconds = [], [], []
    for multiset in combinations_with_replacement(range(n), m):
        pairs = [(i, len(list(g))) for i, g in groupby(multiset)]
        coeff, remaining = 1, m
        for _, y in pairs:
            coeff *= math.comb(remaining, y)
            remaining -= y
        weight = float(coeff)
        for i, y in pairs:
            weight *= q[i] ** y
        value = value_fn(pairs, xbar, p)
        probs.append(weight)
        firsts.append(weight * value)
        seconds.append(weight * value * value)
    total = math.fsum(probs)
    expectation = math.fsum(firsts)
    variance = math.fsum(seconds) - expectation**2
    variance = max(variance, 0.0)
    return ExactMoments(expectation, variance, n**m, total)


def _loop_collision_sum(pairs, xbar, p, h):
    return math.fsum(math.comb(y, h) * xbar[i] / p[i] ** h for i, y in pairs if y >= h)


def loop_estimator_moments(pop, pair, m, k, pilot=0.0):
    def value_fn(pairs, xbar, p):
        value = pilot
        for h in range(1, k + 1):
            acc = _loop_collision_sum(pairs, xbar, p, h)
            value += (-1.0) ** (h + 1) * math.comb(k, h) * acc / math.comb(m, h)
        return value

    return _loop_moments(pop, pair, m, pilot, value_fn)


def loop_xi_moments(pop, pair, m, h, pilot=0.0):
    def value_fn(pairs, xbar, p):
        return _loop_collision_sum(pairs, xbar, p, h) / math.comb(m, h)

    return _loop_moments(pop, pair, m, pilot, value_fn)


def fields(res):
    """Every field's repr: its bits, nan and the sign of zero."""
    return tuple(repr(v) for v in vars(res).values())


def assert_refused_where_the_loop_fails(oracle_fn, loop_fn, *args):
    """The oracle raises OverflowError exactly where the loop raises or
    returns a non-finite field, and equals the loop field for field elsewhere."""
    with np.errstate(all="ignore"):
        try:
            want = loop_fn(*args)
        except (OverflowError, ValueError):
            want = None
    moments = () if want is None else (want.expectation, want.variance, want.total_prob)
    if not (moments and all(map(math.isfinite, moments))):
        with pytest.raises(OverflowError):
            oracle_fn(*args)
    else:
        assert fields(oracle_fn(*args)) == fields(want)


@st.composite
def extreme_instances(draw):
    """Small instances (N <= 4, m <= 5) with one P(i) at 10^-U(100, 320) or
    one |x_i| at 10^U(300, 308), so that terms and moments can leave the float range."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, m))
    i = draw(st.integers(0, n - 1))
    x = draw(st.lists(_floats(-10.0, 10.0), min_size=n, max_size=n))
    w = np.array(draw(st.lists(_floats(0.05, 1.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        w[i] = 0.0
        p = w / w.sum()
        p[i] = 10.0 ** -draw(_floats(100.0, 320.0))
    else:
        p = w / w.sum()
        x[i] = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(_floats(300.0, 308.0))
    pair = make_perturbed(Distribution(p), np.zeros(n), 0.0)
    return Population(x), pair, m, k, draw(_floats(-5.0, 5.0))


SKEW3 = make_perturbed(Distribution([0.5, 0.3, 0.2]), [0.2, -0.1, -0.35], 0.35)


class TestBlockedEqualsOutcomeLoop:
    @given(small_instances())
    @settings(max_examples=200, deadline=None)
    def test_every_field_equal(self, instance):
        pop, pair, m, k, pilot = instance
        assert exact_estimator_moments(pop, pair, m, k, pilot) == (
            loop_estimator_moments(pop, pair, m, k, pilot)
        )
        assert exact_xi_moments(pop, pair, m, k, pilot) == loop_xi_moments(pop, pair, m, k, pilot)

    @pytest.mark.parametrize("rows", [14, 15, 16])
    def test_block_edges(self, monkeypatch, rows):
        # C(3+4-1, 4) = 15 multisets in blocks of 14 (+1), 15 and 16 rows
        pop = Population([1.0, -2.0, 0.5])
        monkeypatch.setattr(oracle, "BLOCK_DRAWS", 4 * rows)
        for k in range(1, 5):
            assert exact_estimator_moments(pop, SKEW3, 4, k, 0.7) == (
                loop_estimator_moments(pop, SKEW3, 4, k, 0.7)
            )
            assert exact_xi_moments(pop, SKEW3, 4, k, 0.7) == loop_xi_moments(pop, SKEW3, 4, k, 0.7)

    @given(small_instances(max_n=3, max_m=12), st.sampled_from([1, 3, 7, 64]))
    @settings(deadline=None)
    def test_tiled_blocks_equal_the_loop(self, instance, block_draws):
        # Blocks this small split the combination list, the composition list
        # or both, at every support size.
        pop, pair, m, k, pilot = instance
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "BLOCK_DRAWS", block_draws)
            args = (pop, pair, m, k, pilot)
            assert exact_estimator_moments(*args) == loop_estimator_moments(*args)
            assert exact_xi_moments(*args) == loop_xi_moments(*args)

    @pytest.mark.parametrize("block_draws", [1, 5, 2**14])
    def test_outcomes_reach_the_sums_in_multiset_order(self, monkeypatch, block_draws):
        # fsum_array's fallback to math.fsum depends on the order of its
        # arrays, so each outcome sits at its combinations_with_replacement rank.
        pop, m, h = Population([1.0, -2.0, 0.5]), 6, 2
        seen = []

        def spy(values):
            seen.append(values.tolist())
            return fsum_array(values)

        monkeypatch.setattr(oracle, "fsum_array", spy)
        monkeypatch.setattr(oracle, "BLOCK_DRAWS", block_draws)
        exact_xi_moments(pop, SKEW3, m, h, 0.7)
        q, p = SKEW3.true_dist.probs, SKEW3.nominal.probs
        xbar = pop.values - p * 0.7
        weights, firsts = [], []
        for multiset in combinations_with_replacement(range(3), m):
            pairs = [(i, len(list(g))) for i, g in groupby(multiset)]
            weight = float(math.factorial(m) // math.prod(math.factorial(y) for _, y in pairs))
            for i, y in pairs:
                weight *= q[i] ** y
            weights.append(weight)
            firsts.append(weight * (_loop_collision_sum(pairs, xbar, p, h) / math.comb(m, h)))
        assert seen[:2] == [weights, firsts]

    @pytest.mark.parametrize("x, probs", [
        # P(2) = 1e-300: order 1 reaches 2e300, order 2 divides by P(2)^2 = 0
        ([1.0, 1.0], [1.0, 1e-300]),
        # 1.2e308 twice in one outcome: fsum's intermediate overflow in the loop
        ([0.6e308, 0.6e308], [0.5, 0.5]),
        # +inf and -inf in one outcome: fsum's ValueError in the loop
        ([1.7e308, -1.7e308], [0.5, 0.5]),
    ])
    def test_overflowing_terms_behave_as_the_loop(self, x, probs):
        pop = Population(x)
        pair = make_perturbed(Distribution(probs), [0.0, 0.0], 0.0)
        for m in (2, 3):
            for k in range(1, m + 1):
                args = (pop, pair, m, k, 0.0)
                assert_refused_where_the_loop_fails(
                    exact_estimator_moments, loop_estimator_moments, *args
                )
                assert_refused_where_the_loop_fails(exact_xi_moments, loop_xi_moments, *args)

    @given(extreme_instances())
    @seed(20221)
    @settings(max_examples=200, deadline=None)
    def test_beyond_float_range_refused_as_the_loop_fails(self, instance):
        assert_refused_where_the_loop_fails(
            exact_estimator_moments, loop_estimator_moments, *instance
        )
        assert_refused_where_the_loop_fails(exact_xi_moments, loop_xi_moments, *instance)


@given(st.integers(0, 9), st.integers(0, 2), st.integers(1, 130),
       st.sampled_from([1, 7, 64, 2**14]))
@example(9, 0, 1, 2**14)
@example(9, 1, 55, 1)  # C(8, 3) = 56 combinations follow item 0 at size 4
@example(9, 0, 126, 2**14)  # C(9, 4): one chunk at size 4, several at sizes 3 and 5
def test_combination_rows_equal_itertools(n, start, rows, block_draws):
    # Every size of one pool, in chunks of ``rows`` that split prefixes,
    # built in buffers of whole chunks that split them too.
    pool = range(start, start + n)
    for size in range(n + 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "BLOCK_DRAWS", block_draws)
            chunks = list(_combination_rows(pool, size, rows))
        want = list(combinations(pool, size))
        assert [len(c) for c in chunks] == [
            min(rows, len(want) - at) for at in range(0, len(want), rows)
        ]
        assert all(c.shape == (len(c), size) for c in chunks)
        assert [tuple(row) for c in chunks for row in c.tolist()] == want


@pytest.mark.parametrize("n, m", [
    (1, 1), (1, 6), (5, 1), (4, 4), (3, 9), (2, 13), (7, 3), (6, 6), (9, 2),
])
def test_rank_follows_combinations_with_replacement(n, m):
    # Every combination of each support size against every composition.
    table = _rank_table(n, m)
    ranks = {ms: r for r, ms in enumerate(combinations_with_replacement(range(n), m))}
    seen = []
    for d in range(1, min(n, m) + 1):
        index = np.array(list(combinations(range(n), d)))
        cuts = np.array(list(combinations(range(1, m), d - 1)), dtype=np.intp)
        cuts = cuts.reshape(math.comb(m - 1, d - 1), d - 1)
        bounds = np.pad(cuts, ((0, 0), (1, 1)), constant_values=(0, m))
        got = _cwr_rank(len(ranks), _rank_differences(table, m - bounds), index)
        assert got.shape == (len(index), len(cuts))
        for combo, row in zip(index.tolist(), got.tolist()):
            for counts, rank in zip(np.diff(bounds).tolist(), row):
                multiset = tuple(i for i, y in zip(combo, counts) for _ in range(y))
                assert rank == ranks[multiset]
                seen.append(rank)
    assert sorted(seen) == list(range(len(ranks)))


@pytest.mark.parametrize("n", [2, 3])
def test_rank_table_stays_in_int64_within_the_budget(n):
    # The largest m within the budget; its table holds the largest entries
    # at this N, because they grow with m.
    budget = oracle.DEFAULT_BUDGET
    low, high = 1, budget  # C(n + low - 1, low) <= budget < C(n + high - 1, high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if math.comb(n + mid - 1, mid) <= budget else (low, mid)
    table = _rank_table(n, low)
    assert table.dtype == np.int64
    assert table.shape == (n, low + 1)
    for u in (0, 1, low // 2, low - 1, low):
        assert table[:, u].tolist() == [math.comb(r + u, u) for r in range(n)]
    assert int(table.max()) == math.comb(n + low - 1, low) <= budget < 2**63
    # Rank differences at every support size, for compositions with their
    # largest count first and last: int64, exact, within the multiset count.
    for d in range(1, n + 1):
        for counts in ([low - d + 1] + [1] * (d - 1), [1] * (d - 1) + [low - d + 1]):
            left = low - np.cumsum([0] + counts)
            got = _rank_differences(table, left[None, :])
            assert got.dtype == np.int64 and got.shape == (n, 1, d)
            assert got[:, 0].tolist() == [
                [math.comb(r + a, a) - math.comb(r + b, b) for a, b in zip(left, left[1:])]
                for r in reversed(range(n))
            ]
            assert 0 <= int(got.min()) and int(got.max()) <= math.comb(n + low - 1, low)


def fsum_or_error(row):
    try:
        return repr(math.fsum(row))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


spread_floats = st.one_of(
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1000, 1000)),
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
)


class TestRowSum:
    @given(st.lists(st.lists(spread_floats, max_size=6), min_size=1, max_size=4))
    @example([[1e16, 1.0, -1e16]])
    @example([[1e-16, 1.0, 1e16]])  # half-even across partials
    @example([[0.1] * 5])
    @example([[-0.0]])
    @example([[-0.0, -0.0], [1.0]])
    @example([[math.inf, 1.0], [2.0, 3.0]])
    @example([[1.0, math.nan]])
    @example([[math.inf, -math.inf]])
    @example([[1e308, 1e308]])
    @example([[3.0], [1e308, 1e308, -1e308], [5.0]])
    def test_matches_math_fsum(self, rows):
        # Rows are zero-padded to a common width, as the oracle pads them.
        terms = np.zeros((len(rows), max(map(len, rows))))
        for r, row in enumerate(rows):
            terms[r, : len(row)] = row
        wants = [fsum_or_error(row) for row in rows]
        # fsum's finite results bit for bit, anything else not finite.
        for got, want in zip(fsum_rows(terms).tolist(), wants):
            if isinstance(want, str) and math.isfinite(float(want)):
                assert repr(got) == want
            else:
                assert not math.isfinite(got)

    @given(st.lists(st.lists(spread_floats, max_size=8), min_size=1, max_size=64))
    @example([[1.0, 2.93899299e-32]])  # one row that needs a third level
    @example([[1.0, 2.0**-60, 2.0**-120], [3.0, 0.0, 0.0]])  # a third level beside a fast row
    @example([[0.1] * 8])
    @example([[-0.0] * 8, [5e-324, -5e-324, 5e-324, 0.0, 0.0, 0.0, 0.0, 0.0]])
    # 2^M = 4 at width 2: a top exponent of 998 stays on the fast path, 999 does not.
    @example([[0.75 * 2.0**998, 0.75 * 2.0**998], [0.75 * 2.0**999, 0.75 * 2.0**999]])
    @example([[2.0**1023, 2.0**1023, -2.0**1023]])
    @example([[math.nan]])
    def test_wide_tall_and_single_rows_match_fsum_and_leave_the_input(self, rows):
        # The extraction works in place on a copy; the transpose of one row
        # is a view, so the caller's array is checked byte for byte.
        terms = np.zeros((len(rows), max(map(len, rows))))
        for r, row in enumerate(rows):
            terms[r, : len(row)] = row
        before = terms.tobytes()
        got = fsum_rows(terms).tolist()
        assert terms.tobytes() == before
        for value, row in zip(got, rows):
            want = fsum_or_error(row)
            if isinstance(want, str) and math.isfinite(float(want)):
                assert repr(value) == want
            else:
                assert not math.isfinite(value)

    def test_one_row_block_keeps_its_terms(self):
        # m = 2 at N = 2 has one two-index multiset: a single row, whose
        # terms 2.0 and ~5.9e-32 need a third level, so math.fsum reads it.
        pop = Population([1.0, 2.93899299e-32])
        pair = make_perturbed(uniform(2), [0.0, 0.0], 0.0)
        res = exact_estimator_moments(pop, pair, m=2, k=1, pilot=0.0)
        assert res == loop_estimator_moments(pop, pair, 2, 1, 0.0)
        assert res.expectation == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_referee_rows_take_the_fast_path(self, monkeypatch, seed):
        # The referee's oracle call: 25 rows, normal x, p within a factor 3,
        # q within 80% of p, m = 5, k = 4, pilot 1.5.
        rng = np.random.default_rng(seed)
        x = rng.normal(1.0, 1.0, 25)
        p = rng.uniform(0.5, 1.5, 25)
        p /= p.sum()
        d = rng.uniform(-0.4, 0.4, 25)
        d -= np.dot(d, p)
        slow = []
        monkeypatch.setattr(model, "_fsum_row", lambda row: slow.append(row) or math.fsum(row))
        pair = make_perturbed(Distribution(p), d, 0.8)
        res = exact_estimator_moments(Population(x), pair, 5, 4, 1.5)
        assert slow == []
        assert math.isfinite(res.expectation)
