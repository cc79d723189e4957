import math
from itertools import combinations_with_replacement, groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisysum import oracle
from noisysum.estimators import closed_form_expectation, estimate_sum, variance_bound
from noisysum.model import Distribution, Population, draw_samples, make_perturbed
from noisysum.oracle import (
    BudgetExceededError,
    ExactMoments,
    _fsum_rows,
    _msum_rows,
    _pattern_weights,
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
def small_instances(draw):
    """(pop, pair, m, k, pilot) with N <= 4, m <= 5 and 1 <= k <= m."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
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

    def test_budget_enforced(self):
        pop = Population(np.ones(10))
        pair = make_perturbed(uniform(10), np.zeros(10), 0.0)
        with pytest.raises(BudgetExceededError):
            exact_estimator_moments(pop, pair, m=20, k=1)
        # explicit budget raises earlier
        with pytest.raises(BudgetExceededError):
            exact_estimator_moments(pop, pair, m=3, k=1, budget=100)

    def test_budget_counts_multisets_not_ordered_outcomes(self):
        # 3^16 ~ 4.3e7 ordered outcomes were refused, but only C(18,16) = 153
        # multisets are enumerated
        pop = Population([1.0, -2.0, 0.5])
        pair = make_perturbed(Distribution([0.5, 0.3, 0.2]), [0.2, -0.2, -0.2], 0.2)
        res = exact_estimator_moments(pop, pair, m=16, k=3, pilot=0.5)
        closed = closed_form_expectation(pop, pair, 3, 0.5)
        assert abs(res.expectation - closed) <= 1e-9 * max(1.0, abs(closed))
        assert res.outcome_count == 3**16
        assert abs(res.total_prob - 1.0) <= 1e-12
        with pytest.raises(BudgetExceededError, match="153"):
            exact_estimator_moments(pop, pair, m=16, k=3, pilot=0.5, budget=152)

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


def outcome(fn, *args):
    """Every field's repr (bits, nan and the sign of zero), or the error raised."""
    try:
        res = fn(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)
    return tuple(repr(v) for v in vars(res).values())


def as_overflow(result):
    """The oracle raises fsum's -inf + inf ValueError as an OverflowError, same text."""
    return (OverflowError, result[1]) if result[0] is ValueError else result


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

    @pytest.mark.parametrize("x, probs", [
        # P(2) = 1e-300: order 1 reaches 2e300, order 2 divides by P(2)^2 = 0
        ([1.0, 1.0], [1.0, 1e-300]),
        # 1.2e308 twice in one outcome: fsum's intermediate overflow
        ([0.6e308, 0.6e308], [0.5, 0.5]),
        # +inf and -inf in one outcome: fsum's ValueError, an OverflowError in the oracle
        ([1.7e308, -1.7e308], [0.5, 0.5]),
    ])
    def test_overflowing_terms_behave_as_the_loop(self, x, probs):
        pop = Population(x)
        pair = make_perturbed(Distribution(probs), [0.0, 0.0], 0.0)
        with np.errstate(all="ignore"):
            for m in (2, 3):
                for k in range(1, m + 1):
                    args = (pop, pair, m, k, 0.0)
                    assert outcome(exact_estimator_moments, *args) == (
                        as_overflow(outcome(loop_estimator_moments, *args))
                    )
                    assert outcome(exact_xi_moments, *args) == (
                        as_overflow(outcome(loop_xi_moments, *args))
                    )


@pytest.mark.parametrize("m, width", [(5, 5), (100, 10)])
def test_pattern_weights(m, width):
    # (m+1)^width fits an int64 key at (5, 5); (100, 10) takes the row-unique path
    rng = np.random.default_rng(m)
    counts = np.zeros((50, width), dtype=np.intp)
    for row in counts:
        row[:] = rng.multinomial(m, np.full(width, 1.0 / width))
    want = [float(math.factorial(m) // math.prod(map(math.factorial, row.tolist()))) for row in counts]
    assert _pattern_weights(counts, m).tolist() == want


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
        sizes = np.array([len(row) for row in rows])
        wants = [fsum_or_error(row) for row in rows]
        # The vectorized pass alone: fsum's finite results bit for bit,
        # anything else not finite.
        for got, want in zip(_msum_rows(terms).tolist(), wants):
            if isinstance(want, str) and math.isfinite(float(want)):
                assert repr(got) == want
            else:
                assert not math.isfinite(got)
        # With the math.fsum redo: every row's value, or the first row's error.
        errors = [as_overflow(w) for w in wants if not isinstance(w, str)]
        try:
            got = [repr(v) for v in _fsum_rows([terms], [sizes])[0].tolist()]
        except (OverflowError, ValueError) as exc:
            got = type(exc), str(exc)
        assert got == (errors[0] if errors else wants)
