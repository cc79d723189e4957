import math
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from noisysum import estimators
from noisysum.estimators import (
    K_MAX,
    EstimatorReport,
    InfeasiblePlanError,
    NonFiniteEstimateError,
    PlanParameters,
    bias_bound,
    closed_form_expectation,
    collision_estimator,
    estimate_sum,
    frequency_vector,
    improved_estimate_sum,
    plan_parameters,
    required_order,
    variance_bound,
)
from noisysum.model import (
    Distribution,
    Population,
    SampleBatch,
    draw_samples,
    make_perturbed,
)


def uniform(n):
    return Distribution(np.full(n, 1.0 / n))


def batch(indices):
    return SampleBatch(indices=np.asarray(indices, dtype=np.int64), seed=0)


POP10 = Population([1.0, 0.0])
POP11 = Population([1.0, 1.0])
PAIR55 = make_perturbed(uniform(2), [0.5, -0.5], 0.5)


def exact_xi(indices, h, x, p):
    """A_h at pilot 0 as an exact rational in the float inputs."""
    total = sum(
        (math.comb(y, h) * Fraction(x[i - 1]) / Fraction(p[i - 1]) ** h
         for i, y in Counter(indices).items()),
        Fraction(0),
    )
    return total / math.comb(len(indices), h)


def direct_estimate(indices, k, pilot, x, p):
    """Straight transcription of the defining formula, no shortcuts."""
    m = len(indices)
    n = len(x)
    y = [sum(1 for j in indices if j == i + 1) for i in range(n)]
    total = pilot
    for h in range(1, k + 1):
        xi = sum(
            math.comb(y[i], h) * (x[i] - p[i] * pilot) / p[i] ** h
            for i in range(n)
        ) / math.comb(m, h)
        total += (-1) ** (h + 1) * math.comb(k, h) * xi
    return total


class TestFrequencyVector:
    def test_counts(self):
        freq = frequency_vector(batch([1, 1, 2]), n=2)
        idx, cnt = freq.sampled
        assert np.array_equal(idx, [0, 1])
        assert np.array_equal(cnt, [2, 1])
        assert freq.n == 2
        assert freq.m == 3
        assert type(freq.m) is int

    def test_unsampled_indices_get_zero(self):
        # only sampled positions are kept; the other counts are implicitly 0
        freq = frequency_vector(batch([3]), n=4)
        idx, cnt = freq.sampled
        assert np.array_equal(idx, [2])
        assert np.array_equal(cnt, [1])
        assert freq.n == 4

    def test_rejects_index_above_n(self):
        with pytest.raises(ValueError, match="above N"):
            frequency_vector(batch([1, 3]), n=2)

    def test_sampled_view(self):
        freq = frequency_vector(batch([4, 4, 1]), n=5)
        idx, cnt = freq.sampled
        assert np.array_equal(idx, [0, 3])
        assert np.array_equal(cnt, [1, 2])


class TestCollisionEstimator:
    # Batch (1,1,2) on x=(1,0), uniform nominal, pilot 0: Y=(2,1).
    # A_1 = (1/3) [2*(1/.5) + 1*0] = 4/3
    # A_2 = (1/3) [1*(1/.25)] = 4/3
    def test_order_one_frozen(self):
        freq = frequency_vector(batch([1, 1, 2]), n=2)
        a1 = collision_estimator(freq, 1, POP10, uniform(2), 0.0)
        assert a1 == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_order_two_frozen(self):
        freq = frequency_vector(batch([1, 1, 2]), n=2)
        a2 = collision_estimator(freq, 2, POP10, uniform(2), 0.0)
        assert a2 == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_no_collisions_gives_zero(self):
        freq = frequency_vector(batch([1, 2, 3]), n=3)
        pop = Population([1.0, 2.0, 3.0])
        assert collision_estimator(freq, 2, pop, uniform(3), 0.0) == 0.0

    def test_rejects_population_of_another_size(self):
        freq = frequency_vector(batch([1, 2]), n=3)
        with pytest.raises(ValueError, match="disagree on N"):
            collision_estimator(freq, 1, POP10, uniform(2), 0.0)

    def test_h_out_of_range(self):
        freq = frequency_vector(batch([1, 2]), n=2)
        with pytest.raises(ValueError):
            collision_estimator(freq, 0, POP10, uniform(2), 0.0)
        with pytest.raises(ValueError):
            collision_estimator(freq, 3, POP10, uniform(2), 0.0)

    def test_pilot_equals_pre_centering(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(6))
        x = rng.standard_normal(6)
        nominal = Distribution(p)
        freq = frequency_vector(batch(rng.integers(1, 7, size=30)), n=6)
        w = 2.7
        shifted = Population(x - p * w)
        for h in (1, 2, 3):
            assert collision_estimator(freq, h, Population(x), nominal, w) == (
                pytest.approx(collision_estimator(freq, h, shifted, nominal, 0.0),
                              rel=1e-12, abs=1e-12)
            )

    def test_term_above_1e300_stays_finite(self):
        # tiny nominal probability pushes the running product past 1e300
        # while the true value (~4e302) is still representable
        p = Distribution([1e-101, 1.0 - 1e-101])
        pop = Population([1.0, 0.0])
        freq = frequency_vector(batch([1, 1, 1, 1, 2]), n=2)
        a3 = collision_estimator(freq, 3, pop, p, 0.0)
        # C(4,3)/(C(5,3) * p^3) evaluated from logs, independently of the running product
        expected = math.exp(
            math.log(math.comb(4, 3)) - math.log(math.comb(5, 3))
            - 3 * math.log(1e-101)
        )
        assert math.isfinite(a3)
        assert a3 == pytest.approx(expected, rel=1e-12)


class TestEstimateSum:
    def test_order_two_frozen(self):
        # zeta_2 = 2*(4/3) - 4/3 = 4/3
        report = estimate_sum(batch([1, 1, 2]), 2, 0.0, POP10, uniform(2))
        assert report.estimate == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert report.xi_values == pytest.approx((4.0 / 3.0, 4.0 / 3.0))
        assert report.k == 2 and report.m == 3 and report.t == 0

    def test_order_one_is_importance_weighted_mean(self):
        rng = np.random.default_rng(9)
        p = rng.dirichlet(np.ones(5))
        x = rng.standard_normal(5)
        idx = rng.integers(1, 6, size=40)
        report = estimate_sum(batch(idx), 1, 0.0, Population(x), Distribution(p))
        plain = np.mean(x[idx - 1] / p[idx - 1])
        assert report.estimate == pytest.approx(plain, rel=1e-12)

    def test_constant_ratio_is_exact_at_order_one(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        pop = Population(3.0 * p)  # x_i / p_i = 3 for every i
        report = estimate_sum(batch([2, 4, 4, 1]), 1, 0.0, pop, Distribution(p))
        assert report.estimate == pytest.approx(3.0, rel=1e-15)

    def test_matches_direct_formula_on_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(4, 13))
            k = int(rng.integers(1, 5))
            if k > m:
                continue
            p = rng.dirichlet(np.ones(n))
            x = np.round(rng.standard_normal(n), 3)
            pilot = float(rng.choice([0.0, 1.0, -0.5]))
            idx = rng.integers(1, n + 1, size=m)
            report = estimate_sum(batch(idx), k, pilot, Population(x), Distribution(p))
            expected = direct_estimate(idx.tolist(), k, pilot, x.tolist(), p.tolist())
            assert report.estimate == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_rejects_bad_k(self):
        b = batch([1, 2])
        with pytest.raises(ValueError):
            estimate_sum(b, 0, 0.0, POP10, uniform(2))
        with pytest.raises(ValueError):
            estimate_sum(b, 3, 0.0, POP10, uniform(2))  # k > m
        with pytest.raises(ValueError):
            estimate_sum(batch([1] * 40), 33, 0.0, POP10, uniform(2))

    def test_rejects_non_finite_pilot(self):
        with pytest.raises(ValueError):
            estimate_sum(batch([1, 2]), 1, math.nan, POP10, uniform(2))

    def test_rejects_index_above_n(self):
        with pytest.raises(ValueError, match="above N=2"):
            estimate_sum(batch([1, 3]), 1, 0.0, POP10, uniform(2))

    # p_1 = 1e-300 drawn five times: A_1 is about 7e299 and A_2 about 1e600.
    TINY_P = [1e-300, 0.5, 0.25, 0.25]
    TINY_DRAWS = [1, 1, 1, 1, 1, 2, 3]

    @pytest.mark.parametrize("x, p, idx, k, message", [
        ([1.0] * 4, TINY_P, TINY_DRAWS, 2, "order-2 collision terms"),
        ([1.0] * 4, TINY_P, TINY_DRAWS, 5, "order-2 collision terms"),
        ([1e308, 1e308], [0.5, 0.5], [1, 2], 1, "order-1 collision terms"),
        ([1e308, 0.0], [0.5, 0.5], [1, 2], 2, "order-2 recombination"),
        # A_2 is 5e205; A_3 = C(3,3) / (C(4,3) * 1e-309) = 2.5e308 is just out of range
        ([1.0, 1.0], [1e-103, 1.0 - 1e-103], [1, 1, 1, 2], 4, "order-3 collision terms"),
    ])
    def test_overflow_names_the_order(self, x, p, idx, k, message):
        with pytest.raises(NonFiniteEstimateError, match=message):
            estimate_sum(batch(idx), k, 0.0, Population(x), Distribution(np.array(p)))

    def test_largest_finite_order_still_answers(self):
        report = estimate_sum(batch(self.TINY_DRAWS), 1, 0.0, Population([1.0] * 4),
                              Distribution(np.array(self.TINY_P)))
        assert report.estimate == pytest.approx(5.0 / 7.0 * 1e300, rel=1e-12)


class TestOneCountPath:
    """Every batch is counted by ``frequency_vector``, whoever estimates it."""

    @pytest.fixture
    def count_calls(self, monkeypatch):
        calls = []
        real = estimators.frequency_vector

        def spy(batch, n):
            calls.append(n)
            return real(batch, n)

        monkeypatch.setattr(estimators, "frequency_vector", spy)
        return calls

    def test_estimate_sum_counts_once(self, count_calls):
        estimate_sum(batch([1, 1, 2]), 2, 0.0, POP10, uniform(2))
        assert count_calls == [2]

    def test_two_stage_estimate_counts_each_stage(self, count_calls):
        improved_estimate_sum(POP10, PAIR55, m=6, t=3, k=2, seed=0)
        assert count_calls == [2, 2]


class TestSharedKernel:
    def test_estimate_matches_per_order_calls_exactly(self):
        # index 1 has nominal mass 1e-101 but is drawn often, so its order-3
        # term passes 1e300 (order 4 would overflow)
        rng = np.random.default_rng(31)
        rows_above_1e300 = 0
        for _ in range(60):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(3, 13))
            k = int(rng.integers(1, 4))
            p = rng.dirichlet(np.ones(n))
            p[0] = 1e-101
            p[1:] *= (1.0 - 1e-101) / p[1:].sum()
            weights = np.ones(n)
            weights[0] = 4.0
            idx = rng.choice(np.arange(1, n + 1), size=m, p=weights / weights.sum())
            rows_above_1e300 += int(np.count_nonzero(idx == 1)) >= 3 and k >= 3
            pop, nominal = Population(rng.standard_normal(n)), Distribution(p)
            pilot = float(rng.choice([0.0, 1.0, -0.5]))
            report = estimate_sum(batch(idx), k, pilot, pop, nominal)
            freq = frequency_vector(batch(idx), n)
            assert report.xi_values == tuple(
                collision_estimator(freq, h, pop, nominal, pilot) for h in range(1, k + 1)
            )
        assert rows_above_1e300 > 0

    def test_terms_near_the_float_maximum_match_exact_rationals(self):
        # index 1 is drawn at least 3 times and has nominal mass P (1e-100 to
        # 1e-155) with P^-h in (1e300, 1e309) for h = 2 or 3, so its order-h
        # term often lies between 1e300 and the float maximum
        float_max = Fraction(sys.float_info.max)
        rng = np.random.default_rng(47)
        near_max = overflowed = 0
        for _ in range(200):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(3, 13))
            drawn = int(rng.integers(3, m + 1))
            idx = np.concatenate([np.ones(drawn, dtype=np.int64),
                                  rng.integers(2, n + 1, size=m - drawn)])
            p = rng.dirichlet(np.ones(n))
            p[0] = 10.0 ** -(rng.uniform(300, 309) / rng.integers(2, 4))
            p[1:] *= (1.0 - p[0]) / p[1:].sum()
            x = rng.uniform(0.5, 2.0, size=n)  # one sign, so the sum cannot cancel
            pop, nominal = Population(x), Distribution(p)
            freq = frequency_vector(batch(idx), n)
            for h in range(1, min(m, 6) + 1):
                exact = exact_xi(idx.tolist(), h, x.tolist(), p.tolist())
                if exact > float_max:
                    overflowed += 1
                    with pytest.raises(NonFiniteEstimateError, match=f"order-{h} collision"):
                        collision_estimator(freq, h, pop, nominal, 0.0)
                    continue
                near_max += exact > 1e300
                xi = collision_estimator(freq, h, pop, nominal, 0.0)
                assert abs(Fraction(xi) - exact) <= exact * Fraction(1e-15)
        assert near_max > 0 and overflowed > 0

    # Order 1 overflows (1.7e308 * 2/1.8) while order 2 (1.7e308 * 2/(3*.6*2*.6)) fits.
    X_HUGE = Population([1.7e308, 0.0])
    P_HUGE = Distribution([0.6, 0.4])

    def test_higher_order_answers_when_a_lower_order_overflows(self):
        freq = frequency_vector(batch([1, 1, 2]), n=2)
        a2 = collision_estimator(freq, 2, self.X_HUGE, self.P_HUGE, 0.0)
        assert a2 == 1.5740740740740742e308

    def test_order_one_terms_equal_the_filtered_form(self):
        # order 1 keeps every sampled index: the cnt > 0 filter and the running
        # product's factor 1.0 were dropped without changing a bit
        rng = np.random.default_rng(11)
        n, m, pilot = 5000, 4000, 0.75
        pop, nominal = Population(rng.standard_normal(n)), Distribution(rng.dirichlet(np.ones(n)))
        freq = frequency_vector(batch(rng.integers(1, n + 1, size=m)), n)
        got = next(estimators._order_products(freq, 2, pop, nominal, pilot))
        idx, cnt = freq.sampled
        cnt = cnt.astype(np.float64)
        keep = cnt > 0
        p = nominal.probs[idx][keep]
        centered = (pop.values[idx] - nominal.probs[idx] * pilot)[keep]
        want = 1.0 * ((cnt[keep] - 0) / ((m - 0) * p)) * centered
        assert got.size > 1024 and (got == want).all()
        assert got.tobytes() == want.tobytes()  # the signs of zeros too
        assert estimators._order_sum(got, 1) == math.fsum(want.tolist())

    def test_estimate_stops_at_the_first_overflowing_order(self):
        with pytest.raises(NonFiniteEstimateError, match="order-1 collision terms"):
            estimate_sum(batch([1, 1, 2]), 2, 0.0, self.X_HUGE, self.P_HUGE)

    def test_bounds_reject_zero_nominal_probability(self):
        nominal = Distribution([1.0, 0.0])
        with pytest.raises(ValueError, match="strictly positive"):
            bias_bound(POP11, nominal, 0.3, 2, 0.0)
        with pytest.raises(ValueError, match="strictly positive"):
            variance_bound(POP11, nominal, 0.3, 2, 4, 0.0)


class TestEstimatorReport:
    def test_estimate_is_recombined_at_construction(self):
        report = EstimatorReport(m=5, t=0, pilot_W=1.0,
                                 xi_values=(0.25, 0.5), seed=0)
        assert report.estimate == 1.0 + math.fsum([2 * 0.25, -1 * 0.5])

    def test_estimate_is_not_an_argument(self):
        with pytest.raises(TypeError):
            EstimatorReport(estimate=5.0, m=2, t=0, pilot_W=0.0,
                            xi_values=(1.0,), seed=0)

    def test_replace_recomputes_the_estimate(self):
        report = estimate_sum(batch([1, 1, 2]), 2, 0.0, POP10, uniform(2))
        moved = replace(report, pilot_W=1.0)
        assert moved.estimate == 1.0 + math.fsum(
            [2 * report.xi_values[0], -report.xi_values[1]])

    def test_order_is_the_number_of_xi_values(self):
        report = estimate_sum(batch([1, 1, 2]), 2, 0.0, POP10, uniform(2))
        assert report.k == 2
        assert replace(report, xi_values=(0.25, 0.5, 0.125)).k == 3

    def test_rejects_empty_xi_values(self):
        with pytest.raises(ValueError, match="at least order 1"):
            EstimatorReport(m=5, t=0, pilot_W=0.0, xi_values=(), seed=0)

    def test_overflowing_recombination_raises(self):
        with pytest.raises(NonFiniteEstimateError, match="order-2 recombination"):
            EstimatorReport(m=5, t=0, pilot_W=0.0,
                            xi_values=(1.5e308, -1.5e308), seed=0)

    def test_finite_terms_overflowing_their_sum_raise(self):
        # terms 1.2e308 and 0.7e308 are finite; math.fsum raises OverflowError
        with pytest.raises(NonFiniteEstimateError, match="order-2 recombination"):
            EstimatorReport(m=4, t=0, pilot_W=0.0,
                            xi_values=(0.6e308, -0.7e308), seed=0)

    @pytest.mark.parametrize("m, t", [(0, 0), (5, -1)])
    def test_rejects_bad_sizes(self, m, t):
        with pytest.raises(ValueError, match="m must be positive and t nonnegative"):
            EstimatorReport(m=m, t=t, pilot_W=0.0, xi_values=(1.0,), seed=0)

    def test_json_dict_round_trips(self):
        report = estimate_sum(batch([1, 1, 2]), 2, 0.0, POP10, uniform(2))
        d = report.to_json_dict()
        assert set(d) == {"estimate", "k", "m", "t", "pilot_W", "xi_values", "seed"}
        assert d["estimate"] == report.estimate
        assert d["xi_values"] == [4.0 / 3.0, 4.0 / 3.0]


class TestImprovedEstimate:
    def test_constant_population_is_exact(self):
        # pilot = 2 exactly for x=(1,1) under uniform nominal, so the main
        # stage sees identically zero centered values
        report = improved_estimate_sum(POP11, PAIR55, m=20, t=7, k=2, seed=1)
        assert report.estimate == 2.0
        assert report.t == 7
        assert report.pilot_W == 2.0
        assert report.xi_values == (0.0, 0.0)

    def test_seed_reproducibility(self):
        a = improved_estimate_sum(POP10, PAIR55, m=50, t=10, k=2, seed=7)
        b = improved_estimate_sum(POP10, PAIR55, m=50, t=10, k=2, seed=7)
        c = improved_estimate_sum(POP10, PAIR55, m=50, t=10, k=2, seed=8)
        assert a.estimate == b.estimate
        assert a.estimate != c.estimate

    def test_rejects_zero_pilot_samples(self):
        with pytest.raises(ValueError):
            improved_estimate_sum(POP10, PAIR55, m=10, t=0, k=1, seed=0)

    def test_zero_m_named_before_t(self):
        # the CLI defaults t to m, so m = 0 was reported as "t >= 1"
        with pytest.raises(ValueError, match="m must be at least 1"):
            improved_estimate_sum(POP10, PAIR55, m=0, t=0, k=1, seed=0)

    def test_mean_tracks_closed_form(self):
        # fixed-pilot sampling mean vs exact expectation, 5 sigma window
        trials, m, pilot = 2000, 40, 0.0
        expected = closed_form_expectation(POP10, PAIR55, 2, pilot)
        values = np.empty(trials)
        for i in range(trials):
            b = draw_samples(PAIR55, m=m, seed=i)
            values[i] = estimate_sum(b, 2, pilot, POP10, PAIR55.nominal).estimate
        stderr = values.std(ddof=1) / math.sqrt(trials)
        assert abs(values.mean() - expected) <= 5 * stderr


class TestClosedForm:
    def test_frozen_values(self):
        # x=(1,1), dev=(+.5,-.5): k=1 -> sum(1+g_i) = 2.0
        # k=2 -> sum(1-g_i^2) = 2*(0.75) = 1.5
        assert closed_form_expectation(POP11, PAIR55, 1, 0.0) == 2.0
        assert closed_form_expectation(POP11, PAIR55, 2, 0.0) == 1.5

    def test_sign_alternates_with_k(self):
        # x=(1,0): k=1 -> 1+g = 1.5, k=2 -> 1-g^2 = 0.75, k=3 -> 1+g^3 = 1.125
        assert closed_form_expectation(POP10, PAIR55, 1, 0.0) == 1.5
        assert closed_form_expectation(POP10, PAIR55, 2, 0.0) == 0.75
        assert closed_form_expectation(POP10, PAIR55, 3, 0.0) == 1.125

    def test_long_population_equals_math_fsum(self):
        # the sum runs through fsum_array, whose extraction takes N >= 1024
        rng = np.random.default_rng(3)
        n = 3000
        nominal = Distribution(rng.dirichlet(np.ones(n)))
        d = rng.uniform(-0.4, 0.4, n)
        d -= nominal.probs * (d @ nominal.probs) / (nominal.probs @ nominal.probs)
        pair = make_perturbed(nominal, d, 0.5)
        pop = Population(rng.standard_normal(n) * 1e3)
        for k, pilot in ((1, 0.0), (2, 2.5), (5, -40.0)):
            centered = pop.values - nominal.probs * pilot
            terms = centered * (1.0 + (-1.0) ** (k + 1) * pair.deviations**k)
            want = pilot + math.fsum(terms.tolist())
            assert repr(closed_form_expectation(pop, pair, k, pilot)) == repr(want)

    def test_zero_deviation_is_unbiased_for_every_k(self):
        pair = make_perturbed(uniform(3), [0.0, 0.0, 0.0], 0.0)
        pop = Population([2.0, -1.0, 0.5])
        for k in range(1, 6):
            for pilot in (0.0, 1.0, -3.0):
                assert closed_form_expectation(pop, pair, k, pilot) == (
                    pytest.approx(1.5, rel=1e-12)
                )


class TestBiasBound:
    def test_order_one_pilot_cancels(self):
        # bound is gamma * sum|x_i - p_i mu| regardless of the pilot
        b0 = bias_bound(POP10, uniform(2), 0.3, 1, pilot=0.0)
        b7 = bias_bound(POP10, uniform(2), 0.3, 1, pilot=7.0)
        assert b0 == pytest.approx(0.3 * (0.5 + 0.5), rel=1e-12)
        assert b7 == pytest.approx(b0, rel=1e-12)

    def test_higher_order_frozen(self):
        # k=2, pilot 0: 0.3^2 * (|1| + |0|) = 0.09
        assert bias_bound(POP10, uniform(2), 0.3, 2, pilot=0.0) == (
            pytest.approx(0.09, rel=1e-12)
        )

    def test_closed_form_never_exceeds_bound(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            p = rng.dirichlet(np.ones(n))
            gamma = float(rng.uniform(0.05, 0.8))
            raw = rng.standard_normal(n)
            centered = raw - float(raw @ p)
            scale = np.max(np.abs(centered))
            if scale == 0.0:
                continue
            pair = make_perturbed(Distribution(p), (centered / scale) * gamma, gamma)
            x = rng.standard_normal(n)
            pop = Population(x)
            mu = float(np.sum(x))
            for k in (1, 2, 3):
                pilot = 0.0 if k == 1 else float(rng.uniform(-1, 1))
                bias = abs(closed_form_expectation(pop, pair, k, pilot) - mu)
                bound = bias_bound(pop, Distribution(p), gamma, k, pilot)
                assert bias <= bound * (1 + 1e-12) + 1e-12


class TestVarianceBound:
    def test_order_one_frozen(self):
        # gamma=0, m=2: (1+0) * var_hh / 2 = 0.5 for x=(1,0) uniform
        assert variance_bound(POP10, uniform(2), 0.0, 1, 2, pilot=0.0) == (
            pytest.approx(0.5, rel=1e-12)
        )

    def test_nonincreasing_in_m(self):
        prev = math.inf
        for m in (2, 4, 8, 16, 64, 256):
            v = variance_bound(POP10, uniform(2), 0.5, 2, m, pilot=0.0)
            assert v <= prev
            prev = v

    def test_zero_population_zero_bound(self):
        pop = Population([0.0, 0.0])
        assert variance_bound(pop, uniform(2), 0.5, 2, 10, pilot=0.0) == 0.0

    def test_rejects_m_below_k(self):
        with pytest.raises(ValueError):
            variance_bound(POP10, uniform(2), 0.5, 3, 2, pilot=0.0)


class TestBoundDomains:
    @pytest.mark.parametrize("call, message", [
        (lambda: bias_bound(POP10, uniform(2), 1.0, 2, 0.0), "gamma must lie in"),
        (lambda: variance_bound(POP10, uniform(2), 1.0, 2, 4, 0.0), "gamma must lie in"),
        (lambda: bias_bound(POP10, uniform(2), 0.3, 0, 0.0), "k must be at least 1"),
        (lambda: closed_form_expectation(POP10, PAIR55, 0, 0.0), "k must be at least 1"),
    ], ids=["bias-gamma-1", "variance-gamma-1", "bias-k-0", "closed-form-k-0"])
    def test_rejects_out_of_domain(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestPlanning:
    def test_required_order_table(self):
        assert required_order(0.5, 0.5) == 1
        assert required_order(0.5, 0.25) == 2
        assert required_order(0.5, 0.2) == 3
        assert required_order(0.5, 0.125) == 3

    def test_required_order_snaps_exact_powers(self):
        # lg(0.01)/lg(0.1) = 2 exactly in the reals; float log noise must
        # not bump it to 3
        assert required_order(0.1, 0.01) == 2
        assert required_order(0.2, 0.2**5) == 5

    def test_plan_frozen_example(self):
        # gamma=.5, eps1=.25, eps2=1, n_tilde=2, var_hh=1:
        # k=2, m=ceil(4*sqrt(2))=6, t=ceil(16*(1+.5^4))=17
        plan = plan_parameters(0.5, 0.25, 1.0, 2.0, 1.0)
        assert (plan.k, plan.m, plan.t) == (2, 6, 17)

    def test_plan_zero_variance(self):
        plan = plan_parameters(0.5, 0.25, 1.0, 2.0, 0.0)
        assert plan.m == plan.k == 2
        assert plan.t == 16

    def test_zero_eps2_only_without_variance(self):
        # the all-zeros or all-ones counting instance records eps2 = 0
        assert plan_parameters(0.5, 0.25, 0.0, 2.0, 0.0) == PlanParameters(k=2, m=2, t=16)
        with pytest.raises(ValueError, match="eps2 must be positive"):
            plan_parameters(0.5, 0.25, 0.0, 2.0, 1.0)

    @pytest.mark.parametrize("eps2, c_m, c_t, message", [
        (math.nan, 4.0, 16.0, "eps2 must be positive"),
        (1.0, math.nan, 16.0, "plan constants must be positive"),
        (1.0, 4.0, math.nan, "plan constants must be positive"),
        (1.0, 0.0, 16.0, "plan constants must be positive"),
        (1.0, 4.0, -1.0, "plan constants must be positive"),
    ])
    def test_nan_fails_the_checks(self, eps2, c_m, c_t, message):
        # each nan raised "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match=message):
            plan_parameters(0.5, 0.25, eps2, 2.0, 1.0, c_m, c_t)

    @pytest.mark.parametrize("eps1, eps2, var_hh, c_m, c_t, message", [
        # exp overflows (it raised OverflowError: math range error)
        (0.5, 1e-300, 1.0, 4.0, 16.0, "planned m leaves the float range: math range error"),
        # eps2^2 underflows to 0 at order 32, where m still fits
        (0.5**32, 1e-200, 1.0, 4.0, 16.0,
         "planned t leaves the float range: float division by zero"),
        # it raised OverflowError: cannot convert float infinity to integer
        (0.5, 0.5, 1.0, 1e308, 16.0, "planned m = inf is not an integer below 2^63"),
        (0.5, 1.0, 1.0, 1e19, 16.0, "planned m = 1e+19 is not an integer below 2^63"),
        (0.5, 1.0, 1.0, 4.0, 1e19, "planned t = 1.25e+19 is not an integer below 2^63"),
        (0.5, 0.0, 0.0, 4.0, math.inf, "planned t = inf is not an integer below 2^63"),
    ])
    def test_size_beyond_int64_is_infeasible(self, eps1, eps2, var_hh, c_m, c_t, message):
        with pytest.raises(InfeasiblePlanError) as exc:
            plan_parameters(0.5, eps1, eps2, 2.0, var_hh, c_m, c_t)
        assert str(exc.value) == message

    @pytest.mark.parametrize("n_tilde, var_hh", [
        (math.inf, math.inf), (2.0, math.inf), (math.inf, 1.0), (2.0, math.nan),
    ])
    def test_non_finite_statistics_are_infeasible(self, n_tilde, var_hh):
        # gave "planned m = nan is not an integer below 2^63"
        with pytest.raises(InfeasiblePlanError) as exc:
            plan_parameters(0.5, 0.25, 1.0, n_tilde, var_hh)
        assert str(exc.value) == (
            f"plan inputs n_tilde = {n_tilde!r}, var_hh = {var_hh!r} leave the float range"
        )

    @pytest.mark.parametrize("eps2, var_hh, plan", [
        # eps2^2 overflows; the pilot term is negligible (exit 3 from the CLI)
        (1e200, 0.25, (1, 1, 16)),
        # eps2^2 overflows, yet var_hh / eps2^2 = 1e-10 still lifts t past 16
        (1e155, 1e300, (1, 1, 17)),
        # eps2^2 fits: the square is kept
        (1e150, 1e300, (1, 4, 20)),
    ])
    def test_eps2_square_beyond_float_range(self, eps2, var_hh, plan):
        assert plan_parameters(0.5, 0.5, eps2, 1.0, var_hh) == PlanParameters(*plan)

    def test_largest_int64_size_is_planned(self):
        # c_t * (1 + 1/4) is the largest float below 2^63
        c_t = (2.0**63 - 1024) / 1.25
        assert plan_parameters(0.5, 0.5, 1.0, 2.0, 1.0, c_t=c_t).t == 2**63 - 1024

    def test_m_clamped_to_k(self):
        # large eps2 drives the raw m below k
        plan = plan_parameters(0.5, 0.25, 1e6, 2.0, 1.0)
        assert plan.m == plan.k == 2

    def test_infeasible_order_raises(self):
        with pytest.raises(InfeasiblePlanError):
            plan_parameters(0.99, 1e-300, 1.0, 2.0, 1.0)

    def test_required_order_above_k_max_is_infeasible(self):
        assert required_order(0.5, 0.5**K_MAX) == K_MAX
        with pytest.raises(InfeasiblePlanError, match="needs order 40 > 32"):
            required_order(0.5, 1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            required_order(-0.1, 0.5)
        with pytest.raises(ValueError):
            required_order(0.5, 1.0)
        with pytest.raises(ValueError):
            plan_parameters(0.5, 0.25, 0.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            plan_parameters(0.5, 0.25, 1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            plan_parameters(0.5, 0.25, 1.0, 2.0, -1.0)
        with pytest.raises(ValueError, match="m >= k >= 1"):
            PlanParameters(k=3, m=2, t=1)

    def test_exact_weights_plan_order_one(self):
        # gamma = 0 leaves no bias to cancel; it was rejected as outside (0, 1)
        assert required_order(0.0, 0.1) == 1
        assert required_order(0.0, 1e-300) == 1
        # k=1: m = ceil(4 * var_hh / eps2^2) = 4, t = ceil(16 * (1 + 0)) = 16
        plan = plan_parameters(0.0, 0.1, 1.0, 2.0, 1.0)
        assert (plan.k, plan.m, plan.t) == (1, 4, 16)

    def test_scaling_in_n_tilde(self):
        # k=2: m grows like sqrt(n_tilde)
        m_small = plan_parameters(0.5, 0.25, 0.1, 100.0, 1.0).m
        m_large = plan_parameters(0.5, 0.25, 0.1, 10_000.0, 1.0).m
        assert m_large == pytest.approx(10 * m_small, rel=0.02)
