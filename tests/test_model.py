import gc
import math
import pickle
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import noisysum.harness as harness
import noisysum.model as model
from noisysum.estimators import improved_estimate_sum
from noisysum.model import (
    Distribution,
    PerturbedPair,
    Population,
    SampleBatch,
    _build_alias_table,
    check_array_length,
    check_nominal,
    draw_samples,
    fsum_array,
    make_perturbed,
    pair_from_distributions,
    population_stats,
    worst_case_pair,
)


MISMATCH = "true distribution does not match (1 + deviation) * nominal"


def uniform(n):
    return Distribution(np.full(n, 1.0 / n))


class TestPopulation:
    def test_stats_on_half_ones(self):
        stats = population_stats(Population([1.0, 0.0]), uniform(2))
        # mu = 1, mu_plus = 1, n_tilde = max 1/p = 2
        # var_hh = 0.5*(2-1)^2 + 0.5*(0-1)^2 = 1
        assert stats.mu == 1.0
        assert stats.mu_plus == 1.0
        assert stats.var_hh == 1.0
        assert stats.n_tilde == 2.0

    def test_stats_skewed_probs(self):
        stats = population_stats(Population([1.0, 0.0]),
                                 Distribution([0.9, 0.1]))
        # var_hh = 0.9*(1/0.9 - 1)^2 + 0.1*(0 - 1)^2 = 1/90 + 1/10 = 1/9
        assert stats.mu == pytest.approx(1.0, abs=1e-15)
        assert stats.var_hh == pytest.approx(1.0 / 9.0, rel=1e-12)
        assert stats.n_tilde == pytest.approx(10.0, rel=1e-12)

    def test_mu_plus_splits_signs(self):
        stats = population_stats(Population([3.0, -1.0, 0.0]), uniform(3))
        assert stats.mu == pytest.approx(2.0)
        assert stats.mu_plus == pytest.approx(4.0)

    def test_stats_reject_zero_probability(self):
        dist = Distribution([1.0, 0.0])
        with pytest.raises(ValueError):
            population_stats(Population([1.0, 2.0]), dist)

    def test_check_nominal(self):
        check_nominal(Population([1.0, 2.0]), uniform(2))
        with pytest.raises(ValueError, match="disagree on N"):
            check_nominal(Population([1.0]), uniform(2))
        zero = Distribution([1.0, 0.0])
        for _ in range(2):  # the positivity scan is cached per distribution
            with pytest.raises(ValueError, match="strictly positive"):
                check_nominal(Population([1.0, 2.0]), zero)

    def test_stats_beyond_float_range_are_inf(self):
        # x/p and 1/p overflow at p = 5e-324; the suite turns a RuntimeWarning into an error
        stats = population_stats(Population([1.0, 1.0]), Distribution([5e-324, 1.0]))
        assert (stats.mu, stats.mu_plus) == (2.0, 2.0)
        assert stats.var_hh == stats.n_tilde == np.inf

    def test_stats_reject_length_mismatch(self):
        with pytest.raises(ValueError):
            population_stats(Population([1.0]), uniform(2))

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            Population([1.0, np.inf])


def _expression_stats(x, p):
    """population_stats' statistics in their plain expression forms."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(np.sum(x))
        mu_plus = float(np.sum(np.abs(x)))
        var_hh = float(np.sum(p * (x / p - mu) ** 2))
        n_tilde = float(np.max(1.0 / p))
    return mu, mu_plus, var_hh, n_tilde


@st.composite
def nominal_probs(draw, n):
    """Strictly positive P of size n, some entries subnormal on request."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.dirichlet(np.full(n, draw(st.sampled_from([0.05, 1.0, 20.0]))))
    subnormal = draw(st.integers(0, min(n - 1, 3)))
    at = rng.choice(n, subnormal, replace=False)
    p[at] = np.ldexp(1.0, -rng.integers(1023, 1075, subnormal).astype(np.int32))
    p[p == 0.0] = 5e-324
    return p / p.sum()


@st.composite
def stats_inputs(draw):
    n = draw(st.integers(1, 400))
    p = draw(nominal_probs(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = {
        "zero-one": lambda: (rng.random(n) < 0.3).astype(np.float64),
        "normal": lambda: rng.standard_normal(n),
        "wide": lambda: rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
        "huge": lambda: rng.choice([-1.0, 1.0, 0.5], n) * 1.7e308,
    }[draw(st.sampled_from(["zero-one", "normal", "wide", "huge"]))]()
    return x, p


class TestInPlaceForms:
    """The one-buffer rewrites give the expression forms' bits."""

    @given(stats_inputs())
    @settings(deadline=None)
    @example((np.array([1.7e308, 1.7e308]), np.array([0.5, 0.5])))  # mu overflows
    @example((np.array([1.0, 1.0]), np.array([1.0, 5e-324])))  # x / p overflows
    def test_population_stats(self, inputs):
        x, p = inputs
        stats = population_stats(Population(x), Distribution(p))
        got = (stats.mu, stats.mu_plus, stats.var_hh, stats.n_tilde)
        assert [v.hex() for v in got] == [v.hex() for v in _expression_stats(x, p)]

    @given(st.integers(1, 400).flatmap(nominal_probs), st.integers(0, 2**32 - 1),
           st.floats(0.0, 0.99))
    @settings(deadline=None)
    def test_make_perturbed(self, p, seed, gamma):
        raw = np.random.default_rng(seed).standard_normal(p.size)
        centered = raw - float(raw @ p)
        scale = np.max(np.abs(centered))
        d = centered / scale * gamma if scale > 0.0 else np.zeros(p.size)
        pair = make_perturbed(Distribution(p), d, gamma)
        assert pair.true_dist.probs.tobytes() == ((1.0 + d) * p).tobytes()


class TestKeptArrays:
    """A 1-d float64 array is kept, not copied, and made read-only.

    Copying would cost one N-sized array per constructor on the counting
    run's setup; the caller passes a copy to keep writing.
    """

    @staticmethod
    def assert_kept(arr, stored):
        assert stored is arr
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="^assignment destination is read-only$"):
            arr[0] = 3.0

    def test_population(self):
        x = np.array([1.0, 2.0])
        self.assert_kept(x, Population(x).values)

    def test_distribution(self):
        p = np.array([0.25, 0.75])
        self.assert_kept(p, Distribution(p).probs)

    def test_make_perturbed(self):
        d = np.array([0.5, -0.5])
        self.assert_kept(d, make_perturbed(uniform(2), d, 0.5).deviations)


class TestDistribution:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Distribution([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution([1.5, -0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Distribution([])


class TestPerturbedPair:
    def test_accepts_balanced_deviation(self):
        pair = make_perturbed(uniform(2), [0.5, -0.5], 0.5)
        assert np.allclose(pair.true_dist.probs, [0.75, 0.25])
        assert pair.gamma_bound == 0.5

    def test_rejects_deviation_above_bound(self):
        with pytest.raises(ValueError):
            make_perturbed(uniform(2), [0.6, -0.6], 0.5)

    def test_rejects_unbalanced_deviation(self):
        # sum of dev*p = 0.25 != 0, so Q sums to 1.25 and is no distribution
        with pytest.raises(ValueError, match="sum to 1.25"):
            make_perturbed(uniform(2), [0.5, 0.0], 0.5)

    @pytest.mark.parametrize("deviations, gamma_bound, message", [
        ([0.5, -0.5, 0.0], 0.5, "disagree on N"),
        ([0.5, -0.5], 1.0, r"gamma_bound must lie in \[0, 1\)"),
    ], ids=["size", "gamma-1"])
    def test_rejects_bad_shape_or_bound(self, deviations, gamma_bound, message):
        with pytest.raises(ValueError, match=message):
            PerturbedPair(nominal=uniform(2), true_dist=Distribution([0.75, 0.25]),
                          deviations=np.array(deviations), gamma_bound=gamma_bound)

    def test_rejects_inconsistent_true_dist(self):
        with pytest.raises(ValueError, match=f"^{re.escape(MISMATCH)}$"):
            PerturbedPair(nominal=uniform(2),
                          true_dist=Distribution([0.8, 0.2]),
                          deviations=np.array([0.5, -0.5]),
                          gamma_bound=0.5)

    @pytest.mark.parametrize("n", [4, 1_000_000])
    def test_relative_mismatch_is_refused_at_any_size(self, n):
        # Q(i) = (1 +- 5e-7) P(i) against zero deviations.  At N = 1e6 each
        # |Q(i) - P(i)| is 5e-13, which an absolute 1e-12 let through.
        p = np.full(n, 1.0 / n)
        q = p * (1.0 + 5e-7 * np.resize([1.0, -1.0], n))
        assert np.max(np.abs(q / p - 1.0)) == pytest.approx(5e-7)
        with pytest.raises(ValueError, match=f"^{re.escape(MISMATCH)}$"):
            PerturbedPair(Distribution(p), Distribution(q), np.zeros(n), 0.0)

    @pytest.mark.parametrize("low", [0.5, 1e-3, 1e-9])
    def test_deviations_near_minus_one_are_accepted(self, low):
        # Q(i)/P(i) in [low, 2 low) on a third of the indices, so gamma_i
        # reaches 1 - 1e-9.  Near -1, 1 + (Q/P - 1) keeps Q/P only to about
        # 1e-16 absolute: within PAIR_RTOL of P(i), not of Q(i).
        rng = np.random.default_rng(37)
        for n in [3, 4, 9, 40, 1000]:
            p = rng.dirichlet(np.ones(n)) if n > 4 else np.full(n, 1.0 / n)
            cut = n // 3
            q = p.copy()
            q[:cut] *= low * (1.0 + rng.random(cut))
            q[cut:] *= 1.0 + (p[:cut].sum() - q[:cut].sum()) / p[cut:].sum()
            pair = pair_from_distributions(Distribution(p), Distribution(q))
            assert 1.0 - 2.0 * low <= pair.gamma_bound < 1.0

    def test_rejects_zero_nominal_entry(self):
        with pytest.raises(ValueError):
            PerturbedPair(nominal=Distribution([1.0, 0.0]),
                          true_dist=Distribution([1.0, 0.0]),
                          deviations=np.zeros(2),
                          gamma_bound=0.0)

    def test_single_point_support_forces_zero_deviation(self):
        pair = make_perturbed(uniform(1), [0.0], 0.3)
        assert pair.true_dist.probs[0] == 1.0
        with pytest.raises(ValueError):
            make_perturbed(uniform(1), [0.2], 0.3)

    def test_random_pairs_stay_in_band(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(n))
            gamma = float(rng.uniform(0.05, 0.9))
            raw = rng.standard_normal(n)
            centered = raw - float(raw @ p)
            scale = np.max(np.abs(centered))
            if scale == 0.0:
                continue
            pair = make_perturbed(Distribution(p), (centered / scale) * gamma, gamma)
            ratio = pair.true_dist.probs / pair.nominal.probs - 1.0
            assert np.max(np.abs(ratio)) <= gamma * (1 + 1e-12)
            assert abs(pair.true_dist.probs.sum() - 1.0) <= 1e-12


class TestPairFromDistributions:
    def test_deviations_and_measured_gamma(self):
        p, q = Distribution([0.5, 0.3, 0.2]), Distribution([0.6, 0.24, 0.16])
        pair = pair_from_distributions(p, q)
        assert pair.deviations.tobytes() == (q.probs / p.probs - 1.0).tobytes()
        assert pair.gamma_bound == float(np.max(np.abs(pair.deviations)))
        assert pair.true_dist is q and pair.nominal is p

    def test_explicit_gamma(self):
        pair = pair_from_distributions(uniform(2), Distribution([0.75, 0.25]), 0.6)
        assert pair.gamma_bound == 0.6
        with pytest.raises(ValueError, match="exceeds gamma_bound"):
            pair_from_distributions(uniform(2), Distribution([0.75, 0.25]), 0.4)

    def test_columns_off_by_normalization_rounding_pair(self):
        # Each column sums to 1 within NORMALIZATION_ATOL, from opposite sides,
        # so sum_i d_i P(i) = sum Q - sum P is 1.8e-12: past that tolerance,
        # though both distributions and the pointwise match are valid.
        p = Distribution([0.2499999999991, 0.25, 0.25, 0.25])
        q = Distribution([0.2500000000009, 0.25, 0.25, 0.25])
        pair = pair_from_distributions(p, q)
        assert abs(float(np.dot(pair.deviations, p.probs))) > 1e-12
        assert pair.gamma_bound == pytest.approx(7.2e-12, rel=1e-3)

    def test_exact_weights_give_gamma_zero(self):
        pair = pair_from_distributions(uniform(4), uniform(4))
        assert pair.gamma_bound == 0.0
        assert not np.any(pair.deviations)

    def test_checks_before_dividing(self):
        with pytest.raises(ValueError, match="disagree on N"):
            pair_from_distributions(uniform(2), uniform(3))
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="strictly positive"):
                pair_from_distributions(Distribution([1.0, 0.0]),
                                        Distribution([0.75, 0.25]))


class TestWorstCasePair:
    def test_uniform_four_split(self):
        pair = worst_case_pair(uniform(4), gamma=0.3, split=(1, 2))
        assert np.allclose(pair.deviations, [0.3, 0.3, -0.3, -0.3])
        assert abs(pair.true_dist.probs.sum() - 1.0) <= 1e-12

    def test_rejects_unbalanced_split(self):
        with pytest.raises(ValueError):
            worst_case_pair(Distribution([0.6, 0.2, 0.2]), gamma=0.3, split=(1,))

    @pytest.mark.parametrize("gamma", [1.5, 1.0, -0.1, float("nan")])
    def test_gamma_checked_first(self, gamma):
        # 1.5 failed on the perturbed Q: "probabilities must be nonnegative"
        with pytest.raises(ValueError, match=re.escape("gamma must lie in [0, 1)")):
            worst_case_pair(uniform(2), gamma=gamma, split=(1,))

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            worst_case_pair(uniform(2), gamma=0.3, split=(0,))
        with pytest.raises(ValueError):
            worst_case_pair(uniform(2), gamma=0.3, split=(3,))


    @pytest.mark.parametrize("split", [
        range(1, 4), (1, 2, 3), [3, 1, 2, 1, 3], np.array([2, 3, 1])
    ], ids=["range", "tuple", "list-with-duplicates", "ndarray"])
    def test_split_forms_agree(self, split):
        nominal = Distribution([0.125, 0.25, 0.125, 0.25, 0.125, 0.125])
        reference = worst_case_pair(nominal, 0.4, [1, 2, 3])
        pair = worst_case_pair(nominal, 0.4, split)
        assert pair.deviations.tobytes() == reference.deviations.tobytes()
        assert pair.true_dist.probs.tobytes() == reference.true_dist.probs.tobytes()

    @pytest.mark.parametrize("split", [(0,), (3,), [1, 3], np.array([0, 1])])
    def test_out_of_range_message(self, split):
        with pytest.raises(ValueError, match="^split indices out of range$"):
            worst_case_pair(uniform(2), gamma=0.3, split=split)

    @pytest.mark.parametrize("nominal, split, message", [
        ([0.6, 0.2, 0.2], (1,), "split mass 0.6 does not balance complement mass 0.4"),
        ([0.6, 0.2, 0.2], [1, 1], "split mass 0.6 does not balance complement mass 0.4"),
        ([0.5, 0.5], [], "split mass 0.0 does not balance complement mass 1.0"),
    ])
    def test_mass_balance_message(self, nominal, split, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            worst_case_pair(Distribution(nominal), gamma=0.3, split=split)


def _two_stack_alias_table(probs):
    """The classic two-stack Vose construction, kept as the reference table."""
    n = probs.size
    scaled = probs * n
    accept = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    small = [j for j in range(n) if scaled[j] < 1.0]
    large = [j for j in range(n) if scaled[j] >= 1.0]
    scaled = scaled.copy()
    while small and large:
        s = small.pop()
        g = large.pop()
        accept[s] = scaled[s]
        alias[s] = g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        if scaled[g] < 1.0:
            small.append(g)
        else:
            large.append(g)
    for j in small + large:
        accept[j] = 1.0
        alias[j] = j
    return accept, alias


def _normalized(weights):
    w = np.asarray(weights, dtype=np.float64)
    return w / w.sum()


@st.composite
def alias_weights(draw):
    """Dirichlet weights, some zeroed, or small integers with exact ties,
    all equal ones among them (N * (1/N) < 1 leaves smalls unabsorbed)."""
    kind = draw(st.sampled_from(["integers", "equal", "dirichlet"]))
    if kind == "integers":
        return _normalized(draw(st.lists(st.integers(0, 3), min_size=1, max_size=60)
                                .filter(any)))
    if kind == "equal":
        return _normalized(np.ones(draw(st.integers(1, 1000))))
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.dirichlet(np.full(n, draw(st.sampled_from([0.1, 0.3, 1.0, 10.0]))))
    if draw(st.booleans()):
        w[rng.random(n) < 0.4] = 0.0
        w[int(rng.integers(n))] += 0.5  # at least one entry stays
    return _normalized(w)


class TestAliasTable:
    """The alias table must equal the two-stack reference byte for byte."""

    @given(alias_weights(), st.sampled_from([1, 2, 3, 7, model.ALIAS_BLOCK]))
    @settings(deadline=None)
    @example(_normalized(np.ones(49)), model.ALIAS_BLOCK)  # 49 * (1/49) < 1: no large
    @example(_normalized([1, 1, 2, 2, 2]), 1)
    def test_equals_two_stack_table(self, probs, block):
        # Small replay blocks make rounds cross block edges and hand
        # blocks to the loop; the full block replays a table at once.
        default, model.ALIAS_BLOCK = model.ALIAS_BLOCK, block
        try:
            self.assert_reference_table(probs)
        finally:
            model.ALIAS_BLOCK = default

    @staticmethod
    def assert_reference_table(probs):
        probs = np.asarray(probs, dtype=np.float64)
        table = _build_alias_table(probs)
        ref_accept, ref_alias = _two_stack_alias_table(probs)
        assert table["accept"].tobytes() == ref_accept.tobytes()
        assert table["alias"].tobytes() == ref_alias.tobytes()

    def test_single_index(self):
        self.assert_reference_table([1.0])

    @pytest.mark.parametrize("n, at", [(2, 0), (2, 1), (7, 0), (7, 3), (7, 6)])
    def test_point_mass(self, n, at):
        p = np.zeros(n)
        p[at] = 1.0
        self.assert_reference_table(p)

    def test_zero_entries(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            w = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.6)
            if w.sum() > 0.0:
                self.assert_reference_table(_normalized(w))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 49, 1000, 99_999])
    def test_uniform(self, n):
        self.assert_reference_table(np.full(n, 1.0 / n))

    def test_dirichlet(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 80))
            self.assert_reference_table(rng.dirichlet(np.full(n, 0.3)))

    def test_small_integer_weights(self):
        # Weights such as (1, 2, 2) leave exact residuals, so chains of larges
        # falling below 1 and the leftover slots all occur.
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(1, 30))
            self.assert_reference_table(_normalized(rng.integers(1, 4, n)))

    @pytest.mark.parametrize("n", [2, 10, 1000, 100_000])
    def test_worst_case_pair(self, n):
        pair = worst_case_pair(uniform(n), 0.5, np.arange(1, n // 2 + 1))
        self.assert_reference_table(pair.true_dist.probs)

    def test_lognormal(self):
        rng = np.random.default_rng(17)
        self.assert_reference_table(_normalized(rng.lognormal(0.0, 1.0, 100_000)))

    def test_accumulate_is_sequential(self):
        # The build replays the loop's roundings with np.add.accumulate, which
        # is only exact if each partial sum is rounded in turn: 1 + 2**-53
        # rounds back to 1 each time, where a pairwise sum would reach 1 + 2**-47.
        sums = np.add.accumulate(np.array([1.0] + [2.0**-53] * 64))
        assert np.all(sums == 1.0)

    @pytest.mark.parametrize("n", [30_000, 123_456])
    @pytest.mark.parametrize("gamma", [0.1, 0.3, 1 / 3, 0.9])
    def test_worst_case_pair_rounding_ties(self, n, gamma):
        # Every small and every large is the same float, so residuals land on
        # or next to 1 and the r < 1 decisions hinge on rounding.
        pair = worst_case_pair(uniform(n), gamma, np.arange(1, n // 2 + 1))
        self.assert_reference_table(pair.true_dist.probs)

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_tiny_replay_blocks(self, monkeypatch, block):
        # Rounds of a few smalls cross block edges, cut at mismatches and
        # hand blocks to the loop many times per table.
        monkeypatch.setattr(model, "ALIAS_BLOCK", block)
        rng = np.random.default_rng(29 + block)
        for _ in range(60):
            n = int(rng.integers(1, 60))
            self.assert_reference_table(rng.dirichlet(np.full(n, 0.3)))
            self.assert_reference_table(_normalized(rng.integers(1, 4, n)))

    @pytest.mark.parametrize("case", ["dirichlet", "lognormal", "worst-case"])
    def test_large_tables_match_the_loop(self, monkeypatch, case):
        # At N = 300,000 the reference is the build with every replay round
        # refused, so that the loop follows the whole chain.
        n = 300_000
        rng = np.random.default_rng(31)
        probs = {
            "dirichlet": lambda: rng.dirichlet(np.full(n, 0.3)),
            "lognormal": lambda: _normalized(rng.lognormal(0.0, 1.0, n)),
            "worst-case": lambda: worst_case_pair(
                uniform(n), 0.3, np.arange(1, n // 2 + 1)).true_dist.probs,
        }[case]()
        replay = model._replay
        replayed = []

        def counted(*args):
            kept, spent, r = replay(*args)
            replayed.append(kept)
            return kept, spent, r

        monkeypatch.setattr(model, "_replay", counted)
        table = _build_alias_table(probs)
        monkeypatch.setattr(model, "_replay", lambda scaled, small, large, taken, spent, r,
                            *rest: (0, spent, r))
        ref = _build_alias_table(probs)
        assert table["accept"].tobytes() == ref["accept"].tobytes()
        assert table["alias"].tobytes() == ref["alias"].tobytes()
        if case != "worst-case":
            # Away from rounding ties the replay takes every small but the
            # tail where the larges run out.
            assert sum(replayed) > 0.999 * np.count_nonzero(probs * n < 1.0)

    def test_draws_follow_the_reference_stream(self):
        n, m, seed = 100_000, 20_000, 19
        probs = _normalized(np.random.default_rng(23).lognormal(0.0, 1.0, n))
        accept, alias = _two_stack_alias_table(probs)
        rng = np.random.default_rng(seed)
        slots = rng.integers(0, n, size=m)
        u = rng.random(m)
        expected = np.where(u < accept[slots], slots, alias[slots]) + 1
        batch = draw_samples(Distribution(probs), m=m, seed=seed)
        assert batch.indices.tobytes() == expected.tobytes()


def _traced_bytes(build):
    """(peak, kept): bytes traced by tracemalloc during and after ``build()``."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - base, kept - base


class TestSetupMemory:
    """N-sized transients of the counting run's setup, in units of one
    N-sized float64 array, at N = 2^18, for the worst-case pair at gamma 0.5.

    tracemalloc counts numpy's buffers, so unlike a resident-set size these
    do not depend on how the allocator lays memory out.  Each bound is the
    value measured with numpy 2.4 plus 10%: the alias build's transient
    measured 2.91 (3.41 with an N-sized residual array beside the table,
    4.50 with separate accept, alias and scaled arrays), and
    worst_case_pair's 1.13 (3.13 with a temporary per operation).
    """

    N = 2**18

    def transient(self, build):
        peak, kept = _traced_bytes(build)
        return (peak - kept) / (8 * self.N)

    def test_alias_build(self):
        split = np.arange(1, self.N // 2 + 1)
        probs = worst_case_pair(uniform(self.N), 0.5, split).true_dist.probs
        assert self.transient(lambda: _build_alias_table(probs)) <= 3.2

    def test_worst_case_pair(self):
        nominal, split = uniform(self.N), np.arange(1, self.N // 2 + 1)
        assert self.transient(lambda: worst_case_pair(nominal, 0.5, split)) <= 1.25


@st.composite
def uniform_cases(draw):
    """Even n <= 4096 (so the first half balances the second), values,
    zero-mean deviations within gamma, and a two-stage run's sizes."""
    n = 2 * draw(st.integers(1, 2048))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
    gamma = draw(st.floats(0.0, 0.99))
    raw = rng.standard_normal(n)
    centered = raw - raw.mean()
    scale = np.max(np.abs(centered))
    d = centered / scale * gamma if scale > 0.0 else np.zeros(n)
    k = draw(st.integers(1, 4))
    m = draw(st.integers(k, 300))
    t = draw(st.integers(1, 50))
    return x, d, gamma, (m, t, k, draw(st.integers(0, 2**32 - 1)))


class TestUniformEqualsFull:
    """``Distribution.uniform(n)``, one value behind a stride-0 view, gives
    every result an ``np.full`` nominal gives, byte for byte."""

    @given(uniform_cases())
    @settings(deadline=None)
    def test_same_results(self, case):
        x, d, gamma, sizes = case
        n = x.size
        held, full = Distribution.uniform(n), Distribution(np.full(n, 1.0 / n))
        assert held.probs.strides == (0,) and not held.probs.flags.writeable
        assert np.ascontiguousarray(held.probs).tobytes() == full.probs.tobytes()
        pop = Population(x)
        assert population_stats(pop, held) == population_stats(pop, full)
        assert held._alias_table.tobytes() == full._alias_table.tobytes()
        split = np.arange(1, n // 2 + 1)
        worst = [worst_case_pair(nominal, gamma, split) for nominal in (held, full)]
        assert worst[0].true_dist.probs.tobytes() == worst[1].true_dist.probs.tobytes()
        assert worst[0].deviations.tobytes() == worst[1].deviations.tobytes()
        tables = [pair.true_dist._alias_table.tobytes() for pair in worst]
        assert tables[0] == tables[1]
        pairs = [make_perturbed(nominal, d.copy(), gamma) for nominal in (held, full)]
        estimates = [improved_estimate_sum(pop, pair, *sizes).estimate for pair in pairs]
        assert estimates[0].hex() == estimates[1].hex()


class TestPickle:
    @pytest.mark.parametrize("n", [10**3, 10**6])
    def test_uniform_pickles_as_one_value(self, n):
        held = Distribution.uniform(n)
        data = pickle.dumps(held)
        assert len(data) < 1024
        back = pickle.loads(data)
        assert back.probs.strides == (0,) and not back.probs.flags.writeable
        assert np.ascontiguousarray(back.probs).tobytes() == np.full(n, 1.0 / n).tobytes()

    def test_full_array_keeps_its_alias_table(self):
        rng = np.random.default_rng(2)
        probs = rng.uniform(0.5, 1.5, 1000)
        dist = Distribution(probs / probs.sum())
        table = dist._alias_table
        back = pickle.loads(pickle.dumps(dist))
        assert back.probs.tobytes() == dist.probs.tobytes()
        assert back.__dict__["_alias_table"].tobytes() == table.tobytes()


class _Captured(Exception):
    """Stops an experiment at ``run_trials``, carrying its config."""


class TestMemoryBounds:
    """Bytes traced by tracemalloc at N = 2^18.  tracemalloc counts numpy's
    buffers, so unlike a resident-set size these are fixed for a build."""

    N = 2**18

    def test_zero_one_nominal_holds_no_n_sized_buffer(self, monkeypatch):
        # The config keeps the population, Q and the deviations: three
        # N-sized float64 arrays (measured 3.003 of them).  An np.full
        # nominal is a fourth (measured 4.003).
        def capture(config, threads):
            raise _Captured(config)

        def config():
            try:
                harness.zero_one_experiment(self.N, 0.5, 0.5, 0.25, trials=1, base_seed=0)
            except _Captured as exc:
                return exc.args[0]

        monkeypatch.setattr(harness, "run_trials", capture)
        _, kept = _traced_bytes(config)
        assert kept < 3.25 * 8 * self.N

    def test_alias_build_holds_no_residual_array(self, monkeypatch):
        # The build may hold the table (16 bytes a slot), the two index
        # lists (8 bytes a slot in all), one run end per large (8 bytes) and
        # one replay round's scratch, measured on a copy of the first
        # round's arguments, plus an allowance for Python objects and numpy's
        # small allocations.  Measured with numpy 2.4: the build peaks
        # 6.2 KB above the four terms, 59 KB inside the bound (a round
        # peaked at 2.95 MB); with an N/2-sized array of residuals beside
        # them it peaked 1.05 MB above them, 0.99 MB over the bound.
        allowance = 2**16
        split = np.arange(1, self.N // 2 + 1)
        probs = worst_case_pair(uniform(self.N), 0.5, split).true_dist.probs
        replay, first = model._replay, []

        def copy_first(*args):
            if not first:
                first.extend(a.copy() if isinstance(a, np.ndarray) else a for a in args)
            return replay(*args)

        monkeypatch.setattr(model, "_replay", copy_first)
        _build_alias_table(probs)
        monkeypatch.setattr(model, "_replay", replay)
        round_peak, _ = _traced_bytes(lambda: replay(*first))
        assert round_peak < 24 * 8 * model.ALIAS_BLOCK  # O(ALIAS_BLOCK), not O(N)
        large = first[2]
        peak, _ = _traced_bytes(lambda: _build_alias_table(probs))
        assert peak < 16 * self.N + 8 * self.N + 8 * large.size + round_peak + allowance


class TestSampleBatch:
    def test_rejects_zero_index(self):
        with pytest.raises(ValueError):
            SampleBatch(indices=np.array([0, 1]), seed=0)

    def test_rejects_two_dimensional_indices(self):
        with pytest.raises(ValueError, match="1-d vector"):
            SampleBatch(indices=np.array([[1, 2], [2, 1]]), seed=0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one sample"):
            SampleBatch(indices=np.array([], dtype=np.int64), seed=0)

    def test_m_is_the_number_of_indices(self):
        batch = SampleBatch(indices=np.array([1, 2]), seed=0)
        assert batch.m == 2
        assert type(batch.m) is int
        assert replace(batch, indices=np.array([3, 1, 1])).m == 3


class TestDrawSamples:
    def test_point_mass(self):
        dist = Distribution([1e-300, 1e-300, 1.0])
        batch = draw_samples(dist, m=50, seed=0)
        assert np.all(batch.indices == 3)

    def test_seed_reproducibility(self):
        pair = make_perturbed(uniform(5), [0.2, 0.2, -0.1, -0.1, -0.2], 0.2)
        a = draw_samples(pair, m=1000, seed=42)
        b = draw_samples(pair, m=1000, seed=42)
        c = draw_samples(pair, m=1000, seed=43)
        assert np.array_equal(a.indices, b.indices)
        assert not np.array_equal(a.indices, c.indices)

    def test_draws_follow_true_dist_not_nominal(self):
        # nominal uniform, true (0.75, 0.25): frequency of index 1 should
        # track 0.75 within 5 binomial sigmas
        pair = make_perturbed(uniform(2), [0.5, -0.5], 0.5)
        m = 200_000
        batch = draw_samples(pair, m=m, seed=11)
        freq = np.mean(batch.indices == 1)
        sigma = np.sqrt(0.75 * 0.25 / m)
        assert abs(freq - 0.75) <= 5 * sigma

    def test_uniform_frequencies_within_five_sigma(self):
        n, m = 10_000, 1_000_000
        batch = draw_samples(uniform(n), m=m, seed=3)
        counts = np.bincount(batch.indices, minlength=n + 1)[1:]
        sigma = np.sqrt(m * (1.0 / n) * (1 - 1.0 / n))
        assert np.max(np.abs(counts - m / n)) <= 5 * sigma

    def test_linf_error_shrinks_with_m(self):
        n = 100
        dist = uniform(n)

        def max_err(m, seed):
            counts = np.bincount(draw_samples(dist, m=m, seed=seed).indices,
                                 minlength=n + 1)[1:]
            return np.max(np.abs(counts / m - 1.0 / n))

        small = np.mean([max_err(1_000, s) for s in range(20)])
        large = np.mean([max_err(100_000, s) for s in range(20)])
        assert large < small / 3

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError):
            draw_samples(uniform(1), m=0, seed=0)

    def test_rejects_wrong_source_type(self):
        with pytest.raises(TypeError):
            draw_samples([0.5, 0.5], m=10, seed=0)

    def test_byte_count_beyond_int64_names_the_size(self):
        # numpy raised "array is too big": 2^60 int64 indices need 2^63 bytes
        with pytest.raises(OverflowError, match=(
            r"^sample size 1152921504606846976 needs 9223372036854775808 bytes, "
            r"beyond the int64 byte range$"
        )):
            draw_samples(uniform(2), m=2**60, seed=0)
        check_array_length("sample size", 2**60 - 1)  # 8 bytes short of 2^63: no error

    def test_size_beyond_int64_names_the_size(self):
        # numpy raised "Maximum allowed dimension exceeded"
        with pytest.raises(OverflowError,
                           match=r"^sample size 9223372036854775808 is beyond the int64 index range$"):
            draw_samples(uniform(2), m=2**63, seed=0)


def sum_or_error(fsum, values):
    try:
        return repr(fsum(values))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def padded(values, size=2000):
    return values + [0.0] * (size - len(values))


spread_floats = st.one_of(
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1080, 1023)),
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
)


@st.composite
def long_arrays(draw):
    """Arrays long enough for fsum_array's extraction: drawn values repeated,
    scaled down by random powers of two, their signs kept, all made positive
    or flipped at random, in random order."""
    pattern = draw(st.lists(spread_floats, min_size=1, max_size=16))
    size = draw(st.sampled_from(
        [model.FSUM_SHORT, 16_000, model.FSUM_BLOCK + 1, 2 * model.FSUM_BLOCK + 3]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.ldexp(np.resize(pattern, size), -rng.integers(0, draw(st.integers(1, 120)), size))
    signs = draw(st.sampled_from(["kept", "positive", "random"]))
    if signs == "positive":
        values = np.abs(values)
    elif signs == "random":
        values *= rng.choice([-1.0, 1.0], size)
    rng.shuffle(values)
    return values


class TestExtract:
    """The one extraction kernel behind fsum_array and fsum_rows: every
    column it finishes sums exactly to its level sums."""

    @given(
        st.lists(
            st.lists(st.one_of(spread_floats, st.sampled_from([math.inf, -math.inf, math.nan])),
                     min_size=1, max_size=8),
            min_size=1, max_size=16,
        ),
        st.sampled_from([1, 2, model.FSUM_LEVELS]),
    )
    @settings(deadline=None)
    @example([[1.0, 2.0**-60, 2.0**-120], [3.0]], 2)  # a third level beside a one-level column
    @example([[0.75 * 2.0**997] * 3, [0.75 * 2.0**998] * 3], 2)  # 2^M = 8: e + M = 1000, 1001
    @example([[-0.0], [0.0, -0.0]], 2)
    # Eight values just below 2^e: their q sum exactly only if sigma leaves room for 2^(e+3).
    @example([[2.0 - 2.0**-50] * 7 + [2.0 - 2.0**-49]], model.FSUM_LEVELS)
    @example([[math.inf, 1.0], [1.0, math.nan], [2.0**1023, -2.0**1023]], model.FSUM_LEVELS)
    def test_finished_columns_sum_exactly(self, columns, levels):
        # Columns zero-padded to a common width, as the oracle pads its rows.
        values = np.zeros((max(map(len, columns)), len(columns)))
        for c, column in enumerate(columns):
            values[: len(column), c] = column
        sums, unfinished = model._extract(values.copy(), levels)
        unfinished = np.broadcast_to(unfinished, len(columns))
        for c, column in enumerate(values.T.tolist()):
            if not all(map(math.isfinite, column)):
                assert unfinished[c]
            elif not unfinished[c]:
                assert sum(map(Fraction, (s[c] for s in sums))) == sum(map(Fraction, column))


class TestFsumArray:
    @given(long_arrays())
    @settings(deadline=None)
    @example([-0.0] * 2000)
    @example(padded([1e16, 1.0, -1e16]))  # cancellation to a lone partial
    @example(padded([1.0, 2**-53, 2**-106]))  # above the half-way point: rounds up
    @example(padded([1.0, 2**-53]))  # exactly half-way: rounds to even
    @example(padded([1e308, 5e307, 1e308]))  # fsum's intermediate overflow
    @example(padded([1e308, -1e308, 1e308, 5e307]))  # near 2^1024, but the sum fits
    @example(padded([math.inf, 1.0]))
    @example(padded([math.inf, -math.inf]))
    @example(padded([1.0, math.nan]))
    @example(padded([5e-324, -1e-320, 3e-310], 70_000))  # subnormals, over two blocks
    def test_equals_math_fsum(self, values):
        values = np.asarray(values, dtype=np.float64)
        assert sum_or_error(fsum_array, values) == sum_or_error(math.fsum, values.tolist())

    def test_long_array_reaches_fsum_as_level_sums(self, monkeypatch):
        # 16,000 values over 80 binades, so extraction takes several levels
        rng = np.random.default_rng(5)
        values = np.ldexp(rng.standard_normal(16_000), rng.integers(-40, 40, 16_000))
        real, calls = math.fsum, []

        def spy(terms):
            calls.append(list(terms))
            return real(calls[-1])

        monkeypatch.setattr(math, "fsum", spy)
        got = fsum_array(values)
        assert len(calls) == 1 and len(calls[0]) <= model.FSUM_LEVELS
        assert repr(got) == repr(real(values.tolist()))
