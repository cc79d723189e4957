import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from noisysum.lowerbound import (
    MassSpectrum,
    MomentMatchedPair,
    SpectrumAtom,
    alternating_binomial_closed_form,
    build_reduction_instance,
    construct_matched_pair,
    frequency_moment,
    realize_integer_counts,
    spectrum_to_json_dict,
    support_gap_closed_form,
)

F = Fraction


def alternating_binomial_sum(k, a, step):
    """The direct sum sum_{i=0..k} (-1)^i C(k,i) / (a + i*step), the closed form's reference."""
    return sum((F((-1) ** i * math.comb(k, i)) / (a + i * step) for i in range(k + 1)), F(0))


class TestAlternatingBinomialSum:
    def test_k1_by_hand(self):
        # 1/a - 1/(a+s) = s / (a(a+s))
        assert alternating_binomial_sum(1, 2, F(1, 3)) == F(1, 3) / (2 * F(7, 3))
        assert alternating_binomial_closed_form(1, 2, F(1, 3)) == F(1, 3) / (2 * F(7, 3))

    def test_matches_closed_form_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            k = int(rng.integers(1, 13))
            a = F(int(rng.integers(1, 20)), int(rng.integers(1, 10)))
            step = F(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
            assert alternating_binomial_sum(k, a, step) == (
                alternating_binomial_closed_form(k, a, step)
            )

    def test_rejects_float_arguments(self):
        with pytest.raises(TypeError, match="1/2"):
            alternating_binomial_closed_form(2, 0.5, F(1, 2))
        with pytest.raises(TypeError):
            alternating_binomial_closed_form(2, 1, 0.5)

    def test_vanishing_denominator(self):
        with pytest.raises(ZeroDivisionError, match="^a product factor vanishes$"):
            alternating_binomial_closed_form(2, 1, F(-1, 2))


class TestConstruction:
    def test_order_one_by_hand(self):
        # k=1, gamma=1/2, n0=3: level 0 prob 1/3 count 3; level 1 prob 1/2 count 2
        pair = construct_matched_pair(1, "1/2", 3)
        assert pair.d1.atoms == (SpectrumAtom(level=0, prob=F(1, 3), count=F(3)),)
        assert pair.d2.atoms == (SpectrumAtom(level=1, prob=F(1, 2), count=F(2)),)
        assert (pair.n1, pair.n2, pair.gap) == (3, 2, 1)

    def test_frozen_spot_check(self):
        # k=2, gamma=1/2, n0=60: supports 50 and 48, gap exactly 2
        pair = construct_matched_pair(2, F(1, 2), 60)
        assert pair.n1 == 50
        assert pair.n2 == 48
        assert pair.gap == 2
        assert frequency_moment(pair.d1, 2) == frequency_moment(pair.d2, 2) == F(1, 48)

    def test_sizes_follow_the_spectra(self):
        pair = construct_matched_pair(2, F(1, 2), 60)
        other = construct_matched_pair(2, F(1, 2), 120)
        moved = replace(pair, d1=other.d1)
        assert (moved.n1, moved.n2, moved.gap) == (100, 48, 52)

    def test_sizes_are_not_arguments(self):
        pair = construct_matched_pair(1, "1/2", 3)
        with pytest.raises(TypeError):
            MomentMatchedPair(pair.k, pair.gamma, pair.n0, pair.d1, pair.d2,
                              n1=5, n2=3, gap=7)

    def test_moments_equal_up_to_k_and_differ_after(self):
        for k in range(1, 9):
            for gamma in (F(1, 10), F(1, 4), F(1, 2)):
                pair = construct_matched_pair(k, gamma, 1000)
                for ell in range(1, k + 1):
                    assert frequency_moment(pair.d1, ell) == (
                        frequency_moment(pair.d2, ell)
                    )
                assert frequency_moment(pair.d1, k + 1) != (
                    frequency_moment(pair.d2, k + 1)
                )

    def test_probabilities_stay_in_band(self):
        pair = construct_matched_pair(5, F(1, 3), 500)
        lo, hi = F(1, 500), (1 + F(1, 3)) / 500
        for spec in (pair.d1, pair.d2):
            for atom in spec.atoms:
                assert lo <= atom.prob <= hi

    def test_supports_near_n0(self):
        for k in (1, 3, 6):
            pair = construct_matched_pair(k, F(1, 2), 720)
            for n in (pair.n1, pair.n2):
                assert 720 / (1 + F(1, 2)) <= n <= 720

    def test_gap_closed_form_consistency(self):
        # construction already asserts equality; check the formula shape once
        assert support_gap_closed_form(2, F(1, 2), 60) == 2
        assert support_gap_closed_form(1, F(1, 2), 3) == 1

    @pytest.mark.parametrize("gamma", [F(1, 2), F(1, 3), F(1, 10), F(7, 16), F(0), F(3, 2)])
    def test_gap_equals_product_formula(self, gamma):
        # the formula the closed form used to spell out on its own
        def product_formula(k, n0):
            denom = F(1)
            for i in range(1, k + 1):
                denom *= 1 + F(i, k) * gamma
            return F(n0, 2 ** (k - 1)) * F(math.factorial(k), k**k) * gamma**k / denom

        for k in range(1, 13):
            for n0 in (1, 60, 100000):
                assert support_gap_closed_form(k, gamma, n0) == product_formula(k, n0)

    def test_gap_rejects_float_gamma(self):
        with pytest.raises(TypeError, match="gamma must be exact"):
            support_gap_closed_form(2, 0.5, 60)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            construct_matched_pair(0, F(1, 2), 10)
        with pytest.raises(ValueError):
            construct_matched_pair(2, F(3, 4), 10)  # gamma > 1/2
        with pytest.raises(ValueError):
            construct_matched_pair(2, F(0), 10)
        with pytest.raises(ValueError):
            construct_matched_pair(2, F(1, 2), 0)
        with pytest.raises(TypeError):
            construct_matched_pair(2, 0.5, 10)


class TestMassSpectrum:
    def test_rejects_wrong_mass(self):
        with pytest.raises(ValueError, match="mass"):
            MassSpectrum(n0=2, atoms=(SpectrumAtom(0, F(1, 2), F(1)),))

    def test_rejects_no_atoms(self):
        # without its own check this read "spectrum mass is 0, not 1"
        with pytest.raises(ValueError, match="^a spectrum needs at least one atom level$"):
            MassSpectrum(n0=2, atoms=())

    def test_rejects_nonpositive_atoms(self):
        with pytest.raises(ValueError):
            MassSpectrum(n0=2, atoms=(
                SpectrumAtom(0, F(1, 2), F(4)),
                SpectrumAtom(1, F(-1, 2), F(2)),
            ))

    def test_moment_requires_positive_order(self):
        spec = construct_matched_pair(1, "1/2", 4).d1
        with pytest.raises(ValueError):
            frequency_moment(spec, 0)


class TestRealization:
    def test_integral_design_passes_through(self):
        pair = construct_matched_pair(2, F(1, 2), 60)
        realized = realize_integer_counts(pair)
        assert realized.moment_error == 0.0
        assert (realized.n1, realized.n2, realized.gap) == (50, 48, 2)
        assert [a.count for a in realized.d1.atoms] == [30, 20]
        assert [a.count for a in realized.d2.atoms] == [48]

    def test_rounding_error_stays_small(self):
        pair = construct_matched_pair(2, F(1, 2), 61)
        realized = realize_integer_counts(pair)
        assert 0.0 < realized.moment_error <= 10 * pair.k / 61

    def test_mass_stays_exactly_one(self):
        for n0 in (61, 97, 500):
            realized = realize_integer_counts(construct_matched_pair(3, F(1, 2), n0))
            for spec in (realized.d1, realized.d2):
                assert sum((a.prob * a.count for a in spec.atoms), start=F(0)) == 1

    def test_designed_pair_has_no_moment_error(self):
        assert construct_matched_pair(3, F(1, 4), 97).moment_error == 0.0

    def test_realized_spectra_have_int_counts(self):
        realized = realize_integer_counts(construct_matched_pair(2, F(1, 2), 61))
        for spec in (realized.d1, realized.d2):
            assert type(spec) is MassSpectrum
            assert all(type(a.count) is int for a in spec.atoms)
        assert [type(v) for v in (realized.n1, realized.n2, realized.gap)] == [int] * 3

    def test_realizing_twice_changes_nothing(self):
        for k, n0 in ((2, 61), (3, 97), (1, 6)):
            realized = realize_integer_counts(construct_matched_pair(k, F(1, 2), n0))
            assert realize_integer_counts(realized) == realized

    def test_count_rounding_to_zero_raises(self):
        pair = construct_matched_pair(2, F(1, 2), 1)
        with pytest.raises(ValueError, match="increase n0"):
            realize_integer_counts(pair)


class TestReductionInstance:
    def setup_method(self):
        self.realized = realize_integer_counts(construct_matched_pair(1, "1/2", 6))
        # d1: 6 atoms at 1/6; d2: 4 atoms at 1/4; N = 10

    def test_ones_large_by_hand(self):
        inst = build_reduction_instance(self.realized, "ones-large", seed=0)
        n = self.realized.n1 + self.realized.n2
        assert inst.population.size == n == 10
        assert inst.true_sum == 6
        assert float(np.sum(inst.population.values)) == 6.0
        # mixture probs: ones at 1/12, zeros at 1/8; closeness = max|Nq-1|
        assert inst.closeness == pytest.approx(max(abs(10 / 12 - 1), abs(10 / 8 - 1)))
        assert inst.closeness < 0.5
        assert np.allclose(inst.pair.nominal.probs, 1 / n)

    @pytest.mark.parametrize("n0, n", [
        (10**19, 17261363636363636364),  # np.repeat: "negative dimensions are not allowed"
        (10**23, 172613636363636363636364),  # OverflowError: int too large to convert to C long
    ])
    def test_size_beyond_int64_names_the_size(self, n0, n):
        realized = realize_integer_counts(construct_matched_pair(3, "1/3", n0))
        assert realized.n1 + realized.n2 == n
        with pytest.raises(OverflowError, match=f"^instance size {n} is beyond the int64 index range$"):
            build_reduction_instance(realized, "ones-small", seed=0)

    def test_ones_small_flips_values(self):
        inst = build_reduction_instance(self.realized, "ones-small", seed=0)
        assert inst.true_sum == 4
        assert float(np.sum(inst.population.values)) == 4.0

    def test_values_align_with_probabilities(self):
        # every index with value 1 carries the ones-spectrum probability
        inst = build_reduction_instance(self.realized, "ones-large", seed=5)
        q = inst.pair.true_dist.probs
        ones = inst.population.values == 1.0
        assert np.allclose(q[ones], q[ones][0])
        assert np.allclose(q[~ones], q[~ones][0])
        assert not np.isclose(q[ones][0], q[~ones][0])

    def test_seed_permutes_labels_deterministically(self):
        a = build_reduction_instance(self.realized, "ones-large", seed=3)
        b = build_reduction_instance(self.realized, "ones-large", seed=3)
        c = build_reduction_instance(self.realized, "ones-large", seed=4)
        assert np.array_equal(a.population.values, b.population.values)
        assert not np.array_equal(a.population.values, c.population.values)
        # same multiset either way
        assert sorted(a.population.values) == sorted(c.population.values)

    def test_true_dist_normalized(self):
        inst = build_reduction_instance(self.realized, "ones-large", seed=9)
        assert abs(float(np.sum(inst.pair.true_dist.probs)) - 1.0) <= 1e-12

    def test_bad_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            build_reduction_instance(self.realized, "both", seed=0)

    @pytest.mark.parametrize("scenario", ["ones-large", "ones-small"])
    def test_matches_list_built_arrays(self, scenario):
        # The arrays were built by growing one list entry per index; the
        # np.repeat over atoms must give the same bytes.
        realized = realize_integer_counts(construct_matched_pair(4, "1/2", 300))
        inst = build_reduction_instance(realized, scenario, seed=11)
        ones, zeros = (realized.d1, realized.d2)[:: 1 if scenario == "ones-large" else -1]
        n = realized.n1 + realized.n2
        values, probs = [], []
        for spec, value in ((ones, 1.0), (zeros, 0.0)):
            for atom in spec.atoms:
                values.extend([value] * atom.count)
                probs.extend([float(atom.prob / 2)] * atom.count)
        perm = np.random.default_rng(11).permutation(n)
        q = np.asarray(probs)[perm]
        q /= q.sum()
        assert inst.population.values.tobytes() == np.asarray(values)[perm].tobytes()
        assert inst.pair.true_dist.probs.tobytes() == q.tobytes()
        assert inst.pair.deviations.tobytes() == (q / (1.0 / n) - 1.0).tobytes()
        assert inst.pair.gamma_bound == float(np.max(np.abs(q / (1.0 / n) - 1.0)))
        assert inst.closeness == float(max(
            abs(n * atom.prob / 2 - 1) for atom in (*ones.atoms, *zeros.atoms)
        ))


class TestJsonForm:
    def test_exact_rationals_survive(self):
        pair = construct_matched_pair(2, F(1, 2), 60)
        d = spectrum_to_json_dict(pair.d1)
        assert d["n0"] == 60
        assert d["levels"][0] == {
            "i": 0, "prob_num": 1, "prob_den": 60, "count_num": 30, "count_den": 1,
        }

    def test_integer_spectrum_counts_are_plain_ints(self):
        realized = realize_integer_counts(construct_matched_pair(1, "1/2", 6))
        d = spectrum_to_json_dict(realized.d2)
        assert d["levels"][0]["count_num"] == 4
        assert d["levels"][0]["count_den"] == 1
