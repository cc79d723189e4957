import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisysum import identities
from noisysum.estimators import K_MAX
from noisysum.identities import (
    BIAS_GRID,
    PRODUCT_LEN_CAP,
    SUBSET_M_CAP,
    IdentityResidual,
    _binom_ratio,
    _residual,
    bias_cancellation_identity,
    centered_product_identity,
    centered_sum_identity,
    collision_coefficient_expected,
    collision_coefficient_identity,
    identity_report,
)

TOL = 1e-9

# ranges mirror the randomized validation suites the module documents
gammas = st.floats(min_value=-0.99, max_value=0.99,
                   allow_nan=False, allow_infinity=False)
alphas = st.floats(min_value=-0.9, max_value=0.9,
                   allow_nan=False, allow_infinity=False)
beta_lists = st.lists(
    st.floats(min_value=-2.0, max_value=4.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=8,
)


# Reference evaluations, kept as the module computed them before the subset
# table and the power-of-two shifts: the new code must give the same bits.

def bias_by_integer_powers(k, gamma):
    """Both sides over b^k with a fresh u**h and b**(k-h) in every term."""
    a, b = Fraction(gamma).as_integer_ratio()
    u = b + a
    den = b**k
    lhs = den + (-1) ** (k + 1) * a**k
    rhs = sum(
        (-1) ** (h + 1) * math.comb(k, h) * u**h * b ** (k - h) for h in range(1, k + 1)
    )
    scale = max(1.0, abs(lhs / den), abs(rhs / den))
    return IdentityResidual(
        lhs=lhs / den, rhs=rhs / den, residual=(abs(lhs - rhs) / den) / scale
    )


def product_by_subset_loop(betas, alpha):
    betas = tuple(float(b) for b in betas)
    n = len(betas)
    center = 1.0 + alpha
    lhs = math.prod(betas) - center**n
    rhs_terms = []
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            prod = math.prod(betas[j] - center for j in subset)
            rhs_terms.append(center ** (n - size) * prod)
    return _residual(lhs, math.fsum(rhs_terms))


def sum_by_subset_loop(betas, alpha, k):
    betas = tuple(float(b) for b in betas)
    m = len(betas)
    center = 1.0 + alpha
    lhs_terms = []
    rhs_terms = []
    for size in range(1, k + 1):
        coeff = _binom_ratio(k, m, size)
        for subset in combinations(range(m), size):
            prod = math.prod(betas[j] for j in subset)
            lhs_terms.append((-1.0) ** (size + 1) * coeff * (prod - center**size))
            centered_prod = math.prod(betas[j] - center for j in subset)
            rhs_terms.append(coeff * alpha ** (k - size) * centered_prod)
    lhs = math.fsum(lhs_terms)
    rhs = (-1.0) ** (k + 1) * math.fsum(rhs_terms)
    return _residual(lhs, rhs)


def outcome(fn, *args):
    """The result's repr (so NaN equals NaN and -0.0 differs from 0.0), or
    the exception's type and text."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


# any float at all, weighted towards the values identity_report draws
wide_floats = st.one_of(
    st.floats(min_value=-2.0, max_value=4.0),
    st.floats(),
    st.sampled_from([1e308, -1e308, 5e307, 1e200, -1e200, 5e-324, -0.0]),
)


class TestCollisionCoefficient:
    def test_exhaustive_up_to_kmax(self):
        for k in range(1, 33):
            for j in range(0, k + 1):
                assert collision_coefficient_identity(k, j) == (
                    collision_coefficient_expected(k, j)
                )

    def test_case_split_values(self):
        assert collision_coefficient_expected(5, 0) == 1
        assert collision_coefficient_expected(5, 5) == 1
        assert collision_coefficient_expected(4, 4) == -1
        assert collision_coefficient_expected(4, 2) == 0

    def test_range_errors(self):
        with pytest.raises(ValueError):
            collision_coefficient_identity(0, 0)
        with pytest.raises(ValueError):
            collision_coefficient_identity(33, 0)
        with pytest.raises(ValueError):
            collision_coefficient_identity(3, 4)
        with pytest.raises(ValueError):
            collision_coefficient_identity(3, -1)


class TestBiasCancellation:
    @given(gammas, st.integers(min_value=1, max_value=K_MAX))
    def test_residual_small(self, gamma, k):
        assert bias_cancellation_identity(k, gamma).residual <= TOL

    def test_fixed_grid_tight(self):
        for k in range(1, 21):
            for g in (0.9, -0.9, 0.5, -0.5, 0.1, -0.1, 0.0):
                assert bias_cancellation_identity(k, g).residual <= 1e-10

    def test_gamma_zero_exact(self):
        for k in range(1, 21):
            r = bias_cancellation_identity(k, 0.0)
            assert r.lhs == 1.0 and r.rhs == 1.0

    def test_sides_have_documented_form(self):
        r = bias_cancellation_identity(3, 0.5)
        assert r.lhs == 1.0 + 0.5**3
        binom = sum((-1) ** (h + 1) * math.comb(3, h) * 1.5**h for h in (1, 2, 3))
        assert r.rhs == pytest.approx(binom, rel=1e-15)

    @given(st.integers(min_value=1, max_value=32), gammas)
    @settings(max_examples=300)
    @example(32, 0.0)
    @example(32, 1e-300)
    @example(31, -1e-300)
    @example(32, -0.99)
    @example(31, -0.99)
    @example(17, 0.99)
    def test_equals_rational_evaluation(self, k, gamma):
        # Both sides and the residual in Fraction arithmetic, each rounded
        # once to float: the integer evaluation must give the same bits.
        g = Fraction(gamma)
        lhs = 1 + (-1) ** (k + 1) * g**k
        rhs = sum((-1) ** (h + 1) * math.comb(k, h) * (1 + g) ** h for h in range(1, k + 1))
        scale = max(1.0, abs(float(lhs)), abs(float(rhs)))
        want = IdentityResidual(float(lhs), float(rhs), float(abs(lhs - rhs)) / scale)
        assert bias_cancellation_identity(k, gamma) == want

    @given(st.integers(min_value=1, max_value=32), st.one_of(gammas, st.floats()))
    @settings(max_examples=300)
    @example(32, 0.0)
    @example(32, 0.99)
    @example(31, -0.99)
    @example(32, 5e-324)
    @example(31, -5e-324)
    @example(32, 2.0**-60)
    @example(7, -0.0)
    @example(3, float("nan"))
    @example(3, float("inf"))
    def test_equals_integer_powers(self, k, gamma):
        assert outcome(bias_cancellation_identity, k, gamma) == (
            outcome(bias_by_integer_powers, k, gamma)
        )

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            bias_cancellation_identity(0, 0.5)
        with pytest.raises(ValueError):
            bias_cancellation_identity(33, 0.5)


class TestCenteredProduct:
    def test_frozen_example(self):
        # betas=(2,3), alpha=1: lhs = 6 - 4 = 2; subsets {1}:0, {2}:2, {1,2}:0
        r = centered_product_identity((2.0, 3.0), 1.0)
        assert r.lhs == 2.0
        assert r.rhs == 2.0
        assert r.residual == 0.0

    def test_singleton_is_trivial(self):
        r = centered_product_identity((7.0,), 0.25)
        assert r.lhs == pytest.approx(7.0 - 1.25, rel=1e-15)
        assert r.residual <= 1e-15

    @given(beta_lists, alphas)
    @settings(max_examples=200)
    def test_residual_small(self, betas, alpha):
        assert centered_product_identity(betas, alpha).residual <= TOL

    @given(st.lists(wide_floats, min_size=1, max_size=12), st.one_of(alphas, st.floats()))
    @settings(max_examples=200)
    @example((1e200,) * 3, 0.0)
    @example((1e308, -1e308, 3.0), 0.0)
    # The singleton terms' running sum overflows in combinations order
    # (OverflowError), while the term of subset {0, 1}, an inf, comes before
    # the third singleton in plain bitmask order (an inf result).
    @example((1e308, 5e307, 1e308), 0.0)
    # Bitmask order sorted by size is colexicographic within a size; its
    # running sum overflows here, the lexicographic one does not.
    @example((0.0, 0.0, 0.0, 0.0, 2.0, 5e307), 0.0)
    def test_equals_subset_loop(self, betas, alpha):
        assert outcome(centered_product_identity, betas, alpha) == (
            outcome(product_by_subset_loop, betas, alpha)
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_small_at_length_cap(self, seed):
        rng = np.random.default_rng(seed)
        betas = rng.uniform(-2.0, 4.0, size=PRODUCT_LEN_CAP)
        alpha = float(rng.uniform(-0.9, 0.9))
        assert centered_product_identity(betas, alpha).residual <= TOL

    def test_length_cap(self):
        with pytest.raises(ValueError):
            centered_product_identity([1.0] * 21, 0.0)
        with pytest.raises(ValueError):
            centered_product_identity([], 0.0)


class TestCenteredSum:
    def test_frozen_example(self):
        # betas=(2,3), alpha=1, k=2: both sides equal -1
        r = centered_sum_identity((2.0, 3.0), 1.0, 2)
        assert r.lhs == pytest.approx(-1.0, abs=1e-12)
        assert r.rhs == pytest.approx(-1.0, abs=1e-12)
        assert r.residual <= 1e-12

    def test_single_element_single_order(self):
        # m=k=1 reduces to beta - (1+alpha) on both sides
        r = centered_sum_identity((2.5,), 0.3, 1)
        assert r.lhs == pytest.approx(2.5 - 1.3, rel=1e-15)
        assert r.residual <= 1e-15

    @given(st.data())
    @settings(max_examples=200)
    def test_residual_small(self, data):
        betas = data.draw(st.lists(
            st.floats(min_value=-2.0, max_value=4.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=10))
        k = data.draw(st.integers(min_value=1, max_value=len(betas)))
        alpha = data.draw(alphas)
        assert centered_sum_identity(betas, alpha, k).residual <= TOL

    @given(st.lists(wide_floats, min_size=1, max_size=12), st.one_of(alphas, st.floats()),
           st.integers(min_value=0, max_value=11))
    @settings(max_examples=200)
    @example((1e200,) * 3, 0.0, 2)
    @example((1e308, -1e308, 3.0), 0.0, 2)
    @example((1e308, 5e307, 1e308), 0.0, 1)  # see TestCenteredProduct
    @example((1e308, 5e307, 1e308), 0.0, 2)
    @example((0.0, 0.0, 0.0, 0.0, 2.0, 5e307), 0.0, 5)
    def test_equals_subset_loop(self, betas, alpha, k_draw):
        k = 1 + k_draw % len(betas)
        assert outcome(centered_sum_identity, betas, alpha, k) == (
            outcome(sum_by_subset_loop, betas, alpha, k)
        )

    @pytest.mark.parametrize("k", [8, SUBSET_M_CAP])
    @pytest.mark.parametrize("seed", range(5))
    def test_residual_small_at_subset_cap(self, seed, k):
        rng = np.random.default_rng(seed)
        betas = rng.uniform(-2.0, 4.0, size=SUBSET_M_CAP)
        alpha = float(rng.uniform(-0.9, 0.9))
        assert centered_sum_identity(betas, alpha, k).residual <= TOL

    def test_caps_and_ranges(self):
        with pytest.raises(ValueError):
            centered_sum_identity([1.0] * 17, 0.0, 1)
        with pytest.raises(ValueError):
            centered_sum_identity([1.0, 2.0], 0.0, 3)
        with pytest.raises(ValueError):
            centered_sum_identity([1.0, 2.0], 0.0, 0)

    def test_empty_betas_are_named(self):
        # without its own check, "k must lie in 1..len(betas)" hid the cause
        with pytest.raises(ValueError, match="^betas must be non-empty$"):
            centered_sum_identity([], 0.5, 1)


class TestIdentityReport:
    def test_report_shape_and_tolerances(self):
        report = identity_report(kmax=12, seed=0, trials=50)
        assert report["collision_coefficient_mismatches"] == 0
        assert report["bias_cancellation_max_residual"] <= TOL
        assert report["centered_product_max_residual"] <= TOL
        assert report["centered_sum_max_residual"] <= TOL

    def test_deterministic_for_seed(self):
        a = identity_report(kmax=8, seed=3, trials=30)
        b = identity_report(kmax=8, seed=3, trials=30)
        assert a == b

    def test_kmax_validated(self):
        with pytest.raises(ValueError):
            identity_report(kmax=0)
        with pytest.raises(ValueError):
            identity_report(kmax=40)

    def test_every_order_checked_at_k_plus_one_points(self, monkeypatch):
        # Orders above 20 were never evaluated.  Two degree-k polynomials
        # that agree at k + 1 distinct points are equal.
        seen = {}

        def spy(k, gamma):
            seen.setdefault(k, []).append(gamma)
            return bias_cancellation_identity(k, gamma)

        monkeypatch.setattr(identities, "bias_cancellation_identity", spy)
        identity_report(kmax=K_MAX, seed=0, trials=3)
        assert sorted(seen) == list(range(1, K_MAX + 1))
        for k, points in seen.items():
            assert len(set(points)) == len(points) == k + 1

    def test_bias_grid(self):
        assert len(set(BIAS_GRID)) == len(BIAS_GRID) == K_MAX + 1
        assert all(-1.0 < g < 1.0 for g in BIAS_GRID)
        assert BIAS_GRID[:5] == (0.1, 0.25, 0.5, 0.9, -0.5)


def per_trial_maxima(seed, trials):
    """The centered maxima of identity_report, one public call per draw."""
    rng = np.random.default_rng(seed)
    rng.uniform(-0.99, 0.99, size=trials)
    prod_max = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 9))
        betas = rng.uniform(-2.0, 4.0, size=n)
        alpha = float(rng.uniform(-0.9, 0.9))
        prod_max = max(prod_max, centered_product_identity(betas, alpha).residual)
    sum_max = 0.0
    for _ in range(trials):
        m = int(rng.integers(1, 11))
        k = int(rng.integers(1, m + 1))
        betas = rng.uniform(-2.0, 4.0, size=m)
        alpha = float(rng.uniform(-0.9, 0.9))
        sum_max = max(sum_max, centered_sum_identity(betas, alpha, k).residual)
    return prod_max.hex(), sum_max.hex()


class TestBatchedCenteredIdentities:
    @pytest.mark.parametrize("table_rows", [1, 2**8, identities.TABLE_ROWS])
    @pytest.mark.parametrize("seed", range(5))
    def test_report_equals_per_trial_calls(self, monkeypatch, seed, table_rows):
        # One case per batch, batches that split each length, and the default.
        monkeypatch.setattr(identities, "TABLE_ROWS", table_rows)
        report = identity_report(kmax=4, seed=seed, trials=200)
        assert (
            report["centered_product_max_residual"].hex(),
            report["centered_sum_max_residual"].hex(),
        ) == per_trial_maxima(seed, 200)

    @pytest.mark.parametrize("alpha", [-0.9, 0.9])
    @pytest.mark.parametrize("beta", [-2.0, 4.0])
    def test_report_draw_box_corners_are_finite(self, beta, alpha):
        # identity_report's draws (betas in [-2, 4), alpha in (-0.9, 0.9), up
        # to 8 product and 10 sum elements) batch several cases in one call;
        # a batch raises only its first failure, so they must not fail.  At
        # every corner both sides of both identities are finite.
        results = [centered_product_identity((beta,) * n, alpha) for n in range(1, 9)]
        results += [
            centered_sum_identity((beta,) * m, alpha, k)
            for m in range(1, 11)
            for k in range(1, m + 1)
        ]
        for r in results:
            assert math.isfinite(r.lhs) and math.isfinite(r.rhs)
        assert max(abs(r.rhs) for r in results) <= 65_536
