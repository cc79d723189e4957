"""Acceptance gates for the whole package, one test per shipping criterion.

Each test prints a single ``[acceptance N] label: PASS/FAIL (elapsed)`` line
and enforces its own wall-clock budget.  Run ``pytest tests/test_acceptance.py -s``
to see the lines as they go by; under plain ``pytest`` they surface only on
failure.  Everything here is seeded, so reruns print identical numbers.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from noisysum.cli import main
from noisysum.estimators import closed_form_expectation, variance_bound
from noisysum.harness import (
    bias_decay_sweep,
    distinguishability_experiment,
    zero_one_experiment,
)
from noisysum.identities import identity_report
from noisysum.lowerbound import (
    construct_matched_pair,
    frequency_moment,
    realize_integer_counts,
    support_gap_closed_form,
)
from noisysum.model import (
    Distribution,
    Population,
    make_perturbed,
    population_stats,
    worst_case_pair,
)
from noisysum.oracle import exact_estimator_moments


@contextmanager
def gate(idx: int, label: str, limit_s: float):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        assert elapsed < limit_s, f"{label} took {elapsed:.1f}s, budget {limit_s:.0f}s"
    except BaseException:
        print(f"[acceptance {idx}] {label}: FAIL "
              f"({time.perf_counter() - t0:.1f}s)", flush=True)
        raise
    print(f"[acceptance {idx}] {label}: PASS ({elapsed:.1f}s)", flush=True)


def _random_instance(rng):
    # Deviations are centered against the nominal mass and scaled into the
    # band, so every draw is a valid perturbation; every tenth one sits on
    # the band edge.  N = 1 forces zero deviation (balance leaves no room).
    n = int(rng.integers(1, 21))
    k = int(rng.integers(1, 6))
    gamma = float(rng.uniform(0.05, 0.95))
    values = rng.normal(0.0, 10.0, size=n)
    probs = rng.random(n) + 0.05
    probs /= probs.sum()
    raw = rng.uniform(-1.0, 1.0, size=n)
    centered = raw - float(np.dot(raw, probs))
    scale = float(np.max(np.abs(centered)))
    if n == 1 or scale == 0.0:
        devs = np.zeros(n)
    else:
        factor = 1.0 if rng.integers(10) == 0 else float(rng.uniform(0.2, 1.0))
        devs = (centered / scale) * gamma * factor
    nominal = Distribution(probs)
    pair = make_perturbed(nominal, devs, gamma)
    pilot = float(rng.uniform(-5.0, 5.0))
    return Population(values), nominal, pair, k, gamma, pilot


def test_exact_bias_law():
    # |E - mu| <= gamma^k sum|x - P W| with zero violations over 1000 random
    # instances, and exact equality on the band-edge sign-aligned pair.
    with gate(1, "exact bias law, 1000 random instances + saturating equality", 10.0):
        rng = np.random.default_rng(20260816)
        violations = 0
        for _ in range(1000):
            pop, nominal, pair, k, gamma, pilot = _random_instance(rng)
            mu = float(np.sum(pop.values))
            mu_plus = float(np.sum(np.abs(pop.values - nominal.probs * pilot)))
            gap = abs(closed_form_expectation(pop, pair, k, pilot) - mu)
            bound = gamma**k * mu_plus
            if gap > bound * (1.0 + 1e-12) + 1e-12 * max(1.0, mu_plus):
                violations += 1
        assert violations == 0

        uniform2 = Distribution(np.array([0.5, 0.5]))
        for gamma in (0.5, 0.3, 1.0 / 3.0):
            pair = worst_case_pair(uniform2, gamma, [1])
            for k in range(1, 6):
                # (+gamma, -gamma) against x = (1, (-1)^k): the deviation
                # signs align with the value signs at order k, so the
                # inequality closes.
                pop = Population(np.array([1.0, (-1.0) ** k]))
                mu = float(np.sum(pop.values))
                gap = abs(closed_form_expectation(pop, pair, k, 0.0) - mu)
                assert abs(gap - gamma**k * 2.0) <= 1e-12


def test_oracle_equivalence():
    # Full enumeration agrees with the closed-form expectation and never
    # exceeds the variance bound, across every small grid point.
    with gate(2, "oracle equivalence on the full small grid", 60.0):
        uniform1 = Distribution(np.array([1.0]))
        uniform2 = Distribution(np.array([0.5, 0.5]))
        skew3 = Distribution(np.array([0.5, 0.3, 0.2]))
        cases = (
            (Population(np.array([2.0])), uniform1,
             make_perturbed(uniform1, np.array([0.0]), 0.5)),
            (Population(np.array([1.0, 0.0])), uniform2,
             make_perturbed(uniform2, np.array([0.4, -0.4]), 0.5)),
            (Population(np.array([3.0, -1.0, 0.5])), skew3,
             make_perturbed(skew3, np.array([0.2, -0.1, -0.35]), 0.5)),
        )
        for pop, nominal, pair in cases:
            mu = population_stats(pop, nominal).mu
            for m in range(1, 7):
                for k in range(1, m + 1):
                    for pilot in (0.0, mu, 2.5):
                        moments = exact_estimator_moments(pop, pair, m, k, pilot)
                        expected = closed_form_expectation(pop, pair, k, pilot)
                        rel = abs(moments.expectation - expected) / max(1.0, abs(expected))
                        assert rel <= 1e-9
                        bound = variance_bound(pop, nominal, pair.gamma_bound, k, m, pilot)
                        assert moments.variance <= bound * (1.0 + 1e-12) + 1e-12
                        assert abs(moments.total_prob - 1.0) <= 1e-12


def test_hansen_hurwitz_ground_truth():
    # x = (1, 0) uniform, m = 2, exact weights: enumeration variance is
    # 0.5 on the nose, and matches the single-sample variance over m.
    with gate(3, "order-1 ground-truth variance 0.5", 10.0):
        pop = Population(np.array([1.0, 0.0]))
        nominal = Distribution(np.array([0.5, 0.5]))
        pair = make_perturbed(nominal, np.array([0.0, 0.0]), 0.5)
        moments = exact_estimator_moments(pop, pair, m=2, k=1, pilot=0.0)
        assert abs(moments.variance - 0.5) <= 1e-12
        assert abs(moments.variance - population_stats(pop, nominal).var_hh / 2) <= 1e-12


def test_identity_suite():
    # Counting identity exact through k = 32; the three cancellation
    # families stay under 1e-9 on their randomized suites.
    with gate(4, "combinatorial identity residuals", 30.0):
        report = identity_report(kmax=32, seed=20260816, trials=200)
        assert report["collision_coefficient_mismatches"] == 0
        assert report["bias_cancellation_max_residual"] <= 1e-9
        assert report["centered_product_max_residual"] <= 1e-9
        assert report["centered_sum_max_residual"] <= 1e-9


def test_matched_moment_construction():
    # Rational arithmetic end to end: equal moments 1..k, the pointwise
    # closeness window, and the support-gap product formula, all exact.
    with gate(5, "matched-moment spectra, exact rationals", 5.0):
        for k in range(1, 9):
            for gamma_str in ("1/10", "1/4", "1/2"):
                gamma = Fraction(gamma_str)
                for n0 in (1000, 10000):
                    pair = construct_matched_pair(k, gamma, n0)
                    for ell in range(1, k + 1):
                        assert frequency_moment(pair.d1, ell) == frequency_moment(pair.d2, ell)
                    for spectrum in (pair.d1, pair.d2):
                        for atom in spectrum.atoms:
                            assert abs(n0 * atom.prob - 1) <= gamma
                    expected_gap = (
                        Fraction(n0, 2 ** (k - 1))
                        * Fraction(math.factorial(k), k**k)
                        * gamma**k
                        / math.prod(1 + Fraction(i) * gamma / k for i in range(1, k + 1))
                    )
                    gap = pair.d1.support_size - pair.d2.support_size
                    assert gap == expected_gap
                    assert gap == support_gap_closed_form(k, gamma, n0)
        spot = construct_matched_pair(2, Fraction(1, 2), 60)
        assert spot.d1.support_size - spot.d2.support_size == 2


def test_counting_and_separation_at_desk_scale():
    # Counting half of n = 10^4 under adversarial skew must succeed at the
    # planned (k, m) with frequency >= 2/3 minus three binomial sigmas.
    # The matched pair is then handed to the estimator one order up: the
    # sweep's z must climb with m while the same-scenario control stays
    # inside plain noise.
    with gate(6, "desk-scale counting success + separation sweep", 300.0):
        outcome = zero_one_experiment(
            n=10_000, fraction_ones=0.5, gamma=0.5, eps=0.25,
            trials=2000, base_seed=20250816, threads=4,
        )
        assert outcome.config.k == 2
        assert outcome.config.m == 1600
        floor = 2.0 / 3.0 - 3.0 * math.sqrt((2.0 / 9.0) / 2000.0)
        assert outcome.stats.success_rate >= floor

        realized = realize_integer_counts(construct_matched_pair(2, Fraction(1, 2), 3000))
        rows = distinguishability_experiment(
            realized, (200, 600, 2000), trials=1000, base_seed=7, threads=4,
        )
        zs = [row.separation_z for row in rows]
        assert zs == sorted(zs)
        assert zs[0] < 2.0
        assert zs[-1] > 2.0
        null_rows = distinguishability_experiment(
            realized, (2000,), trials=1000, base_seed=7, threads=4,
            null_calibration=True,
        )
        assert null_rows[0].separation_z < 3.0


def test_bias_decay_sweep():
    # On the band-edge pair with value signs matched to the order's parity,
    # exact bias over mu_plus is gamma^k exactly, k = 1..6 at gamma = 1/2.
    with gate(7, "bias decay hits gamma^k exactly", 10.0):
        nominal = Distribution(np.array([0.5, 0.5]))
        even = bias_decay_sweep(Population(np.array([1.0, 1.0])), nominal, 0.5, range(1, 7))
        odd = bias_decay_sweep(Population(np.array([1.0, -1.0])), nominal, 0.5, range(1, 7))
        for k in range(1, 7):
            row = (even if k % 2 == 0 else odd)[k - 1]
            assert row.k == k
            assert abs(row.exact_bias / 2.0 - 0.5**k) <= 1e-12  # mu_plus = 2
            assert abs(row.ratio - 1.0) <= 1e-12


def test_cli_determinism(tmp_path):
    # Every subcommand, run twice per worker count: all four outputs must
    # be byte-identical.  Only simulate takes --threads; the rest run the
    # same argv under both counts.
    with gate(8, "CLI byte-identical across reruns and worker counts", 120.0):
        pop = tmp_path / "pop.csv"
        pop.write_text("index,x,p,q\n1,1.0,0.5,0.75\n2,0.0,0.5,0.25\n")
        cases = {
            "estimate": ["estimate", "--input", str(pop),
                         "--k", "2", "--m", "400", "--seed", "123"],
            "simulate/zero-one": ["simulate", "--exp", "zero-one", "--n", "100",
                                  "--gamma", "0.5", "--eps1", "0.25",
                                  "--trials", "60", "--seed", "3"],
            "simulate/distinguish": ["simulate", "--exp", "distinguish", "--k", "1",
                                     "--gamma", "1/2", "--n0", "30",
                                     "--m-grid", "5,40", "--trials", "40",
                                     "--seed", "11", "--format", "json"],
            "oracle": ["oracle", "--input", str(pop), "--m", "3", "--k", "2"],
            "identities": ["identities", "--kmax", "10", "--trials", "50"],
            "lowerbound": ["lowerbound", "--k", "2", "--gamma", "1/2", "--n0", "60",
                           "--realize", "--scenario", "ones-large", "--seed", "5"],
        }
        for name, argv in cases.items():
            outputs = []
            for threads in ("1", "8"):
                extra = ["--threads", threads] if argv[0] == "simulate" else []
                for rerun in range(2):
                    target = tmp_path / f"{name.replace('/', '_')}.{threads}.{rerun}"
                    rc = main([*argv, *extra, "--output", str(target)])
                    assert rc == 0, name
                    outputs.append(target.read_bytes())
            assert all(blob == outputs[0] for blob in outputs), name
