"""Sum estimators that cancel bias from imprecisely known sampling weights.

The plain importance-weighted estimator (1/m) sum_j x_{X_j} / P(X_j) is
unbiased only when samples really come from P.  When they come from an
unknown Q with Q(i) = (1 + gamma_i) P(i), its expectation picks up the
weighted deviation sum_i gamma_i x_i.  The estimators here combine
collision statistics of several orders so that all deviation terms up to
order k cancel:

    estimate = W + sum_{h=1..k} (-1)^(h+1) C(k,h) * A_h

    A_h = (1 / C(m,h)) * sum_i C(Y_i,h) * (x_i - P(i) W) / P(i)^h

where Y_i counts occurrences of index i among the m samples and W is a
centering pilot value (an earlier rough estimate of the sum).  The exact
expectation, conditional on W, is

    W + sum_i (x_i - P(i) W) * (1 + (-1)^(k+1) gamma_i^k),

so the residual bias is bounded by gamma^k * sum_i |x_i - P(i) W|.

Counting: ``frequency_vector`` is the one count of a batch, for the
per-order API and ``estimate_sum`` alike.  One ``np.unique`` pass keeps only
the distinct sampled indices and their counts Y_i, so later work scales
with m, not N.  It returns them as a ``FrequencyVector``, a plain record
(sampled, m, n) that nothing else builds.

Numerics: binomial ratios are never formed from factorials.  One running
product over the distinct sampled indices gives the per-index terms
C(Y_i,h) / (C(m,h) P(i)^h) of every order: the order-(h-1) term times
(Y_i - h + 1) / ((m - h + 1) P(i)), kept where Y_i >= h.  These factors
do not grow with h, so a term that leaves the float range stays out of it
at every higher order: the overflow raises NonFiniteEstimateError.  Each
A_h, and the closed-form expectation, is ``model.fsum_array`` of its term
array: ``math.fsum`` bit for bit, by error-free extraction in numpy passes.

Planning: ``plan_parameters`` maps accuracy targets to (k, m, t).  Its
constants default to ``C_M`` and ``C_T``, calibrated by demo 06; the
counting experiment reads the same two names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    Distribution,
    PerturbedPair,
    Population,
    SampleBatch,
    check_nominal,
    draw_samples,
    fsum_array,
)

# Orders beyond this are numerically pointless: gamma^k underflows any
# realistic tolerance long before, and coefficient growth hurts variance.
K_MAX = 32

# Plan constants c_m and c_t, calibrated by demos/06_calibrate_plan_constants.py.
C_M = 4.0
C_T = 16.0


class InfeasiblePlanError(ValueError):
    """A requested accuracy cannot be planned within supported orders."""


class NonFiniteEstimateError(ValueError):
    """An order-h collision average, or the order-k combination, overflowed."""

    def __init__(self, h: int, what: str = "collision terms"):
        super().__init__(f"order-{h} {what} overflowed the float range")


@dataclass(frozen=True)
class FrequencyVector:
    """Occurrence counts Y_1..Y_n of an m-sample batch, kept sparse.

    ``sampled`` holds the 0-based sampled positions (ascending) and their
    counts.  Built by ``frequency_vector``.
    """

    sampled: tuple[np.ndarray, np.ndarray]
    m: int
    n: int


@dataclass(frozen=True)
class EstimatorReport:
    """Result of one estimator evaluation.

    ``xi_values`` holds A_1..A_k, so the order ``k`` is its length.
    ``estimate`` is not passed in: it is computed at construction as
    ``pilot_W`` plus the alternating binomial combination of ``xi_values``,
    and raises NonFiniteEstimateError when that overflows.  ``t`` is the
    pilot-stage sample count, 0 when the pilot was supplied directly.
    """

    estimate: float = field(init=False)
    m: int
    t: int
    pilot_W: float
    xi_values: tuple[float, ...]
    seed: int

    def __post_init__(self):
        if not self.xi_values:
            raise ValueError("xi_values must hold at least order 1")
        if self.m < 1 or self.t < 0:
            raise ValueError("m must be positive and t nonnegative")
        try:
            estimate = self.pilot_W + math.fsum(
                (-1.0) ** (h + 1) * math.comb(self.k, h) * self.xi_values[h - 1]
                for h in range(1, self.k + 1)
            )
        except (OverflowError, ValueError):  # partial sums overflowed, or inf - inf
            estimate = math.inf
        if not math.isfinite(estimate):
            raise NonFiniteEstimateError(self.k, "recombination")
        object.__setattr__(self, "estimate", estimate)

    @property
    def k(self) -> int:
        return len(self.xi_values)

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "k": self.k,
            "m": self.m,
            "t": self.t,
            "pilot_W": self.pilot_W,
            "xi_values": list(self.xi_values),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class PlanParameters:
    """Planned order k, main-stage size m and pilot size t."""

    k: int
    m: int
    t: int

    def __post_init__(self):
        if not (self.m >= self.k >= 1 and self.t >= 1):
            raise ValueError("plans require m >= k >= 1 and t >= 1")


def required_order(gamma: float, eps1: float) -> int:
    """Smallest k with gamma^k <= eps1, i.e. ceil(lg eps1 / lg gamma).

    Ratios within 1e-9 of an integer snap down so exact powers (for
    example gamma=0.1, eps1=0.01) are not inflated by float log noise.
    Exact weights (gamma = 0) leave no bias to cancel, so k = 1.  Raises
    InfeasiblePlanError when k exceeds K_MAX.
    """
    if not (0.0 <= gamma < 1.0):
        raise ValueError("gamma must lie in [0, 1)")
    if not (0.0 < eps1 < 1.0):
        raise ValueError("eps1 must lie in (0, 1)")
    if gamma == 0.0:
        return 1
    ratio = math.log(eps1) / math.log(gamma)
    k = max(1, math.ceil(ratio - 1e-9))
    if k > K_MAX:
        raise InfeasiblePlanError(
            f"target eps1={eps1!r} at gamma={gamma!r} needs order {k} > {K_MAX}"
        )
    return k


def _plan_size(name: str, formula) -> int:
    """ceil(formula()), or InfeasiblePlanError naming the size when that is no int64."""
    try:
        size = formula()
    except (OverflowError, ZeroDivisionError) as exc:  # math.exp, a float power, 0 divisor
        raise InfeasiblePlanError(f"planned {name} leaves the float range: {exc}") from None
    if not size < 2.0**63:  # inf and nan fail too
        raise InfeasiblePlanError(f"planned {name} = {size!r} is not an integer below 2^63")
    return math.ceil(size)


def plan_parameters(
    gamma: float,
    eps1: float,
    eps2: float,
    n_tilde: float,
    var_hh: float,
    c_m: float = C_M,
    c_t: float = C_T,
) -> PlanParameters:
    """Choose the estimator order and the two sample budgets.

    k = ceil(lg eps1 / lg gamma) cancels bias down to eps1 relative;
    m = ceil(c_m * (n_tilde^(k-1) * var_hh / eps2^2)^(1/k)) controls the
    main-stage fluctuation at the eps2 scale, clamped to at least k;
    t = ceil(c_t * (1 + gamma^(2k) * var_hh / eps2^2)) sizes the pilot.

    eps2 may be 0 only when var_hh is 0, where m = k and t = ceil(c_t).
    A NaN eps2, c_m or c_t fails these checks.  A non-finite n_tilde or
    var_hh (population statistics beyond the float range), or a size that
    leaves the float range or is not an integer below 2^63, raises
    InfeasiblePlanError.

    The constants default to the calibrated ``C_M`` and ``C_T``.
    """
    if not (eps2 > 0.0 or eps2 == var_hh == 0.0):
        raise ValueError("eps2 must be positive")
    if var_hh < 0.0:
        raise ValueError("var_hh must be nonnegative")
    if n_tilde < 1.0:
        raise ValueError("n_tilde must be at least 1")
    if not (c_m > 0.0 and c_t > 0.0):
        raise ValueError("plan constants must be positive")
    if not (math.isfinite(n_tilde) and math.isfinite(var_hh)):
        raise InfeasiblePlanError(
            f"plan inputs n_tilde = {n_tilde!r}, var_hh = {var_hh!r} leave the float range"
        )
    k = required_order(gamma, eps1)
    if var_hh == 0.0:
        m = k
        t = _plan_size("t", lambda: c_t)
    else:
        log_core = ((k - 1) * math.log(n_tilde) + math.log(var_hh) - 2.0 * math.log(eps2)) / k
        m = max(k, _plan_size("m", lambda: c_m * math.exp(log_core)))

        def pilot_size():
            spread = gamma ** (2 * k) * var_hh
            try:
                return c_t * (1.0 + spread / eps2**2)
            except OverflowError:  # eps2^2 leaves the float range; the ratio need not
                return c_t * (1.0 + spread / eps2 / eps2)

        t = _plan_size("t", pilot_size)
    return PlanParameters(k=k, m=m, t=t)


def frequency_vector(batch: SampleBatch, n: int) -> FrequencyVector:
    """Count occurrences of each index 1..n in the batch, in one ``np.unique``."""
    idx, cnt = np.unique(batch.indices - 1, return_counts=True)
    if int(idx[-1]) >= n:
        raise ValueError(f"batch contains an index above N={n}")
    return FrequencyVector((idx, cnt), batch.m, n)


def _order_products(freq, k, pop, nominal, pilot):
    """Yield the per-index summands of A_1..A_k from one running product.

    Only the sampled positions of ``freq`` are visited.  An overflowed
    term is left infinite for ``_order_sum`` to reject.
    """
    idx, cnt = freq.sampled
    m = freq.m
    cnt = cnt.astype(np.float64)
    p = nominal.probs[idx]
    centered = pop.values[idx] - p * pilot
    with np.errstate(over="ignore"):
        # Order 1 keeps every sampled index: 1.0 * ((cnt - 0) / ((m - 0) * p)).
        terms = cnt / (m * p)
        products = terms * centered
    yield products
    for j in range(1, k):
        keep = cnt > j
        cnt, p, centered, terms = (a[keep] for a in (cnt, p, centered, terms))
        with np.errstate(over="ignore"):
            terms = terms * ((cnt - j) / ((m - j) * p))
            products = terms * centered
        yield products


def _order_sum(products: np.ndarray, h: int) -> float:
    """A_h from its per-index summands; raises NonFiniteEstimateError on overflow."""
    if not np.all(np.isfinite(products)):
        raise NonFiniteEstimateError(h)
    try:
        return fsum_array(products)
    except OverflowError:
        raise NonFiniteEstimateError(h) from None


def collision_estimator(
    freq: FrequencyVector,
    h: int,
    pop: Population,
    nominal: Distribution,
    pilot: float,
) -> float:
    """Order-h collision average A_h over the sampled indices.

    A_h = (1/C(m,h)) sum_i C(Y_i,h) (x_i - P(i) pilot) / P(i)^h.  Indices
    sampled fewer than h times contribute nothing, so the work after the
    count pass scales with the number of distinct sampled indices.  Raises
    NonFiniteEstimateError when a term or their sum overflows the float range.
    """
    if not (1 <= h <= freq.m):
        raise ValueError("h must lie in 1..m")
    if freq.n != pop.size:
        raise ValueError("population, distribution, and counts disagree on N")
    check_nominal(pop, nominal)
    *_, products = _order_products(freq, h, pop, nominal, pilot)
    return _order_sum(products, h)


def estimate_sum(
    batch: SampleBatch,
    k: int,
    pilot: float,
    pop: Population,
    nominal: Distribution,
) -> EstimatorReport:
    """Order-k bias-reduced estimate of sum_i x_i from one sample batch.

    ``pilot`` centers the population values; any fixed value is valid and
    a value near the true sum shrinks both bias and variance.  Requires
    1 <= k <= min(m, K_MAX); raises NonFiniteEstimateError when a value
    overflows the float range.  Work after the checks scales with m.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > K_MAX:
        raise ValueError(f"k={k} exceeds the supported maximum {K_MAX}")
    if k > batch.m:
        raise ValueError("k cannot exceed the batch size m")
    if not math.isfinite(pilot):
        raise ValueError("pilot must be finite")
    freq = frequency_vector(batch, pop.size)
    check_nominal(pop, nominal)
    orders = _order_products(freq, k, pop, nominal, pilot)
    xi = tuple(_order_sum(products, h) for h, products in enumerate(orders, start=1))
    return EstimatorReport(m=batch.m, t=0, pilot_W=pilot, xi_values=xi, seed=batch.seed)


def improved_estimate_sum(
    pop: Population,
    pair: PerturbedPair,
    m: int,
    t: int,
    k: int,
    seed: int,
) -> EstimatorReport:
    """Two-stage estimate: a t-sample order-1 pilot, then the order-k pass.

    The stages draw from independent streams derived from ``seed``, so a
    sweep over consecutive seeds never reuses a stream across stages.
    """
    if m < 1:  # before t, which the CLI defaults to m
        raise ValueError("m must be at least 1")
    if t < 1:
        raise ValueError("the pilot stage needs t >= 1")
    s1, s2 = (int(s) for s in np.random.SeedSequence(seed).generate_state(2, np.uint64))
    pilot_batch = draw_samples(pair, t, s1)
    pilot = estimate_sum(pilot_batch, 1, 0.0, pop, pair.nominal).estimate
    main_batch = draw_samples(pair, m, s2)
    report = estimate_sum(main_batch, k, pilot, pop, pair.nominal)
    return replace(report, t=t, seed=int(seed))


def _centered(pop: Population, nominal: Distribution, pilot: float):
    """P and the centered values x - P * pilot, after ``check_nominal``."""
    check_nominal(pop, nominal)
    p = nominal.probs
    return p, pop.values - p * pilot


def closed_form_expectation(
    pop: Population, pair: PerturbedPair, k: int, pilot: float
) -> float:
    """Exact expectation of the order-k estimate, conditional on the pilot.

    Equals pilot + sum_i (x_i - P(i) pilot) (1 + (-1)^(k+1) gamma_i^k);
    no sampling involved.  Raises ``OverflowError`` naming k where a term
    or the expectation is beyond the float range.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    _, centered = _centered(pop, pair.nominal, pilot)
    sign = (-1.0) ** (k + 1)
    with np.errstate(over="ignore"):
        terms = centered * (1.0 + sign * pair.deviations**k)
    if np.isfinite(terms).all():
        expectation = pilot + fsum_array(terms)
        if math.isfinite(expectation):
            return expectation
    raise OverflowError(f"the order-{k} closed-form expectation leaves the float range")


def bias_bound(
    pop: Population,
    nominal: Distribution,
    gamma: float,
    k: int,
    pilot: float,
) -> float:
    """Worst-case |expectation - mu| over all gamma-close perturbations.

    Orders k >= 2 obey gamma^k * sum_i |x_i - P(i) pilot|.  Order 1 is
    special: the deviations carry zero nominal mass, so the bound tightens
    to gamma * sum_i |x_i - P(i) mu| (the pilot drops out exactly).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not (0.0 <= gamma < 1.0):
        raise ValueError("gamma must lie in [0, 1)")
    p, centered = _centered(pop, nominal, pilot)
    if k == 1:
        mu_centered = float(np.sum(centered))
        return gamma * float(np.sum(np.abs(centered - p * mu_centered)))
    return gamma**k * float(np.sum(np.abs(centered)))


def variance_bound(
    pop: Population,
    nominal: Distribution,
    gamma: float,
    k: int,
    m: int,
    pilot: float,
) -> float:
    """Upper bound on the variance of the order-k estimate from m samples.

    With S = sum_i (x_i - P(i) pilot)^2 / P(i):

    - k == 1: (1 + gamma) * sum_i (xbar_i - P(i) mubar)^2 / P(i) / m,
      the importance-weighted second moment of the centered values;
    - k >= 2: max of the order-1-dominated term
      2 (1+gamma) gamma^(2k-2) k^2 S / m and the collision-dominated term
      2^k (1+gamma)^k k^(3k) n_tilde^(k-1) S / m^k.
    """
    if k < 1 or m < k:
        raise ValueError("need m >= k >= 1")
    if not (0.0 <= gamma < 1.0):
        raise ValueError("gamma must lie in [0, 1)")
    p, centered = _centered(pop, nominal, pilot)
    if k == 1:
        mu_centered = float(np.sum(centered))
        resid = centered - p * mu_centered
        return (1.0 + gamma) * float(np.sum(resid**2 / p)) / m
    s = float(np.sum(centered**2 / p))
    n_tilde = float(np.max(1.0 / p))
    first = 2.0 * (1.0 + gamma) * gamma ** (2 * k - 2) * k**2 * s / m
    second = 0.0
    if s > 0.0:
        second = math.exp(
            k * math.log(2.0 * (1.0 + gamma))
            + 3.0 * k * math.log(k)
            + (k - 1) * math.log(n_tilde)
            + math.log(s)
            - k * math.log(m)
        )
    return max(first, second)
