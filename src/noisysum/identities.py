"""Combinatorial identities behind the bias cancellation, as checkable residuals.

Each function evaluates both sides of one identity independently and
returns an ``IdentityResidual`` carrying the two values and their relative
residual |lhs - rhs| / max(1, |lhs|, |rhs|).  The integer identity is
computed exactly and returns the bare sum.

How the sums are evaluated, and why each value has the bits of a direct
per-term loop:

- The bias identity runs in exact integers over gamma = a / 2^e, so every
  power of the denominator is a left shift, and (1+gamma)^h numerators are
  one running product.  The right side is still summed term by term.
- The centered identities build every subset product in one bitmask table
  with one numpy multiply per element: a subset's product is the product
  without its largest element times that element, which is ``math.prod``'s
  left-to-right order over ascending indices (the first factor multiplies
  1.0, which is exact).  Per-size scalars (center powers, binomial ratios,
  alpha powers) are Python floats computed in the loop's own operation
  order, so each summand is the same rounding of the same operands.
- ``math.fsum`` is correctly rounded, but whether it raises "intermediate
  overflow" depends on the order of its summands; they are therefore fed in
  ``itertools.combinations`` order (by size, then lexicographic), not in
  bitmask order.  Products that leave the float range become inf or nan
  without a warning, as Python float arithmetic does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import K_MAX

# Subset enumerations are exponential; these caps keep them honest.
SUBSET_M_CAP = 16
PRODUCT_LEN_CAP = 20


@dataclass(frozen=True)
class IdentityResidual:
    lhs: float
    rhs: float
    residual: float


def _residual(lhs: float, rhs: float) -> IdentityResidual:
    scale = max(1.0, abs(lhs), abs(rhs))
    return IdentityResidual(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs) / scale)


def collision_coefficient_identity(k: int, j: int) -> int:
    """Exact value of sum_{h=1..k} (-1)^(h+1) C(k,h) C(h,j).

    The alternating combination kills every intermediate collision order:
    the sum is 1 at j=0, (-1)^(k+1) at j=k, and 0 for 0 < j < k.  Computed
    directly in exact integer arithmetic; callers compare against the
    case split (see ``collision_coefficient_expected``).
    """
    if not (1 <= k <= K_MAX):
        raise ValueError(f"k must lie in 1..{K_MAX}")
    if not (0 <= j <= k):
        raise ValueError("j must lie in 0..k")
    return sum((-1) ** (h + 1) * math.comb(k, h) * math.comb(h, j) for h in range(1, k + 1))


def collision_coefficient_expected(k: int, j: int) -> int:
    """The case split the identity resolves to: 1, (-1)^(k+1), or 0."""
    if j == 0:
        return 1
    if j == k:
        return (-1) ** (k + 1)
    return 0


def bias_cancellation_identity(k: int, gamma: float) -> IdentityResidual:
    """1 + (-1)^(k+1) gamma^k  ==  sum_{h=1..k} (-1)^(h+1) C(k,h) (1+gamma)^h.

    This is the scalar shadow of the estimator's expectation: a single
    index with relative deviation gamma contributes exactly the left side.

    Both sides are evaluated exactly over the common denominator b^k of
    gamma = a/b (``float(gamma)`` converts exactly, and b = 2^e), the right
    side term by term, and each value is one correctly rounded integer
    division.  Double evaluation is hopeless here: at k=20 the binomial
    terms reach ~1e8 while the sum is O(1), so even correctly rounded
    powers leave residuals near 1e-8.
    """
    if not (1 <= k <= K_MAX):
        raise ValueError(f"k must lie in 1..{K_MAX}")
    a, b = float(gamma).as_integer_ratio()
    e = b.bit_length() - 1  # b = 2^e, so b^j is a shift by e*j
    u = b + a  # 1 + gamma = u/b
    den = 1 << (e * k)
    lhs = den + a**k if k % 2 else den - a**k
    rhs = 0
    u_h = 1
    for h in range(1, k + 1):
        u_h *= u
        term = (math.comb(k, h) * u_h) << (e * (k - h))
        rhs = rhs + term if h % 2 else rhs - term
    lhs_value, rhs_value = lhs / den, rhs / den
    scale = max(1.0, abs(lhs_value), abs(rhs_value))
    return IdentityResidual(
        lhs=lhs_value, rhs=rhs_value, residual=(abs(lhs - rhs) / den) / scale
    )


def _subset_products(factors, kmax: int):
    """Sizes and factor products of the subsets of size 1..kmax of n elements.

    ``factors[j]`` lists element j's factors, one per column.  Subsets come
    in ``combinations`` order (by size, then lexicographic), and each
    product is ``math.prod``'s: left to right over ascending elements,
    starting from 1.

    Subset r of the 2^n-entry table holds element j at bit n-1-j, so its
    lowest set bit is its largest element, which multiplies last onto the
    entry without that bit.  Within one size, lexicographic order is
    descending r.
    """
    n = len(factors)
    values = np.array(factors, dtype=np.float64)
    prods = np.empty((1 << n, values.shape[1]))
    prods[0] = 1.0
    sizes = np.zeros(1 << n, dtype=np.int8)
    for j in range(n):
        bit = 1 << (n - 1 - j)
        prods[bit :: 2 * bit] = prods[:: 2 * bit] * values[j]
        sizes[bit :: 2 * bit] = sizes[:: 2 * bit] + 1
    # A stable sort keeps descending r within each size of the reversed table.
    order = (1 << n) - 1 - np.argsort(sizes[::-1], kind="stable")
    order = order[1 : sum(math.comb(n, s) for s in range(kmax + 1))]
    return sizes[order], prods[order]


def centered_product_identity(betas, alpha: float) -> IdentityResidual:
    """Expansion of a product around a common center 1 + alpha.

    prod_j beta_j - (1+alpha)^n  ==
        sum over nonempty J of (1+alpha)^(n-|J|) prod_{j in J} (beta_j - (1+alpha))

    Covers all 2^n - 1 nonempty subsets; n is capped at
    ``PRODUCT_LEN_CAP``.
    """
    betas = tuple(float(b) for b in betas)
    n = len(betas)
    if n < 1:
        raise ValueError("betas must be non-empty")
    if n > PRODUCT_LEN_CAP:
        raise ValueError(f"len(betas)={n} exceeds the cap {PRODUCT_LEN_CAP}")
    center = 1.0 + alpha
    lhs = math.prod(betas) - center**n
    powers = np.array([center ** (n - size) for size in range(1, n + 1)])
    with np.errstate(all="ignore"):  # an inf or nan is kept, as Python floats keep it
        sizes, prods = _subset_products([(b - center,) for b in betas], n)
        rhs_terms = powers[sizes - 1] * prods[:, 0]
    return _residual(lhs, math.fsum(rhs_terms.tolist()))


def _binom_ratio(k: int, m: int, size: int) -> float:
    # C(k,size)/C(m,size) as an incremental product; never via factorials.
    ratio = 1.0
    for j in range(size):
        ratio *= (k - j) / (m - j)
    return ratio


def centered_sum_identity(betas, alpha: float, k: int) -> IdentityResidual:
    """Rearrangement of the estimator's deviation into fully centered products.

    With m = len(betas) and subsets I of {1..m} of size 1..k:

      sum_I (-1)^(|I|+1) (C(k,|I|)/C(m,|I|)) (prod_{j in I} beta_j - (1+alpha)^|I|)
      ==
      (-1)^(k+1) sum_I (C(k,|I|)/C(m,|I|)) alpha^(k-|I|) prod_{j in I} (beta_j - (1+alpha))

    Every term on the right carries a centered factor, which is what makes
    the deviation mean-zero when the beta_j are conditionally centered.
    m is capped at ``SUBSET_M_CAP``.
    """
    betas = tuple(float(b) for b in betas)
    m = len(betas)
    if m < 1:
        raise ValueError("betas must be non-empty")
    if m > SUBSET_M_CAP:
        raise ValueError(f"len(betas)={m} exceeds the cap {SUBSET_M_CAP}")
    if not (1 <= k <= m):
        raise ValueError("k must lie in 1..len(betas)")
    center = 1.0 + alpha
    lhs_coeffs, center_powers, rhs_coeffs = [], [], []
    for size in range(1, k + 1):
        coeff = _binom_ratio(k, m, size)
        lhs_coeffs.append((-1.0) ** (size + 1) * coeff)
        center_powers.append(center**size)
        rhs_coeffs.append(coeff * alpha ** (k - size))
    with np.errstate(all="ignore"):
        sizes, prods = _subset_products([(b, b - center) for b in betas], k)
        at = sizes - 1
        lhs_terms = np.array(lhs_coeffs)[at] * (prods[:, 0] - np.array(center_powers)[at])
        rhs_terms = np.array(rhs_coeffs)[at] * prods[:, 1]
    lhs = math.fsum(lhs_terms.tolist())
    rhs = (-1.0) ** (k + 1) * math.fsum(rhs_terms.tolist())
    return _residual(lhs, rhs)


def identity_report(kmax: int, seed: int = 0, trials: int = 100) -> dict:
    """Run all four identity families and report the worst residuals.

    Deterministic for a given seed.  The integer identity contributes the
    count of (k, j) pairs disagreeing with the case split (always 0 unless
    arithmetic is broken); the others contribute max relative residuals
    over a gamma grid plus ``trials`` random draws, at least one.
    """
    if not (1 <= kmax <= K_MAX):
        raise ValueError(f"kmax must lie in 1..{K_MAX}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    mismatches = 0
    for k in range(1, kmax + 1):
        for j in range(0, k + 1):
            if collision_coefficient_identity(k, j) != collision_coefficient_expected(k, j):
                mismatches += 1
    bias_max = 0.0
    gammas = [0.1, 0.25, 0.5, 0.9, -0.5]
    gammas += [float(g) for g in rng.uniform(-0.99, 0.99, size=trials)]
    for k in range(1, min(kmax, 20) + 1):
        for g in gammas:
            bias_max = max(bias_max, bias_cancellation_identity(k, g).residual)
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
    return {
        "kmax": kmax,
        "seed": seed,
        "trials": trials,
        "collision_coefficient_mismatches": mismatches,
        "bias_cancellation_max_residual": bias_max,
        "centered_product_max_residual": prod_max,
        "centered_sum_max_residual": sum_max,
    }
