"""Combinatorial identities behind the bias cancellation, as checkable residuals.

Each function evaluates both sides of one identity independently and
returns an ``IdentityResidual`` carrying the two values and their relative
residual |lhs - rhs| / max(1, |lhs|, |rhs|).  The integer identity is
computed exactly and returns the bare sum.

How the sums are evaluated, and why each value has the bits of a direct
per-term loop:

- The bias identity runs in exact integers over gamma = a / 2^e, so every
  power of the denominator is a left shift, and (1+gamma)^h numerators are
  one running product.  The right side is still summed term by term.  Both
  sides are polynomials of degree k in gamma, so ``identity_report`` checks
  order k at k + 1 exact points, which proves it for every gamma, and does
  so for every order up to its kmax.
- The centered identities build every subset product in one bitmask table
  with one numpy multiply per element: a subset's product is the product
  without its largest element times that element, which is ``math.prod``'s
  left-to-right order over ascending indices (the first factor multiplies
  1.0, which is exact).  The report's draws of one length share a table,
  a (draws, 2^n, columns) array built in batches of at most ``TABLE_ROWS``
  rows, and a single call is the same kernel on one draw.  Per-size
  scalars (center powers, binomial ratios, alpha powers) are Python floats
  computed in the loop's own operation order, so each summand is the same
  rounding of the same operands.
- ``math.fsum`` is correctly rounded, but whether it raises "intermediate
  overflow" depends on the order of its summands; they are therefore fed in
  ``itertools.combinations`` order (by size, then lexicographic), not in
  bitmask order.  Products that leave the float range become inf or nan
  without a warning, as Python float arithmetic does.
- There is one raise path: a power beyond the float range, fsum's
  overflow or its inf - inf propagates from where it is raised.  The
  public functions pass one case, so each raises what a per-subset loop
  raises; ``identity_report``'s draws stay far inside the float range
  (|rhs| at most 65,536, at the corners of the draw box).  A multi-case
  call raises its first failure in batch order (all scalars, then each
  length's batches), not necessarily a loop's first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import K_MAX

# Subset enumerations are exponential; these caps keep them honest.
SUBSET_M_CAP = 16
PRODUCT_LEN_CAP = 20
# Subset-table rows per batch of centered cases (one case may exceed it).
TABLE_ROWS = 2**12
# C(k, h) for 0 <= h <= k <= K_MAX, exact: _BINOM[k][h].
_BINOM = tuple(tuple(math.comb(k, h) for h in range(k + 1)) for k in range(K_MAX + 1))
# K_MAX + 1 distinct exact points of (-1, 1) for the bias identity; order k
# is checked at the first k + 1.
BIAS_GRID = (0.1, 0.25, 0.5, 0.9, -0.5) + tuple(
    (-1) ** j * (2 * j + 1) / 64 for j in range(K_MAX - 4)
)


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
    return _counting_row(k)[j]


def _counting_row(k: int) -> list:
    """The identity's sums at order k for j = 0..k, in one pass over ``_BINOM``."""
    row = [0] * (k + 1)
    for h in range(1, k + 1):
        coeff = _BINOM[k][h] if h % 2 else -_BINOM[k][h]
        for j, c in enumerate(_BINOM[h]):
            row[j] += coeff * c
    return row


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
        term = (_BINOM[k][h] * u_h) << (e * (k - h))
        rhs = rhs + term if h % 2 else rhs - term
    lhs_value, rhs_value = lhs / den, rhs / den
    scale = max(1.0, abs(lhs_value), abs(rhs_value))
    return IdentityResidual(
        lhs=lhs_value, rhs=rhs_value, residual=(abs(lhs - rhs) / den) / scale
    )


def _subset_products(factors: np.ndarray, kmax: int):
    """Sizes and factor products of the subsets of size 1..kmax of n
    elements, for t cases at once.

    ``factors[i, j]`` lists case i's element j's factors, one per column, so
    the products are a (t, subsets, columns) array.  Subsets come in
    ``combinations`` order (by size, then lexicographic), and each product
    is ``math.prod``'s: left to right over ascending elements, starting
    from 1.

    Subset r of the 2^n-entry table holds element j at bit n-1-j, so its
    lowest set bit is its largest element, which multiplies last onto the
    entry without that bit.  Within one size, lexicographic order is
    descending r.
    """
    t, n, c = factors.shape
    prods = np.empty((t, 1 << n, c))
    prods[:, 0] = 1.0
    sizes = np.zeros(1 << n, dtype=np.intp)
    for j in range(n):
        bit = 1 << (n - 1 - j)
        prods[:, bit :: 2 * bit] = prods[:, :: 2 * bit] * factors[:, j, None]
        sizes[bit :: 2 * bit] = sizes[:: 2 * bit] + 1
    # A stable sort keeps descending r within each size of the reversed table.
    order = (1 << n) - 1 - np.argsort(sizes[::-1], kind="stable")
    order = order[1 : _subset_count(n, kmax) + 1]
    return sizes[order], prods[:, order]


def _subset_count(n: int, kmax: int) -> int:
    return sum(math.comb(n, s) for s in range(1, kmax + 1))


def _binom_ratio(k: int, m: int, size: int) -> float:
    # C(k,size)/C(m,size) as an incremental product; never via factorials.
    ratio = 1.0
    for j in range(size):
        ratio *= (k - j) / (m - j)
    return ratio


def _case_scalars(betas, alpha, k: int, product: bool):
    """One case's Python-float scalars, in the per-subset loop's operation
    order: (center, lhs or None, lhs coefficients, center powers, rhs
    coefficients, rhs sign), the per-size lists indexed by size - 1."""
    center = 1.0 + alpha
    if product:
        n = len(betas)
        lhs = math.prod(betas) - center**n
        powers = [center ** (n - size) for size in range(1, n + 1)]
        return center, lhs, None, None, powers, 1.0
    lhs_coeffs, center_powers, rhs_coeffs = [], [], []
    for size in range(1, k + 1):
        coeff = _binom_ratio(k, len(betas), size)
        lhs_coeffs.append((-1.0) ** (size + 1) * coeff)
        center_powers.append(center**size)
        rhs_coeffs.append(coeff * alpha ** (k - size))
    return center, None, lhs_coeffs, center_powers, rhs_coeffs, (-1.0) ** (k + 1)


def _padded(lists, width: int) -> np.ndarray:
    return np.array([row + [0.0] * (width - len(row)) for row in lists])


def _centered_residuals(cases, product: bool):
    """Residuals of the centered product identity (``product``) or of the
    centered sum identity, one per case (betas, alpha, k), in case order.

    Every case's scalars come first.  Then the cases of one length share
    one subset table, in batches of at most ``TABLE_ROWS`` table rows (a
    single case may exceed it), each term the same single rounding of the
    same operands as in a per-subset loop, and each sum one ``math.fsum``
    of the case's row.  An exception propagates from where it is raised:
    callers pass one case or the report's bounded draws, and a multi-case
    call raises its first failure in batch order.
    """
    scalars = [_case_scalars(betas, alpha, k, product) for betas, alpha, k in cases]
    by_length = {}
    for i, (betas, _, _) in enumerate(cases):
        by_length.setdefault(len(betas), []).append(i)
    sums = {}
    for n, group in by_length.items():
        per_batch = max(1, TABLE_ROWS >> n)
        for start in range(0, len(group), per_batch):
            at = group[start : start + per_batch]
            kmax = max(cases[i][2] for i in at)
            centers, _, lhs_coeffs, center_powers, rhs_coeffs, _ = zip(*(scalars[i] for i in at))
            with np.errstate(all="ignore"):  # an inf or nan is kept, as Python floats keep it
                betas = np.array([cases[i][0] for i in at])
                centered = betas - np.array(centers)[:, None]
                factors = centered[:, :, None] if product else np.stack((betas, centered), axis=2)
                sizes, prods = _subset_products(factors, kmax)
                at_size = sizes - 1
                rhs_rows = _padded(rhs_coeffs, kmax)[:, at_size] * prods[:, :, -1]
                if not product:
                    plain = prods[:, :, 0] - _padded(center_powers, kmax)[:, at_size]
                    lhs_rows = _padded(lhs_coeffs, kmax)[:, at_size] * plain
            for r, i in enumerate(at):
                count = _subset_count(n, cases[i][2])
                lhs = scalars[i][1] if product else math.fsum(lhs_rows[r, :count].tolist())
                sums[i] = lhs, math.fsum(rhs_rows[r, :count].tolist())
    for i, scalar in enumerate(scalars):
        lhs, rhs = sums[i]
        yield _residual(lhs, scalar[5] * rhs)


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
    return next(_centered_residuals([(betas, alpha, n)], product=True))


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
    return next(_centered_residuals([(betas, alpha, k)], product=False))


def identity_report(kmax: int, seed: int = 0, trials: int = 100) -> dict:
    """Run all four identity families and report the worst residuals.

    Deterministic for a given seed.  The integer identity contributes the
    count of (k, j) pairs disagreeing with the case split (always 0 unless
    arithmetic is broken).  The bias identity is checked at every order k
    up to kmax, at the first k + 1 points of ``BIAS_GRID``: both sides are
    polynomials of degree k in gamma, evaluated exactly, so agreement there
    proves order k for every gamma.  The centered identities contribute max
    relative residuals over ``trials`` random draws each, at least one,
    evaluated together by ``_centered_residuals``.
    """
    if not (1 <= kmax <= K_MAX):
        raise ValueError(f"kmax must lie in 1..{K_MAX}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    mismatches = 0
    for k in range(1, kmax + 1):
        for j, value in enumerate(_counting_row(k)):
            mismatches += value != collision_coefficient_expected(k, j)
    bias_max = 0.0
    for k in range(1, kmax + 1):
        for g in BIAS_GRID[: k + 1]:
            bias_max = max(bias_max, bias_cancellation_identity(k, g).residual)
    # Drawn and not read: without them the centered identities would get
    # other draws, and so other residuals.
    rng.uniform(-0.99, 0.99, size=trials)
    products = []
    for _ in range(trials):
        n = int(rng.integers(1, 9))
        betas = tuple(rng.uniform(-2.0, 4.0, size=n).tolist())
        products.append((betas, float(rng.uniform(-0.9, 0.9)), n))
    prod_max = 0.0
    for r in _centered_residuals(products, product=True):
        prod_max = max(prod_max, r.residual)
    sums = []
    for _ in range(trials):
        m = int(rng.integers(1, 11))
        k = int(rng.integers(1, m + 1))
        betas = tuple(rng.uniform(-2.0, 4.0, size=m).tolist())
        sums.append((betas, float(rng.uniform(-0.9, 0.9)), k))
    sum_max = 0.0
    for r in _centered_residuals(sums, product=False):
        sum_max = max(sum_max, r.residual)
    return {
        "kmax": kmax,
        "seed": seed,
        "trials": trials,
        "collision_coefficient_mismatches": mismatches,
        "bias_cancellation_max_residual": bias_max,
        "centered_product_max_residual": prod_max,
        "centered_sum_max_residual": sum_max,
    }
