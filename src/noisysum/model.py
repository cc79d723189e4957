"""Populations, sampling distributions, and pointwise-close perturbations.

A population is a vector of real values x_1..x_N whose sum we want to
estimate.  Samples are drawn from a distribution Q that we cannot evaluate;
all we know is a nominal distribution P and a bound gamma such that

    (1 - gamma) * P(i) <= Q(i) <= (1 + gamma) * P(i)   for every i.

``PerturbedPair`` packages (P, Q) together with the per-index relative
deviations gamma_i defined by Q(i) = (1 + gamma_i) * P(i).  A
``SampleBatch`` stores its indices and seed; its size m is their count.

Index convention: element indices are 1-based across the public API,
matching the on-disk formats (``index`` column starts at 1).  Arrays held
by these types are plain 0-based numpy arrays; position ``i`` stores the
data for index ``i + 1``.

Randomness: sampling uses numpy's ``default_rng`` (PCG64).  A draw for a
given (distribution, m, seed) is reproducible: the sampler requests ``m``
uniform table slots, then ``m`` uniform acceptance variates, and resolves
each slot against an alias table built once per distribution.  The table
holds one 16-byte (accept, alias) record per slot, so a draw gathers one
record, and its values are the classic two-stack Vose table's, byte for
byte.  It is built in place: the scaled probabilities sit in the accept
field, and each spent large's residual is written back there, while its
residual chain is replayed with numpy in blocks, each block's steps in
the loop's own order and roundings, and a Python loop takes the blocks
the replay cannot verify, so the table never depends on which path built
it.

Summation: ``fsum_array`` and ``fsum_rows`` are ``math.fsum`` of a float64
array and of each row of one, bit for bit, in numpy passes of the one
exact extraction that ``_extract`` describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

# Absolute tolerance on probability normalization and mass-balance checks.
NORMALIZATION_ATOL = 1e-12
# Per-index tolerance tying Q(i) to (1 + gamma_i) * P(i), relative to P(i):
# |Q(i) - (1 + gamma_i) P(i)| / P(i) may not exceed it.  Scaled by P(i), not
# by Q(i), since near gamma_i = -1 the float 1 + gamma_i keeps Q(i)/P(i) only
# to ~1e-16 absolute.
PAIR_RTOL = 1e-12
# Smalls per replay round of the alias build (fewer when larges outnumber
# smalls); a round's arrays hold O(ALIAS_BLOCK) entries.
ALIAS_BLOCK = 2**14
# Largest array length and sample index: the int64 index range.
INDEX_MAX = int(np.iinfo(np.int64).max)
# fsum_array: arrays shorter than FSUM_SHORT go to math.fsum, which is faster
# there; longer ones are extracted FSUM_BLOCK values at a time, in at most
# FSUM_LEVELS passes per block.
FSUM_SHORT = 2**10
FSUM_BLOCK = 2**16
FSUM_LEVELS = 8


def check_array_length(what: str, size: int) -> None:
    """Raise OverflowError naming ``size`` when no numpy array of 8-byte
    values can have that length.

    numpy itself fails with a ValueError or a C-long OverflowError that
    names neither the size nor what it sizes: "Maximum allowed dimension
    exceeded" beyond the int64 index range, and "array is too big" where
    the byte count, size * 8, is beyond it.
    """
    if size > INDEX_MAX:
        raise OverflowError(f"{what} {size} is beyond the int64 index range")
    if size * 8 > INDEX_MAX:
        raise OverflowError(f"{what} {size} needs {size * 8} bytes, beyond the int64 byte range")


def fsum_array(values: np.ndarray) -> float:
    """``math.fsum(values.tolist())`` of a 1-d float64 array, bit for bit,
    with the same exceptions, in O(size) numpy passes.

    Each FSUM_BLOCK values go to ``_extract`` with FSUM_LEVELS levels, and
    fsum of the exact level sums is fsum of the values.  ``math.fsum``
    itself, fed FSUM_BLOCK values at a time, takes arrays below FSUM_SHORT
    values, all-zero ones (the sign of a zero sum), ones holding an inf or
    a nan, ones where a partial sum could pass 2^1000 (whether fsum
    overflows then depends on the order of the values), and ones with a
    block ``_extract`` leaves unfinished.
    """
    size = values.size
    if size < FSUM_SHORT:
        return math.fsum(values.tolist())
    top = float(np.maximum(values.max(), -values.min()))
    if not 0.0 < top < math.inf or math.frexp(top)[1] + size.bit_length() > 1000:
        return _fsum_blocks(values)
    levels = []
    for start in range(0, size, FSUM_BLOCK):
        sums, unfinished = _extract(values[start : start + FSUM_BLOCK].copy(), FSUM_LEVELS)
        if unfinished:
            return _fsum_blocks(values)
        levels += sums
    return math.fsum(levels)


def fsum_rows(terms: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a (rows x width) float array: a
    column-major copy goes to ``_extract`` with two levels, and the exact
    L1 + L2 is rounded once, as fsum rounds (half-even, +0.0 for an exact
    zero).  ``_fsum_row`` sums each row left unfinished."""
    rows, width = terms.shape
    if width < 2:
        return terms[:, 0] + 0.0 if width else np.zeros(rows)  # -0.0 + 0.0 is fsum's +0.0
    sums, unfinished = _extract(terms.T.copy(), 2)
    total = sum(sums, np.zeros(rows))
    slow = np.flatnonzero(unfinished)
    total[slow] = [_fsum_row(row) for row in terms[slow].tolist()]
    return total


def _fsum_row(row: list) -> float:
    """``math.fsum`` of a row: inf where it overflows, nan at inf - inf."""
    try:
        return math.fsum(row)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan


@np.errstate(over="ignore", invalid="ignore")  # an inf, a nan or a huge column is unfinished
def _extract(residual: np.ndarray, levels: int):
    """Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput., 2008) of each column of a
    (width x columns) float64 array, or of a 1-d one, in place.

    For a column whose values r all have |r| < 2^e, and 2^M >= width + 2,
    sigma = 2^(e+M) splits each r into q = (sigma + r) - sigma and r - q,
    both exact.  Each q is a multiple of 2^(e+M-53) no larger than 2^e, so
    every partial sum of the q is exact too, in any order, and |r - q| <=
    2^(e+M-53).  Each level sums the q and extracts again from r - q.
    Returns the level sums and a mask of the columns left unfinished: a
    residual is left after ``levels`` levels, the column holds an inf or a
    nan, or e + M exceeds 1000 (sigma, or a partial sum, could overflow).
    """
    scale = (len(residual) + 1).bit_length()  # M
    sums, unfinished = [], False
    for level in range(levels):
        top = np.maximum(residual.max(axis=0), -residual.min(axis=0))
        if not top.any():
            return sums, unfinished  # every residual is zero
        if not level:  # e + M <= 1000 is top < 2^(1000 - M); later tops are smaller
            unfinished = ~(top < 2.0 ** (1000 - scale))  # an inf or a nan fails too
        sigma = np.ldexp(1.0, np.frexp(top)[1] + scale)
        q = residual + sigma
        q -= sigma
        residual -= q
        sums.append(q.sum(axis=0))
    return sums, unfinished | residual.any(axis=0)


def _fsum_blocks(values: np.ndarray) -> float:
    # Python floats one block at a time, so no list of every value is held.
    blocks = (values[s : s + FSUM_BLOCK].tolist() for s in range(0, values.size, FSUM_BLOCK))
    return math.fsum(chain.from_iterable(blocks))


def _as_float_vector(values, name: str) -> np.ndarray:
    # A 1-d float64 array is kept, not copied, and made read-only: one N-sized
    # copy per constructor would cost the counting run's setup memory.
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Population:
    """Real-valued population x_1..x_N.

    Parameters
    ----------
    values : array-like of float
        The population values, position i holding x_{i+1}.  A 1-d float64
        array is kept as is and made read-only; pass a copy to keep writing.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_float_vector(self.values, "values"))

    @property
    def size(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class Distribution:
    """Probability vector over indices 1..N.

    Entries must be nonnegative and sum to 1 within ``NORMALIZATION_ATOL``.
    Zero entries are allowed here; every use as a nominal distribution
    requires strict positivity and checks it with ``check_nominal``.  A 1-d
    float64 ``probs`` array is kept as is and made read-only; pass a copy
    to keep writing.  ``probs`` may be a read-only broadcast view (see
    ``uniform``) whose N entries share one value, so copy it before
    writing to it; such a ``probs`` pickles as that value and N.
    """

    probs: np.ndarray

    @classmethod
    def uniform(cls, n: int) -> Distribution:
        """P(i) = 1/n for every i, held as one value: ``probs`` is a
        read-only stride-0 view of ``1.0 / n``, so it costs O(1) memory,
        and each entry is the float ``np.full(n, 1.0 / n)`` writes."""
        return cls(np.broadcast_to(1.0 / n, (n,)))

    def __reduce_ex__(self, protocol):
        # A stride-0 ``probs`` pickles as its one value and N, not as N floats.
        if self.probs.strides == (0,):
            return _broadcast_distribution, (float(self.probs[0]), self.size)
        return super().__reduce_ex__(protocol)

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_float_vector(self.probs, "probs"))
        if np.any(self.probs < 0.0):
            raise ValueError("probabilities must be nonnegative")
        total = float(np.sum(self.probs))
        if abs(total - 1.0) > NORMALIZATION_ATOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @property
    def size(self) -> int:
        return int(self.probs.size)

    @cached_property
    def _alias_table(self) -> np.ndarray:
        return _build_alias_table(self.probs)

    @cached_property
    def _strictly_positive(self) -> bool:
        # ``probs`` is read-only, so one O(N) scan per distribution suffices.
        return bool(np.all(self.probs > 0.0))

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``m`` 0-based indices. Slots first, then acceptance variates."""
        slots = rng.integers(0, self.size, size=m)
        u = rng.random(m)
        picked = self._alias_table[slots]  # one gather of 16-byte records
        return np.where(u < picked["accept"], slots, picked["alias"])


def _broadcast_distribution(value: float, n: int) -> Distribution:
    return Distribution(np.broadcast_to(value, (n,)))


def _build_alias_table(probs: np.ndarray) -> np.ndarray:
    """Vose's alias method: O(N) setup, O(1) per draw.

    Returns a read-only structured array of one 16-byte record per slot,
    fields ``accept`` (f8) and ``alias`` (i8): slot j yields j with
    probability accept, otherwise alias, so a draw reads one record.  The
    values are exactly those of the classic two-stack loop (smalls and
    larges stacked in ascending index order, both popped from the top, a
    large that drops below 1 pushed onto the smalls), so tables are
    reproducible.  In that loop each large, in descending index order,
    absorbs the residual of the large before it and then a run of smalls,
    also descending, until its residual r = (r + s) - 1 drops below 1.
    ``_residual_chain`` follows that residual chain: it writes what each
    spent large keeps into that large's accept slot and returns only where
    each run ends; the aliases are then filled in by numpy.  Slots never
    reached (smalls left when the larges run out, the last large reached,
    larges never reached) are within rounding of 1 and get accept = 1,
    alias = self.

    The table is built in place: the scaled probabilities N * P(j) sit in
    the accept field while the chain reads them, an absorbed small's accept
    is its own scaled value, and every other slot is written once.  Beside
    the table the build holds the small and large index lists, one run end
    per large reached and one replay round's scratch.
    """
    n = probs.size
    table = np.empty(n, dtype=[("accept", np.float64), ("alias", np.int64)])
    accept, alias = table["accept"], table["alias"]
    np.multiply(probs, n, out=accept)
    small = _descending(accept[::-1] < 1.0)
    large = _descending(accept[::-1] >= 1.0)
    absorbed = spent = 0
    if large.size:
        ends = _residual_chain(accept, small, large)
        absorbed = int(ends[-1])
        # Each large but the last one reached hands its residual to the next.
        spent = ends.size - 1
        ends[1:] -= ends[:-1]  # run lengths
        alias[small[:absorbed]] = np.repeat(large[: spent + 1], ends)
        alias[large[:spent]] = large[1 : spent + 1]
    for left in (small[absorbed:], large[spent:]):
        accept[left] = 1.0
        alias[left] = left
    table.setflags(write=False)
    return table


def _descending(flipped: np.ndarray) -> np.ndarray:
    # The indices where a mask is set, descending, from the reversed mask:
    # one contiguous array, with no ascending copy beside it.
    idx = np.flatnonzero(flipped)
    return np.subtract(flipped.size - 1, idx, out=idx)


def _residual_chain(scaled, small, large) -> np.ndarray:
    """Per large reached, in order, the smalls taken when its run ended.

    Each spent large's residual is written to ``scaled`` at that large's
    index, its accept slot, as soon as it is known; only the run ends are
    returned.  That is safe because the chain reads only the larges after
    the current one.

    Step t of the chain is r = (r + v) - 1.0, where v is the next small
    while r >= 1 and the next large once r < 1 (the spent large's residual
    is absorbed by it).  A replay round guesses the merge of the next
    block of smalls (``ALIAS_BLOCK``, or fewer when larges outnumber
    smalls) with the larges from float cumsums, computes
    the guessed steps with one sequential ``np.add.accumulate`` and keeps
    the longest prefix of whole runs whose r < 1 decisions match the guess,
    so the kept residuals are the loop's own.  A round that keeps less than
    half its block hands the next ``ALIAS_BLOCK * 2**f`` smalls to
    ``_chain_loop`` (f: consecutive such rounds); the loop also finishes
    the chain once the larges run out.  The guess sets only the speed.
    """
    ns, nl = small.size, large.size
    ends = np.empty(nl, dtype=np.int64)
    taken = spent = failed = 0  # smalls absorbed, larges spent, failed rounds
    r = float(scaled[large[0]])
    while taken < ns and spent < nl:
        block = min(ALIAS_BLOCK, ns - taken, max(1, ALIAS_BLOCK * ns // nl))
        kept, spent, r = _replay(scaled, small, large, taken, spent, r, block, ends)
        taken += kept
        if 2 * kept >= block:
            failed = 0
            continue
        failed += 1
        taken, spent, r = _chain_loop(
            scaled, small, large, taken, spent, r, ALIAS_BLOCK << failed, ends
        )
    if spent < nl:
        ends[spent] = ns  # the current large outlasts the smalls
        spent += 1
    return ends[:spent]


def _replay(scaled, small, large, taken, spent, r, block, ends):
    # One round from a run boundary: r >= 1 is held by the large after the
    # ``spent`` ones, and ``taken`` smalls are absorbed.  The larges read are
    # twice the block's expected need.
    s = scaled[small[taken : taken + block]]
    g = scaled[large[spent + 1 : spent + 1 + 2 * max(block, block * large.size // small.size)]]
    # Guess: small t + 1 follows the larges whose surplus sum(g - 1) before
    # them falls short of the deficit sum(1 - s) of smalls 1..t, less r - 1.
    # A tie keeps the residual at 1, so the small comes first.
    deficit = np.cumsum(1.0 - s) - (r - 1.0)
    surplus = np.concatenate(([0.0], np.cumsum(g - 1.0)))
    fit = int(np.searchsorted(deficit, surplus[-1], side="right"))
    if fit == 0:
        return 0, spent, r
    # Key fit marks the block's end: the step where small fit + 1 would be due.
    need = int(np.searchsorted(surplus[:-1], deficit[fit - 1]))
    steps = fit + need
    order = np.argsort(np.concatenate(([-np.inf], deficit[:fit], surplus[:need])), kind="stable")
    is_small = order <= fit
    # [r, v1, -1.0, v2, -1.0, ...]: the loop's roundings, in the loop's order.
    terms = np.empty(2 * steps + 1)
    terms[0] = r
    terms[2::2] = -1.0
    terms[1::2] = np.concatenate((s[:fit], [0.0], g[:need]))[order[:steps]]
    rs = np.add.accumulate(terms)[2::2]
    # A step is guessed below 1 exactly when a large follows it.  Keep the
    # steps up to the last one at or above 1 before the first wrong guess.
    below = rs < 1.0
    wrong = np.flatnonzero(below == is_small[1:])
    whole = np.flatnonzero(~below[: wrong[0] if wrong.size else steps])
    if whole.size == 0:
        return 0, spent, r
    last = int(whole[-1])
    absorbed = np.cumsum(is_small[: last + 1])
    hit = np.flatnonzero(below[: last + 1])
    ends[spent : spent + hit.size] = absorbed[hit] + taken
    scaled[large[spent : spent + hit.size]] = rs[hit]  # the spent larges keep their residuals
    return int(absorbed[-1]), spent + hit.size, float(rs[last])


def _chain_loop(scaled, small, large, taken, spent, r, count, ends):
    # The chain over Python floats for the next ``count`` smalls, values
    # gathered ALIAS_BLOCK at a time; a spent large's residual goes straight
    # to its accept slot.
    stop = min(taken + count, small.size)
    ends, accept, index = memoryview(ends), memoryview(scaled), memoryview(large)
    larges = chain.from_iterable(
        memoryview(scaled[large[a : a + ALIAS_BLOCK]])
        for a in range(spent + 1, large.size, ALIAS_BLOCK)
    )
    for a in range(taken, stop, ALIAS_BLOCK):
        smalls = memoryview(scaled[small[a : min(a + ALIAS_BLOCK, stop)]])
        for taken, s in enumerate(smalls, a + 1):
            r = (r + s) - 1.0
            if r < 1.0:
                ends[spent] = taken
                accept[index[spent]] = r
                spent += 1
                for g in larges:
                    r = (g + r) - 1.0
                    if r >= 1.0:
                        break
                    ends[spent] = taken
                    accept[index[spent]] = r
                    spent += 1
                else:
                    return taken, spent, r  # every large is spent
    return stop, spent, r


@dataclass(frozen=True)
class PerturbedPair:
    """Nominal distribution P, true distribution Q, and their deviations.

    Invariants checked at construction:

    - |deviations[i]| <= gamma_bound for every i,
    - |Q(i) - (1 + deviations[i]) * P(i)| <= ``PAIR_RTOL`` * P(i) for
      every i, each index against its own P(i), so a mismatch is refused
      at any N,
    - every P(i) > 0 (estimators divide by nominal probabilities).
    """

    nominal: Distribution
    true_dist: Distribution
    deviations: np.ndarray
    gamma_bound: float

    def __post_init__(self):
        object.__setattr__(
            self, "deviations", _as_float_vector(self.deviations, "deviations")
        )
        p = self.nominal.probs
        q = self.true_dist.probs
        d = self.deviations
        if not (p.size == q.size == d.size):
            raise ValueError("nominal, true distribution, and deviations disagree on N")
        if not self.nominal._strictly_positive:
            raise ValueError("nominal probabilities must be strictly positive")
        if not (0.0 <= self.gamma_bound < 1.0):
            raise ValueError("gamma_bound must lie in [0, 1)")
        buf = np.abs(d)  # one N-sized scratch buffer for both checks
        if np.max(buf, initial=0.0) > self.gamma_bound:
            raise ValueError("a deviation exceeds gamma_bound")
        np.add(1.0, d, out=buf)
        np.multiply(buf, p, out=buf)
        np.subtract(q, buf, out=buf)
        np.abs(buf, out=buf)
        with np.errstate(over="ignore"):  # a subnormal P(i); inf is refused
            np.divide(buf, p, out=buf)
        if np.max(buf) > PAIR_RTOL:
            raise ValueError("true distribution does not match (1 + deviation) * nominal")


@dataclass(frozen=True)
class SampleBatch:
    """Sampled indices (1-based), counted by ``m``, and the seed that drew them."""

    indices: np.ndarray
    seed: int

    def __post_init__(self):
        arr = np.asarray(self.indices, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("indices must be a 1-d vector")
        arr.setflags(write=False)
        object.__setattr__(self, "indices", arr)
        if arr.size < 1:
            raise ValueError("a batch holds at least one sample")
        if int(arr.min()) < 1:
            raise ValueError("indices are 1-based")

    @property
    def m(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class PopulationStats:
    """Summary of a (population, nominal distribution) pair.

    mu       -- sum of the population values.
    mu_plus  -- sum of their absolute values.
    var_hh   -- single-draw variance of the importance-weighted estimator
                x_X / P(X) under X ~ P, i.e. sum_i P(i) (x_i/P(i) - mu)^2.
    n_tilde  -- max_i 1 / P(i), the effective support size.
    """

    mu: float
    mu_plus: float
    var_hh: float
    n_tilde: float


def check_nominal(pop: Population, nominal: Distribution) -> None:
    """Raise unless ``nominal`` gives each of the population's N indices P(i) > 0."""
    if pop.size != nominal.size:
        raise ValueError("population and distribution disagree on N")
    if not nominal._strictly_positive:
        raise ValueError("nominal probabilities must be strictly positive")


def population_stats(pop: Population, nominal: Distribution) -> PopulationStats:
    """Compute mu, mu_plus, the single-draw sampling variance, and n_tilde.

    Raises if sizes disagree or any nominal probability is zero.  A value
    beyond the float range is kept as inf (or nan), without a warning.
    """
    check_nominal(pop, nominal)
    p = nominal.probs
    x = pop.values
    # sum(|x|), sum(p * (x / p - mu) ** 2) and max(1 / p), each operation
    # in that order, in one N-sized buffer.
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(np.sum(x))
        buf = np.abs(x)
        mu_plus = float(np.sum(buf))
        np.divide(x, p, out=buf)
        np.subtract(buf, mu, out=buf)
        np.square(buf, out=buf)
        np.multiply(p, buf, out=buf)
        var_hh = float(np.sum(buf))
        np.divide(1.0, p, out=buf)
        n_tilde = float(np.max(buf))
    return PopulationStats(mu=mu, mu_plus=mu_plus, var_hh=var_hh, n_tilde=n_tilde)


def make_perturbed(
    nominal: Distribution, deviations, gamma: float
) -> PerturbedPair:
    """Build the pair (P, Q) with Q(i) = (1 + deviations[i]) * P(i).

    Parameters
    ----------
    nominal : Distribution
        The known distribution P; must be strictly positive.
    deviations : array-like of float
        Per-index relative deviations gamma_i.  Must satisfy
        |gamma_i| <= gamma and sum_i gamma_i P(i) = 0 (within tolerance),
        otherwise Q would not be a distribution gamma-close to P.  A 1-d
        float64 array is kept as is and made read-only; pass a copy to keep
        writing.
    gamma : float
        The closeness bound, 0 <= gamma < 1.
    """
    d = _as_float_vector(deviations, "deviations")
    q = np.add(1.0, d)
    np.multiply(q, nominal.probs, out=q)  # (1 + d) * P, in one buffer
    true_dist = Distribution(q)
    return PerturbedPair(
        nominal=nominal, true_dist=true_dist, deviations=d, gamma_bound=float(gamma)
    )


def pair_from_distributions(
    nominal: Distribution, true_dist: Distribution, gamma: float | None = None
) -> PerturbedPair:
    """Build the pair (P, Q) from both distributions, with deviations Q/P - 1.

    ``gamma`` defaults to the measured max_i |Q(i)/P(i) - 1| and may not be
    below it.  Sizes and the positivity of P are checked before dividing.
    """
    if nominal.size != true_dist.size:
        raise ValueError("nominal and true distribution disagree on N")
    if not nominal._strictly_positive:
        raise ValueError("nominal probabilities must be strictly positive")
    with np.errstate(over="ignore"):  # a subnormal P; PerturbedPair refuses the inf
        deviations = true_dist.probs / nominal.probs - 1.0
    measured = float(np.max(np.abs(deviations)))
    gamma = measured if gamma is None else float(gamma)
    if measured > gamma:
        raise ValueError(f"measured max |Q/P - 1| = {measured!r} exceeds gamma_bound {gamma!r}")
    return PerturbedPair(nominal, true_dist, deviations, gamma)


def worst_case_pair(nominal: Distribution, gamma: float, split) -> PerturbedPair:
    """Saturating perturbation: +gamma on ``split``, -gamma elsewhere.

    ``split`` is a sequence or array of 1-based indices (repeats count
    once) whose nominal mass must equal the mass of its complement within
    ``NORMALIZATION_ATOL``; the resulting deviations then balance exactly
    and every |gamma_i| = gamma.
    """
    if not (0.0 <= gamma < 1.0):  # before the deviations make Q
        raise ValueError("gamma must lie in [0, 1)")
    p = nominal.probs
    idx = np.asarray(split, dtype=np.int64)
    if idx.size and (idx.min() < 1 or idx.max() > p.size):
        raise ValueError("split indices out of range")
    mask = np.zeros(p.size, dtype=bool)
    mask[idx - 1] = True
    mass_in = float(np.sum(p[mask]))
    mass_out = float(np.sum(p[~mask]))
    if abs(mass_in - mass_out) > NORMALIZATION_ATOL:
        raise ValueError(
            f"split mass {mass_in!r} does not balance complement mass {mass_out!r}"
        )
    d = np.where(mask, gamma, -gamma)
    return make_perturbed(nominal, d, gamma)


def draw_samples(source, m: int, seed: int) -> SampleBatch:
    """Draw ``m`` indices from the true distribution.

    ``source`` is a ``PerturbedPair`` (samples come from its true
    distribution) or a bare ``Distribution``.  Identical (source, m, seed)
    triples produce identical batches.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    check_array_length("sample size", m)
    dist = source.true_dist if isinstance(source, PerturbedPair) else source
    if not isinstance(dist, Distribution):
        raise TypeError("source must be a PerturbedPair or a Distribution")
    rng = np.random.default_rng(seed)
    idx0 = dist.sample(m, rng)
    return SampleBatch(indices=idx0 + 1, seed=int(seed))
