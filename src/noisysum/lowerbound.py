"""Pairs of sampling spectra with matched frequency moments, in exact rationals.

The construction produces two distributions whose atom probabilities all
lie within a (1+gamma) band of uniform and whose frequency moments
sum_atoms count * prob^ell agree *exactly* for ell = 1..k, while their
support sizes differ by roughly n0 * gamma^k.  Attaching population value
1 to one support and 0 to the other yields two sum-estimation instances
that no sampling procedure can tell apart without enough collisions of
order k+1, which is what makes order-k bias reduction necessary rather
than optional.

Everything here is computed with ``fractions.Fraction``: moment equality
is an exact statement, not a tolerance.  Floats are rejected as gamma
inputs; pass strings like ``"1/2"`` or Fraction objects.

Levels: level i (0 <= i <= k) means atom probability (1 + gamma*i/k)/n0.
The first spectrum takes the even levels, the second the odd levels, each
level i with total mass C(k,i)/2^(k-1), hence count
n0*C(k,i) / (2^(k-1) * (1 + gamma*i/k)).

A design and its integer realization share one type: ``MassSpectrum``
counts are Fractions before ``realize_integer_counts`` and ints after.
Sizes are computed, not stored: a pair's n1, n2 and gap from its two
support sizes, an instance's true sum from its population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .model import Distribution, PerturbedPair, Population, pair_from_distributions

ZERO = Fraction(0)
ONE = Fraction(1)


def _as_fraction(value, name: str) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            f"{name} must be exact (Fraction, int, or a string like '1/2'); "
            "floats would silently change the value"
        )
    return Fraction(value)


def alternating_binomial_sum(k: int, a, step) -> Fraction:
    """sum_{i=0..k} (-1)^i C(k,i) / (a + i*step), exactly."""
    a = _as_fraction(a, "a")
    step = _as_fraction(step, "step")
    total = ZERO
    for i in range(k + 1):
        denom = a + i * step
        if denom == 0:
            raise ZeroDivisionError(f"a + {i}*step vanishes")
        total += Fraction((-1) ** i * math.comb(k, i), 1) / denom
    return total


def alternating_binomial_closed_form(k: int, a, step) -> Fraction:
    """Closed form of the same sum: k! step^k / (a (a+step) ... (a+k*step))."""
    a = _as_fraction(a, "a")
    step = _as_fraction(step, "step")
    denom = ONE
    for i in range(k + 1):
        denom *= a + i * step
    if denom == 0:
        raise ZeroDivisionError("a product factor vanishes")
    return Fraction(math.factorial(k)) * step**k / denom


@dataclass(frozen=True)
class SpectrumAtom:
    """One probability level: ``count`` atoms of probability ``prob``."""

    level: int
    prob: Fraction
    count: Fraction | int


@dataclass(frozen=True)
class MassSpectrum:
    """A distribution described by (probability, multiplicity) levels.

    Total mass sum(count * prob) must be exactly 1.  Designed counts may be
    non-integral Fractions; realized counts are ints.
    """

    n0: int
    atoms: tuple[SpectrumAtom, ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("a spectrum needs at least one atom level")
        mass = sum((a.prob * a.count for a in self.atoms), start=ZERO)
        if mass != 1:
            raise ValueError(f"spectrum mass is {mass}, not 1")
        if any(a.prob <= 0 or a.count <= 0 for a in self.atoms):
            raise ValueError("probabilities and counts must be positive")

    @property
    def support_size(self) -> Fraction | int:
        # No Fraction start: a realized size stays an int.
        return sum(a.count for a in self.atoms)


def frequency_moment(spectrum: MassSpectrum, ell: int) -> Fraction:
    """Exact ell-th frequency moment sum_atoms count * prob^ell."""
    if ell < 1:
        raise ValueError("ell must be at least 1")
    return sum((a.count * a.prob**ell for a in spectrum.atoms), start=ZERO)


@dataclass(frozen=True)
class MomentMatchedPair:
    """Two spectra agreeing on frequency moments 1..k, supports differing by gap.

    ``n1``, ``n2`` and ``gap = n1 - n2`` are read off ``d1`` and ``d2``.
    ``moment_error`` is max over ell = 1..k of |m1 - m2| / max(m1, m2):
    exactly 0 for a design, O(k 2^k / n0) once counts are rounded.
    """

    k: int
    gamma: Fraction
    n0: int
    d1: MassSpectrum
    d2: MassSpectrum
    moment_error: float = 0.0

    @property
    def n1(self) -> Fraction | int:
        return self.d1.support_size

    @property
    def n2(self) -> Fraction | int:
        return self.d2.support_size

    @property
    def gap(self) -> Fraction | int:
        return self.n1 - self.n2


def support_gap_closed_form(k: int, gamma, n0: int) -> Fraction:
    """n1 - n2 in closed form:

    (n0 / 2^(k-1)) * (k!/k^k) * gamma^k / ((1+gamma/k)(1+2gamma/k)...(1+gamma))
    """
    gamma = _as_fraction(gamma, "gamma")
    denom = ONE
    for i in range(1, k + 1):
        denom *= 1 + Fraction(i, k) * gamma
    return (
        Fraction(n0, 2 ** (k - 1))
        * Fraction(math.factorial(k), k**k)
        * gamma**k
        / denom
    )


def construct_matched_pair(k: int, gamma, n0: int) -> MomentMatchedPair:
    """Build the matched pair at order k, closeness gamma, base size n0.

    Requires k >= 1, 0 < gamma <= 1/2 (exact), n0 >= 1.  Moment equality
    for ell = 1..k and the closed-form gap are verified exactly before
    returning; a mismatch would mean broken arithmetic, so it raises.
    """
    gamma = _as_fraction(gamma, "gamma")
    if k < 1:
        raise ValueError("k must be at least 1")
    if not (ZERO < gamma <= Fraction(1, 2)):
        raise ValueError("gamma must lie in (0, 1/2]")
    if n0 < 1:
        raise ValueError("n0 must be at least 1")
    scale = Fraction(n0, 2 ** (k - 1))

    def atoms_for(parity: int) -> tuple[SpectrumAtom, ...]:
        atoms = []
        for i in range(parity, k + 1, 2):
            prob = (1 + Fraction(i, k) * gamma) / n0
            count = scale * math.comb(k, i) / (1 + Fraction(i, k) * gamma)
            atoms.append(SpectrumAtom(level=i, prob=prob, count=count))
        return tuple(atoms)

    d1 = MassSpectrum(n0=n0, atoms=atoms_for(0))
    d2 = MassSpectrum(n0=n0, atoms=atoms_for(1))
    for ell in range(1, k + 1):
        if frequency_moment(d1, ell) != frequency_moment(d2, ell):
            raise AssertionError(f"moment {ell} mismatch in construction")
    pair = MomentMatchedPair(k=k, gamma=gamma, n0=n0, d1=d1, d2=d2)
    if pair.gap != support_gap_closed_form(k, gamma, n0):
        raise AssertionError("support gap disagrees with the closed form")
    lo, hi = Fraction(1, n0), (1 + gamma) / n0
    for spec in (d1, d2):
        for atom in spec.atoms:
            if not (lo <= atom.prob <= hi):
                raise AssertionError("atom probability left the design window")
    return pair


def _round_nearest(value: Fraction) -> int:
    # Nearest integer, ties up; exact on Fractions.
    return math.floor(value + Fraction(1, 2))


def _realize_spectrum(spectrum: MassSpectrum) -> MassSpectrum:
    atoms = sorted(spectrum.atoms, key=lambda a: a.level)
    counts = [_round_nearest(a.count) for a in atoms]
    # The lowest level absorbs the residual mass left by rounding the rest.
    rest = sum((c * a.prob for c, a in zip(counts[1:], atoms[1:])), start=ZERO)
    counts[0] = _round_nearest((1 - rest) / atoms[0].prob)
    if any(c < 1 for c in counts):
        raise ValueError(
            "a level rounds to zero atoms; increase n0 so every count is >= 1"
        )
    mass = sum((c * a.prob for c, a in zip(counts, atoms)), start=ZERO)
    realized = tuple(
        SpectrumAtom(level=a.level, prob=a.prob / mass, count=c)
        for c, a in zip(counts, atoms)
    )
    return MassSpectrum(n0=spectrum.n0, atoms=realized)


def realize_integer_counts(pair: MomentMatchedPair) -> MomentMatchedPair:
    """Round the designed counts to integers, keeping each mass exactly 1.

    Per spectrum: every level rounds to nearest, then the lowest level's
    count is re-solved to absorb the rounding residual, and all
    probabilities are renormalized by the total mass (exact rationals).
    Counts, and so n1, n2 and gap, come back as ints, with the rounding's
    ``moment_error``; integral designs and realized pairs pass unchanged.
    """
    d1 = _realize_spectrum(pair.d1)
    d2 = _realize_spectrum(pair.d2)
    worst = ZERO
    for ell in range(1, pair.k + 1):
        m1 = frequency_moment(d1, ell)
        m2 = frequency_moment(d2, ell)
        rel = abs(m1 - m2) / max(m1, m2)
        worst = max(worst, rel)
    return replace(pair, d1=d1, d2=d2, moment_error=float(worst))


@dataclass(frozen=True)
class ReductionInstance:
    """A sum-estimation instance realizing one arm of the indistinguishable pair.

    Population values are 0/1; the true distribution is the half-half
    mixture of the two realized spectra, ones carrying one spectrum and
    zeros the other; the nominal distribution is uniform over all
    N = n1 + n2 indices.  ``closeness`` is the exact max_i |N q_i - 1|,
    and ``true_sum`` counts the ones in the population.
    """

    population: Population
    pair: PerturbedPair
    scenario: str
    closeness: float

    @property
    def true_sum(self) -> int:
        return int(np.sum(self.population.values))


def build_reduction_instance(
    realized: MomentMatchedPair, scenario: str, seed: int
) -> ReductionInstance:
    """Assemble the 0/1 instance for scenario ``"ones-large"`` or ``"ones-small"``.

    ``realized`` comes from ``realize_integer_counts``: counts must be ints.

    ones-large puts value 1 on the larger support (sum = n1); ones-small
    puts value 1 on the smaller support (sum = n2).  ``seed`` shuffles the
    index labels so that index identity carries no information about the
    scenario.
    """
    if scenario not in ("ones-large", "ones-small"):
        raise ValueError("scenario must be 'ones-large' or 'ones-small'")
    ones_spec, zeros_spec = (
        (realized.d1, realized.d2) if scenario == "ones-large" else (realized.d2, realized.d1)
    )
    n = realized.n1 + realized.n2
    values, probs, counts = [], [], []  # one entry per atom, repeated below
    closeness = ZERO
    for spec, value in ((ones_spec, 1.0), (zeros_spec, 0.0)):
        for atom in spec.atoms:
            q = atom.prob / 2
            closeness = max(closeness, abs(n * q - 1))
            values.append(value)
            probs.append(float(q))
            counts.append(atom.count)
    values = np.repeat(np.asarray(values, dtype=np.float64), counts)
    probs = np.repeat(np.asarray(probs, dtype=np.float64), counts)
    perm = np.random.default_rng(seed).permutation(n)
    values = values[perm]
    probs = probs[perm]
    probs /= probs.sum()
    nominal = Distribution(np.full(n, 1.0 / n))
    return ReductionInstance(
        population=Population(values),
        pair=pair_from_distributions(nominal, Distribution(probs)),
        scenario=scenario,
        closeness=float(closeness),
    )


def spectrum_to_json_dict(spectrum: MassSpectrum) -> dict:
    """Lossless JSON form: numerators and denominators, never floats."""
    return {
        "n0": spectrum.n0,
        "levels": [
            {
                "i": atom.level,
                "prob_num": atom.prob.numerator,
                "prob_den": atom.prob.denominator,
                "count_num": atom.count.numerator,
                "count_den": atom.count.denominator,
            }
            for atom in spectrum.atoms
        ],
    }
