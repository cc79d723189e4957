"""The four workloads: seeded inputs, the CLI calls each one times, and output checks.

Every input is derived from the benchmark seed; the program only sees the
generated files and flags.  Input generation happens before any timing.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

DESK_TRIALS = 400
LARGE_TRIALS = 150
POP_ROWS = 200_000
SAMPLE_LINES = 1_000_000
ORACLE_ROWS = 25

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("desk-count", "large-count", "file-estimate", "referee")

# Trials completed by one call; file-estimate makes one estimate and
# referee one verdict per call.
TRIALS_PER_CALL = {"desk-count": DESK_TRIALS, "large-count": LARGE_TRIALS,
                   "file-estimate": 1, "referee": 1}


def _zero_one(n: int, trials: int, threads: int, seed: int, out: Path) -> list[list[str]]:
    return [[
        "simulate", "--exp", "zero-one", "--n", str(n), "--gamma", "0.5",
        "--eps1", "0.25", "--threads", str(threads), "--trials", str(trials),
        "--seed", str(seed), "--output", str(out / "simulate.csv"),
    ]]


def _write_rows(path: Path, header: str, columns) -> None:
    rows = zip(range(1, len(columns[0]) + 1), *(c.tolist() for c in columns))
    with open(path, "w") as handle:
        handle.write(header + "\n")
        handle.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _perturb(rng: np.random.Generator, p: np.ndarray, gamma: float) -> np.ndarray:
    """A true distribution q = (1 + g) p with |g| <= gamma and sum g p = 0."""
    g = rng.uniform(-gamma / 2, gamma / 2, p.size)
    g -= np.dot(g, p)
    return (1.0 + g) * p


def _file_estimate(rng: np.random.Generator, out: Path) -> list[list[str]]:
    # Sizes follow a lognormal; the nominal weights roughly track them, as
    # in probability-proportional-to-size sampling, and q stays unknown.
    x = rng.lognormal(0.0, 1.0, POP_ROWS)
    p = x * rng.uniform(0.5, 1.5, POP_ROWS)
    p /= p.sum()
    q = _perturb(rng, p, 0.5)
    draws = rng.choice(POP_ROWS, size=SAMPLE_LINES, p=q / q.sum()) + 1
    pop, samples = out / "pop.csv", out / "draws.txt"
    _write_rows(pop, "index,x,p", (x, p))
    samples.write_text("\n".join(map(str, draws.tolist())) + "\n")
    return [[
        "estimate", "--input", str(pop), "--samples", str(samples),
        "--k", "5", "--t", "10000", "--output", str(out / "estimate.json"),
    ]]


def _referee(rng: np.random.Generator, seed: int, out: Path) -> list[list[str]]:
    x = rng.normal(1.0, 1.0, ORACLE_ROWS)
    p = rng.uniform(0.5, 1.5, ORACLE_ROWS)
    p /= p.sum()
    pop = out / "oracle.csv"
    _write_rows(pop, "index,x,p,q", (x, p, _perturb(rng, p, 0.8)))
    return [
        ["oracle", "--input", str(pop), "--m", "5", "--k", "4", "--w", "1.5",
         "--output", str(out / "oracle.json")],
        ["identities", "--kmax", "32", "--trials", "200", "--seed", str(seed),
         "--output", str(out / "identities.json")],
        ["lowerbound", "--k", "8", "--gamma", "1/2", "--n0", "100000", "--realize",
         "--scenario", "ones-large", "--seed", str(seed),
         "--output", str(out / "lowerbound.json")],
    ]


def prepare(name: str, seed: int, out: Path, threads: int | None = None) -> list[list[str]]:
    """Write the workload's inputs under ``out``; return the CLI argv list of one call.

    ``threads`` overrides the worker count of the counting workloads.
    """
    if name == "desk-count":
        return _zero_one(10_000, DESK_TRIALS, threads or 1, seed, out)
    if name == "large-count":
        return _zero_one(1_000_000, LARGE_TRIALS, threads or 2, seed, out)
    rng = np.random.default_rng(seed)
    if name == "file-estimate":
        return _file_estimate(rng, out)
    if name == "referee":
        return _referee(rng, seed, out)
    raise ValueError(f"unknown workload {name!r}")


def _check_zero_one(text: str, trials: int, m: int) -> list[str]:
    (row,) = csv.DictReader(text.splitlines())
    problems = []
    if (int(row["k"]), int(row["m"]), int(row["T"])) != (2, m, trials):
        problems.append(f"planned (k, m, T) = ({row['k']}, {row['m']}, {row['T']})")
    # The gate-6 floor: 2/3 minus three binomial sigmas at this trial count.
    floor = 2.0 / 3.0 - 3.0 * math.sqrt((2.0 / 9.0) / trials)
    if float(row["success_rate"]) < floor:
        problems.append(f"success_rate {row['success_rate']} below the floor {floor}")
    return problems


def _check_referee(texts: list[str], argvs: list[list[str]]) -> list[str]:
    from noisysum.estimators import closed_form_expectation
    from noisysum.io import load_population
    from noisysum.model import PerturbedPair

    oracle, identities, lowerbound = (json.loads(t) for t in texts)
    problems = []
    if abs(oracle["total_prob"] - 1.0) > 1e-12:
        problems.append(f"oracle total_prob {oracle['total_prob']!r}")
    data = load_population(argvs[0][argvs[0].index("--input") + 1])
    p, q = data.nominal.probs, data.true_dist.probs
    deviations = q / p - 1.0
    pair = PerturbedPair(data.nominal, data.true_dist, deviations,
                         float(np.max(np.abs(deviations))))
    closed = closed_form_expectation(data.population, pair, oracle["k"], oracle["pilot_W"])
    if abs(oracle["expectation"] - closed) > 1e-9 * max(1.0, abs(closed)):
        problems.append(f"oracle expectation {oracle['expectation']!r} != closed form {closed!r}")
    if identities["ok"] is not True:
        problems.append("identities ok is not true")
    k = lowerbound["k"]
    unequal = [m["ell"] for m in lowerbound["moments"] if m["ell"] <= k and not m["equal"]]
    if unequal:
        problems.append(f"lowerbound moments {unequal} not equal")
    return problems


def check(name: str, texts: list[str], argvs: list[list[str]]) -> list[str]:
    """Problems with one call's outputs beyond byte identity; empty when they pass."""
    try:
        if name == "desk-count":
            return _check_zero_one(texts[0], DESK_TRIALS, 1600)
        if name == "large-count":
            return _check_zero_one(texts[0], LARGE_TRIALS, 16000)
        if name == "file-estimate":
            report = json.loads(texts[0])
            if (report["k"], report["m"], report["t"]) != (5, SAMPLE_LINES - 10000, 10000):
                return [f"estimate ran at k={report['k']} m={report['m']} t={report['t']}"]
            return [] if math.isfinite(report["estimate"]) else ["estimate not finite"]
        return _check_referee(texts, argvs)
    except (KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
