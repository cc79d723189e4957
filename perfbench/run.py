"""Seeded benchmark of the ``noisysum`` command, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in BENCHMARK.json and perfbench/README.md.
The seed generates every input into a temporary directory under the
repository root before any timing starts.  The measurement runs in a fresh
process (perfbench/measure.py) that drives ``noisysum.cli.main`` in-process
with ``--output`` pointing at a file.

``--trace 0`` prints the end-to-end metrics: ``run_s`` is the median wall
time of one workload call over ``--seconds`` of calls, and ``setup_s`` the
median of nine fresh interpreters importing ``noisysum.cli``, spread over
the same window.  ``--trace 1`` alternates untraced and traced calls and
prints the per-layer metrics; on large-count it also alternates 1 and 2
workers.

Every call's output bytes must hash to the values recorded in
perfbench/golden.json for the seed; for a seed not recorded there, they
must match each other, and one extra untimed call at a recorded seed is
compared with golden.json.  Outputs must also pass workloads.check.
Human-readable lines start with ``#``; the last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
MIN_CALLS = 3
DEADLINE_S = 170.0
# Counts derived from arguments or results rather than observed work.
COMPUTED = {"io.bytes_written", "estimators.count_scanned", "estimators.kernel_terms",
            "oracle.multisets"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _run(cmd: list[str], deadline: float) -> str:
    """Run ``cmd`` from the repository root; kill its process group at the deadline."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1:3]} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited with {proc.returncode}")
    return out.strip().splitlines()[-1]


def measure(variants: dict, work: Path, seconds: float, min_calls: int, deadline: float,
            setup_probes: int = 0) -> dict:
    """Run perfbench/measure.py on ``variants`` (name -> (argvs, trace))."""
    spec = work / "spec.json"
    spec.write_text(json.dumps({
        "variants": {n: {"argvs": argvs, "trace": trace} for n, (argvs, trace) in variants.items()},
        "seconds": seconds, "min_calls": min_calls, "setup_probes": setup_probes,
    }))
    return json.loads(_run([sys.executable, str(HERE / "measure.py"), str(spec)], deadline))


def environment(seed: int, calls: dict) -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = (index / "size").read_text().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "timed_calls": calls,
        "note": "large-count's N=1e6 float64 arrays are 8 MB each and fit in L3, so its "
                "count layer measures interpreter and compute time, not memory bandwidth",
    }


def golden_hashes(workload: str, seed: int) -> tuple[int, list[str] | None]:
    """The recorded seed to compare against, and its hashes when it is ``seed``."""
    table = json.loads((HERE / "golden.json").read_text())[workload]
    if str(seed) in table:
        return seed, table[str(seed)]
    seeds = sorted(int(s) for s in table)
    return seeds[seed % len(seeds)], None


def count_failures(phases: dict, expected: dict, problems: list[str]) -> tuple[int, int]:
    """(attempted, failed) over every call; prints why each failure failed."""
    attempted = failed = 0
    for phase, result in phases.items():
        for call in result["calls"]:
            reasons = [call["error"] or f"exit code {call['code']}"] if call["code"] != 0 else []
            if call["hashes"] != expected[phase]:
                reasons.append("outputs differ from the reference bytes")
            if phase != "probe":
                reasons += problems
            attempted += 1
            failed += bool(reasons)
            for reason in dict.fromkeys(reasons):
                print(f"# FAIL {phase}: {reason}")
    return attempted, failed


def _median_s(result: dict) -> float:
    return statistics.median(c["seconds"] for c in result["calls"] if c["seconds"] is not None)


def main(argv=None) -> int:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "noisysum" / "cli.py").is_file():
        raise BenchError(f"no noisysum sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))  # for the output checks

    deadline = time.monotonic() + DEADLINE_S
    name, seed = args.workload, args.seed
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        argvs = workloads.prepare(name, seed, work)
        sweep = args.trace and name == "large-count"
        if args.trace:
            # large-count is traced at 1 worker, because spans in forked
            # workers are not collected; its 2-worker variants give the pool's
            # speedup and the alias tables built inside the workers.
            base = workloads.prepare(name, seed, work, 1) if sweep else argvs
            variants = {"untraced": (base, False), "traced": (base, True)}
            if sweep:
                variants.update({"untraced@2": (argvs, False), "traced@2": (argvs, True)})
            measured = measure(variants, work, args.seconds, MIN_CALLS, deadline)
        else:
            measured = measure({"untraced": (argvs, False)}, work, args.seconds, MIN_CALLS,
                               deadline, SETUP_PROBES)
        phases = measured["variants"]

        problems = workloads.check(name, phases["untraced"]["outputs"], argvs)
        recorded_seed, hashes = golden_hashes(name, seed)
        if hashes is None:
            hashes = phases["untraced"]["calls"][0]["hashes"]
            probe = work / "probe"
            probe.mkdir()
            phases.update(measure({"probe": (workloads.prepare(name, recorded_seed, probe), False)},
                                  probe, 0.0, 0, deadline)["variants"])
        expected = {phase: hashes for phase in phases}
        expected["probe"] = golden_hashes(name, recorded_seed)[1]
        attempted, failed = count_failures(phases, expected, problems)

        if args.trace:
            values = phases["traced"]["layers"]
            values["trace.overhead_s"] = _median_s(phases["traced"]) - _median_s(phases["untraced"])
            values["harness.pool_speedup"] = 0.0
            if sweep:
                values["harness.pool_speedup"] = (_median_s(phases["untraced"])
                                                  / _median_s(phases["untraced@2"]))
                values["model.alias_builds"] = phases["traced@2"]["layers"]["model.alias_builds"]
            wanted = spec["per_layer"]
        else:
            run_s = _median_s(phases["untraced"])
            values = {
                "setup_s": statistics.median(measured["import_s"]),
                "run_s": run_s,
                "trials_per_s": workloads.TRIALS_PER_CALL[name] / run_s,
                "peak_rss_mb": measured["peak_rss_mb"],
            }
            wanted = spec["end_to_end"]

        calls = {phase: len(r["calls"]) - 1 for phase, r in phases.items()}
        print("# env " + json.dumps(environment(seed, calls)))
        metrics = {}
        for metric in wanted:
            value = float(values[metric["name"]])
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            label = " (computed)" if metric["name"] in COMPUTED else ""
            print(f"# {name} {metric['name']} = {value!r} {metric['unit']}{label}")
        print(f"# {name} error_rate = {failed / attempted!r} ({failed} of {attempted} calls failed)")
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    try:
        raise SystemExit(main())
    except (BenchError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        raise SystemExit(2)
