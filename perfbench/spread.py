"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 0-9 [--trace 1] [--repeat 2]

For each metric: the median over seeds, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the bound in BENCHMARK.json.  With ``--repeat 2`` every seed
runs twice, and each metric whose unit is ``count`` must read the same on
both runs of a seed; those counts are compared for equality, not by bound.
Exits 1 when a run fails its checks, a count differs or a spread exceeds
its bound (``setup_s`` excepted, as its spread is not bounded).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    lo, hi = (int(v) for v in args.seeds.split("-"))
    runs: dict[int, list[dict]] = {}
    ok = True
    for _ in range(args.repeat):
        for seed in range(lo, hi + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--trace", str(args.trace)]
            if args.seconds is not None:
                cmd += ["--seconds", str(args.seconds)]
            out = subprocess.run(cmd, cwd=HERE.parent, check=True, capture_output=True,
                                 text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            ok &= result["correct"]
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs.setdefault(seed, []).append(metrics)
            print(f"seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    for metric in wanted:
        name = metric["name"]
        if metric["unit"] == "count":
            same = all(len({r[name] for r in seed_runs}) == 1 for seed_runs in runs.values())
            ok &= same
            print(f"{name:32} count, equal across repeats of each seed: {same}")
            continue
        values = [r[name] for seed_runs in runs.values() for r in seed_runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        if median:
            spread = (q3 - q1) / abs(median)
        else:
            spread = 0.0 if q3 == q1 else float("inf")
        bound = metric.get("bound")
        if bound is not None and name != "setup_s":
            ok &= spread <= bound
        print(f"{name:32} median {median:.6g} {metric['unit']:6} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f}" + (f" bound {bound} (third {bound / 3:.4f})" if bound else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
