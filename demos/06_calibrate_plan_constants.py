#!/usr/bin/env python3
"""Where the default plan constants c_m = 4 and c_t = 16 come from.

The guarantee behind the plan is a per-run success probability of 2/3,
but nobody wants a default that skirts its own floor.  This sweep replays
the counting experiment over a grid of (c_m, c_t) at two population sizes
and 300 seeded trials per cell, and writes the table next to this script
as calibration_cm.csv.

Reading of the committed run: c_m = 1 already clears 2/3 (success
0.91..0.98) but sits close enough to the cliff that a less friendly
population would fall off; c_m = 4 is the first column that holds 1.000
everywhere, and c_m = 8 pays double for nothing.  The pilot knob barely
moves these instances (it enters additively, ~3% of a trial at c_t = 16),
so c_t = 16 is chosen for headroom on populations where var_hh is not a
tame 1: the pilot's error multiplies the residual bias, and a 6-sample
pilot (c_t = 4) is the kind of economy one regrets later.
"""

import csv
import pathlib

from noisysum.harness import zero_one_experiment

GRID_CM = (1.0, 2.0, 4.0, 8.0)
GRID_CT = (4.0, 16.0, 64.0)
SIZES = (400, 2000)
TRIALS = 300
SEED = 2468


def main():
    rows = []
    for n in SIZES:
        for c_m in GRID_CM:
            for c_t in GRID_CT:
                out = zero_one_experiment(
                    n=n, fraction_ones=0.5, gamma=0.5, eps=0.25,
                    trials=TRIALS, base_seed=SEED, c_m=c_m, c_t=c_t, threads=4,
                )
                plan = out.config
                rows.append({
                    "n": n, "c_m": c_m, "c_t": c_t,
                    "k": plan.k, "m": plan.m, "t": plan.t,
                    "samples_per_trial": plan.m + plan.t,
                    "success_rate": round(out.stats.success_rate, 4),
                })
                print(f"n={n:<5d} c_m={c_m:<3.0f} c_t={c_t:<3.0f} "
                      f"m={plan.m:<5d} t={plan.t:<3d} "
                      f"success={out.stats.success_rate:.3f}")

    target = pathlib.Path(__file__).with_name("calibration_cm.csv")
    with open(target, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"\nwrote {target.name}")

    # The two knobs should not need joint tuning: pick the smallest c_m
    # whose whole column stays at 1.000 no matter how starved the pilot.
    column_floor = {c_m: 1.0 for c_m in GRID_CM}
    for row in rows:
        column_floor[row["c_m"]] = min(column_floor[row["c_m"]], row["success_rate"])
    best_cm = min(c_m for c_m, worst in column_floor.items() if worst >= 1.0)
    print(f"smallest c_m whose column holds success 1.000 at every (n, c_t): "
          f"{best_cm:.0f}")
    print("c_t = 16 is margin, not measurement: these instances barely tax the "
          "pilot, rougher populations do")


if __name__ == "__main__":
    main()
