"""Record the output hashes that perfbench/run.py compares every call against.

    python3 perfbench/record_golden.py --seeds 0-31 [--workload NAME ...]

The ROADMAP requires CLI outputs to stay byte-identical, so record only at a
commit whose outputs are the reference; a change that alters them should
fail the benchmark rather than re-record.  Outputs that fail
workloads.check are refused.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS))
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    sys.path.insert(0, str(run.ROOT / "src"))  # for the output checks
    path = run.HERE / "golden.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workload or workloads.WORKLOADS:
        for seed in range(lo, hi + 1):
            work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
            try:
                argvs = workloads.prepare(name, seed, work)
                result = run.measure({"golden": (argvs, False)}, work, 0.0, 0,
                                     time.monotonic() + 600)["variants"]["golden"]
                (call,) = result["calls"]
                problems = workloads.check(name, result["outputs"], argvs)
                if call["code"] != 0 or problems:
                    raise SystemExit(f"{name} seed {seed}: {call['error'] or call['code']} {problems}")
                table.setdefault(name, {})[str(seed)] = call["hashes"]
                print(name, seed, call["hashes"])
            finally:
                shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
