"""One measurement in a fresh process: repeated in-process CLI calls.

Usage: python3 perfbench/measure.py SPEC.json

SPEC holds ``variants`` (name -> ``argvs``, the ``noisysum`` argv lists that
make up one workload call, and ``trace``), ``seconds``, ``min_calls`` and
``setup_probes``.  Each variant makes one untimed warm-up call; then the
variants take turns, one call each, until ``seconds`` have passed and each
made at least ``min_calls`` timed calls.  Taking turns puts every variant
under the same machine load, so differences between them (tracing overhead,
worker count) are not swamped by drift in that load.

A traced variant has the tracing wrappers installed for its own calls only;
with no traced variant the wrappers are never imported.  Between calls,
spread evenly over the window, ``setup_probes`` fresh interpreters each
time an import of ``noisysum.cli``.

The last line of stdout is a JSON object: per variant the per-call times,
exit codes, errors and output hashes, the outputs of the warm-up call and,
if traced, the per-layer metrics; then the import times, and the peak RSS
of this process plus its largest pool worker, read right after the warm-up
calls.  That is the footprint of one command in a fresh process, as the
command line sees it, and it does not depend on how many calls fit in the
window.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import noisysum.cli; "
    "print(time.perf_counter() - t)"
)


class Variant:
    def __init__(self, argvs, tracer):
        self.argvs = argvs
        self.outputs = [argv[argv.index("--output") + 1] for argv in argvs]
        self.tracer = tracer
        self.calls = []
        self.warm_outputs = []

    def call(self, cli) -> None:
        """One workload call, recording its time, exit code, error and output hashes."""
        for path in self.outputs:
            if os.path.exists(path):
                os.unlink(path)
        if self.tracer is not None:
            self.tracer.install()
        code, error = 0, ""
        start = time.perf_counter()
        try:
            for argv in self.argvs:
                code = cli.main(argv)
                if code != 0:
                    break
        except Exception as exc:  # a raising call is counted as failed, not fatal
            code, error = None, repr(exc)
        seconds = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.uninstall()
        data = [Path(p).read_bytes() if os.path.exists(p) else b"" for p in self.outputs]
        if not self.calls:
            seconds = None  # the warm-up call
            self.warm_outputs = [b.decode(errors="replace") for b in data]
            if self.tracer is not None:
                self.tracer.reset()
        self.calls.append({"seconds": seconds, "code": code, "error": error,
                           "hashes": [hashlib.sha256(b).hexdigest() for b in data]})

    def result(self) -> dict:
        timed = len(self.calls) - 1
        return {"calls": self.calls, "outputs": self.warm_outputs,
                "layers": self.tracer.metrics(timed) if self.tracer and timed else None}


def _import_seconds() -> float:
    # Runs after this process imported noisysum, so bytecode is cached.
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return float(out)


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import noisysum.cli as cli

    variants = {}
    for name, v in spec["variants"].items():
        tracer = None
        if v["trace"]:
            from tracer import Tracer

            tracer = Tracer()
        variants[name] = Variant(v["argvs"], tracer)

    for variant in variants.values():
        variant.call(cli)
    # Before any import probe runs, so CHILDREN holds pool workers alone.
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    probes, seconds = spec["setup_probes"], spec["seconds"]
    import_s = []
    begin = time.perf_counter()
    rounds = 0
    while rounds < spec["min_calls"] or time.perf_counter() - begin < seconds:
        for variant in variants.values():
            variant.call(cli)
        rounds += 1
        due = (time.perf_counter() - begin) * probes / seconds if seconds else 0
        if len(import_s) < min(probes, due):
            import_s.append(_import_seconds())
    while len(import_s) < probes:
        import_s.append(_import_seconds())

    print(json.dumps({
        "variants": {name: v.result() for name, v in variants.items()},
        "import_s": import_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
