"""Record the default-seed reference outputs that every run checks.

    python3 perfbench/record_reference.py

Runs one pass of every workload at seed 0 in both input profiles and
writes perfbench/reference.json: output digests for the deploy
workloads, the training log for train. Re-record only when a change is
meant to alter the program's output, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (sets up sys.path for the package)


def main() -> int:
    problem = run.use_checkout_sources()
    if problem:
        return run.fail(problem)
    from perfbench import bench

    reference = {}
    work = run.WORK / "record_reference"
    try:
        for name, make in bench.WORKLOADS.items():
            wl = make()
            for profile in ("full", "tiny"):
                base = work / f"{name}-{profile}"
                inputs = wl.make_inputs(base / "inputs", bench.DEFAULT_SEED, profile)
                out = base / "out"
                out.mkdir(parents=True)
                state = wl.setup(inputs)
                result = wl.run_pass(state, bench.DEFAULT_SEED, out)
                digests = wl.digests(out, result)
                problems = wl.check(state, bench.DEFAULT_SEED, out, result)
                if problems:
                    return run.fail(f"{name} {profile}: output fails its checks: {problems}")
                reference.setdefault(name, {})[profile] = wl.reference_entry(digests, result)
                print(f"{name} {profile}: recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bench.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
