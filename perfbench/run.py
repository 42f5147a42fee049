"""Benchmark entry point for maskpolicy.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its `src/` directory, never from an installed copy. The command
generates the workload's inputs from the seed, runs the workload in a
child process (see bench.py), and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are the per-layer metrics of a separate traced run.
Earlier lines give the host facts and the end-to-end figure under its
per-workload name (random15_tok_s, learned_tok_s, train_ex_s, ...).

BLAS is pinned to one thread in every process, so the worker processes
of deploy-learned never oversubscribe the cores.

Files go under perfbench/.work/: inputs and outputs of a run are
removed when it ends; the latest result of each (workload, seed, trace)
and the spans of traced runs are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
TIME_LIMIT_S = 170  # the whole command, generation included
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def use_checkout_sources() -> str | None:
    """Pin BLAS to one thread and import maskpolicy from this checkout's
    src/, for this process and its children. Returns a problem, if any."""
    if not (SRC / "maskpolicy" / "__init__.py").is_file():
        return f"no maskpolicy sources under {SRC}; run from a source checkout"
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    sys.path[:0] = [str(SRC), str(ROOT)]
    import maskpolicy

    if Path(maskpolicy.__file__).resolve().parent != (SRC / "maskpolicy").resolve():
        return f"imported maskpolicy from {maskpolicy.__file__}, not from {SRC}"
    return None


def host_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def _run_child(plan_path: Path, deadline: float) -> int:
    """The workload's own process, in its own process group so that its
    pool workers end with it if it has to be killed."""
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "bench.py"), str(plan_path)],
                            cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return -1


def main(argv=None) -> int:
    t_start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the smoke tests")
    args = parser.parse_args(argv)

    if args.seed < 0:
        return fail("--seed must be >= 0")
    problem = use_checkout_sources()
    if problem:
        return fail(problem)
    from perfbench import bench

    if args.workload not in bench.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of {sorted(bench.WORKLOADS)}")
    wl = bench.WORKLOADS[args.workload]()

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        t_gen = time.monotonic()
        inputs = wl.make_inputs(work / "inputs", args.seed, args.profile)
        canary = None
        if (args.seed, args.profile) != (bench.DEFAULT_SEED, "tiny"):
            canary = wl.make_inputs(work / "canary", bench.DEFAULT_SEED, "tiny")
        gen_s = time.monotonic() - t_gen
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(vars(bench.Plan(
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), profile=args.profile, inputs=inputs,
            canary_inputs=canary, work=str(work)))), encoding="utf-8")
        code = _run_child(plan_path, t_start + TIME_LIMIT_S)
        if code != 0:
            return fail(f"workload process ended with code {code}")
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "profile": args.profile, "input_generation_s": gen_s,
              "host": host_facts(), **result}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.profile}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("host " + json.dumps(record["host"], sort_keys=True))
    for key, value in result["named_metrics"].items():
        unit = "tok/s" if key.endswith("tok_s") else "ex/s" if key.endswith("ex_s") else "ratio"
        print(f"{key} {value!r} {unit}")
    for problem in result["problems"]:
        print(f"problem {problem}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
