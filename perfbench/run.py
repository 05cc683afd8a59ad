"""nlkpp benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds src/nlkpp. Each workload runs in its own
fresh process (worker.py) with BLAS/OpenMP threads capped at 1 and
NLKPP_WORKERS unset. With --trace 0 the result holds the end-to-end
metrics; set-up is measured in SETUP_SAMPLES fresh processes and reported
as their median. With --trace 1 the same loop runs with spans around the
package's public functions and the result holds the per-layer metrics.

The second-to-last line of output is a JSON summary (machine facts, error
ratio, p90 where a run has >= 100 tasks, failures); the last line is
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

from tracing import metric_units
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3
IMPORT_PROBES = 3
DEADLINE_S = 170.0
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"setup_s": "s", "tasks_per_s": "1/s", "task_s_p50": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("NLKPP_WORKERS", None)
    for k in THREAD_CAPS:
        env[k] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list, env: dict, deadline: float) -> tuple:
    """Run a child to completion; (start monotonic time, last stdout line as JSON)."""
    start = time.monotonic()
    timeout = deadline - start
    if timeout <= 0:
        raise BenchError("out of time before starting a process")
    try:
        proc = subprocess.run([sys.executable] + argv, env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[:3]} exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{argv[:3]} exited with {proc.returncode}")
    return start, json.loads(lines[-1])


def machine_facts(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "platform": platform.platform(),
            "thread_caps": dict.fromkeys(THREAD_CAPS, "1"), "nlkpp_workers": None,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def import_probe_s(env: dict, deadline: float) -> float:
    code = ("import json, time; t = time.perf_counter(); import nlkpp; "
            "print(json.dumps(time.perf_counter() - t))")
    return statistics.median(spawn(["-c", code], env, deadline)[1]
                             for _ in range(IMPORT_PROBES))


def measure(args) -> tuple:
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    worker = [os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            start, probe = spawn(worker + ["--setup-only"], env, deadline)
            setups.append(probe["ready"] - start)
    else:
        import_s = import_probe_s(env, deadline)
    start, res = spawn(worker, env, deadline)
    setups.append(res["ready"] - start)

    durations = res["durations"]
    n, failed = len(durations), len(res["failures"])
    summary = {"machine": machine_facts(args), "attempted": n, "failed": failed,
               "error_ratio": failed / n, "failures": res["failures"][:10]}
    if not args.trace:
        values = {"setup_s": statistics.median(setups),
                  "tasks_per_s": n / sum(durations),
                  "task_s_p50": statistics.median(durations),
                  "peak_rss_mb": res["peak_rss_mb"]}
        units = END_TO_END
        summary["setup_s_samples"] = setups
        if n >= 100:
            summary["task_s_p90"] = statistics.quantiles(durations, n=10)[-1]
    else:
        units = metric_units()
        values = dict.fromkeys(units, 0)
        values.update(res.get("layers", {}))
        values["import.nlkpp_s"] = import_s
        cli = res.get("cli")
        if cli:
            values["cli.startup_s"] = statistics.median(cli["startup_s"] or [0.0])
            values["cli.duration_s"] = statistics.median(cli["duration_s"] or [0.0])
            values["cli.result_identical"] = cli["result_identical"]
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench",
                           f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"summary": summary, "worker": res}, fh)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result = {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}
    return summary, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "nlkpp", "__init__.py")):
        print(f"no src/nlkpp under {ROOT}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        summary, result = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
