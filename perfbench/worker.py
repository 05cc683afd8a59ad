"""One workload in one fresh process: set up, warm up, then a closed loop
with one client for the requested seconds.

Started by run.py; prints one JSON line. `ready` is the CLOCK_MONOTONIC
reading at the end of set-up, which run.py subtracts from the moment it
started this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A task is stopped and fails after this long. The slowest passing tasks
# take about 12 s on a 2-vCPU VM; some profile solves that end in
# NonConvergence run 50-70 s, and two rounds of profile-family with one of
# those would come near the 180 s a run may last.
TASK_LIMIT_S = 30.0


class TaskTimeout(BaseException):
    """Raised in a task that runs past TASK_LIMIT_S; not an Exception, so
    no `except Exception` in the package can swallow it."""


def _timeout(signum, frame):
    raise TaskTimeout(f"task ran past {TASK_LIMIT_S:g} s")


def run_loop(wl, seconds: float, tracer=None) -> dict:
    """Closed loop: the next task starts when the previous one has returned
    and been checked. Only the calls into the package are timed."""
    durations, labels, failures = [], [], []
    signal.signal(signal.SIGALRM, _timeout)
    start = time.perf_counter()
    for i, task in enumerate(wl.tasks()):
        if tracer:
            tracer.task, tracer.active = i, True
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, TASK_LIMIT_S)
            out, err = wl.run(task), None
            signal.setitimer(signal.ITIMER_REAL, 0)
        except (Exception, TaskTimeout) as exc:  # a task that raises is a failed task
            signal.setitimer(signal.ITIMER_REAL, 0)
            out, err = None, f"{type(exc).__name__}: {exc}"
        durations.append(time.perf_counter() - t0)
        if tracer:
            tracer.active = False
        if err is None:
            try:
                err = wl.check(task, out)
            except Exception as exc:  # a check that cannot run fails the task
                err = f"check raised {type(exc).__name__}: {exc}"
        labels.append(task["label"])
        if err:
            failures.append({"task": i, "label": task["label"], "error": err})
        n = len(durations)
        if (n >= wl.min_tasks and n % wl.round_size == 0
                and time.perf_counter() - start >= seconds):
            break
    return {"durations": durations, "labels": labels, "failures": failures}


def peak_rss_mb(in_process: bool) -> float:
    """Peak RSS of the process that runs the package: this one, or the
    largest of the CLI children, the only children the worker waits for."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    cls = WORKLOADS[args.workload]
    in_process = cls.in_process

    tracer = None
    if args.trace and in_process:
        from tracing import Tracer
        tracer = Tracer()
        tracer.patch_engine()
    if in_process:
        import nlkpp
        src = os.path.join(ROOT, "src", "nlkpp")
        if os.path.dirname(os.path.abspath(nlkpp.__file__)) != src:
            print(f"nlkpp imported from {nlkpp.__file__}, not {src}", file=sys.stderr)
            return 2
        if tracer:
            tracer.patch_nlkpp()
    wl = cls(args.seed, ROOT)
    try:
        wl.warm_up()
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        res = run_loop(wl, args.seconds, tracer)
    finally:
        wl.close()
    res["ready"] = ready
    res["peak_rss_mb"] = peak_rss_mb(in_process)
    if tracer:
        res["layers"] = tracer.metrics()
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        tracer.write(os.path.join(ROOT, ".perfbench",
                                  f"spans-{args.workload}-seed{args.seed}.json"))
    if not in_process:
        res["cli"] = {"startup_s": wl.startup_s, "duration_s": wl.duration_s,
                      "result_identical": wl.identical}
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
