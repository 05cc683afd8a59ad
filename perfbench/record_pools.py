"""Regenerate pools.json, the recorded inputs of the families on which this
revision fails at some points of the valid region.

    python3 perfbench/record_pools.py

The points are drawn once, from a fixed seed, with the workloads' own
generators: POOL_SIZES draws per dispersion-sweep family and
PROFILE_FACTORS speed factors per profile-family range, one in each of as
many equal cells of the range. Each runs once through the workload's
run and check, under the worker's task limit. A point that passes within
SLOW_S goes into the pool with its time, which the workloads use to
stratify their draws by cost. Every other point goes to "known_defects"
with its error, so the defects stay on record. Re-record only on purpose:
a program change that fixes a defect can move its point back in.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import worker  # noqa: E402
from workloads import POOLS, DispersionSweep, ProfileFamily, profile_label  # noqa: E402

RECORD_SEED = 20261018
POOL_SIZES = {"exp_poly_v": 200, "exp_poly_w": 100, "exp_poly_p": 100, "c_star_sequence": 100}
PROFILE_FACTORS = 10
# a third of the task limit leaves room for a host that runs slow for a while
SLOW_S = worker.TASK_LIMIT_S / 3


def record(wl, tasks: list, defects: list) -> list:
    """Runs the tasks through the workload; returns the pool entries of the
    ones that pass within SLOW_S and appends the rest to defects."""
    wl.tasks = lambda: iter(tasks)
    res = worker.run_loop(wl, math.inf)
    errors = {f["task"]: f["error"] for f in res["failures"]}
    entries = []
    for i, (task, sec) in enumerate(zip(tasks, res["durations"])):
        err = errors.get(i) or (f"passed but took {sec:.1f} s, over {SLOW_S:g} s"
                                if sec > SLOW_S else None)
        if err:
            defects.append({"workload": wl.name, "task": task, "error": err,
                            "seconds": round(sec, 3)})
            print(wl.name, task["label"], err, file=sys.stderr)
        else:
            entries.append({"task": task, "seconds": round(sec, 4)})
    return entries


def main() -> int:
    defects = []
    sweep = DispersionSweep(RECORD_SEED, ROOT)
    doc = {"recorded_with": {"python": sys.version.split()[0],
                             "numpy": metadata.version("numpy"),
                             "scipy": metadata.version("scipy")},
           "dispersion-sweep": {}, "profile-family": {}}
    for family in DispersionSweep.POOLED:
        tasks = [sweep.task(family) for _ in range(POOL_SIZES[family])]
        doc["dispersion-sweep"][family] = record(sweep, tasks, defects)

    profile = ProfileFamily(RECORD_SEED, ROOT)
    rng = random.Random(RECORD_SEED)
    for pair, lo, hi in ProfileFamily.RANGES:
        tasks = []
        for k in range(PROFILE_FACTORS):
            t = {"pair": pair, "factor": lo + (hi - lo) * (k + rng.random()) / PROFILE_FACTORS}
            t["label"] = profile_label(t)
            tasks.append(t)
        doc["profile-family"][pair] = record(profile, tasks, defects)
    doc["known_defects"] = defects
    with open(POOLS, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
