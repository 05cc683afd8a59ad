"""Regenerate cli_pool.json, the problems of the cli-oneshot workload and
the result blocks this revision's CLI prints for them.

    python3 perfbench/record_cli_pool.py

The problems are drawn once, from a fixed seed, with the same generators
as dispersion-sweep; the workload's seed later picks among them. Re-record
only on purpose: the workload counts result blocks that stay byte-identical
to the recorded ones.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from importlib import metadata

from workloads import (CLI_COMMANDS, CLI_POOL, DispersionSweep, cli_argv, cli_env,
                       result_block)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PER_COMMAND = 6
RECORD_SEED = 20261017
PROBLEM_FAMILIES = ("laplace", "gaussian", "uniform", "gaussian_nonlocal", "exp_poly_v")


def draw_entries() -> list:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import nlkpp
    gen = DispersionSweep(RECORD_SEED, ROOT)
    rng = random.Random(RECORD_SEED)
    entries = []
    for command in CLI_COMMANDS:
        for k in range(PER_COMMAND):
            e = {"id": f"{command}-{k}", "command": command, "args": []}
            if command == "mu-star":
                p = gen.task("mu_star")
                e["args"] = ["--q", repr(p["q"]), "--kappa-plus", repr(p["params"]["kappa_plus"]),
                             "--m", repr(p["params"]["m"])]
            elif command == "sweep":
                e["points"] = [gen.problem(rng.choice(PROBLEM_FAMILIES)) for _ in range(10)]
                e["args"] = ["--task", "speed"]
            else:
                e["problem"] = gen.problem(PROBLEM_FAMILIES[k % len(PROBLEM_FAMILIES)])
                if command == "speed":
                    pair, params = nlkpp.load_problem(e["problem"])
                    c_star = nlkpp.minimal_speed(pair, params).c_star
                    c = c_star + rng.uniform(0.01, 1.0) * abs(c_star)
                    e["args"] = ["--c", repr(c)]
            entries.append(e)
    return entries


def main() -> int:
    entries = draw_entries()
    env = cli_env(ROOT)
    with tempfile.TemporaryDirectory() as workdir:
        for e in entries:
            proc = subprocess.run([sys.executable, "-m", "nlkpp.cli"] + cli_argv(e, workdir),
                                  cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=300)
            # an entry this revision fails stays in the pool with its exit
            # code; the workload counts it as a failed task
            e["code"] = proc.returncode
            e["result"] = result_block(proc.stdout) if proc.returncode == 0 else ""
            print(e["id"], "exit", proc.returncode, file=sys.stderr)
    doc = {"recorded_with": {"python": sys.version.split()[0],
                             "numpy": metadata.version("numpy"),
                             "scipy": metadata.version("scipy")},
           "entries": entries}
    with open(CLI_POOL, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
