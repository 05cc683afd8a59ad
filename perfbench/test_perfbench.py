"""The benchmark's own checks: one run emits every metric BENCHMARK.json
names, with its unit, and a wrong answer reaching the checker or a task
that runs past the time limit is counted as a failed task."""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import worker  # noqa: E402
from workloads import DispersionSweep  # noqa: E402


def _spec(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_emits_every_metric(trace, key):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "dispersion-sweep",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == _spec(key)
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    if trace:
        assert out["metrics"]["dispersion.minimal_speed.calls"]["value"] > 0
        assert out["metrics"]["engine.quad.calls"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_wrong_answer_counts_as_error():
    wl = DispersionSweep(5, ROOT)
    honest = wl.run
    calls, corrupted = [], []

    def wrong(task):
        calls.append(task)
        out = honest(task)
        if task["kind"] == "point":
            c, lam, j, back = out["roots"][0]
            out["roots"][0] = (c, lam, j, back * (1.0 + 1e-6))
            corrupted.append(len(calls) - 1)
        return out

    wl.run = wrong
    wl.min_tasks = 8
    res = worker.run_loop(wl, seconds=0.0)
    assert corrupted
    errors = {f["task"]: f["error"] for f in res["failures"]}
    assert all("round trip" in errors.get(i, "") for i in corrupted)


def test_task_past_limit_fails(monkeypatch):
    class Sleepy:
        min_tasks, round_size = 2, 1

        def tasks(self):
            while True:
                yield {"label": "sleep"}

        def run(self, task):
            time.sleep(5.0)

        def check(self, task, out):
            return None

    monkeypatch.setattr(worker, "TASK_LIMIT_S", 0.2)
    res = worker.run_loop(Sleepy(), seconds=0.0)
    assert max(res["durations"]) < 1.0
    assert [f["error"] for f in res["failures"]] == ["TaskTimeout: task ran past 0.2 s"] * 2
