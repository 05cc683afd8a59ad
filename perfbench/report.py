"""Every workload untraced and traced, plus the baseline comparison.

    python3 perfbench/report.py [--seed N]

Prints markdown: the end-to-end metrics of every workload (including
error_ratio and, where a run has >= 100 tasks, task_s_p90), the per-layer
metrics of the traced runs, the tracing overhead (traced minus untraced
wall time over the tasks both runs attempted), and the baseline-
reproduction table against the ROADMAP's "Baseline at this re-anchor".
Each run lasts BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, worker_env

ORDER = ("dispersion-sweep", "profile-family", "cli-oneshot")

# ROADMAP "Baseline at this re-anchor": (row, low, high, unit)
BASELINE = (
    ("import nlkpp", "import", 1.25, 1.5, "s"),
    ("CLI check/classify/speed wall", "cli_wall", 1.5, 1.5, "s"),
    ("minimal_speed Laplace", "minimal_speed.laplace", 3e-3, 4e-3, "s"),
    ("minimal_speed Gaussian", "minimal_speed.gaussian", 5e-3, 5e-3, "s"),
    ("minimal_speed ExpPoly W q=4 mu=0.1", "minimal_speed.exp_poly_w_q4_mu0.1", 26e-3, 41e-3, "s"),
    ("minimal_speed ExpPoly p=1.5", "minimal_speed.exp_poly_p1.5", 120e-3, 130e-3, "s"),
    ("minimal_speed ExpPoly W q=2.5 mu=0.5", "minimal_speed.exp_poly_w_q2.5_mu0.5", 490e-3, 490e-3, "s"),
    ("  its IntegrationWarnings", "warnings:minimal_speed.exp_poly_w_q2.5_mu0.5", 7, 7, "count"),
    ("solve_profile reference c*", "solve_profile.c_star", 2.5, 3.1, "s"),
    ("  N at c*", "grid:solve_profile.c_star", 17092, 17092, "count"),
    ("solve_profile reference c=4", "solve_profile.c4", 2.2, 2.4, "s"),
    ("  N at c=4", "grid:solve_profile.c4", 22991, 22991, "count"),
    ("solve_profile reference 2c*", "solve_profile.c2c_star", 5.7, 7.1, "s"),
    ("  N at 2c*", "grid:solve_profile.c2c_star", 39626, 39626, "count"),
    ("evolve, criterion 8", "criterion8", 68.0, 81.0, "s"),
    ("c_star_sequence, 5 radii", "c_star_sequence", 170e-3, 180e-3, "s"),
)
MIN_TOL = 0.10


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    with open(os.path.join(ROOT, ".perfbench",
                           f"run-{workload}-seed{seed}-trace{trace}.json")) as fh:
        detail = json.load(fh)
    return json.loads(lines[-2]), json.loads(lines[-1]), detail["worker"]


def spread(values):
    """IQR/median, or None below four samples."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def fmt(v) -> str:
    if isinstance(v, int):
        return str(v)
    return f"{v:.4g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    runs = {w: {t: bench(w, args.seed, seconds, t) for t in (0, 1)} for w in ORDER}

    machine = runs[ORDER[0]][0][0]["machine"]
    print(f"machine: {json.dumps({k: machine[k] for k in ('nproc', 'affinity', 'python', 'numpy', 'scipy', 'thread_caps')})}"
          f", seed {args.seed}, {seconds} s per run\n")
    print("| workload | setup_s | tasks_per_s | task_s_p50 (n) | task_s_p90 | error_ratio | peak_rss_mb |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for w in ORDER:
        summary, result, _ = runs[w][0]
        m = {k: v["value"] for k, v in result["metrics"].items()}
        p90 = fmt(summary["task_s_p90"]) if "task_s_p90" in summary else "n/a (< 100 tasks)"
        print(f"| {w} | {fmt(m['setup_s'])} | {fmt(m['tasks_per_s'])} | "
              f"{fmt(m['task_s_p50'])} ({summary['attempted']}) | {p90} | "
              f"{fmt(summary['error_ratio'])} | {fmt(m['peak_rss_mb'])} |")
        for f in summary["failures"]:
            print(f"|  failure: {f['label']}: {f['error']} | | | | | | |")

    print("\n| per-layer metric | " + " | ".join(ORDER) + " |")
    print("| --- |" + " --- |" * len(ORDER))
    layers = {w: {k: v["value"] for k, v in runs[w][1][1]["metrics"].items()} for w in ORDER}
    for name in layers[ORDER[0]]:
        vals = [layers[w][name] for w in ORDER]
        if any(vals):
            print(f"| {name} | " + " | ".join(fmt(v) if v else "" for v in vals) + " |")

    print("\n| tracing overhead | tasks compared | untraced s | traced s | traced - untraced | self-measured |")
    print("| --- | --- | --- | --- | --- | --- |")
    for w in ORDER:
        plain, traced = runs[w][0][2]["durations"], runs[w][1][2]["durations"]
        k = min(len(plain), len(traced))
        a, b = sum(plain[:k]), sum(traced[:k])
        own = layers[w]["trace.overhead_s"]
        print(f"| {w} | {k} | {a:.3f} | {b:.3f} | {b - a:+.3f} s ({(b - a) / a:+.1%}) | "
              f"{own:.3f} s |")

    proc = subprocess.run([sys.executable, os.path.join(HERE, "baseline.py")], cwd=ROOT,
                          env=worker_env(), capture_output=True, text=True, timeout=900,
                          check=True)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    cli = runs["cli-oneshot"][0][2]
    probe["import"] = {"times": [layers[w]["import.nlkpp_s"] for w in ORDER]}
    probe["cli_wall"] = {"times": cli["durations"]}

    print("\n| baseline row | ROADMAP | measured median (n, IQR/median) | verdict |")
    print("| --- | --- | --- | --- |")
    for label, key, lo, hi, unit in BASELINE:
        kind, _, key = key.rpartition(":")
        row = probe[key]
        if kind:
            value = row["warnings" if kind == "warnings" else "grid_points"]
            verdict = "agrees" if value == lo else f"differs: {value} vs {lo}"
            print(f"| {label} | {fmt(lo)} {unit} | {value} | {verdict} |")
            continue
        times = row["times"]
        med, s = statistics.median(times), spread(times)
        tol = max(s or 0.0, MIN_TOL)
        if lo * (1 - tol) <= med <= hi * (1 + tol):
            verdict = f"agrees within {tol:.0%}"
        else:
            ref = lo if med < lo else hi
            verdict = f"differs: {(med - ref) / ref:+.0%} beyond the range (tolerance {tol:.0%})"
        rng = fmt(lo) if lo == hi else f"{fmt(lo)}-{fmt(hi)}"
        s_text = "n/a" if s is None else f"{s:.1%}"
        print(f"| {label} | {rng} {unit} | {fmt(med)} {unit} ({len(times)}, {s_text}) | {verdict} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
