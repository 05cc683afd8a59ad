"""Untraced timings of the single calls the ROADMAP's baseline table names.

    PYTHONPATH=src python3 perfbench/baseline.py

Prints one JSON object: for each row the per-repeat wall times (and the
grid size or warning count where the row states one). report.py runs it
with the benchmark's thread caps and compares the medians to the table.
"""

from __future__ import annotations

import json
import sys
import time
import warnings

REPEATS = 5     # the cheap rows run twice as often, the profile solves 3 times


def timed(fn, repeats: int) -> dict:
    times, extra = [], None
    for _ in range(repeats):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
        extra = {"warnings": len(caught)}
        if hasattr(out, "grid"):
            extra["grid_points"] = len(out.grid)
    return {"times": times, **extra}


def main() -> int:
    n = REPEATS
    import nlkpp as nk
    lk1 = nk.Params(2.0, 1.0, 1.0, 0.0)
    ref = nk.KernelPair(nk.Laplace(1.0), nk.Laplace(1.0))
    rep = nk.minimal_speed(ref, lk1)
    rows = {}
    for key, kernel in (("laplace", nk.Laplace(1.0)), ("gaussian", nk.Gaussian(1.0)),
                        ("exp_poly_w_q4_mu0.1", nk.ExpPoly(1.0, 4.0, 0.1)),
                        ("exp_poly_p1.5", nk.ExpPoly(1.5, 2.0, 1.0)),
                        ("exp_poly_w_q2.5_mu0.5", nk.ExpPoly(1.0, 2.5, 0.5))):
        rows[f"minimal_speed.{key}"] = timed(lambda k=kernel: nk.minimal_speed(k, lk1), 2 * n)
    rows["c_star_sequence"] = timed(
        lambda: nk.c_star_sequence(ref, lk1, (2.0, 5.0, 10.0, 20.0, 40.0)), 2 * n)
    for key, c in (("c_star", rep.c_star), ("c4", 4.0), ("c2c_star", 2.0 * rep.c_star)):
        rows[f"solve_profile.{key}"] = timed(
            lambda c=c: nk.solve_profile(ref, lk1, c, report=rep), max(3, n // 2))
    # criterion 8, once: 70-90 s on a 2-vCPU VM
    th = nk.theta(lk1)
    rows["criterion8"] = timed(
        lambda: nk.evolve(ref, lk1, nk.step_data(0.0, th), dt=0.005, horizon=200.0,
                          domain=(-30.0, 30.0), h=0.02), 1)
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
