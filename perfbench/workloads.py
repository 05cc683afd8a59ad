"""Seeded workloads for the nlkpp benchmark.

Every workload turns a seed into a stream of tasks, runs one task through
the package's public API and checks the answer against the acceptance
tolerances (residual <= 1e-6, lambda*/c* to 1e-9, transport to 1e-3).
The package only ever sees the generated inputs.

Parameter ranges come from the model's valid region (Q1..Q6 hold): slow
and warning-prone points stay in, and a task that raises or fails its
check counts as an error. The families where the program fails on some
points of that region (exp_poly, c_star_sequence, the profile speeds) are
drawn from pools.json instead: points drawn once from the same ranges and
kept if this revision passed them within a third of the task limit. The
ones it failed are listed there under "known_defects" (record_pools.py).
Heavy families draw their parameters by stratified sampling (one draw per
stratum, strata visited in a seeded order), so every seed covers the same
parameter range and runs of different seeds cost about the same.

Tasks return plain results; checks run outside the timed region.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import time

REL_TOL = 1e-9          # lambda*, c* and speed<->rate round trips
RESIDUAL_TOL = 1e-6     # profile residual
TAIL_RATE_TOL = 0.02    # fitted tail rate against the dispersion rate
J_TOL = 0.15            # fitted root multiplicity
SHIFT_TOL = 1e-5        # aligned distance of anchor-shifted profiles
TRANSPORT_TOL = 1e-3    # evolved profile against the shifted profile
ROUNDOFF = 1e-12        # relative resolution of the package's root solves

LK1 = {"kappa_plus": 2.0, "m": 1.0, "kappa_local": 1.0, "kappa_nonlocal": 0.0}

# mu*(q) of the exp_poly family (p = 1) at LK1, computed once with
# nlkpp.mu_star on the seed revision. The generator uses it only to place
# class V / class W draws at least 10% away from the phase boundary.
_MU_STAR_LK1 = ((2.03, 0.0461), (2.04, 0.0610), (2.05, 0.0757), (2.1, 0.1465),
                (2.2, 0.2761), (2.3, 0.3921), (2.5, 0.5904), (2.75, 0.7885),
                (3.0, 0.9451), (3.5, 1.1724), (4.0, 1.3254), (4.5, 1.4328),
                (5.0, 1.5109))

# Class W with mu >= 0.05 needs 0.9 mu*(q) >= 0.05, which first holds near
# q = 2.036; this is the smallest tabulated q where it does.
W_Q_MIN = 2.04


def mu_star_lk1(q: float) -> float:
    pts = _MU_STAR_LK1
    for (q0, m0), (q1, m1) in zip(pts, pts[1:]):
        if q0 <= q <= q1:
            return m0 + (m1 - m0) * (q - q0) / (q1 - q0)
    raise ValueError(f"q={q} outside the tabulated range")


class Strata:
    """Stratified uniform draws on [lo, hi): the k-th draw lands in stratum
    order[k mod n], at a seeded position inside it."""

    def __init__(self, rng: random.Random, lo: float, hi: float, n: int):
        self.rng, self.lo, self.hi, self.n = rng, lo, hi, n
        self.order = list(range(n))
        self.k = 0

    def draw(self) -> float:
        if self.k % self.n == 0:
            self.rng.shuffle(self.order)
        cell = self.order[self.k % self.n]
        self.k += 1
        return self.lo + (self.hi - self.lo) * (cell + self.rng.random()) / self.n


class PoolDraw:
    """Stratified draws from recorded pool entries: entries are ranked by
    their recorded time and cut into n strata of equal size; the k-th draw
    lands in stratum order[k mod n], and each stratum walks its entries in a
    seeded order, repeating none before all have been drawn."""

    def __init__(self, rng: random.Random, entries: list, n: int):
        ranked = sorted(entries, key=lambda e: e["seconds"])
        self.strata = [ranked[i * len(ranked) // n:(i + 1) * len(ranked) // n]
                       for i in range(n)]
        self.rng, self.n = rng, n
        self.order = list(range(n))
        self.queues = [[] for _ in range(n)]
        self.k = 0

    def draw(self) -> dict:
        if self.k % self.n == 0:
            self.rng.shuffle(self.order)
        i = self.order[self.k % self.n]
        self.k += 1
        if not self.queues[i]:
            self.queues[i] = self.rng.sample(self.strata[i], len(self.strata[i]))
        return dict(self.queues[i].pop()["task"])


POOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pools.json")


def load_pools(workload: str) -> dict:
    """The recorded pools of one workload; empty before the first recording."""
    if not os.path.exists(POOLS):
        return {}
    with open(POOLS) as fh:
        return json.load(fh)[workload]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _params(rng: random.Random, kappa_nonlocal: float = 0.0,
            kappa_local: float | None = None) -> dict:
    m = rng.uniform(0.5, 1.5)
    return {"kappa_plus": m * rng.uniform(1.2, 3.0), "m": m,
            "kappa_local": rng.uniform(0.2, 1.5) if kappa_local is None else kappa_local,
            "kappa_nonlocal": kappa_nonlocal}


# ---------------------------------------------------------------------------
# independent oracles (closed-form transforms, own root solves)

def laplace_oracle(mu: float, kp: float, m: float):
    """lambda*, c* for A(z) = mu^2/(mu^2 - z^2): with y = (lambda/mu)^2 the
    stationarity condition is m y^2 + (3kp - 2m) y + (m - kp) = 0."""
    b = 3.0 * kp - 2.0 * m
    y = 2.0 * (kp - m) / (b + math.sqrt(b * b - 4.0 * m * (m - kp)))
    lam = mu * math.sqrt(y)
    return lam, (kp * mu * mu / (mu * mu - lam * lam) - m) / lam


def gaussian_oracle(v: float, kp: float, m: float):
    """A(z) = exp(v z^2/2); stationarity kp e^{x/2}(1 - x) = m with x = v lambda^2,
    solved by x = 1 + 2 W0(-(m / 2kp) e^{-1/2})."""
    from scipy.special import lambertw
    x = 1.0 + 2.0 * float(lambertw(-(m / (2.0 * kp)) * math.exp(-0.5)).real)
    lam = math.sqrt(x / v)
    return lam, (kp * math.exp(0.5 * x) - m) / lam


def uniform_oracle(lo: float, hi: float, kp: float, m: float):
    """Root of H = m - kp (A - z A') with the closed-form uniform transform."""
    from scipy.optimize import brentq
    w = hi - lo

    def H(z):
        e = math.exp(z * hi) - math.exp(z * lo)
        de = hi * math.exp(z * hi) - lo * math.exp(z * lo)
        return m - kp * (2.0 * e - z * de) / (z * w)

    a, b = 1e-3, 1.0
    while H(b) < 0.0:
        a, b = b, 2.0 * b
    lam = brentq(H, a, b, xtol=1e-15, rtol=1e-14)
    return lam, (kp * (math.exp(lam * hi) - math.exp(lam * lo)) / (lam * w) - m) / lam


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """Base: `tasks()` yields tasks forever in rounds of `round_size`,
    `run(task)` calls the package and is the timed part, `check(task, out)`
    returns None or a message. A run attempts at least `min_tasks` tasks
    and stops only at the end of a round, so every run has the same mix."""

    name = ""
    min_tasks = 1
    round_size = 1
    in_process = True       # the package runs inside the worker process

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")

    def tasks(self):
        raise NotImplementedError

    def warm_up(self):
        """One untimed task, so lazy imports and first-call costs land in
        set-up."""
        raise NotImplementedError

    def run(self, task):
        raise NotImplementedError

    def check(self, task, out):
        raise NotImplementedError

    def close(self):
        pass


class DispersionSweep(Workload):
    """One task is one seeded problem point through classify, minimal_speed,
    speed_to_abscissa + abscissa_to_speed at two speeds above c*, and
    root_multiplicity at c*; a minority of tasks run c_star_sequence,
    mu_star, or the Laplace engine on plain callables.

    Why: stresses kernels, laplace, dispersion, truncation and engine.quad
    and never touches profile or evolution. The exp_poly class W draws keep
    the slow quadrature region (q near 2.5, mu down to 0.05) that emits
    IntegrationWarnings.
    """

    name = "dispersion-sweep"
    min_tasks = 100         # a p90 with ten samples beyond it
    # One round of the closed loop, families in proportion to their count.
    # Ten of the nineteen are closed-form families costing ~8 ms, so the
    # median task sits inside that cluster rather than on its edge. Heavy
    # parameters have five strata, each visited once per five rounds.
    BLOCK = ("laplace", "gaussian", "gaussian_nonlocal", "laplace", "gaussian",
             "exp_poly_v", "uniform", "exp_poly_w", "laplace", "gaussian_nonlocal",
             "mu_star", "exp_poly_p", "gaussian", "uniform", "c_star_sequence",
             "laplace", "exp_poly_v", "gaussian_nonlocal", "laplace_engine")

    round_size = len(BLOCK)
    # drawn from pools.json: the program fails on some points of their ranges
    POOLED = ("exp_poly_v", "exp_poly_w", "exp_poly_p", "c_star_sequence")

    def __init__(self, seed, root):
        super().__init__(seed, root)
        import nlkpp
        self.nk = nlkpp
        self.pools = load_pools(self.name)
        r = self.rng
        self.w_q = Strata(r, W_Q_MIN, 5.0, 5)
        self.w_mu = Strata(r, 0.0, 1.0, 5)
        self.v_q = Strata(r, 0.0, 5.0, 5)
        self.v_mu = Strata(r, 0.0, 1.0, 5)
        self.p_p = Strata(r, 1.0, 2.0, 5)
        self.mu_q = Strata(r, W_Q_MIN, 5.0, 5)

    def problem(self, family):
        r = self.rng
        if family == "laplace":
            return {"family": "laplace", "mu": r.uniform(0.3, 3.0), "params": _params(r)}
        if family == "gaussian":
            return {"family": "gaussian", "variance": r.uniform(0.2, 4.0),
                    "params": _params(r)}
        if family == "uniform":
            return {"family": "uniform",
                    "endpoints": [-r.uniform(0.3, 3.0), r.uniform(0.3, 3.0)],
                    "params": _params(r)}
        if family == "gaussian_nonlocal":
            # Q2: kp g+ >= theta kn g- everywhere; with v- < v+ the ratio
            # g-/g+ peaks at the origin at sqrt(v+/v-); keep a 20% margin
            while True:
                vp = r.uniform(0.5, 2.0)
                vm = vp * r.uniform(0.25, 0.9)
                p = _params(r, kappa_nonlocal=r.uniform(0.2, 1.0))
                th = (p["kappa_plus"] - p["m"]) / (p["kappa_local"] + p["kappa_nonlocal"])
                if p["kappa_plus"] >= 1.2 * th * p["kappa_nonlocal"] * math.sqrt(vp / vm):
                    return {"family": "gaussian", "variance": vp, "params": p,
                            "a_minus": {"family": "gaussian", "variance": vm}}
        if family == "exp_poly_w":
            q = self.w_q.draw()
            hi = 0.9 * mu_star_lk1(q)
            mu = 0.05 + (hi - 0.05) * self.w_mu.draw()
            return {"family": "exp_poly", "p": 1.0, "q": q, "mu": mu, "params": dict(LK1)}
        if family == "exp_poly_v":
            q = self.v_q.draw()
            lo = 1.1 * mu_star_lk1(q) if q >= 2.05 else 0.1
            hi = max(3.0, 1.5 * lo)
            return {"family": "exp_poly", "p": 1.0, "q": q,
                    "mu": lo + (hi - lo) * self.v_mu.draw(), "params": dict(LK1)}
        if family == "exp_poly_p":
            return {"family": "exp_poly", "p": self.p_p.draw(), "q": r.uniform(0.0, 4.0),
                    "mu": r.uniform(0.5, 2.0), "params": _params(r, kappa_local=1.0)}
        raise ValueError(family)

    def task(self, family):
        """A fresh draw from the valid region (record_pools.py draws the
        pooled families' entries with it)."""
        r = self.rng
        if family == "c_star_sequence":
            mu = r.uniform(0.5, 2.0)
            top = 40.0 / mu * r.uniform(1.0, 1.5)
            return {"kind": family, "label": family,
                    "doc": {"family": "laplace", "mu": mu, "params": _params(r)},
                    "radii": [top * f for f in (0.05, 0.125, 0.25, 0.5, 1.0)]}
        if family == "mu_star":
            return {"kind": family, "label": family, "q": self.mu_q.draw(),
                    "params": _params(r, kappa_local=1.0)}
        if family == "laplace_engine":
            return {"kind": family, "label": family, "right": r.uniform(0.3, 3.0),
                    "left": r.uniform(0.3, 3.0), "weight": r.uniform(0.2, 0.8),
                    "rho": r.uniform(0.2, 0.8)}
        return {"kind": "point", "label": family, "doc": self.problem(family),
                "factors": [r.uniform(1.01, 1.5), r.uniform(1.5, 3.0)]}

    def tasks(self):
        pooled = {f: PoolDraw(self.rng, self.pools[f], 5) for f in self.POOLED}
        while True:
            for family in self.BLOCK:
                yield pooled[family].draw() if family in pooled else self.task(family)

    def warm_up(self):
        self.run({"kind": "point", "label": "laplace",
                  "doc": PROFILE_PAIRS["reference"], "factors": [1.2, 2.0]})

    def run(self, task):
        nk = self.nk
        kind = task["kind"]
        if kind == "point":
            pair, params = nk.load_problem(task["doc"])
            cls = nk.classify(pair, params)
            rep = nk.minimal_speed(pair, params)
            roots = []
            for f in task["factors"]:
                c = rep.c_star + (f - 1.0) * abs(rep.c_star)   # c* < 0 for skewed kernels
                root = nk.speed_to_abscissa(pair, params, c, rep)
                back = nk.abscissa_to_speed(pair, params, root.lambda_c, rep)
                roots.append((c, root.lambda_c, root.multiplicity, back))
            j_star = nk.root_multiplicity(pair, params, rep.c_star, rep)
            return {"pair": pair, "params": params, "class": cls, "report": rep,
                    "roots": roots, "j_star": j_star}
        if kind == "c_star_sequence":
            pair, params = nk.load_problem(task["doc"])
            return nk.c_star_sequence(pair, params, task["radii"])
        if kind == "mu_star":
            params = nk.Params(**task["params"])
            q = task["q"]
            mu = nk.mu_star(q, params)
            lo, hi = nk.mu_star_bracket(q, params, mu)
            below = nk.classify(nk.ExpPoly(1.0, q, mu - 1e-4), params)
            above = nk.classify(nk.ExpPoly(1.0, q, mu + 1e-4), params)
            return {"mu": mu, "bracket": (lo, hi), "below": below, "above": above}
        a, b, w = task["right"], task["left"], task["weight"]

        def f(s):
            return w * a * math.exp(-a * s) if s >= 0.0 else (1.0 - w) * b * math.exp(b * s)

        est = nk.abscissa(f)
        ev = nk.bilateral_laplace(f, task["rho"] * a)
        return {"abscissa": est, "laplace": ev}

    def check(self, task, out):
        kind = task["kind"]
        if kind == "point":
            return self._check_point(task, out)
        if kind == "c_star_sequence":
            p = task["doc"]["params"]
            _, c_ref = laplace_oracle(task["doc"]["mu"], p["kappa_plus"], p["m"])
            cs = list(out.c_star)
            # once the truncated mass is below double precision the levels
            # agree with the limit to roundoff, so order is asked up to that
            eps = ROUNDOFF * abs(c_ref)
            if not (cs[0] < cs[-1] and all(y > x - eps for x, y in zip(cs, cs[1:]))):
                return f"c* sequence not increasing: {cs}"
            if not -eps < out.c_star_limit - cs[-1] <= 1e-6:
                return f"final gap {out.c_star_limit - cs[-1]!r} outside (0, 1e-6]"
            if _rel(out.c_star_limit, c_ref) > REL_TOL:
                return f"limit c* {out.c_star_limit!r} vs oracle {c_ref!r}"
            return None
        if kind == "mu_star":
            lo, hi = out["bracket"]
            if not lo < out["mu"] < hi:
                return f"mu* {out['mu']!r} outside its bracket ({lo!r}, {hi!r})"
            if (out["below"], out["above"]) != ("W", "V"):
                return f"classes around mu*: {out['below']}/{out['above']}, want W/V"
            return None
        a, b, w = task["right"], task["left"], task["weight"]
        lam = task["rho"] * a
        exact = w * a / (a - lam) + (1.0 - w) * b / (b + lam)
        est, ev = out["abscissa"], out["laplace"]
        if _rel(est.value, a) > 1e-5:
            return f"abscissa {est.value!r} vs {a!r}"
        if ev.status != "converged" or _rel(ev.value, exact) > 1e-6:
            return f"transform {ev.value!r} ({ev.status}) vs {exact!r}"
        return None

    def _check_point(self, task, out):
        doc, rep = task["doc"], out["report"]
        p = doc["params"]
        kp, m = p["kappa_plus"], p["m"]
        family = task["label"]
        if out["class"] != rep.kernel_class:
            return f"classify {out['class']} disagrees with minimal_speed {rep.kernel_class}"
        for c, lam_c, j, back in out["roots"]:
            if _rel(back, c) > REL_TOL:
                return f"round trip at c={c!r}: back {back!r}"
            if j != 1 or not 0.0 < lam_c < rep.lambda_star:
                return f"root at c={c!r}: lambda {lam_c!r}, j={j}"
        oracle = None
        if family == "laplace":
            oracle = laplace_oracle(doc["mu"], kp, m)
        elif family in ("gaussian", "gaussian_nonlocal"):
            oracle = gaussian_oracle(doc["variance"], kp, m)
        elif family == "uniform":
            oracle = uniform_oracle(*doc["endpoints"], kp, m)
        if oracle is not None:
            lam, c = oracle
            if _rel(rep.lambda_star, lam) > REL_TOL or _rel(rep.c_star, c) > REL_TOL:
                return (f"lambda*/c* {rep.lambda_star!r}/{rep.c_star!r} vs oracle "
                        f"{lam!r}/{c!r}")
            if rep.kernel_class != "V" or out["j_star"] != 2:
                return f"class {rep.kernel_class}, j={out['j_star']}; want V, 2"
            return None
        if family in ("exp_poly_w", "exp_poly_v"):
            want = "W" if family == "exp_poly_w" else "V"
            if rep.kernel_class != want:
                return f"class {rep.kernel_class}, want {want}"
        sig = rep.sigma_plus
        if rep.kernel_class == "W":
            if rep.lambda_star != sig:
                return f"class W with lambda* {rep.lambda_star!r} != sigma {sig!r}"
            want_j = 2 if rep.critical_equality else 1
        else:
            want_j = 2
        if out["j_star"] != want_j:
            return f"multiplicity at c* {out['j_star']}, want {want_j}"
        # c* is the infimum of G over the strip
        from nlkpp.dispersion import g_function
        lam_s = rep.lambda_star
        if math.isfinite(sig):
            lams = [sig * f for f in (0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 0.97, 0.995)]
        else:
            lams = [lam_s * f for f in (0.2, 0.5, 0.8, 0.95, 1.05, 1.3, 2.0, 3.0)]
        for lam in lams:
            g = g_function(out["pair"].a_plus, out["params"], lam)
            if g < rep.c_star * (1.0 - REL_TOL):
                return f"G({lam!r}) = {g!r} below c* {rep.c_star!r}"
        return None


# the three pairs of the profile family (README problem format)
PROFILE_PAIRS = {
    "reference": {"family": "laplace", "mu": 1.0, "params": dict(LK1),
                  "a_minus": {"family": "laplace", "mu": 1.0}},
    "gaussian_nonlocal": {"family": "gaussian", "variance": 1.0,
                          "params": {"kappa_plus": 2.0, "m": 1.0, "kappa_local": 0.5,
                                     "kappa_nonlocal": 0.5},
                          "a_minus": {"family": "gaussian", "variance": 0.5}},
    "exp_poly_w": {"family": "exp_poly", "p": 1.0, "q": 4.0, "mu": 1.0,
                   "params": dict(LK1)},
}


def profile_label(task: dict) -> str:
    return f"{task['pair']}@{task['factor']:.3f}" + ("+anchor" if "anchor" in task else "")


class ProfileFamily(Workload):
    """Most tasks are one solve_profile and tail_asymptotics. Each round
    solves three pairs at c* and at one seed-drawn factor each: the
    reference Laplace pair (class V, double root at c*) in [1.1, 1.3], the
    exp_poly W pair (wide kernel, K ~ 3.9k) in (1.3, 1.7], the Gaussian pair
    with nonlocal competition (a second convolution) in (1.8, 2.2], where
    the tail Newton dominates. The factors come from pools.json, ten drawn
    once per range; the Gaussian pair fails to converge at some speeds of
    its range, and those are listed there as known defects. The reference
    pair is also solved at c = 4 twice, the second time from a seed-drawn
    anchor, and the two go through compare_up_to_shift (criterion 6). One
    transport task (criterion 7) evolves the reference profile at c = 4
    for t in [0, 2] and compares it with the shifted profile.

    A round's three c* solves are its fastest tasks and the transport task
    its slowest. The pooled-factor solves cost 1.5 to 5.5 s, so a median
    that landed on them would move with the seed; the two solves at c = 4
    sit in between, and the median of a run lands on them.

    The reference factor starts at 1.1, the smallest speed above c* that
    criterion 5 states its tail checks at: closer to c* the two decay roots
    merge and a one-rate fit cannot separate them (at 1.01 c* the fitted
    rate is 2.5% off and j reads 1.19).

    Why: stresses profile (sweeps, bulk and tail Newton, FFT and direct
    convolution rows), engine.lgmres, and through the transport task
    evolution and engine.fftconvolve; dispersion is under 1% here.
    """

    name = "profile-family"
    RANGES = (("reference", 1.1, 1.3), ("exp_poly_w", 1.3, 1.7),
              ("gaussian_nonlocal", 1.8, 2.2))
    SHIFT_SPEED = 4.0       # criterion 6's speed
    round_size = len(PROFILE_PAIRS) + len(RANGES) + 3   # + shift pair and transport
    min_tasks = 2 * round_size      # one slow solve must not decide the median

    def __init__(self, seed, root):
        super().__init__(seed, root)
        import numpy as np
        import nlkpp
        self.nk, self.np = nlkpp, np
        self.problems = {k: nlkpp.load_problem(d) for k, d in PROFILE_PAIRS.items()}
        self.reports = {k: nlkpp.minimal_speed(*pp) for k, pp in self.problems.items()}
        self.latest = {}        # latest unshifted profile per pair, for the anchor task
        self.pools = load_pools(self.name)

    def _round(self, factors):
        r = self.rng
        tasks = [{"pair": k, "factor": 1.0} for k in PROFILE_PAIRS]
        tasks += [factors[k].draw() for k, _, _ in self.RANGES]
        shift = self.SHIFT_SPEED / self.reports["reference"].c_star
        tasks.append({"pair": "reference", "factor": shift})
        tasks.append({"pair": "reference", "factor": shift, "anchor": r.uniform(3.0, 6.0)})
        for t in tasks:
            t["label"] = profile_label(t)
        tasks.append({"pair": "reference", "transport": 4.0, "label": "reference transport c=4"})
        return tasks

    def tasks(self):
        # a solve costs from 1 to 6 s across a range, so the two rounds of a
        # run draw one factor from each half of the pair's entries by cost
        factors = {k: PoolDraw(self.rng, self.pools[k], 2) for k, _, _ in self.RANGES}
        while True:
            yield from self._round(factors)

    def warm_up(self):
        # a coarse solve and a short evolve of the reference pair: loads
        # every code path without paying for production grids
        pair, params = self.problems["reference"]
        prof = self.nk.solve_profile(pair, params, 1.2 * self.reports["reference"].c_star,
                                     grid=self.nk.GridSpec(l_left=12.0, l_right=25.0, h=0.05),
                                     tol=1e-2, report=self.reports["reference"])
        self.nk.evolve(pair, params, prof, dt=0.005, horizon=0.1,
                       domain=(prof.grid[0], prof.grid[-1]), h=0.05, widen=False)

    def run(self, task):
        nk = self.nk
        key = task["pair"]
        pair, params = self.problems[key]
        rep = self.reports[key]
        if "transport" in task:
            # criterion 7's configuration
            prof = nk.solve_profile(pair, params, task["transport"],
                                    grid=nk.GridSpec(l_left=30.0, l_right=60.0, h=0.01),
                                    report=rep)
            run = nk.evolve(pair, params, prof, dt=5e-4, horizon=2.0,
                            domain=(prof.grid[0], prof.grid[-1]), h=0.01, widen=False)
            return {"profile": prof, "run": run}
        c = task["factor"] * rep.c_star
        if "anchor" in task:
            prof = nk.solve_profile(pair, params, c, anchor=task["anchor"], report=rep)
            return {"profile": prof, "fit": nk.tail_asymptotics(prof),
                    "distance": nk.compare_up_to_shift(self.latest[key], prof)}
        prof = nk.solve_profile(pair, params, c, report=rep)
        self.latest[key] = prof
        return {"profile": prof, "fit": nk.tail_asymptotics(prof)}

    def check(self, task, out):
        np = self.np
        prof = out["profile"]
        th = prof.theta
        if prof.residual_sup > RESIDUAL_TOL:
            return f"residual {prof.residual_sup:.3e}"
        if "run" in out:
            run = out["run"]
            sup = max(float(np.max(np.abs(snap - prof.interp(run.grid - prof.speed * t))))
                      for t, snap in zip(run.times, run.snapshots))
            return None if sup <= TRANSPORT_TOL else f"transport error {sup:.2e}"
        vals = np.asarray(prof.values)
        live = vals[:-1] > 1e-12
        if not bool(np.all(np.diff(vals)[live] < 0.0)):
            return "profile not strictly decreasing"
        if abs(vals[0] - th) > 1e-4 or abs(vals[-1]) > 1e-4:
            return f"end values {vals[0]!r}, {vals[-1]!r}"
        fit = out["fit"]
        rate_err = abs(fit.rate - prof.lambda_c) / prof.lambda_c
        if rate_err > TAIL_RATE_TOL:
            return f"tail rate error {rate_err:.2%}"
        if abs(fit.j_estimate - prof.multiplicity) > J_TOL:
            return f"fitted j {fit.j_estimate:.3f} vs {prof.multiplicity}"
        if "distance" in out and out["distance"] > SHIFT_TOL:
            return f"aligned distance {out['distance']:.2e}"
        return None


# ---------------------------------------------------------------------------
# one-shot CLI

CLI_POOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_pool.json")
CLI_COMMANDS = ("check", "classify", "speed", "mu-star", "truncate-sweep", "sweep")


def result_block(stdout: str) -> str:
    """The result object exactly as printed: keys are sorted, so it is the
    tail of the document after the manifest."""
    text = stdout.strip()
    key = ',"result":'
    i = text.find(key)
    return text[i + len(key):-1] if i >= 0 and text.endswith("}") else ""


def numbers_agree(a, b) -> bool:
    """Same structure and strings; numbers equal to REL_TOL relative."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(numbers_agree(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(numbers_agree(x, y) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or a is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    return False


def cli_argv(entry: dict, workdir: str) -> list:
    """Writes the entry's problem or points file under workdir and returns
    the CLI arguments."""
    argv = [entry["command"]]
    if "problem" in entry:
        path = os.path.join(workdir, f"{entry['id']}.json")
        with open(path, "w") as fh:
            json.dump(entry["problem"], fh)
        argv += ["--kernel", path]
    if "points" in entry:
        path = os.path.join(workdir, f"{entry['id']}-points.json")
        with open(path, "w") as fh:
            json.dump(entry["points"], fh)
        argv += ["--points", path]
    return argv + entry["args"]


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliOneshot(Workload):
    """One task is one fresh `python -m nlkpp.cli ...` process. Commands
    rotate through check, classify, speed --c, mu-star, truncate-sweep and a
    10-point sweep in a seeded order; the seed also orders the recorded
    problems each command walks through in cli_pool.json (problem files in the
    README format, with the exit codes and result blocks the seed revision
    printed for them).

    Why: stresses interpreter start-up, `import nlkpp` and the CLI's
    argument and JSON plumbing; the computation is a few ms of a ~1.5 s
    invocation, so this is the only workload where import cost shows.
    """

    name = "cli-oneshot"
    round_size = len(CLI_COMMANDS)
    # a round takes 8-10 s, so a 15-20 s run would stop after two rounds or
    # three depending on the host's speed; three rounds give every run
    # three problems per command
    min_tasks = 3 * round_size
    in_process = False

    def __init__(self, seed, root):
        super().__init__(seed, root)
        with open(CLI_POOL) as fh:
            pool = json.load(fh)["entries"]
        self.by_command = {c: [e for e in pool if e["command"] == c] for c in CLI_COMMANDS}
        self.workdir = os.path.join(root, ".perfbench", f"cli-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.env = cli_env(root)
        self.identical = 0
        self.startup_s, self.duration_s = [], []
        self._validate = None

    def tasks(self):
        # each command walks its entries in a seeded order and repeats one
        # only after all have run, so one slow entry is in a run at most once
        # per cycle
        commands = list(CLI_COMMANDS)
        order = {c: [] for c in commands}
        while True:
            self.rng.shuffle(commands)
            for command in commands:
                if not order[command]:
                    order[command] = self.rng.sample(self.by_command[command],
                                                     len(self.by_command[command]))
                entry = order[command].pop()
                yield {"label": f"{command}:{entry['id']}", "entry": entry,
                       "argv": cli_argv(entry, self.workdir)}

    def warm_up(self):
        entry = self.by_command["check"][0]
        self.run({"entry": entry, "argv": cli_argv(entry, self.workdir)})

    def run(self, task):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "nlkpp.cli"] + task["argv"],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)
        return {"code": proc.returncode, "stdout": proc.stdout,
                "wall_s": time.perf_counter() - t0}

    def check(self, task, out):
        if out["code"] != 0:
            return f"exit code {out['code']}"
        if self._validate is None:
            from nlkpp.cli import validate_document
            self._validate = validate_document
        try:
            doc = json.loads(out["stdout"])
            self._validate(doc)
        except Exception as exc:  # any parse or schema failure fails the task
            return f"invalid document: {type(exc).__name__}: {exc}"
        duration = float(doc["manifest"]["duration_s"])
        self.duration_s.append(duration)
        self.startup_s.append(out["wall_s"] - duration)
        entry = task["entry"]
        if entry["code"] != 0:
            return f"recorded run exited {entry['code']}: no result to compare with"
        block = result_block(out["stdout"])
        if block == entry["result"]:
            self.identical += 1
        if not numbers_agree(doc["result"], json.loads(entry["result"])):
            return "result numbers differ from the recorded ones"
        return None

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (DispersionSweep, ProfileFamily, CliOneshot)}
