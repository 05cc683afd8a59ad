"""Spans and counters around the package's public functions.

The package has no telemetry of its own yet, so the traced run wraps the
functions from outside: every module global of an nlkpp module that is one
of the listed functions is replaced by a wrapper, the kernel families'
transform methods are wrapped in place, and the scipy engine calls are
wrapped before nlkpp is imported (so `from scipy.signal import fftconvolve`
binds the wrapper). Spans stay in memory and are written when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import warnings

# span name -> (module, public function); kernels.transform is handled
# separately because it is a method of every kernel family
SPANS = (
    ("kernels.check_assumptions", "nlkpp.kernels", "check_assumptions"),
    ("kernels.transform", None, None),
    ("kernels.load_problem", "nlkpp.kernels", "load_problem"),
    ("laplace.bilateral_laplace", "nlkpp.laplace", "bilateral_laplace"),
    ("laplace.abscissa", "nlkpp.laplace", "abscissa"),
    ("dispersion.minimal_speed", "nlkpp.dispersion", "minimal_speed"),
    ("dispersion.classify", "nlkpp.dispersion", "classify"),
    ("dispersion.speed_to_abscissa", "nlkpp.dispersion", "speed_to_abscissa"),
    ("dispersion.root_multiplicity", "nlkpp.dispersion", "root_multiplicity"),
    ("dispersion.mu_star", "nlkpp.dispersion", "mu_star"),
    ("truncation.c_star_sequence", "nlkpp.truncation", "c_star_sequence"),
    ("profile.solve_profile", "nlkpp.profile", "solve_profile"),
    ("profile.tail_asymptotics", "nlkpp.profile", "tail_asymptotics"),
    ("profile.compare_up_to_shift", "nlkpp.profile", "compare_up_to_shift"),
    ("evolution.evolve", "nlkpp.evolution", "evolve"),
    ("engine.quad", "scipy.integrate", "quad"),
    ("engine.fftconvolve", "scipy.signal", "fftconvolve"),
    ("engine.lgmres", "scipy.sparse.linalg", "lgmres"),
)
SPAN_NAMES = tuple(s[0] for s in SPANS)

# (name, unit) of every counter the traced run reports
COUNTERS = (
    ("engine.quad.warnings", "count"),
    ("engine.fftconvolve.points", "count"),   # computed: sum of input lengths
    ("engine.lgmres.iterations", "count"),
    ("profile.grid_points", "count"),
    ("evolution.steps", "count"),
    ("evolution.cell_steps", "count"),        # computed from snapshot lengths
    ("evolution.grid_points_final", "count"),
    ("evolution.step_us", "us"),
    ("import.nlkpp_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.duration_s", "s"),
    ("cli.result_identical", "count"),
    ("trace.overhead_s", "s"),
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    return units


class Tracer:
    """Records spans only while `active`; checks and warm-up run inactive."""

    def __init__(self):
        self.active = False
        self.task = -1
        self.spans = []          # (name, start, end, parent index, task)
        self.stack = []          # [span index, name, child time]
        self.stats = {n: [0, 0.0, 0.0] for n in SPAN_NAMES}   # calls, total, self
        self.counts = dict.fromkeys((n for n, _ in COUNTERS), 0)
        self.overhead = 0.0
        self.originals = {}      # original function -> its wrapper

    def wrap(self, name, fn, after=None, call=None):
        """Span around fn. `call(fn, args, kwargs)` replaces the plain call
        (engine hooks), `after(result, args, kwargs)` updates counters.
        A call nested directly in a span of the same name (a family's
        transform deferring to the base class) belongs to the outer span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (tracer.stack and tracer.stack[-1][1] == name):
                return fn(*args, **kwargs)
            t_in = time.perf_counter()
            parent = tracer.stack[-1][0] if tracer.stack else -1
            frame = [len(tracer.spans), name, 0.0]
            tracer.spans.append(None)
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = call(fn, args, kwargs) if call else fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                dur = t1 - t0
                tracer.spans[frame[0]] = (name, t0, t1, parent, tracer.task)
                st = tracer.stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                if tracer.stack:
                    tracer.stack[-1][2] += dur
            if after:
                after(result, args, kwargs)
            tracer.overhead += (t0 - t_in) + (time.perf_counter() - t1)
            return result

        return wrapper

    # -- engine hooks -------------------------------------------------------

    def _quad_call(self, fn, args, kwargs):
        from scipy.integrate import IntegrationWarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IntegrationWarning)
            result = fn(*args, **kwargs)
        for w in caught:
            if issubclass(w.category, IntegrationWarning):
                self.counts["engine.quad.warnings"] += 1
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result

    def _fft_after(self, result, args, kwargs):
        a = args[0] if args else kwargs["in1"]
        b = args[1] if len(args) > 1 else kwargs["in2"]
        self.counts["engine.fftconvolve.points"] += len(a) + len(b)

    def _lgmres_call(self, fn, args, kwargs):
        user = kwargs.get("callback")

        def count(xk):
            self.counts["engine.lgmres.iterations"] += 1
            if user:
                user(xk)

        kwargs["callback"] = count
        return fn(*args, **kwargs)

    def _profile_after(self, result, args, kwargs):
        self.counts["profile.grid_points"] += len(result.grid)

    def _evolve_after(self, run, args, kwargs):
        steps = round(float(run.times[-1]) / run.dt)
        cells, prev = 0, 0
        # widening happens right after a snapshot, so the steps up to
        # snapshot k ran on a grid of that snapshot's length
        for t, snap in zip(run.times[1:], run.snapshots[1:]):
            k = round(float(t) / run.dt)
            cells += (k - prev) * len(snap)
            prev = k
        self.counts["evolution.steps"] += steps
        self.counts["evolution.cell_steps"] += cells
        self.counts["evolution.grid_points_final"] = len(run.grid)

    # -- installation -------------------------------------------------------

    def patch_engine(self):
        """Wrap the scipy calls; must run before nlkpp is imported."""
        import scipy.integrate
        import scipy.signal
        import scipy.sparse.linalg
        hooks = {"engine.quad": {"call": self._quad_call},
                 "engine.fftconvolve": {"after": self._fft_after},
                 "engine.lgmres": {"call": self._lgmres_call}}
        for name, mod, attr in SPANS:
            if name in hooks:
                module = sys.modules[mod]
                orig = getattr(module, attr)
                self.originals[orig] = self.wrap(name, orig, **hooks[name])
                setattr(module, attr, self.originals[orig])

    def patch_nlkpp(self):
        """Wrap the package's public functions wherever a module binds them,
        and the transform methods of every kernel family."""
        import nlkpp.kernels as kernels
        hooks = {"profile.solve_profile": {"after": self._profile_after},
                 "evolution.evolve": {"after": self._evolve_after}}
        for name, mod, attr in SPANS:
            if mod and mod.startswith("nlkpp"):
                orig = getattr(sys.modules[mod], attr)
                self.originals[orig] = self.wrap(name, orig, **hooks.get(name, {}))
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "nlkpp" or n.startswith("nlkpp."))]
        for module in modules:
            for key, value in list(vars(module).items()):
                try:
                    wrapper = self.originals.get(value)
                except TypeError:       # unhashable global
                    continue
                if wrapper is not None:
                    setattr(module, key, wrapper)
        for cls in vars(kernels).values():
            if isinstance(cls, type) and issubclass(cls, kernels.Kernel):
                for meth in ("transform", "transform_deriv"):
                    if meth in cls.__dict__:
                        setattr(cls, meth, self.wrap("kernels.transform", cls.__dict__[meth]))

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        steps = self.counts["evolution.steps"]
        if steps:
            out["evolution.step_us"] = 1e6 * self.stats["evolution.evolve"][1] / steps
        out["trace.overhead_s"] = self.overhead
        return out

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "task"],
                       "spans": self.spans}, fh)
