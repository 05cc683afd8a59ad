"""Command-line entry point.

Every invocation prints one JSON document {"manifest": ..., "result": ...}
(or {"manifest": ..., "error": ...}) to stdout and optionally writes it,
plus CSV tables, under --out. Exit codes: 0 success, 1 usage error,
2 assumption failure (Q1..Q7, no-wave, c-zero), 3 non-convergence.

Floats are serialized with 17 significant digits and dict keys are sorted,
so identical manifests reproduce byte-identical result blocks; the
manifest's duration field is the one intentionally volatile value.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .dispersion import (characteristic, classify, g_function, minimal_speed,
                         mu_star, mu_star_bracket, speed_to_abscissa, t_function)
from .errors import AssumptionFailure, NonConvergence, UsageError
from .evolution import evolve, step_data
from .kernels import Params, check_assumptions, load_problem, params_from_dict, theta
from .profile import GridSpec, compare_up_to_shift, solve_profile, tail_asymptotics
from .truncation import c_star_sequence


# ---------------------------------------------------------------------------
# serialization

def _jval(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if math.isnan(v):
            return '"nan"'
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return format(v, ".17g")
    if x is None:
        return "null"
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, dict):
        items = sorted(x.items())
        return "{" + ",".join(f"{json.dumps(str(k))}:{_jval(v)}" for k, v in items) + "}"
    if isinstance(x, (list, tuple, np.ndarray)):
        return "[" + ",".join(_jval(v) for v in x) + "]"
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dumps(doc: dict) -> str:
    return _jval(doc)


def validate_document(doc: dict) -> None:
    """Structural check mirroring schemas/result.schema.json; raises
    UsageError on the first violation."""
    if not isinstance(doc, dict):
        raise UsageError("document must be an object")
    man = doc.get("manifest")
    if not isinstance(man, dict):
        raise UsageError("document lacks a manifest object")
    for key, typ in (("command", str), ("inputs", list), ("params", dict),
                     ("tolerances", dict), ("version", str)):
        if not isinstance(man.get(key), typ):
            raise UsageError(f"manifest field {key!r} missing or mistyped")
    if not isinstance(man.get("duration_s"), (int, float)):
        raise UsageError("manifest field 'duration_s' missing or mistyped")
    if ("result" in doc) == ("error" in doc):
        raise UsageError("document must carry exactly one of result/error")
    if "error" in doc:
        err = doc["error"]
        if not isinstance(err, dict) or "type" not in err or "message" not in err:
            raise UsageError("error block needs type and message")


# ---------------------------------------------------------------------------
# input plumbing

def _parse_params_text(text: str) -> dict:
    text = text.strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad inline JSON parameters: {exc}") from exc
    out = {}
    for item in text.split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise UsageError(f"bad inline parameter {item!r}; want key=value")
        k, v = item.split("=", 1)
        try:
            out[k.strip()] = float(v)
        except ValueError as exc:
            raise UsageError(f"bad inline parameter {item!r}: {exc}") from exc
    return out


def _resolve_problem(args, manifest):
    """(pair, params) from --kernel and --params. Each input path goes into
    the manifest before it is read and the parameters once they are known,
    so an error document names the problem it failed on."""
    inputs = manifest["inputs"]
    pair, params = None, None
    if getattr(args, "kernel", None):
        inputs.append(args.kernel)
        pair, params = load_problem(args.kernel)
    if getattr(args, "params", None):
        raw = args.params
        if os.path.exists(raw):
            inputs.append(raw)
            try:
                with open(raw) as fh:
                    d = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"cannot read parameter file {raw}: {exc}") from exc
        else:
            d = _parse_params_text(raw)
        params = params_from_dict(d)
    if pair is None:
        raise UsageError("a kernel file is required (--kernel FILE)")
    if params is None:
        raise UsageError("no parameters: give --params or a params block "
                         "in the kernel file")
    manifest["params"] = dataclasses.asdict(params)
    return pair, params


# parsed arguments that are not run options: the command, the problem
# (recorded as inputs and params) and where the output goes
_NOT_OPTIONS = {"command", "kernel", "params", "points", "out", "csv", "snapshots",
                *(f.name for f in dataclasses.fields(Params))}


def _tolerances(args) -> dict:
    """Every option set for the run, defaults included, read off the parsed
    arguments so that a new flag is recorded without being listed here."""
    return {k.replace("_", "-"): v for k, v in vars(args).items()
            if v is not None and k not in _NOT_OPTIONS}


def _given(**options) -> dict:
    """The options set on the command line; the library holds the defaults."""
    return {k: v for k, v in options.items() if v is not None}


def _grid_spec(args) -> GridSpec:
    return GridSpec(l_left=args.grid_l, l_right=args.grid_l, h=args.grid_h)


def _dispersion_csvs(args, pair, params):
    """With --csv, (lambda, G, T, h) rows on a fixed geometric grid below the
    abscissa, h at --c or else at c*."""
    if not args.csv:
        return {}
    rep = minimal_speed(pair, params)
    c_for_h = args.c if args.c is not None else rep.c_star
    lams = np.geomspace(rep.lambda_star / 30.0,
                        min(3.0 * rep.lambda_star, 0.995 * rep.sigma_plus), 60)
    rows = [("lambda", "G", "T", "h")]
    for lam in lams:
        rows.append((lam, g_function(pair.a_plus, params, lam),
                     t_function(pair.a_plus, params, lam),
                     characteristic(pair.a_plus, params, c_for_h, lam)))
    return {"dispersion.csv": rows}


# ---------------------------------------------------------------------------
# subcommand handlers: record their inputs and parameters in the manifest,
# and return (result dict, {csv name: rows})

def _cmd_check(args, manifest):
    pair, params = _resolve_problem(args, manifest)
    report = check_assumptions(pair, params)
    result = {"assumptions": report.to_dict()}
    try:
        result["theta"] = theta(params)
    except AssumptionFailure:
        pass
    # hard failures flip the exit code; undecidable entries only report
    hard = [l for l in sorted(report.entries) if report.status(l) == "fails"]
    if hard:
        exc = AssumptionFailure(hard[0], f"assumption {hard[0]} fails "
                                f"(diagnostic {report.diagnostic(hard[0]):.6g})")
        exc.diagnostics = report.to_dict()
        raise exc
    return result, {}


def _cmd_classify(args, manifest):
    if args.c is not None and not args.csv:
        # the class and c* do not depend on a speed; only the table's h does
        raise UsageError("classify reads --c only for the h column of --csv; "
                         "drop --c or add --csv --out DIR")
    pair, params = _resolve_problem(args, manifest)
    try:
        rep = minimal_speed(pair, params)
    except NonConvergence:  # the class needs the endpoint only, not c*
        return {"kernel_class": classify(pair, params),
                "sigma_plus": pair.a_plus.sigma_right}, {}
    return rep.to_dict(), _dispersion_csvs(args, pair, params)


def _cmd_speed(args, manifest):
    pair, params = _resolve_problem(args, manifest)
    result = minimal_speed(pair, params).to_dict()
    if args.c is not None:
        result["at_speed"] = speed_to_abscissa(pair, params, args.c).to_dict()
    return result, _dispersion_csvs(args, pair, params)


def _cmd_profile(args, manifest):
    pair, params = _resolve_problem(args, manifest)
    if args.c is None:
        raise UsageError("profile needs --c")
    prof = solve_profile(pair, params, args.c, grid=_grid_spec(args),
                         **_given(tol=args.tol))
    fit = tail_asymptotics(prof)
    result = {"speed": prof.speed, "lambda_c": prof.lambda_c,
              "multiplicity": prof.multiplicity, "theta": prof.theta,
              "residual_sup": prof.residual_sup, "shift_mode": prof.shift_mode,
              "grid_points": len(prof.grid), "grid_h": prof.h,
              "grid_span": [float(prof.grid[0]), float(prof.grid[-1])],
              "tail_fit": fit.to_dict()}
    csvs = {}
    if args.csv:
        rows = [("s", "psi")] + [(float(s), float(v))
                                 for s, v in zip(prof.grid, prof.values)]
        csvs["profile.csv"] = rows
    return result, csvs


def _cmd_uniqueness(args, manifest):
    pair, params = _resolve_problem(args, manifest)
    if args.c is None:
        raise UsageError("uniqueness needs --c")
    delta = args.anchor_delta
    p1 = solve_profile(pair, params, args.c, grid=_grid_spec(args))
    p2 = solve_profile(pair, params, args.c, grid=_grid_spec(args), anchor=delta)
    for prof in (p1, p2):   # a tail the grid does not resolve is refused, as by profile
        tail_asymptotics(prof)
    dist = compare_up_to_shift(p1, p2)
    return {"speed": args.c, "anchors": [0.0, delta],
            "residuals": [p1.residual_sup, p2.residual_sup],
            "aligned_distance": dist}, {}


def _initial_condition(args, params, manifest):
    """The --u0 datum; a profile CSV is an input, refused at any bad row but a header."""
    th = theta(params)
    shape = args.u0
    if shape == "step":
        return step_data(args.u0_x0, th)
    if shape.startswith("profile-csv:"):
        path = shape.split(":", 1)[1]
        manifest["inputs"].append(path)
        try:
            with open(path) as fh:
                lines = [(i, ln.strip()) for i, ln in enumerate(fh, 1)]
        except OSError as exc:
            raise UsageError(f"cannot read profile CSV {path}: {exc}") from exc
        lines = [(i, ln) for i, ln in lines if ln and not ln.startswith("#")]
        rows = []
        for k, (lineno, line) in enumerate(lines):
            try:
                s, psi = (float(v) for v in line.split(","))
                rows.append((s, psi))
            except ValueError:
                if k > 0:       # the first line may be a header
                    raise UsageError(f"profile CSV {path}, line {lineno}: "
                                     f"{line!r} is not an s,psi row") from None
        if len(rows) < 2:
            raise UsageError(f"profile CSV {path} has no (s, psi) rows")
        grid, vals = np.array(rows).T
        if not np.all(np.diff(grid) > 0.0):   # np.interp needs increasing nodes
            raise UsageError(f"profile CSV {path}: the s column must increase strictly")

        def u0(x):
            return np.clip(np.interp(x, grid, vals), 0.0, th)
        return u0
    if shape.startswith("exp:"):
        text = shape.split(":", 1)[1]
        try:
            rate = float(text)
        except ValueError:
            raise UsageError(f"bad decay rate {text!r} in --u0 {shape!r}; "
                             "use exp:RATE with a number") from None
        x0 = args.u0_x0

        def u0(x):
            return th * np.minimum(1.0, np.exp(-rate * (np.asarray(x) - x0)))
        return u0
    raise UsageError(f"unknown initial condition {shape!r}; use step, "
                     "profile-csv:PATH, or exp:RATE")


def _cmd_evolve(args, manifest):
    pair, params = _resolve_problem(args, manifest)
    if args.dt is None or args.horizon is None:
        raise UsageError("evolve needs --dt and --horizon")
    u0 = _initial_condition(args, params, manifest)
    try:
        lo, hi = (float(v) for v in args.domain.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --domain {args.domain!r}; want lo,hi") from exc
    run = evolve(pair, params, u0, args.dt, args.horizon, domain=(lo, hi),
                 snapshot_dt=args.snapshot_dt, **_given(h=args.grid_h))
    result = run.summary()
    csvs = {}
    if args.csv:
        csvs["front.csv"] = [("t", "front_position"),
                             *zip(run.times.tolist(), run.front_positions.tolist())]
        if args.snapshots:      # a snapshot taken before a widening reads 0 past its end
            table = np.zeros((len(run.grid), len(run.snapshots)))
            for j, snap in enumerate(run.snapshots):
                table[:len(snap), j] = snap
            csvs["snapshots.csv"] = [("x", *(f"t={t:.10g}" for t in run.times))] + [
                (x, *row) for x, row in zip(run.grid.tolist(), table.tolist())]
    return result, csvs


def _cmd_truncate_sweep(args, manifest):
    pair, params = _resolve_problem(args, manifest)
    try:
        radii = [float(r) for r in args.radii.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad --radii {args.radii!r}; want R1,R2,...") from exc
    trace = c_star_sequence(pair, params, radii)
    csvs = {}
    if args.csv:
        csvs["truncation.csv"] = [("R", "A_plus", "theta_R", "lambda_star_n",
                                   "c_star_n", "gap")] + trace.rows()
    return trace.to_dict(), csvs


def _cmd_mu_star(args, manifest):
    if args.q is None:
        raise UsageError("mu-star needs --q")
    params = Params(args.kappa_plus, args.m, args.kappa_local, args.kappa_nonlocal)
    manifest["params"] = dataclasses.asdict(params)
    mu = mu_star(args.q, params)
    lo, hi = mu_star_bracket(args.q, params, mu)
    return {"q": args.q, "mu_star": mu, "bracket": [lo, hi],
            "inside_bracket": bool(lo < mu < hi)}, {}


def _sweep_point(task, payload):
    try:
        if not isinstance(payload, dict):
            # a string or a number here would be opened as a path or a descriptor
            raise UsageError(f"a sweep point is a problem object; got {type(payload).__name__}")
        pair, params = load_problem(payload)
        if task == "check":
            rep = check_assumptions(pair, params)
            return {"assumptions": rep.to_dict()}
        if task == "classify":
            return {"kernel_class": classify(pair, params)}
        rep = minimal_speed(pair, params)
        return rep.to_dict()
    except (UsageError, AssumptionFailure, NonConvergence) as exc:
        return {"error": _error_block(exc)}


def _cmd_sweep(args, manifest):
    if not args.points:
        raise UsageError("sweep needs --points FILE (a JSON array of problems)")
    try:
        with open(args.points) as fh:
            points = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read points file {args.points}: {exc}") from exc
    manifest["inputs"] = [args.points]
    if not isinstance(points, list):
        raise UsageError("--points must contain a JSON array")
    if args.task not in ("check", "classify", "speed"):
        raise UsageError(f"unknown sweep task {args.task!r}")
    results = [{"index": i, **_sweep_point(args.task, p)} for i, p in enumerate(points)]
    return {"task": args.task, "n_points": len(points),
            "points": results}, {}


_HANDLERS = {
    "check": _cmd_check, "classify": _cmd_classify, "speed": _cmd_speed,
    "profile": _cmd_profile, "uniqueness": _cmd_uniqueness,
    "evolve": _cmd_evolve, "truncate-sweep": _cmd_truncate_sweep,
    "mu-star": _cmd_mu_star, "sweep": _cmd_sweep,
}


# ---------------------------------------------------------------------------
# wiring

class _Parser(argparse.ArgumentParser):
    # let values like "-30,30" reach --domain without the "=" form
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self._negative_number_matcher = re.compile(r"^-\d+[\d.,eE+-]*$")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="nlkpp",
        description="Traveling-wave toolkit for the doubly nonlocal "
                    "reaction-dispersal equation")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, kernel=True, csv=False):
        if kernel:
            p.add_argument("--kernel", help="JSON kernel/problem file")
            p.add_argument("--params", help="JSON file, inline JSON, or "
                                            "key=value,... parameter block")
        p.add_argument("--out", help="directory for JSON/CSV artifacts")
        if csv:     # only commands whose handlers return tables
            p.add_argument("--csv", action="store_true",
                           help="also write CSV tables under --out")

    common(sub.add_parser("check"))
    for name in ("classify", "speed"):
        p = sub.add_parser(name)
        common(p, csv=True)
        p.add_argument("--c", type=float, help="wave speed of interest")

    p = sub.add_parser("profile")
    common(p, csv=True)
    p.add_argument("--c", type=float, required=False)
    p.add_argument("--grid-l", type=float, help="half-length override")
    p.add_argument("--grid-h", type=float, help="grid step override")
    p.add_argument("--tol", type=float, help="residual tolerance (default 1e-6)")

    p = sub.add_parser("uniqueness")
    common(p)
    p.add_argument("--c", type=float, required=False)
    p.add_argument("--grid-l", type=float)
    p.add_argument("--grid-h", type=float)
    p.add_argument("--anchor-delta", type=float, default=5.0)

    p = sub.add_parser("evolve")
    common(p, csv=True)
    p.add_argument("--u0", default="step",
                   help="step | profile-csv:PATH | exp:RATE")
    p.add_argument("--u0-x0", type=float, default=0.0)
    p.add_argument("--dt", type=float)
    p.add_argument("--horizon", "--T", dest="horizon", type=float)
    p.add_argument("--snapshot-dt", type=float)
    p.add_argument("--domain", default="-30,30")
    p.add_argument("--grid-h", type=float)
    p.add_argument("--snapshots", action="store_true",
                   help="with --csv, also write full snapshots")

    p = sub.add_parser("truncate-sweep")
    common(p, csv=True)
    p.add_argument("--radii", default="2,5,10,20,40")

    p = sub.add_parser("mu-star")
    common(p, kernel=False)
    p.add_argument("--q", type=float)
    p.add_argument("--kappa-plus", type=float, default=2.0)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--kappa-local", type=float, default=1.0)
    p.add_argument("--kappa-nonlocal", type=float, default=0.0)

    p = sub.add_parser("sweep")
    common(p, kernel=False)
    p.add_argument("--points", help="JSON array of problem objects")
    p.add_argument("--task", default="speed")
    return ap


def _error_block(exc) -> dict:
    block = {"type": type(exc).__name__, "message": str(exc)}
    label = getattr(exc, "label", None)
    if label:
        block["label"] = label
    diags = getattr(exc, "diagnostics", None)
    if diags:
        block["diagnostics"] = diags
    return block


def _emit(doc: dict, args) -> None:
    text = dumps(doc)
    print(text)
    out = getattr(args, "out", None)
    if out:
        os.makedirs(out, exist_ok=True)
        name = f"{doc['manifest']['command']}.json"
        with open(os.path.join(out, name), "w") as fh:
            fh.write(text + "\n")


def _emit_csvs(csvs: dict, args) -> None:
    out = getattr(args, "out", None)
    if not csvs or not out:
        return
    cmd = args.command
    for name, rows in csvs.items():
        path = os.path.join(out, name)
        with open(path, "w") as fh:
            fh.write(f"# manifest: {cmd}.json\n")
            for row in rows:
                fh.write(",".join(
                    v if isinstance(v, str) else format(float(v), ".17g")
                    for v in row) + "\n")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    t0 = time.perf_counter()
    manifest = {"command": args.command, "inputs": [], "params": {},
                "tolerances": _tolerances(args), "version": __version__,
                "duration_s": 0.0}
    try:
        if getattr(args, "csv", False) and not getattr(args, "out", None):
            raise UsageError("--csv requires --out DIR")
        result, csvs = _HANDLERS[args.command](args, manifest)
        manifest["duration_s"] = time.perf_counter() - t0
        doc = {"manifest": manifest, "result": result}
        validate_document(doc)
        _emit(doc, args)
        _emit_csvs(csvs, args)
        return 0
    except UsageError as exc:
        code, err = 1, _error_block(exc)
    except AssumptionFailure as exc:
        code, err = 2, _error_block(exc)
    except NonConvergence as exc:
        code, err = 3, _error_block(exc)
    manifest["duration_s"] = time.perf_counter() - t0
    _emit({"manifest": manifest, "error": err}, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
