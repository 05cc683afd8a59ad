"""Command-line surface: exit codes, document shape, determinism, CSV."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlkpp
from nlkpp.cli import dumps, main, validate_document
from nlkpp.errors import UsageError

LK1_DOC = {
    "family": "laplace", "mu": 1.0,
    "params": {"kappa_plus": 2.0, "m": 1.0, "kappa_local": 1.0,
               "kappa_nonlocal": 0.0},
}


@pytest.fixture()
def kernel_file(tmp_path):
    p = tmp_path / "lk1.json"
    p.write_text(json.dumps(LK1_DOC))
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def _source_tree_env():
    """The environment with the directory of the imported nlkpp package first
    on PYTHONPATH, so that a fresh interpreter imports the same code."""
    src = str(Path(nlkpp.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# ---------------------------------------------------------------------------
# serialization

def test_dumps_17_digits():
    text = dumps({"x": 1.0 / 3.0})
    assert text == '{"x":0.33333333333333331}'


def test_dumps_sorted_and_typed():
    text = dumps({"b": True, "a": 2, "c": [1.5, None, "s"],
                  "d": float("inf"), "e": float("nan")})
    assert text == '{"a":2,"b":true,"c":[1.5,null,"s"],"d":"inf","e":"nan"}'


def test_dumps_numpy_scalars():
    assert dumps({"v": np.float64(0.5)}) == '{"v":0.5}'
    assert dumps({"v": np.int64(3)}) == '{"v":3}'
    assert dumps({"v": np.array([1.0, 2.0])}) == '{"v":[1,2]}'


def test_validate_document():
    ok = {"manifest": {"command": "speed", "inputs": [], "params": {},
                       "tolerances": {}, "version": "0.1.0",
                       "duration_s": 0.1},
          "result": {}}
    validate_document(ok)
    with pytest.raises(UsageError):
        validate_document({"result": {}})
    both = dict(ok, error={"type": "X", "message": "y"})
    with pytest.raises(UsageError):
        validate_document(both)
    bare = {"manifest": dict(ok["manifest"])}
    with pytest.raises(UsageError):
        validate_document(bare)


def test_shipped_schema_parses():
    import nlkpp
    path = os.path.join(os.path.dirname(nlkpp.__file__), "schemas",
                        "result.schema.json")
    with open(path) as fh:
        schema = json.load(fh)
    assert schema["properties"]["manifest"]["required"] == [
        "command", "inputs", "params", "tolerances", "version", "duration_s"]


# ---------------------------------------------------------------------------
# happy paths

def test_speed_document(kernel_file, capsys):
    code, doc = run_cli(capsys, "speed", "--kernel", kernel_file)
    assert code == 0
    validate_document(doc)
    assert doc["manifest"]["command"] == "speed"
    assert doc["manifest"]["inputs"] == [kernel_file]
    assert abs(doc["result"]["c_star"] - 3.3301906767855614) < 1e-12
    assert doc["result"]["kernel_class"] == "V"


def test_speed_at_speed_block(kernel_file, capsys):
    code, doc = run_cli(capsys, "speed", "--kernel", kernel_file, "--c", "4.0")
    assert code == 0
    assert doc["result"]["at_speed"]["multiplicity"] == 1
    assert 0 < doc["result"]["at_speed"]["lambda_c"] < 1


def test_check_document(kernel_file, capsys):
    code, doc = run_cli(capsys, "check", "--kernel", kernel_file)
    assert code == 0
    statuses = {q: e["status"] for q, e in doc["result"]["assumptions"].items()}
    assert statuses == {f"Q{i}": "holds" for i in range(1, 8)}
    assert doc["result"]["theta"] == 1.0


def test_params_inline_override(kernel_file, capsys):
    code, doc = run_cli(capsys, "speed", "--kernel", kernel_file,
                        "--params", "kappa_plus=8,m=1,kappa_local=1")
    assert code == 0
    assert doc["manifest"]["params"]["kappa_plus"] == 8
    assert doc["result"]["c_star"] > 3.3302


@pytest.mark.parametrize("block", [{"kappa_plus": 2, "m": 1},
                                   {"kappa_plus": 2, "m": 1, "kappa_nonlocal": 0.5}],
                         ids=["no-competition-fields", "nonlocal-only"])
def test_params_file_and_inline_agree(block, capsys, tmp_path):
    # omitted fields take Params' defaults on both paths
    p = tmp_path / "prob.json"
    p.write_text(json.dumps({"family": "laplace", "mu": 1.0, "params": block}))
    inline = ",".join(f"{k}={v}" for k, v in block.items())
    code_f, doc_f = run_cli(capsys, "check", "--kernel", str(p))
    code_i, doc_i = run_cli(capsys, "check", "--kernel", str(p), "--params", inline)
    assert code_f == code_i == 0
    assert doc_f["manifest"]["params"] == doc_i["manifest"]["params"]
    assert doc_f["manifest"]["params"]["kappa_local"] == 1.0


def test_mu_star_document(capsys):
    code, doc = run_cli(capsys, "mu-star", "--q", "3")
    assert code == 0
    r = doc["result"]
    assert abs(r["mu_star"] - 0.9451431327) < 1e-8
    assert r["bracket"][0] < r["mu_star"] < r["bracket"][1]
    assert r["inside_bracket"] is True


def test_determinism_of_result_block(kernel_file, capsys):
    docs = []
    texts = []
    for _ in range(2):
        code = main(["classify", "--kernel", kernel_file])
        assert code == 0
        text = capsys.readouterr().out
        texts.append(text)
        docs.append(json.loads(text))
    # identical manifests give byte-identical result blocks; only the
    # duration field may move
    r0 = texts[0].split('"result":', 1)[1]
    r1 = texts[1].split('"result":', 1)[1]
    assert r0 == r1
    assert docs[0]["manifest"]["version"] == docs[1]["manifest"]["version"]


@pytest.mark.parametrize("argv,counts", [
    (["classify"], {"check_assumptions": 1, "_classify": 1, "minimal_speed": 1}),
    (["profile", "--c", "4"], {"check_assumptions": 1, "minimal_speed": 1}),
    # one check inside minimal_speed, then one per solve of this pair
    (["uniqueness", "--c", "4"], {"check_assumptions": 3, "minimal_speed": 1}),
], ids=["classify", "profile", "uniqueness"])
def test_setup_runs_once_per_command(argv, counts, kernel_file, capsys, monkeypatch):
    """The Q1..Q7 check and the dispersion analysis are set-up work: a
    command does each once per problem, not once per function it calls."""
    from nlkpp import cli, dispersion, profile

    calls = dict.fromkeys(counts, 0)

    def counted(name, fn):
        def wrapper(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)
        return wrapper

    # all three names are globals of nlkpp.dispersion; the others import them
    wrapped = {name: counted(name, getattr(dispersion, name)) for name in counts}
    for mod in (cli, profile, dispersion):
        for name, fn in wrapped.items():
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, fn)
    code, _doc = run_cli(capsys, argv[0], "--kernel", kernel_file, *argv[1:])
    assert code == 0
    assert calls == counts


# ---------------------------------------------------------------------------
# exit codes and error documents

def test_usage_error_exit_1(capsys):
    code, doc = run_cli(capsys, "speed")
    assert code == 1
    assert doc["error"]["type"] == "UsageError"


def test_missing_file_exit_1(capsys, tmp_path):
    code, doc = run_cli(capsys, "speed", "--kernel",
                        str(tmp_path / "nope.json"))
    assert code == 1


@pytest.mark.parametrize("u0", ["exp:abc", "exp:"])
def test_evolve_bad_exp_rate_exit_1(kernel_file, capsys, u0):
    code, doc = run_cli(capsys, "evolve", "--kernel", kernel_file, "--u0", u0,
                        "--dt", "0.01", "--horizon", "0.1")
    assert code == 1
    assert doc["error"]["type"] == "UsageError"
    assert repr(u0.split(":", 1)[1]) in doc["error"]["message"]


def test_assumption_failure_exit_2(capsys, tmp_path):
    bad = dict(LK1_DOC, params={"kappa_plus": 0.5, "m": 1.0,
                                "kappa_local": 1.0})
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code, doc = run_cli(capsys, "check", "--kernel", str(p))
    assert code == 2
    assert doc["error"]["label"] == "Q1"
    # the full report rides along for post-mortems
    assert doc["error"]["diagnostics"]["Q1"]["status"] == "fails"


def test_uniqueness_refuses_truncated_kernel_first(capsys, tmp_path):
    """A truncated kernel is refused before any dispersion analysis, also
    where that analysis fails: this one keeps 18% of its mass, too little
    for kappa_plus = 2 to invade (minimal_speed raises NonConvergence)."""
    doc = dict(LK1_DOC, family="truncated", cutoff=-1.0,
               base={"family": "laplace", "mu": 1.0})
    p = tmp_path / "cut.json"
    p.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "uniqueness", "--kernel", str(p), "--c", "4")
    assert code == 1
    assert "probability kernels" in out["error"]["message"]


def test_no_wave_exit_2(capsys, kernel_file):
    code, doc = run_cli(capsys, "profile", "--kernel", kernel_file,
                        "--c", "1.0")
    assert code == 2
    assert doc["error"]["label"] == "no-wave"


def test_error_document_names_the_problem(capsys, kernel_file):
    # the problem is loaded before the dispersion analysis finds no wave at
    # c = 1, so the error document records what was loaded
    code, doc = run_cli(capsys, "speed", "--kernel", kernel_file, "--c", "1")
    assert code == 2
    assert doc["error"]["label"] == "no-wave"
    assert doc["manifest"]["inputs"] == [kernel_file]
    assert doc["manifest"]["params"] == LK1_DOC["params"]


def test_zero_speed_exit_2(capsys, kernel_file):
    code, doc = run_cli(capsys, "profile", "--kernel", kernel_file,
                        "--c", "0.0")
    assert code == 2
    assert doc["error"]["label"] == "c-zero-unsupported"


def test_unknown_subcommand_exit_1(capsys):
    assert main(["frobnicate"]) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0


# ---------------------------------------------------------------------------
# file outputs

def test_out_dir_json_and_csv(kernel_file, capsys, tmp_path):
    out = str(tmp_path / "run")
    code, doc = run_cli(capsys, "speed", "--kernel", kernel_file,
                        "--csv", "--out", out)
    assert code == 0
    with open(os.path.join(out, "speed.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk["result"] == doc["result"]
    with open(os.path.join(out, "dispersion.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# manifest: speed.json"
    assert lines[1] == "lambda,G,T,h"
    cols = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    # the sampled G column sits above the true minimum and dips close to it
    assert cols[:, 1].min() >= doc["result"]["c_star"] - 1e-12
    assert cols[:, 1].min() - doc["result"]["c_star"] < 1e-2


def test_csv_without_out_rejected(kernel_file, capsys):
    code, doc = run_cli(capsys, "speed", "--kernel", kernel_file, "--csv")
    assert code == 1


def test_truncate_sweep_csv(kernel_file, capsys, tmp_path):
    out = str(tmp_path / "tr")
    code, doc = run_cli(capsys, "truncate-sweep", "--kernel", kernel_file,
                        "--radii", "2,5,10", "--csv", "--out", out)
    assert code == 0
    with open(os.path.join(out, "truncation.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[1] == "R,A_plus,theta_R,lambda_star_n,c_star_n,gap"
    assert len(lines) == 5
    gaps = [float(ln.split(",")[-1]) for ln in lines[2:]]
    assert gaps == sorted(gaps, reverse=True)


def test_evolve_front_csv(kernel_file, capsys, tmp_path):
    out = str(tmp_path / "ev")
    code, doc = run_cli(capsys, "evolve", "--kernel", kernel_file,
                        "--dt", "0.02", "--horizon", "2",
                        "--domain", "-15,15", "--csv", "--out", out)
    assert code == 0
    with open(os.path.join(out, "front.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[1] == "t,front_position"
    ts = [float(ln.split(",")[0]) for ln in lines[2:]]
    assert ts == sorted(ts)
    assert abs(ts[-1] - 2.0) < 1e-9


# ---------------------------------------------------------------------------
# sweep fan-out

def test_sweep_preserves_order(capsys, tmp_path):
    mus = [1.0, 2.0, 4.0]
    points = [dict(LK1_DOC, mu=mu) for mu in mus]
    p = tmp_path / "points.json"
    p.write_text(json.dumps(points))
    code, doc = run_cli(capsys, "sweep", "--points", str(p), "--task", "speed")
    assert code == 0
    rows = doc["result"]["points"]
    assert [r["index"] for r in rows] == [0, 1, 2]
    stars = [r["c_star"] for r in rows]
    # c* scales like 1/mu for the scaled two-sided exponential
    assert abs(stars[0] / stars[1] - 2.0) < 1e-9
    assert abs(stars[1] / stars[2] - 2.0) < 1e-9


def test_sweep_worker_pool_matches_serial(capsys, tmp_path, monkeypatch):
    points = [dict(LK1_DOC, mu=mu) for mu in (1.0, 1.5, 2.0, 3.0)]
    p = tmp_path / "points.json"
    p.write_text(json.dumps(points))
    code = main(["sweep", "--points", str(p), "--task", "classify"])
    serial = json.loads(capsys.readouterr().out)["result"]
    monkeypatch.setenv("NLKPP_WORKERS", "3")
    code = main(["sweep", "--points", str(p), "--task", "classify"])
    pooled = json.loads(capsys.readouterr().out)["result"]
    assert serial == pooled


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_sweep_rejects_bad_worker_count(capsys, tmp_path, monkeypatch, value):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    p = tmp_path / "points.json"
    p.write_text(json.dumps([LK1_DOC]))
    monkeypatch.setenv("NLKPP_WORKERS", value)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    code, doc = run_cli(capsys, "sweep", "--points", str(p), "--task", "speed")
    assert code == 1
    assert doc["error"]["type"] == "UsageError"
    assert "NLKPP_WORKERS" in doc["error"]["message"]


def test_sweep_keeps_going_past_bad_point(capsys, tmp_path):
    points = [LK1_DOC,
              dict(LK1_DOC, params={"kappa_plus": 0.5, "m": 1.0,
                                    "kappa_local": 1.0}),
              dict(LK1_DOC, mu=2.0)]
    p = tmp_path / "points.json"
    p.write_text(json.dumps(points))
    code, doc = run_cli(capsys, "sweep", "--points", str(p), "--task", "speed")
    assert code == 0
    rows = doc["result"]["points"]
    assert "c_star" in rows[0]
    assert rows[1]["error"]["label"] == "Q1"
    assert "c_star" in rows[2]


# ---------------------------------------------------------------------------
# entry point and start-up

def test_console_script_runs(tmp_path):
    """The `nlkpp` entry point declared in pyproject.toml runs as a process of
    its own, launched the way the generated console-script wrapper launches
    it, so the check needs no install; an installed script is run too."""
    import shutil

    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    spec = tomllib.loads(pyproject.read_text())["project"]["scripts"]["nlkpp"]
    module, _, attr = spec.partition(":")
    p = tmp_path / "k.json"
    p.write_text(json.dumps(LK1_DOC))
    args = ["classify", "--kernel", str(p)]

    env = _source_tree_env()
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    runs = [subprocess.run([sys.executable, "-c", wrapper, *args], env=env,
                           capture_output=True, text=True)]
    installed = shutil.which("nlkpp")
    if installed:
        runs.append(subprocess.run([installed, *args],
                                   capture_output=True, text=True))
    for r in runs:
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["result"]["kernel_class"] == "V"


def test_dispersion_command_leaves_scipy_signal_unloaded(tmp_path):
    """`import nlkpp` and `classify` load none of scipy.signal, scipy.stats
    or scipy.ndimage: only profile solves import scipy.signal. A fresh
    interpreter runs the check, since this one has loaded them already."""
    p = tmp_path / "k.json"
    p.write_text(json.dumps(LK1_DOC))
    child = (
        "import json, sys\n"
        "import nlkpp, nlkpp.cli\n"
        f"code = nlkpp.cli.main(['classify', '--kernel', {str(p)!r}])\n"
        "heavy = ('scipy.signal', 'scipy.stats', 'scipy.ndimage')\n"
        "print(json.dumps({'code': code,\n"
        "                  'loaded': [m for m in heavy if m in sys.modules]}))\n")
    r = subprocess.run([sys.executable, "-c", child], env=_source_tree_env(),
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout.splitlines()[-1])
    assert report == {"code": 0, "loaded": []}
