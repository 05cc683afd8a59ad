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
from nlkpp.dispersion import minimal_speed
from nlkpp.errors import UsageError
from nlkpp.kernels import check_assumptions

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
    (["classify"], {"check_assumptions": 1, "minimal_speed": 1}),
    (["profile", "--c", "4"], {"check_assumptions": 1, "minimal_speed": 1}),
    (["uniqueness", "--c", "4"], {"check_assumptions": 1, "minimal_speed": 1}),
    (["check"], {"check_assumptions": 1, "minimal_speed": 0}),
    (["speed", "--c", "4"], {"check_assumptions": 1, "minimal_speed": 1}),
], ids=["classify", "profile", "uniqueness", "check", "speed"])
def test_setup_runs_once_per_command(argv, counts, kernel_file, capsys):
    """The Q1..Q7 check and the dispersion analysis are set-up work: a
    command does each once per problem, not once per function it calls.
    Both are cached, so their computations are the cache misses."""
    check_assumptions.cache_clear()
    minimal_speed.cache_clear()
    code, _doc = run_cli(capsys, argv[0], "--kernel", kernel_file, *argv[1:])
    assert code == 0
    computed = {"check_assumptions": check_assumptions.cache_info().misses,
                "minimal_speed": minimal_speed.cache_info().misses}
    assert computed == counts


def test_check_block_same_cold_and_warm(kernel_file, capsys):
    # the second run reads the cached verdict and prints the same block
    check_assumptions.cache_clear()
    blocks = []
    for _ in range(2):
        assert main(["check", "--kernel", kernel_file]) == 0
        blocks.append(capsys.readouterr().out.split('"result":', 1)[1])
    assert check_assumptions.cache_info().hits == 1
    assert blocks[0] == blocks[1]


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


@pytest.mark.parametrize("argv", [
    ["profile", "--c", "4", "--grid-h", "-0.01"],
    ["profile", "--c", "4", "--grid-l", "0"],
    ["profile", "--c", "4", "--tol", "0"],
    ["profile", "--c", "4", "--tol", "-1"],
    ["evolve", "--dt", "0.005", "--horizon", "0.1", "--grid-h", "-0.02"],
    ["evolve", "--dt", "0.005", "--horizon", "0.1", "--grid-h", "0"],
    ["evolve", "--dt", "0.005", "--horizon", "0.1", "--domain", "5,-5"]],
    ids=["profile-grid-h", "profile-grid-l", "tol-zero", "tol-negative",
         "evolve-grid-h", "evolve-grid-h-zero", "evolve-domain"])
def test_bad_grid_or_tolerance_exit_1(kernel_file, capsys, argv):
    code, doc = run_cli(capsys, *argv, "--kernel", kernel_file)
    assert code == 1
    assert doc["error"]["type"] == "UsageError"


def test_profile_grid_short_of_the_crossing_exit_1(kernel_file, capsys):
    code, doc = run_cli(capsys, "profile", "--kernel", kernel_file, "--c", "4",
                        "--grid-l", "1")
    assert code == 1
    assert doc["error"]["type"] == "UsageError"
    assert "grid [-1, 1]: l_right is too short" in doc["error"]["message"]


def test_profile_two_point_grid_exit_1(kernel_file, capsys):
    # a grid of two points that the warm start does not cross theta/2 on
    code, doc = run_cli(capsys, "profile", "--kernel", kernel_file, "--c", "4",
                        "--grid-l", "0.004")
    assert code == 1
    assert doc["error"]["type"] == "UsageError"
    assert "l_right is too short" in doc["error"]["message"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["profile", "uniqueness"])
@pytest.mark.parametrize("h", ["40", "45", "50"])
def test_coarse_grid_step_answers_with_one_document(kernel_file, capsys, command, h):
    # the Laplace(1) kernel spans one cell each side at these steps: solving
    # there hands LAPACK a two-row band, or the tail border a vanishing sum
    code, doc = run_cli(capsys, command, "--kernel", kernel_file, "--c", "4", "--grid-h", h)
    assert code in (1, 3)
    assert "result" not in doc and doc["error"]["type"] in ("UsageError", "NonConvergence")


@pytest.mark.parametrize("times", [
    ["--dt", "nan", "--horizon", "1"], ["--dt", "0.05", "--horizon", "nan"],
    ["--dt", "0.05", "--horizon", "inf"],
    ["--dt", "0.05", "--horizon", "0.5", "--snapshot-dt", "0"],
    ["--dt", "0.05", "--horizon", "0.5", "--snapshot-dt", "-0.1"]],
    ids=["dt-nan", "horizon-nan", "horizon-inf", "snapshot-zero", "snapshot-negative"])
def test_evolve_bad_time_exit_1(kernel_file, capsys, times):
    code, doc = run_cli(capsys, "evolve", "--kernel", kernel_file, *times)
    assert code == 1
    assert doc["error"]["type"] == "UsageError"


def test_evolve_horizon_of_no_step_exit_1(kernel_file, capsys):
    # a horizon under half a step would run no step and report t_final 0
    code, doc = run_cli(capsys, "evolve", "--kernel", kernel_file,
                        "--dt", "0.01", "--horizon", "0.004")
    assert code == 1
    assert doc["error"]["type"] == "UsageError"
    assert "no time step" in doc["error"]["message"]


def test_huge_speeds_answer_with_a_document(kernel_file, capsys):
    # past c of about 1e12 the usual lower end of the root's bracket is above the root
    code, doc = run_cli(capsys, "speed", "--kernel", kernel_file, "--c", "2e12")
    assert code == 0
    assert abs(doc["result"]["at_speed"]["lambda_c"] * 2e12 - 1.0) < 1e-11
    code, doc = run_cli(capsys, "profile", "--kernel", kernel_file, "--c", "1e300")
    assert code in (1, 2, 3)
    assert doc["error"]["type"] in ("UsageError", "AssumptionFailure", "NonConvergence")


def test_check_exp_poly_with_a_large_exponent(capsys, tmp_path):
    # s^200 overflows a float inside the normalization integral
    p = tmp_path / "q200.json"
    p.write_text(json.dumps({"family": "exp_poly", "p": 1.0, "q": 200.0, "mu": 1.0,
                             "params": LK1_DOC["params"]}))
    code, doc = run_cli(capsys, "check", "--kernel", str(p))
    assert code == 0
    assert {e["status"] for e in doc["result"]["assumptions"].values()} == {"holds"}


@pytest.mark.parametrize("params", ["kappa_plus=2,m=1,kappa_local=nan",
                                    "kappa_plus=inf,m=1"], ids=["local-nan", "plus-inf"])
def test_non_finite_params_exit_1(kernel_file, capsys, params):
    code, doc = run_cli(capsys, "speed", "--kernel", kernel_file, "--params", params)
    assert code == 1
    assert doc["error"]["type"] == "UsageError"


@pytest.mark.parametrize("kernel", [
    {"family": "laplace", "mu": float("nan")},
    {"family": "laplace", "mu": float("inf")},
    {"family": "gaussian", "variance": float("inf")},
    {"family": "exp_poly", "p": 1.0, "q": float("nan"), "mu": 1.0},
    {"family": "truncated", "cutoff": float("inf"), "base": {"family": "laplace"}},
    {"family": "truncated", "cutoff": float("nan"), "base": {"family": "laplace"}},
    {"family": "radial_exp_marginal", "mu": 1.0, "dim": float("nan")}],
    ids=["laplace-nan", "laplace-inf", "gaussian-inf", "exp_poly-q-nan",
         "truncated-inf", "truncated-nan", "radial-dim-nan"])
def test_non_finite_kernel_file_exit_1(capsys, tmp_path, kernel):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({**kernel, "params": LK1_DOC["params"]}))
    code, doc = run_cli(capsys, "speed", "--kernel", str(p))
    assert code == 1
    assert doc["error"]["type"] == "UsageError"


@pytest.mark.parametrize("argv", [
    ["speed", "--c", "inf"], ["speed", "--c", "nan"],
    ["profile", "--c", "nan"], ["profile", "--c", "inf"],
    ["uniqueness", "--c", "4", "--anchor-delta", "nan"],
    ["evolve", "--dt", "0.05", "--horizon", "1", "--domain=-inf,5"],
    ["evolve", "--dt", "0.05", "--horizon", "1", "--domain=0,inf"]],
    ids=["speed-inf", "speed-nan", "profile-nan", "profile-inf", "anchor-nan",
         "domain-lo-inf", "domain-hi-inf"])
def test_non_finite_speed_anchor_domain_exit_1(kernel_file, capsys, argv):
    code, doc = run_cli(capsys, *argv, "--kernel", kernel_file)
    assert code == 1
    assert doc["error"]["type"] == "UsageError"
    assert "finite" in doc["error"]["message"]


def test_non_integer_radial_dim_exit_1(capsys, tmp_path):
    p = tmp_path / "radial.json"
    p.write_text(json.dumps({"family": "radial_exp_marginal", "mu": 1.0, "dim": 2.7,
                             "params": LK1_DOC["params"]}))
    code, doc = run_cli(capsys, "speed", "--kernel", str(p))
    assert code == 1
    assert "integer" in doc["error"]["message"]


def test_evolve_takes_no_level(kernel_file, capsys):
    # fronts are tracked at theta/2; there is no option to move the level
    code = main(["evolve", "--kernel", kernel_file, "--dt", "0.05", "--horizon", "0.5",
                 "--level", "0.3"])
    assert code == 1
    assert capsys.readouterr().out == ""


def test_evolve_refuses_truncated_kernel(capsys, tmp_path):
    # mass 0.816 and theta_R 0.632, where the stepper would use theta = 1
    doc = dict(LK1_DOC, family="truncated", cutoff=1.0,
               base={"family": "laplace", "mu": 1.0})
    p = tmp_path / "cut.json"
    p.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "evolve", "--kernel", str(p),
                        "--dt", "0.05", "--horizon", "1")
    assert code == 1
    assert "probability kernels" in out["error"]["message"]


def test_evolve_refuses_a_kernel_the_grid_misses(capsys, tmp_path):
    # every node of step 0.02 misses [0.001, 0.004], so no weight survives
    doc = dict(LK1_DOC, family="uniform", endpoints=[0.001, 0.004])
    p = tmp_path / "narrow.json"
    p.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "evolve", "--kernel", str(p), "--dt", "0.01",
                        "--horizon", "0.1", "--grid-h", "0.02")
    assert code == 1
    assert out["error"]["type"] == "UsageError"
    assert "uniform" in out["error"]["message"] and "h=0.02" in out["error"]["message"]


def test_truncate_sweep_of_a_cut_kernel_climbs_from_below(capsys, tmp_path):
    # cutting a cut kernel further out leaves it as it is
    doc = dict(LK1_DOC, family="truncated", cutoff=1.0,
               base={"family": "laplace", "mu": 1.0})
    p = tmp_path / "cut.json"
    p.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "truncate-sweep", "--kernel", str(p), "--radii", "0.5,2,5")
    assert code == 0
    assert all(gap >= 0.0 for gap in out["result"]["gaps"])
    assert out["result"]["gaps"][1:] == [0.0, 0.0]


def test_manifest_records_every_run_option(kernel_file, capsys, tmp_path):
    argv = ["evolve", "--kernel", kernel_file, "--dt", "0.05", "--horizon", "0.5"]
    _, step = run_cli(capsys, *argv)
    _, expo = run_cli(capsys, *argv, "--u0", "exp:0.5", "--u0-x0", "1",
                      "--domain", "-10,10")
    assert step["manifest"]["tolerances"] == {
        "dt": 0.05, "horizon": 0.5, "u0": "step", "u0-x0": 0.0, "domain": "-30,30"}
    assert expo["manifest"]["tolerances"] == {
        "dt": 0.05, "horizon": 0.5, "u0": "exp:0.5", "u0-x0": 1.0, "domain": "-10,10"}
    _, trunc = run_cli(capsys, "truncate-sweep", "--kernel", kernel_file, "--radii", "2,5")
    assert trunc["manifest"]["tolerances"] == {"radii": "2,5"}
    p = tmp_path / "points.json"
    p.write_text(json.dumps([LK1_DOC]))
    _, sweep = run_cli(capsys, "sweep", "--points", str(p), "--task", "classify")
    assert sweep["manifest"]["tolerances"] == {"task": "classify"}


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


def test_params_file_and_inline_json(kernel_file, capsys, tmp_path):
    # a --params path is read as a JSON file and recorded as an input; inline
    # JSON is not a path
    block = {"kappa_plus": 8, "m": 1}
    p = tmp_path / "params.json"
    p.write_text(json.dumps(block))
    code_f, doc_f = run_cli(capsys, "speed", "--kernel", kernel_file, "--params", str(p))
    code_i, doc_i = run_cli(capsys, "speed", "--kernel", kernel_file,
                            "--params", json.dumps(block))
    assert code_f == code_i == 0
    assert doc_f["manifest"]["inputs"] == [kernel_file, str(p)]
    assert doc_i["manifest"]["inputs"] == [kernel_file]
    assert doc_f["manifest"]["params"] == doc_i["manifest"]["params"] == {
        "kappa_plus": 8, "m": 1, "kappa_local": 1, "kappa_nonlocal": 0}
    assert doc_f["result"] == doc_i["result"]


@pytest.mark.parametrize("where", ["file", "inline"])
def test_bad_params_keep_the_kernel_in_the_inputs(kernel_file, capsys, tmp_path, where):
    # each input is recorded as it is read, so a bad parameter block still
    # names the kernel file it was to go with
    text = '{"kappa_plus": 8,'
    p = tmp_path / "params.json"
    p.write_text(text)
    code, doc = run_cli(capsys, "speed", "--kernel", kernel_file,
                        "--params", str(p) if where == "file" else text)
    assert code == 1
    assert doc["error"]["type"] == "UsageError"
    assert doc["manifest"]["inputs"] == ([kernel_file, str(p)] if where == "file"
                                         else [kernel_file])
    assert doc["manifest"]["params"] == {}


def test_kernel_that_is_not_an_object_is_an_error_document(capsys, tmp_path):
    p = tmp_path / "bad_minus.json"
    p.write_text(json.dumps(dict(LK1_DOC, a_minus=3)))
    code, doc = run_cli(capsys, "check", "--kernel", str(p))
    assert code == 1
    assert doc["error"]["type"] == "UsageError"
    assert "a kernel is a JSON object; got int" in doc["error"]["message"]
    assert doc["manifest"]["inputs"] == [str(p)]


def test_string_endpoints_are_an_error_document(capsys, tmp_path):
    # "12" is no pair of endpoints, though a string unpacks to two characters
    p = tmp_path / "str_endpoints.json"
    p.write_text(json.dumps({"family": "uniform", "endpoints": "12",
                             "params": LK1_DOC["params"]}))
    code, doc = run_cli(capsys, "check", "--kernel", str(p))
    assert code == 1
    assert doc["error"]["type"] == "UsageError"
    assert "kernel field 'endpoints' must be an array; got str" in doc["error"]["message"]
    assert "result" not in doc


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_classify_answers_where_the_minimal_speed_does_not(capsys, tmp_path):
    # at this point of the benchmark's known defects the stationarity check
    # refuses c*, but the class needs only the endpoint transform
    p = tmp_path / "defect.json"
    p.write_text(json.dumps({"family": "exp_poly", "p": 1.0, "q": 2.0023275656815063,
                             "mu": 0.11240536172946254, "params": {"kappa_plus": 2, "m": 1}}))
    code, doc = run_cli(capsys, "classify", "--kernel", str(p))
    assert code == 0
    assert doc["result"] == {"kernel_class": "V", "sigma_plus": 0.11240536172946254}
    code, doc = run_cli(capsys, "speed", "--kernel", str(p))
    assert code == 3
    assert doc["error"]["label"] == "stationarity-check"


@pytest.mark.parametrize("c", ["1e7", "1e308"])
def test_fast_front_profile_refused_by_grid_size(kernel_file, capsys, c):
    # both rates are about 1/c: the left rate is found, and the grid it asks
    # for is refused by its size, also where a span overflows a float
    code, doc = run_cli(capsys, "profile", "--kernel", kernel_file, "--c", c)
    assert code == 1
    assert doc["error"]["type"] == "UsageError"
    n = "60000000001" if c == "1e7" else "inf"
    assert doc["error"]["message"].startswith(f"the grid needs {n} points")


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


@pytest.mark.parametrize("argv", [
    ["check", "KERNEL", "--c", "3"], ["check", "KERNEL", "--csv"],
    ["uniqueness", "KERNEL", "--c", "4", "--csv"], ["mu-star", "--q", "4", "--csv"],
    ["sweep", "--points", "POINTS", "--csv"]],
    ids=["check-c", "check-csv", "uniqueness-csv", "mu-star-csv", "sweep-csv"])
def test_options_no_handler_reads_exit_1(argv, kernel_file, tmp_path, capsys):
    # check reads no speed, and these four commands write no table: the
    # flags are not accepted, so a run cannot look as if it had used them
    points = tmp_path / "points.json"
    points.write_text("[]")
    subs = {"KERNEL": ["--kernel", kernel_file], "POINTS": [str(points)]}
    argv = [a for v in argv for a in subs.get(v, [v])]
    assert main(argv + ["--out", str(tmp_path / "d")]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_csv_without_out_rejected(kernel_file, capsys):
    code, doc = run_cli(capsys, "speed", "--kernel", kernel_file, "--csv")
    assert code == 1


def test_classify_refuses_c_without_csv(kernel_file, capsys):
    # --c only sets the speed of the dispersion table's h column
    code, doc = run_cli(capsys, "classify", "--kernel", kernel_file, "--c", "3")
    assert code == 1
    assert doc["error"]["type"] == "UsageError"
    assert "--c" in doc["error"]["message"]


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


def test_profile_csv_feeds_evolve(kernel_file, capsys, tmp_path):
    out = str(tmp_path / "pr")
    code, prof = run_cli(capsys, "profile", "--kernel", kernel_file, "--c", "4",
                         "--csv", "--out", out)
    assert code == 0
    csv = os.path.join(out, "profile.csv")
    with open(csv) as fh:
        lines = fh.read().splitlines()
    assert lines[:2] == ["# manifest: profile.json", "s,psi"]
    assert len(lines) == prof["result"]["grid_points"] + 2
    code, doc = run_cli(capsys, "evolve", "--kernel", kernel_file,
                        "--u0", f"profile-csv:{csv}", "--dt", "0.01", "--horizon", "2",
                        "--domain", "-20,20")
    assert code == 0
    # the wave is carried at its own speed from the first step
    assert abs(doc["result"]["speed"] - 4.0) < 0.04


def test_evolve_refuses_a_profile_csv_whose_s_does_not_increase(kernel_file, capsys, tmp_path):
    # np.interp needs increasing nodes; descending rows read as theta everywhere
    s = np.linspace(-5.0, 5.0, 201)
    rows = [f"{x},{1.0 / (1.0 + np.exp(x))}" for x in s.tolist()]
    argv = ["evolve", "--kernel", kernel_file, "--domain", "-10,10", "--grid-h", "0.05",
            "--dt", "0.01", "--horizon", "0.5"]
    up, down = tmp_path / "up.csv", tmp_path / "down.csv"
    up.write_text("s,psi\n" + "\n".join(rows) + "\n")
    down.write_text("s,psi\n" + "\n".join(rows[::-1]) + "\n")
    code, doc = run_cli(capsys, *argv, "--u0", f"profile-csv:{up}")
    assert code == 0
    assert doc["result"]["speed"] > 1.0
    code, doc = run_cli(capsys, *argv, "--u0", f"profile-csv:{down}")
    assert code == 1
    assert doc["error"]["type"] == "UsageError"
    assert str(down) in doc["error"]["message"]


def test_evolve_exp_datum_snapshots_csv(kernel_file, capsys, tmp_path):
    out = str(tmp_path / "ev")
    code, doc = run_cli(capsys, "evolve", "--kernel", kernel_file, "--u0", "exp:0.5",
                        "--u0-x0", "1", "--dt", "0.05", "--horizon", "0.5",
                        "--domain", "-20,20", "--csv", "--snapshots", "--out", out)
    assert code == 0
    with open(os.path.join(out, "snapshots.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[1].split(",")[:2] == ["x", "t=0"]
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    assert table.shape == (2001, 1 + doc["result"]["n_snapshots"])
    x, u0 = table[:, 0], table[:, 1]
    assert np.allclose(u0, np.minimum(1.0, np.exp(-0.5 * (x - 1.0))), rtol=1e-15, atol=0.0)


def test_tabulated_problem_file(capsys, tmp_path):
    step = 0.05
    grid = -8.0 + step * np.arange(321)
    vals = np.exp(-0.5 * grid ** 2)
    vals /= vals.sum() * step
    doc = {"family": "tabulated", "params": LK1_DOC["params"],
           "table": {"grid_start": -8.0, "grid_step": step, "values": vals.tolist()}}
    p = tmp_path / "tab.json"
    p.write_text(json.dumps(doc))
    code, check = run_cli(capsys, "check", "--kernel", str(p))
    assert code == 0
    assert {v["status"] for v in check["result"]["assumptions"].values()} == {"holds"}
    code, tab = run_cli(capsys, "speed", "--kernel", str(p))
    assert code == 0
    g = tmp_path / "gauss.json"
    g.write_text(json.dumps(dict(LK1_DOC, family="gaussian", variance=1.0)))
    _, gauss = run_cli(capsys, "speed", "--kernel", str(g))
    # the table's Riemann sums carry its step error, about 1e-4 here
    assert abs(tab["result"]["c_star"] - gauss["result"]["c_star"]) < 1e-3


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


def test_sweep_check_task(capsys, tmp_path):
    points = [LK1_DOC, dict(LK1_DOC, params={"kappa_plus": 0.5, "m": 1.0})]
    p = tmp_path / "points.json"
    p.write_text(json.dumps(points))
    code, doc = run_cli(capsys, "sweep", "--points", str(p), "--task", "check")
    assert code == 0
    rows = doc["result"]["points"]
    assert {v["status"] for v in rows[0]["assumptions"].values()} == {"holds"}
    assert rows[1]["assumptions"]["Q1"]["status"] == "fails"


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


@pytest.mark.parametrize("point", [5, 0, "nope.json", None, [1.0]])
def test_sweep_refuses_points_that_are_not_objects(point, capsys, tmp_path, monkeypatch):
    # a number is not a file descriptor (0 would read stdin) and a string
    # not a path: every non-object point is a UsageError of its own, and
    # nothing is opened for it
    import nlkpp.kernels

    def no_open(*args, **kwargs):
        raise AssertionError(f"a sweep point opened {args!r}")
    monkeypatch.setattr(nlkpp.kernels, "open", no_open, raising=False)
    p = tmp_path / "points.json"
    p.write_text(json.dumps([point, LK1_DOC]))
    code, doc = run_cli(capsys, "sweep", "--points", str(p), "--task", "check")
    assert code == 0
    rows = doc["result"]["points"]
    assert rows[0]["error"]["type"] == "UsageError"
    assert "Q1" in rows[1]["assumptions"]


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
    or scipy.ndimage. A fresh interpreter runs the check, since this one
    may have loaded them already."""
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
