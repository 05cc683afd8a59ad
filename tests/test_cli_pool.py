"""The CLI replays the benchmark's recorded results: every entry of
perfbench/cli_pool.json, run in-process through nlkpp.cli.main, exits with
the recorded code and prints the recorded result block byte for byte."""

import importlib.util
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from nlkpp.cli import main
from test_imports import PACKAGE, cached_functions

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                               PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

POOL = json.loads((PERFBENCH / "cli_pool.json").read_text())
# floats are printed to 17 digits, so bytes are only comparable on the
# toolchain that recorded them; elsewhere the benchmark's own check applies
SAME_TOOLCHAIN = POOL["recorded_with"] == {
    "python": platform.python_version(), "numpy": np.__version__,
    "scipy": scipy.__version__}


@pytest.mark.parametrize("entry", POOL["entries"], ids=lambda e: e["id"])
def test_recorded_cli_result(entry, tmp_path, capsys):
    code = main(workloads.cli_argv(entry, str(tmp_path)))
    block = workloads.result_block(capsys.readouterr().out)
    assert code == entry["code"]
    if SAME_TOOLCHAIN:
        assert block == entry["result"]
    else:
        assert workloads.numbers_agree(json.loads(block), json.loads(entry["result"]))


# the entries whose commands read quadrature pieces again: truncation
# levels share their base's, and a sweep's points repeat problems
WARM = [e for e in POOL["entries"] if e["command"] in ("truncate-sweep", "sweep")]


def test_recorded_cli_results_replay_warm(tmp_path, capsys):
    """The twelve entries twice in one process from empty caches: the warm
    pass, served from the quadrature and sample memos and the problem
    caches, prints what the cold pass printed. Every functools cache of the
    package is emptied first, as tests/test_imports.py finds them."""
    assert len(WARM) == 12
    caches = [getattr(importlib.import_module(f"nlkpp.{p.stem}"), name)
              for p in PACKAGE for name in cached_functions(p.read_text())]
    assert caches
    for cache in caches:
        cache.cache_clear()
    for rep in ("cold", "warm"):
        for entry in WARM:
            code = main(workloads.cli_argv(entry, str(tmp_path)))
            block = workloads.result_block(capsys.readouterr().out)
            assert (rep, entry["id"], code) == (rep, entry["id"], entry["code"])
            if SAME_TOOLCHAIN:
                assert (rep, entry["id"], block) == (rep, entry["id"], entry["result"])
            else:
                assert workloads.numbers_agree(json.loads(block), json.loads(entry["result"]))
