"""Every name a package or test module imports at module level is used in
it, every private module-level name of the package is read in it, no
kernel family restates a transform, its evenness or its file format, no
package module reads the environment or imports inside a function, every
functools cache of the package is bounded, no call in the package passes a
report on, the profile solver reads kernel spectra through the dispersion
layer only, and a profile solve leaves scipy.signal unloaded."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nlkpp

PACKAGE = sorted(Path(nlkpp.__file__).resolve().parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"] \
    + sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source):
    """Names bound by module-level imports that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_finds_dead_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom math import exp, log\n"
              "def f(x: np.ndarray):\n    return exp(x)\n")
    assert unused_imports(source) == ["log", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_private_names(sources):
    """Single-underscore names bound at module level (functions, classes,
    assignments) in any of the sources that no source reads, by name or
    as an attribute."""
    trees = [ast.parse(s) for s in sources]
    read, bound = set(), set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound.update(n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name))
    return sorted(n for n in bound - read if n.startswith("_") and not n.startswith("__"))


def test_dead_private_names_finds_unread_names():
    sources = ["__all__ = ['g']\n_A = 1\n_B: int = 2\n_D, _E = 3, 4\n"
               "def _f():\n    return _A\nclass _C:\n    pass\n",
               "import m\nfrom m import _f\ndef g():\n    return _f() + m._D\n"]
    assert dead_private_names(sources) == ["_B", "_C", "_E"]


def test_no_dead_private_names():
    assert dead_private_names([p.read_text() for p in PACKAGE]) == []


def test_kernel_facts_stated_once():
    """A family writes its closed forms in transform_deriv alone, so that
    transform is order 0 everywhere, evenness lives in one base class
    instead of a per-family flag, and a file object is the constructor
    fields, written by Kernel.to_dict and read through one registry, except
    where the layout is not the fields."""
    from nlkpp import kernels
    families = [c for c in vars(kernels).values()
                if isinstance(c, type) and issubclass(c, kernels.Kernel)
                and c is not kernels.Kernel]
    assert [c.__name__ for c in families if "transform" in vars(c)] == []
    assert [p.name for p in PACKAGE if "symmetric" in p.read_text()] == []
    assert [c.__name__ for c in families if "to_dict" in vars(c)] == ["Uniform", "Tabulated"]
    concrete = [c for c in families if dataclasses.is_dataclass(c)]
    assert sorted(c.__name__ for c in kernels._FAMILIES.values()) == \
        sorted(c.__name__ for c in concrete)


def environment_reads(source):
    """Places where the source reads the process environment: os.environ,
    os.getenv or their bytes forms, by attribute or by import."""
    names = {"environ", "environb", "getenv", "getenvb"}
    tree = ast.parse(source)
    return sorted({n.attr for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute) and n.attr in names}
                  | {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                     and n.module == "os" for a in n.names if a.name in names})


def test_environment_reads_finds_both_forms():
    source = ("import os\nfrom os import getenv\n"
              "def f():\n    return os.environ.get('X'), os.path.join('a')\n")
    assert environment_reads(source) == ["environ", "getenv"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_reads_no_environment(path):
    """Every input arrives as an argument, a flag or a file, so that a
    manifest records all that a run depended on."""
    assert environment_reads(path.read_text()) == []


def nested_imports(source):
    """Line numbers of the import statements inside function bodies."""
    tree = ast.parse(source)
    return sorted({n.lineno for f in ast.walk(tree)
                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for n in ast.walk(f) if isinstance(n, (ast.Import, ast.ImportFrom))})


def test_nested_imports_finds_function_level_imports():
    source = ("import os\n"
              "def f():\n    from math import exp\n    return exp(1)\n"
              "class C:\n    def g(self):\n        def h():\n            import json\n")
    assert nested_imports(source) == [3, 8]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_at_module_level(path):
    """What a module needs shows at its head, and is loaded when it is."""
    assert nested_imports(path.read_text()) == []


def unbounded_caches(source):
    """Line numbers of functools caches without a bound: functools.cache,
    cache imported from functools, and lru_cache(maxsize=None) or
    lru_cache(None)."""
    found = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.ImportFrom) and n.module == "functools":
            found.update(n.lineno for a in n.names if a.name == "cache")
        elif isinstance(n, ast.Attribute) and n.attr == "cache" \
                and isinstance(n.value, ast.Name) and n.value.id == "functools":
            found.add(n.lineno)
        elif isinstance(n, ast.Call) and getattr(n.func, "attr", getattr(n.func, "id", None)) \
                == "lru_cache":
            size = n.args[0] if n.args else \
                next((k.value for k in n.keywords if k.arg == "maxsize"), None)
            if isinstance(size, ast.Constant) and size.value is None:
                found.add(n.lineno)
    return sorted(found)


def test_unbounded_caches_finds_every_form():
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "@functools.cache\ndef f(x):\n    return x\n"
              "@lru_cache(maxsize=None)\ndef g(x):\n    return x\n"
              "@functools.lru_cache(None)\ndef h(x):\n    return x\n"
              "@functools.lru_cache(maxsize=16)\ndef k(x):\n    return x\n"
              "@lru_cache\ndef m(x):\n    return x\n"
              "@lru_cache()\ndef n(x):\n    return x\n")
    assert unbounded_caches(source) == [2, 3, 6, 9]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_caches_are_bounded(path):
    """A cache keyed by problem values holds a few problems, not every
    problem a long sweep or a benchmark run has seen."""
    assert unbounded_caches(path.read_text()) == []


def report_slots(sources):
    """Functions of the sources that take a `report` parameter, with the
    position of that parameter among the positional ones."""
    slots = {}
    for n in ast.walk(ast.parse("\n".join(sources))):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [a.arg for a in n.args.posonlyargs + n.args.args]
            if "report" in names:
                slots[n.name] = names.index("report")
    return slots


def report_passes(sources):
    """(callee, line) of the calls that pass a report on: a `report=`
    keyword to anything, or a positional argument in the report slot of a
    function of the sources."""
    slots = report_slots(sources)
    found = []
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", getattr(n.func, "attr", None))
                if any(k.arg == "report" for k in n.keywords) \
                        or name in slots and len(n.args) > slots[name]:
                    found.append((name, n.lineno))
    return sorted(found)


def test_report_passes_finds_both_forms():
    sources = ["def f(pair, params, c, report=None):\n    return c\n",
               "def g(pair, params, rep):\n    f(pair, params, 1.0, rep)\n"
               "    f(pair, params, 1.0)\n    m.f(pair, params, 1.0, report=rep)\n"
               "    h(pair, report=rep)\n    return f(pair, params, rep.c_star)\n"]
    assert report_slots(sources) == {"f": 3}
    assert report_passes(sources) == [("f", 2), ("f", 4), ("h", 5)]


def test_package_passes_no_report():
    """A report is a value of its problem, which minimal_speed caches:
    every function asks for it, and the public ones that still accept one
    only check it. Threading it by hand must not creep back."""
    sources = [p.read_text() for p in PACKAGE]
    assert sorted(report_slots(sources)) == ["abscissa_to_speed", "root_multiplicity",
                                             "solve_profile", "speed_to_abscissa"]
    assert report_passes(sources) == []

def spectral_reads(source):
    """Where the source finds roots or reads a kernel's transform itself:
    the name brentq, imported or called, and calls of a .transform method."""
    found = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.alias) and n.name.split(".")[-1] == "brentq":
            found.add("brentq")
        elif isinstance(n, ast.Attribute) and n.attr == "brentq":
            found.add("brentq")
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                and n.func.attr == "transform":
            found.add("transform")
    return sorted(found)


def test_spectral_reads_finds_roots_and_transforms():
    source = ("from scipy.optimize import brentq, minimize_scalar\n"
              "def f(k):\n    return k.transform(-1.0) + k.transform_deriv(1.0, 2)\n")
    assert spectral_reads(source) == ["brentq", "transform"]
    assert spectral_reads("import scipy.optimize as so\nso.brentq(f, 0, 1)\n") == ["brentq"]
    assert spectral_reads("def g(k):\n    return k.transform_deriv(0.5)\n") == []


def test_profile_reads_spectra_through_dispersion():
    """The boundary rates are characteristic roots: dispersion brackets and
    solves them, and the profile solver asks it for them."""
    (profile,) = [p for p in PACKAGE if p.name == "profile.py"]
    assert spectral_reads(profile.read_text()) == []


def test_profile_solve_leaves_scipy_signal_unloaded():
    """A fresh interpreter that imports nlkpp and solves one coarse profile
    (the benchmark's warm-up grid) never loads scipy.signal: the warm-start
    sweeps integrate with the solver's own band solver."""
    child = (
        "import sys\n"
        "import nlkpp\n"
        "pair = nlkpp.KernelPair(nlkpp.Laplace(1.0), nlkpp.Laplace(1.0))\n"
        "params = nlkpp.Params(2.0, 1.0, 1.0, 0.0)\n"
        "c = 1.2 * nlkpp.minimal_speed(pair, params).c_star\n"
        "nlkpp.solve_profile(pair, params, c, tol=1e-2,\n"
        "                    grid=nlkpp.GridSpec(l_left=12.0, l_right=25.0, h=0.05))\n"
        "print('scipy.signal' in sys.modules)\n")
    src = str(Path(nlkpp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-c", child], env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False"]
