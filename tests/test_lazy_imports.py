"""scipy is imported only by the routines that use it: lognormal draws
(ndtri, in LogNormal.inverse_cdf), the laws' one quadrature behind the rates
and variance ratios (quad, in core._integrate) and
pareto_variance_ratio_limit (digamma); concurrent.futures and decimal only
by the harness's thread pool and the enumeration's pmf. Each check runs in a fresh
interpreter, where nothing has loaded scipy yet. Every name a module exports
resolves on it."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import safemean
from safemean import LogNormal, Pareto, cramer_rate

SRC = str(Path(safemean.__file__).resolve().parent.parent)
# prints the scipy modules loaded so far as a JSON list
SCIPY_MODULES = "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"


def _child(code: str) -> list:
    """Run code in a fresh interpreter that imports safemean from this checkout;
    return its standard output, one line per item."""
    prelude = f"import json, sys; sys.path.insert(0, {SRC!r})\n"
    done = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_cli_import_loads_no_scipy():
    assert json.loads(_child("import safemean.cli\n" + SCIPY_MODULES)[-1]) == []


def test_package_import_loads_no_numpy_random_and_no_scipy():
    # each draw builds its own generator
    code = "import safemean\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'random'] or m.split('.')[0] == 'scipy')))"
    assert json.loads(_child(code)[-1]) == []


def test_cli_import_loads_no_thread_pool_and_no_decimal():
    # concurrent.futures is imported where a pool of worker threads starts, decimal by the enumeration's pmf
    code = "import safemean.cli\nprint(json.dumps(sorted(m for m in ('concurrent.futures', 'decimal') if m in sys.modules)))"
    assert json.loads(_child(code)[-1]) == []


def test_default_threads_start_a_pool_only_from_the_cut_off():
    # with 4 usable cores, a default-threads cell below montecarlo._POOL_MIN_N counts in the calling thread
    # and loads no concurrent.futures, and a cell at it starts the pool; each gives its threads=1 hits
    code = (
        "import os\n"
        "os.sched_getaffinity = lambda pid: {0, 1, 2, 3}\n"
        "from safemean import EstimatorConfig, Pareto, disappointment_probability, montecarlo\n"
        "cfg = EstimatorConfig('mean', delta=0.5)\n"
        "for n in (montecarlo._POOL_MIN_N - 1, montecarlo._POOL_MIN_N):\n"
        "    trials = 3 * (4_000_000 // n)  # three blocks\n"
        "    hits = [disappointment_probability(Pareto(1.5), cfg, n, trials, 7, threads=t).hits for t in (None, 1)]\n"
        "    print(json.dumps([hits, 'concurrent.futures' in sys.modules]))\n"
    )
    (below, below_pool), (above, above_pool) = [json.loads(line) for line in _child(code)]
    assert below[0] == below[1] > 0 and not below_pool
    assert above[0] == above[1] > 0 and above_pool


def test_rates_import_loads_no_scipy():
    # quad and digamma are imported by the routines that use them, on first use
    assert json.loads(_child("import safemean.rates\n" + SCIPY_MODULES)[-1]) == []


def test_kl_estimate_from_the_cli_loads_no_scipy(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text("1.0\n2.5\n4.0\n")
    code = (
        "from safemean import cli\n"
        f"print(cli.main(['estimate', '--estimator', 'kl', '--r', '0.1', '--input', {str(path)!r}]))\n"
        + SCIPY_MODULES
    )
    out = _child(code)
    assert json.loads(out[0])["estimator"] == "kl"  # the estimate's JSON line
    assert out[1] == "0"
    assert json.loads(out[2]) == []


def test_first_lognormal_draw_is_ndtri_of_the_same_uniforms():
    spec, n, seed, stream = LogNormal(0.3, 2.0), 50, 9, 4
    code = (
        "from safemean import LogNormal, draw_sample\n"
        "assert 'scipy.special' not in sys.modules\n"
        f"print(json.dumps([x.hex() for x in draw_sample(LogNormal(0.3, 2.0), {n}, {seed}, {stream}).values.tolist()]))\n"
    )
    got = [float.fromhex(x) for x in json.loads(_child(code)[0])]
    u = np.clip(np.random.default_rng(np.random.SeedSequence((seed, stream))).random(n), 1e-16, 1.0 - 1e-16)
    expected = np.sort(np.exp(spec.mu + spec.sigma * ndtri(u)))
    assert np.array_equal(got, expected)


def test_cramer_rate_is_the_same_as_the_first_call_of_a_fresh_interpreter():
    code = (
        "from safemean import Pareto, cramer_rate\n"
        "assert 'scipy.integrate' not in sys.modules\n"
        "print(cramer_rate(Pareto(2.5, 1.0), 0.5).hex())\n"
    )
    assert float.fromhex(_child(code)[0]) == cramer_rate(Pareto(2.5, 1.0), 0.5)


def _own_package(node) -> bool:
    """Whether an import statement imports from safemean itself."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or node.module == "safemean" or node.module.startswith("safemean.")
    return any(alias.name == "safemean" or alias.name.startswith("safemean.") for alias in node.names)


def test_no_function_defers_an_import_from_the_package():
    # every intra-package import is at module level, so module dependencies are
    # what the import lines say; deferred third-party imports (scipy) stay allowed
    deferred = []
    for path in sorted(Path(safemean.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deferred += [
                    f"{path.name}:{node.lineno} in {func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) and _own_package(node)
                ]
    assert deferred == []


@pytest.mark.parametrize("module", ["core", "dual", "estimators", "montecarlo", "oracle", "rates"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"safemean.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
