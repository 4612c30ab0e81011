"""hermite_heat._lapack, each check in a fresh interpreter: what an import
loads depends on what the process has imported before."""

import json
import os
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest

import hermite_heat

# the tree that holds the package under test, first on the child's path
_SOURCE = str(Path(hermite_heat.__file__).resolve().parents[1])

# a one-shot banded solve through dgbsv, and a step through dgbtrf, dlaswp,
# dgbmv and dtbsv, printed bit for bit
_SOLVE = """
import numpy as np
from hermite_heat import assemble_crank_nicolson, band_lu_factor, build_mesh, control_problem
from hermite_heat import initial_coefficients, legendre_rule, step
from hermite_heat.linalg import band_solve
mesh = build_mesh(control_problem(), 4)
system = assemble_crank_nicolson(mesh, legendre_rule(), 1.0, 0.01)
b = np.sin(np.arange(system.left.n, dtype=float))
print(band_solve(system.left, b).tobytes().hex())
a = initial_coefficients(control_problem(), mesh, legendre_rule())
print(step(system, band_lu_factor(system.left), a).tobytes().hex())
"""


def run_python(code):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": _SOURCE + (os.pathsep + path if path else "")}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_import_leaves_scipy_linalg_and_numpy_f2py_unloaded():
    """numpy.fft too: the Fourier-mode kernel reaches it only when it runs.
    scipy itself is not imported either: only its two extension modules load."""
    code = "import json, sys, hermite_heat; print(json.dumps(sorted(sys.modules)))"
    modules = json.loads(run_python(code)[0])
    assert "scipy" not in modules
    assert "scipy.linalg" not in modules and "numpy.f2py" not in modules
    assert "numpy.fft" not in modules
    assert [m for m in modules if m.startswith("scipy.linalg")] == [
        "scipy.linalg._fblas",
        "scipy.linalg._flapack",
    ]


def test_numpy_fft_loads_only_above_the_stacking_line():
    """The largest N whose run steps banded (solver._steps_by_modes) leaves
    numpy.fft unloaded; the next N steps by its Fourier modes and loads it."""
    code = """
import sys
from hermite_heat import RunConfig, control_problem, legendre_rule, run
from hermite_heat.solver import _steps_by_modes
configs = [RunConfig(dt=0.01, t_final=0.02, n_elements=n, rule=legendre_rule()) for n in range(1, 1001)]
line = next(index for index, cfg in enumerate(configs) if _steps_by_modes(cfg))
for cfg in configs[line - 1 : line + 1]:
    run(control_problem(), cfg)
    print(_steps_by_modes(cfg), "numpy.fft" in sys.modules)
"""
    assert run_python(code) == ["False False", "True True"]


def test_a_later_scipy_linalg_import_reuses_the_loaded_wrappers():
    code = """
import sys
from hermite_heat import _lapack
assert sys.modules["scipy.linalg._flapack"] is _lapack.lapack
assert sys.modules["scipy.linalg._fblas"] is _lapack.blas
import scipy.linalg
assert scipy.linalg.lapack.dgbtrf is _lapack.lapack.dgbtrf
assert scipy.linalg.lapack.dgbsv is _lapack.lapack.dgbsv
assert scipy.linalg.lapack.dlaswp is _lapack.lapack.dlaswp
assert scipy.linalg.blas.dgbmv is _lapack.blas.dgbmv
assert scipy.linalg.blas.dtbsv is _lapack.blas.dtbsv
print("ok")
"""
    assert run_python(code) == ["ok"]


def test_import_without_scipy_raises_module_not_found():
    """Where scipy cannot be found, importing the package raises the
    ModuleNotFoundError that `import scipy` would, naming scipy."""
    code = """
import importlib.util
find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, package=None: None if name == "scipy" else find_spec(name, package)
try:
    import hermite_heat
except ModuleNotFoundError as exc:
    print(exc.name, exc)
"""
    assert run_python(code) == ["scipy No module named 'scipy'"]


@pytest.mark.parametrize("broken", [False, True], ids=["empty", "unloadable"])
def test_loader_falls_back_to_scipy_linalg_bitwise(tmp_path, broken):
    """Pointed at a directory without the two extension files, or with a
    _flapack that is not a shared library, the loader takes scipy.linalg's
    lapack and blas, and the banded solves through them are bitwise those of
    the loaded wrappers.  The loader is pointed there through scipy's import
    spec, which importlib.util.find_spec gives it while _lapack loads."""
    linalg = tmp_path / "linalg"
    linalg.mkdir()
    if broken:
        (linalg / f"_flapack{EXTENSION_SUFFIXES[0]}").write_bytes(b"not a shared library")
    redirect = f"""
import importlib.machinery, importlib.util
find_spec = importlib.util.find_spec
def redirected(name, package=None):
    if name != "scipy":
        return find_spec(name, package)
    spec = importlib.machinery.ModuleSpec(name, None, is_package=True)
    spec.submodule_search_locations.append({str(tmp_path)!r})
    return spec
importlib.util.find_spec = redirected
from hermite_heat import _lapack
importlib.util.find_spec = find_spec
import scipy.linalg
assert _lapack.lapack is scipy.linalg.lapack and _lapack.blas is scipy.linalg.blas
"""
    fallback = run_python(redirect + _SOLVE)
    loaded = run_python("from hermite_heat import _lapack\n" + _SOLVE)
    assert len(fallback) == 2 and fallback == loaded
