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

# a banded solve through dgbtrf, dlaswp and dtbsv, and one through dgbtrs,
# printed bit for bit
_SOLVE = """
import numpy as np
from hermite_heat import assemble_crank_nicolson, build_mesh, control_problem, legendre_rule
from hermite_heat.linalg import _interleaved_factors, band_lu_factor, band_lu_solve
m = assemble_crank_nicolson(build_mesh(control_problem(), 4), legendre_rule(), 1.0, 0.01).left
b = np.sin(np.arange(m.n, dtype=float))
print(band_lu_solve(band_lu_factor(m), b).tobytes().hex())
print(band_lu_solve(_interleaved_factors(m), b).tobytes().hex())
"""


def run_python(code):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": _SOURCE + (os.pathsep + path if path else "")}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_import_leaves_scipy_linalg_and_numpy_f2py_unloaded():
    """numpy.fft too: the Fourier-mode kernel reaches it only when it runs."""
    code = "import json, sys, hermite_heat; print(json.dumps(sorted(sys.modules)))"
    modules = json.loads(run_python(code)[0])
    assert "scipy.linalg" not in modules and "numpy.f2py" not in modules
    assert "numpy.fft" not in modules
    assert [m for m in modules if m.startswith("scipy.linalg")] == [
        "scipy.linalg._fblas",
        "scipy.linalg._flapack",
    ]


def test_numpy_fft_loads_only_above_the_stacking_line():
    """N = 170 (1020 unknowns) steps banded and leaves numpy.fft unloaded;
    N = 171 (1026) steps by its Fourier modes and loads it."""
    code = """
import sys
from hermite_heat import RunConfig, control_problem, legendre_rule, run
for n in (170, 171):
    run(control_problem(), RunConfig(dt=0.01, t_final=0.02, n_elements=n, rule=legendre_rule()))
    print(n, "numpy.fft" in sys.modules)
"""
    assert run_python(code) == ["170 False", "171 True"]


def test_a_later_scipy_linalg_import_reuses_the_loaded_wrappers():
    code = """
import sys
from hermite_heat import _lapack
assert sys.modules["scipy.linalg._flapack"] is _lapack.lapack
assert sys.modules["scipy.linalg._fblas"] is _lapack.blas
import scipy.linalg
assert scipy.linalg.lapack.dgbtrf is _lapack.lapack.dgbtrf
assert scipy.linalg.lapack.dgbtrs is _lapack.lapack.dgbtrs
assert scipy.linalg.lapack.zgetrf is _lapack.lapack.zgetrf
assert scipy.linalg.blas.dgbmv is _lapack.blas.dgbmv
assert scipy.linalg.blas.dtbsv is _lapack.blas.dtbsv
print("ok")
"""
    assert run_python(code) == ["ok"]


@pytest.mark.parametrize("broken", [False, True], ids=["empty", "unloadable"])
def test_loader_falls_back_to_scipy_linalg_bitwise(tmp_path, broken):
    """Pointed at a directory without the two extension files, or with a
    _flapack that is not a shared library, the loader takes scipy.linalg's
    lapack and blas, and the banded solves through them are bitwise those of
    the loaded wrappers."""
    linalg = tmp_path / "linalg"
    linalg.mkdir()
    if broken:
        (linalg / f"_flapack{EXTENSION_SUFFIXES[0]}").write_bytes(b"not a shared library")
    redirect = f"""
import scipy
scipy.__file__ = {str(tmp_path / "__init__.py")!r}
from hermite_heat import _lapack
import scipy.linalg
assert _lapack.lapack is scipy.linalg.lapack and _lapack.blas is scipy.linalg.blas
"""
    fallback = run_python(redirect + _SOLVE)
    loaded = run_python("from hermite_heat import _lapack\n" + _SOLVE)
    assert len(fallback) == 2 and fallback == loaded
