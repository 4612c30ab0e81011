"""The LAPACK and BLAS wrappers of scipy.linalg, without importing scipy.linalg.

The package calls a handful of f2py wrappers (dgbsv, dgbtrf and dlaswp;
dgbmv and dtbsv), all of which live in two extension modules,
scipy/linalg/_flapack and _fblas.  Importing scipy.linalg to reach them
costs about 0.3 s with scipy 1.17.1 and numpy 2.4.6: scipy's array-API
shim runs `from numpy import *`, which resolves numpy's lazy numpy.f2py
and numpy.testing (and through them charset_normalizer), none of which the
package uses.  That was about two thirds of `import hermite_heat`.

So lapack and blas are those two modules, loaded from their files under
their usual names, scipy.linalg._flapack and scipy.linalg._fblas, and
registered in sys.modules: a later `import scipy.linalg` reuses the same
module objects, and scipy.linalg.lapack.dgbtrf is lapack.dgbtrf.  scipy's
directory comes from its import spec (importlib.util.find_spec), so not
even scipy/__init__ runs.  Where either file is missing or fails to load,
lapack and blas are scipy.linalg.lapack and scipy.linalg.blas, imported
as usual.

Delete this module, and import from scipy.linalg again, once a plain
`import scipy.linalg` is cheap.
"""

import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES


def _load_extension(directory, name):
    """The extension module scipy.linalg.<name> from directory, or None."""
    qualified = f"scipy.linalg.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    paths = [os.path.join(directory, name + suffix) for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        return None
    spec = importlib.util.spec_from_file_location(qualified, path)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        return None
    sys.modules[qualified] = module
    return module


_SCIPY = importlib.util.find_spec("scipy")  # where scipy lies, without importing it
if _SCIPY is None:
    raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
_DIRECTORY = os.path.join(_SCIPY.submodule_search_locations[0], "linalg")
lapack = _load_extension(_DIRECTORY, "_flapack")
blas = _load_extension(_DIRECTORY, "_fblas")
if lapack is None or blas is None:
    from scipy.linalg import blas, lapack
