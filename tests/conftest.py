import os

import numpy as np
import pytest
import scipy.sparse
from scipy.linalg import lapack

from hermite_heat import chebyshev_rule, control_problem, legendre_rule
from hermite_heat.linalg import BandedMatrix
from hermite_heat.solver import _advance


def dense(m):
    """The n x n array of a BandedMatrix: entry (i, j) is m.bands[ku + i - j, j]."""
    offsets = np.arange(m.ku, -m.kl - 1, -1)
    return scipy.sparse.dia_matrix((m.bands, offsets), shape=(m.n, m.n)).toarray()


def lu_solve(factors, b):
    """Solve A x = b with band_lu_factor's factors of A.

    One step of the solver's banded kernel with R = I, so that the solve is
    its gather and two dtbsv calls.
    """
    n = len(factors.perm)
    identity = BandedMatrix(n, 0, 0, np.ones((1, n)))
    return _advance(identity, factors, np.asarray(b, dtype=float), 1)


def dgbtrf(m):
    """LAPACK dgbtrf on m's own bands: its interleaved (lu_bands, ipiv)."""
    ab = np.zeros((2 * m.kl + m.ku + 1, m.n), order="F")
    ab[m.kl :] = m.bands
    lu_bands, ipiv, info = lapack.dgbtrf(ab, m.kl, m.ku)
    assert info == 0
    return lu_bands, ipiv


def dgbtrs_solve(m, b):
    """Solve A x = b by LAPACK dgbtrf, then dgbtrs, on m's own bands: the
    interleaved reference that band_lu_factor's permuted form reproduces."""
    lu_bands, ipiv = dgbtrf(m)
    x, info = lapack.dgbtrs(lu_bands, m.kl, m.ku, np.asarray(b, dtype=float), ipiv)
    assert info == 0
    return x


@pytest.fixture(scope="session")
def legendre():
    return legendre_rule()


@pytest.fixture(scope="session")
def chebyshev():
    return chebyshev_rule()


@pytest.fixture(scope="session")
def control():
    return control_problem()


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped, such as
    a fork of the solver's that was never waited for.  Exited children are
    reaped here, so that the next test starts without them."""
    yield
    unreaped = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child left
            break
        if pid == 0:
            pytest.fail(f"the test left a child process running (and {len(unreaped)} unreaped)")
        unreaped.append(pid)
    if unreaped:
        pytest.fail(f"the test left child processes {unreaped} unreaped")
