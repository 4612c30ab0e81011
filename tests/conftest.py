import numpy as np
import pytest
import scipy.sparse

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
    identity = BandedMatrix(factors.n, 0, 0, np.ones((1, factors.n)))
    return _advance(identity, factors, np.asarray(b, dtype=float), 1)


@pytest.fixture(scope="session")
def legendre():
    return legendre_rule()


@pytest.fixture(scope="session")
def chebyshev():
    return chebyshev_rule()


@pytest.fixture(scope="session")
def control():
    return control_problem()
