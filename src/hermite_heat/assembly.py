"""Global system assembly for the collocation scheme.

Element k (1-based) contributes six collocation equations in the eight
coefficients a[6(k-1)+1 .. 6(k-1)+8] (1-based), so N elements give 6N
equations in 6N + 2 unknowns.  The homogeneous Dirichlet conditions force
the value coefficients a_1 and a_{6N+1} to zero; deleting those two columns
at assembly time leaves square 6N x 6N banded systems:

  * Crank-Nicolson recursion  L a^{n+1} = R a^n,
  * initial interpolation     W a^0 = b  with b = f at the collocation
    abscissae.

All matrices here use reduced (post-elimination) column indexing; each
system carries reduced_to_full, the full coefficient number of each column.
"""

from dataclasses import dataclass

import numpy as np

from .basis import build_basis_table
from .linalg import BandedMatrix
from .problem import _sample, collocation_abscissae

__all__ = [
    "ElementBlocks",
    "GlobalSystem",
    "InitialSystem",
    "element_blocks",
    "assemble_crank_nicolson",
    "assemble_initial_system",
]


@dataclass(frozen=True)
class ElementBlocks:
    """Per-element 6 x 8 coefficient blocks of the two time levels.

    left multiplies the unknown (next) time level, right the current one:
    left = H/dt - (alpha**2 / (2 h**2)) B and right = H/dt + same.
    """

    left: np.ndarray
    right: np.ndarray


def element_blocks(table, alpha, dt):
    """Crank-Nicolson blocks for one element of width table.h."""
    # written so that NaN fails too; alpha * alpha, as alpha**2 raises OverflowError
    if not (0.0 < dt < np.inf):
        raise ValueError("dt must be positive and finite")
    if not (alpha > 0.0 and np.isfinite(alpha * alpha)):
        raise ValueError("alpha must be positive with a finite square")
    mass = table.H / dt
    diffusion = (alpha**2 / (2.0 * table.h**2)) * table.B
    return ElementBlocks(left=mass - diffusion, right=mass + diffusion)


@dataclass(frozen=True)
class GlobalSystem:
    """Banded Crank-Nicolson recursion matrices with their index maps."""

    left: BandedMatrix
    right: BandedMatrix
    reduced_to_full: np.ndarray


@dataclass(frozen=True)
class InitialSystem:
    """Banded interpolation system W a0 = b for the initial coefficients.

    Row 6(k-1)+i is element k collocated at point i; b holds the initial
    condition at the matching global abscissae.  W is stored with the kl
    spare rows of LAPACK's layout, as it is solved once: linalg.band_solve
    factors it in that storage, and it is not W afterwards.
    """

    W: BandedMatrix
    b: np.ndarray
    reduced_to_full: np.ndarray


def _scatter(n_elements, *blocks, spare=False):
    """Banded 6N x 6N matrices repeating each 6 x 8 block over all elements.

    Element k holds rows 6k .. 6k + 5 and full columns 6k .. 6k + 7, and
    block column j fills one strided slice of the full 6N x (6N + 2)
    matrix's Fortran-ordered bands (kl = 5, ku = 7).  Deleting columns 0
    and 6N moves every other column left by one, which under ku = 6 keeps
    each entry in its band row, except column 6N + 1: it moves by two, so
    one band row down, into column 6N (whose row 0 is zero), and the matrix
    is the view of columns 1 .. 6N.  One element has kl = ku = 5, without
    the outer rows.  With spare, each matrix gets kl zero rows on top in
    the same buffer, for linalg.band_solve to factor it in place.
    Returns the matrices and the reduced_to_full index map.
    """
    n = 6 * n_elements
    reduced_to_full = np.concatenate([np.arange(1, n), [n + 1]])
    reduced_to_full.setflags(write=False)
    width = 5 if n_elements == 1 else 6
    top = width if spare else 0
    matrices = []
    for block in blocks:
        full = np.zeros((top + 13, n + 2), order="F")
        bands = full[top:]
        for j in range(8):
            bands[7 - j : 13 - j, j : j + n : 6] = block[:, j : j + 1]
        bands[1:, n] = bands[:-1, n + 1]
        matrices.append(BandedMatrix(n, width, width, full[6 - width : top + 7 + width, 1 : n + 1]))
    return matrices, reduced_to_full


def assemble_crank_nicolson(mesh, rule, alpha, dt):
    """Assemble the boundary-eliminated recursion matrices L and R."""
    blocks = element_blocks(build_basis_table(rule, mesh.h), alpha, dt)
    (left, right), reduced_to_full = _scatter(mesh.n_elements, blocks.left, blocks.right)
    return GlobalSystem(left=left, right=right, reduced_to_full=reduced_to_full)


def assemble_initial_system(mesh, rule, f):
    """Assemble W and b so that W a0 = b interpolates f at the collocation points."""
    (W,), reduced_to_full = _scatter(mesh.n_elements, build_basis_table(rule, mesh.h).H, spare=True)
    b = _sample("initial_condition", f, collocation_abscissae(mesh, rule.points).ravel())
    if not np.all(np.isfinite(b)):
        raise ValueError("initial condition is not finite at every collocation point")
    return InitialSystem(W=W, b=b, reduced_to_full=reduced_to_full)
