"""Global system assembly for the collocation scheme.

Element k (1-based) contributes six collocation equations in the eight
coefficients a[6(k-1)+1 .. 6(k-1)+8] (1-based), so N elements give 6N
equations in 6N + 2 unknowns.  The homogeneous Dirichlet conditions force
the value coefficients a_1 and a_{6N+1} to zero; deleting those two columns
at assembly time leaves square 6N x 6N banded systems:

  * Crank-Nicolson recursion  L a^{n+1} = R a^n,
  * initial interpolation     W a^0 = b  with b = f at the collocation
    abscissae.

All matrices here use reduced (post-elimination) column indexing; the index
maps between full and reduced coefficient numbering travel with the systems.
"""

from dataclasses import dataclass

import numpy as np

from .basis import build_basis_table
from .linalg import BandedMatrix
from .problem import collocation_abscissae

__all__ = [
    "ElementBlocks",
    "GlobalSystem",
    "InitialSystem",
    "element_blocks",
    "index_maps",
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
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    mass = table.H / dt
    diffusion = (alpha**2 / (2.0 * table.h**2)) * table.B
    return ElementBlocks(left=mass - diffusion, right=mass + diffusion)


def index_maps(n_elements):
    """Maps between full coefficient indices and reduced (solved) indices.

    Full indices run 0 .. 6N+1; entries 0 and 6N are the eliminated boundary
    value coefficients.  Returns (reduced_to_full, full_to_reduced), the
    latter holding -1 at eliminated positions.
    """
    full_size = 6 * n_elements + 2
    full_to_reduced = np.full(full_size, -1, dtype=np.int64)
    reduced_to_full = np.concatenate(
        [np.arange(1, 6 * n_elements), [6 * n_elements + 1]]
    )
    full_to_reduced[reduced_to_full] = np.arange(6 * n_elements)
    reduced_to_full.setflags(write=False)
    full_to_reduced.setflags(write=False)
    return reduced_to_full, full_to_reduced


@dataclass(frozen=True)
class GlobalSystem:
    """Banded Crank-Nicolson recursion matrices with their index maps."""

    left: BandedMatrix
    right: BandedMatrix
    n_elements: int
    reduced_to_full: np.ndarray
    full_to_reduced: np.ndarray


@dataclass(frozen=True)
class InitialSystem:
    """Banded interpolation system W a0 = b for the initial coefficients.

    Row 6(k-1)+i is element k collocated at point i; b holds the initial
    condition at the matching global abscissae.
    """

    W: BandedMatrix
    b: np.ndarray
    n_elements: int


def _scatter(n_elements, *blocks):
    """Banded 6N x 6N matrices repeating each 6 x 8 block over all elements.

    Block entries whose full column is an eliminated boundary value are
    dropped.  Returns the matrices and the (reduced_to_full, full_to_reduced)
    index maps.
    """
    reduced_to_full, full_to_reduced = index_maps(n_elements)
    offsets = 6 * np.arange(n_elements)
    local_rows, local_cols = np.meshgrid(np.arange(6), np.arange(8), indexing="ij")
    rows = (offsets[:, None, None] + local_rows[None, :, :]).ravel()
    cols = full_to_reduced[(offsets[:, None, None] + local_cols[None, :, :]).ravel()]
    slots = np.tile((local_rows * 8 + local_cols).ravel(), n_elements)
    keep = cols >= 0
    rows, cols, slots = rows[keep], cols[keep], slots[keep]
    n = 6 * n_elements
    matrices = [BandedMatrix.from_entries(n, rows, cols, block.ravel()[slots]) for block in blocks]
    return matrices, reduced_to_full, full_to_reduced


def assemble_crank_nicolson(mesh, rule, alpha, dt):
    """Assemble the boundary-eliminated recursion matrices L and R."""
    blocks = element_blocks(build_basis_table(rule, mesh.h), alpha, dt)
    (left, right), reduced_to_full, full_to_reduced = _scatter(
        mesh.n_elements, blocks.left, blocks.right
    )
    return GlobalSystem(
        left=left,
        right=right,
        n_elements=mesh.n_elements,
        reduced_to_full=reduced_to_full,
        full_to_reduced=full_to_reduced,
    )


def assemble_initial_system(mesh, rule, f):
    """Assemble W and b so that W a0 = b interpolates f at the collocation points."""
    (W,), _, _ = _scatter(mesh.n_elements, build_basis_table(rule, mesh.h).H)
    b = np.array([float(f(x)) for x in collocation_abscissae(mesh, rule.points).ravel()])
    if not np.all(np.isfinite(b)):
        raise ValueError("initial condition is not finite at every collocation point")
    return InitialSystem(W=W, b=b, n_elements=mesh.n_elements)
