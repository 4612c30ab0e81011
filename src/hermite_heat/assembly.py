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

Meshes too large to step as one banded system use the statically condensed
form of the recursion instead (assemble_condensed).
"""

from dataclasses import dataclass

import numpy as np

from ._lapack import lapack as _lapack
from .basis import build_basis_table
from .linalg import BandedMatrix, check_pivots
from .problem import _sample, collocation_abscissae

__all__ = [
    "ElementBlocks",
    "GlobalSystem",
    "InitialSystem",
    "CondensedSystem",
    "element_blocks",
    "assemble_crank_nicolson",
    "assemble_initial_system",
    "assemble_condensed",
]

# Columns of an element block holding coefficients of the element alone
# (u'' and u''' at both ends), and those shared with its neighbours (value
# and slope at both nodes).
_LOCAL = [2, 3, 4, 5]
_SHARED = [0, 1, 6, 7]


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


def _eliminate_ends(n):
    """Index maps of n + 2 full entries whose entries 0 and n are eliminated."""
    full_to_reduced = np.full(n + 2, -1, dtype=np.int64)
    reduced_to_full = np.concatenate([np.arange(1, n), [n + 1]])
    full_to_reduced[reduced_to_full] = np.arange(n)
    reduced_to_full.setflags(write=False)
    full_to_reduced.setflags(write=False)
    return reduced_to_full, full_to_reduced


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
    condition at the matching global abscissae.
    """

    W: BandedMatrix
    b: np.ndarray
    reduced_to_full: np.ndarray


def _scatter(n_elements, *blocks):
    """Banded mN x mN matrices repeating each m x (m + 2) block over all elements.

    Element k holds rows mk .. mk + m - 1 and full columns mk .. mk + m + 1,
    so neighbouring elements share two columns; m is 6 for the collocation
    blocks and 2 for the condensed interface block.  Block entries whose
    full column is an eliminated boundary value (0 or mN) are dropped.
    Returns the matrices and the reduced_to_full index map.
    """
    m = blocks[0].shape[0]
    n = m * n_elements
    reduced_to_full, full_to_reduced = _eliminate_ends(n)
    offsets = m * np.arange(n_elements)
    local_rows, local_cols = np.meshgrid(np.arange(m), np.arange(m + 2), indexing="ij")
    rows = (offsets[:, None, None] + local_rows[None, :, :]).ravel()
    cols = full_to_reduced[(offsets[:, None, None] + local_cols[None, :, :]).ravel()]
    slots = np.tile((local_rows * (m + 2) + local_cols).ravel(), n_elements)
    keep = cols >= 0
    rows, cols, slots = rows[keep], cols[keep], slots[keep]
    matrices = [BandedMatrix.from_entries(n, rows, cols, block.ravel()[slots]) for block in blocks]
    return matrices, reduced_to_full


@dataclass(frozen=True)
class CondensedSystem:
    """The Crank-Nicolson step in delta form, a <- a + L^-1 (D a), condensed.

    D = R - L.  Every element of the mesh has the same blocks, so one set of
    small operators serves all of them.  Per step:

      * element_rhs (G, 6 x 8) maps each element's eight coefficients to
        four local right-hand sides and then two interface ones;
      * interface (S, 2N x 2N, kl = ku = 2) takes element k's interface
        right-hand sides in rows 2k and 2k + 1, and its unknowns are the
        increments of the nodal values and slopes in full order without
        the two eliminated boundary values; interface_positions holds the
        index of each one in the full coefficient vector;
      * local_solve (P, 4 x 8) maps an element's window of the full-layout
        increment, holding the nodal increments at both ends and the four
        local right-hand sides between them, to its u'' and u''' increments.
    """

    element_rhs: np.ndarray
    local_solve: np.ndarray
    interface: BandedMatrix
    interface_positions: np.ndarray


def _solve_upper(r, b):
    """R^-1 b for an upper triangular R, by LAPACK dtrtrs.

    The memory of R in C order is R^T in Fortran order, so dtrtrs solves
    (R^T)^T x = b as lower triangular and transposed, without a copy of R.
    That is the call scipy.linalg.solve_triangular makes, bit for bit.
    """
    x, info = _lapack.dtrtrs(r.T, b, lower=1, trans=1)
    if info != 0:
        raise ValueError(f"dtrtrs failed with info = {info}")
    return x


def assemble_condensed(mesh, rule, alpha, dt):
    """Statically condensed Crank-Nicolson step for a uniform mesh.

    An element's u'' and u''' coefficients appear only in its own six
    equations, so L is almost block diagonal (Varah, SIAM J. Numer. Anal.
    13, 1976; de Boor and Weiss, SOLVEBLOK, ACM TOMS 6, 1980).  One QR of
    the local columns of the element block, Q [R_b; 0] with Q = [Q_1 Q_2],
    splits its six equations: the two rows of Q_2^T L_k couple only the
    values and slopes at the element's nodes, and R_b^-1 Q_1^T L_k gives the
    local unknowns once those are known.  D = (alpha**2 / h**2) B is built
    directly rather than as R - L.  Raises SingularMatrix if a diagonal
    entry of R_b vanishes or is NaN.
    """
    table = build_basis_table(rule, mesh.h)
    left = element_blocks(table, alpha, dt).left
    difference = (alpha**2 / mesh.h**2) * table.B
    q, r = np.linalg.qr(left[:, _LOCAL], mode="complete")
    r_b, q_1, q_2 = r[:4], q[:, :4], q[:, 4:]
    check_pivots(np.diag(r_b))
    shared = left[:, _SHARED]
    coupling = _solve_upper(r_b, q_1.T @ shared)
    element_rhs = np.vstack([_solve_upper(r_b, q_1.T @ difference), q_2.T @ difference])
    local_solve = np.hstack([-coupling[:, :2], np.eye(4), -coupling[:, 2:]])
    (interface,), reduced_to_full = _scatter(mesh.n_elements, q_2.T @ shared)
    # interface entry 2j + c (c = 0 value, 1 slope) belongs to node j: full index 6j + c
    positions = 6 * (reduced_to_full // 2) + reduced_to_full % 2
    return CondensedSystem(
        element_rhs=element_rhs,
        local_solve=local_solve,
        interface=interface,
        interface_positions=positions,
    )


def assemble_crank_nicolson(mesh, rule, alpha, dt):
    """Assemble the boundary-eliminated recursion matrices L and R."""
    blocks = element_blocks(build_basis_table(rule, mesh.h), alpha, dt)
    (left, right), reduced_to_full = _scatter(mesh.n_elements, blocks.left, blocks.right)
    return GlobalSystem(left=left, right=right, reduced_to_full=reduced_to_full)


def assemble_initial_system(mesh, rule, f):
    """Assemble W and b so that W a0 = b interpolates f at the collocation points."""
    (W,), reduced_to_full = _scatter(mesh.n_elements, build_basis_table(rule, mesh.h).H)
    b = _sample("initial_condition", f, collocation_abscissae(mesh, rule.points).ravel())
    if not np.all(np.isfinite(b)):
        raise ValueError("initial condition is not finite at every collocation point")
    return InitialSystem(W=W, b=b, reduced_to_full=reduced_to_full)
