"""Banded square matrices with LU factorization and solves.

Storage is the standard band layout: a matrix with lower bandwidth kl and
upper bandwidth ku keeps entry (i, j) at bands[ku + i - j, j], using
(kl + ku + 1) x n doubles.  The layout is also that of BLAS dgbmv, which
the solver calls directly for its matrix-vector products.  LAPACK's banded
LU appends kl extra rows for the fill-in produced by partial pivoting
(_lapack_layout); a matrix solved once can be built with them
(BandedMatrix), so that band_solve factors it where it lies.

A matrix solved once goes to band_solve, one LAPACK dgbsv (dgbtrf, then
dgbtrs).  A matrix solved repeatedly is factored by band_lu_factor into a
single form, LUFactors: dgbtrf leaves its row interchanges interleaved
with the columns of L, and LAPACK's dgbtrs applies them one column and one
BLAS call at a time, so band_lu_factor moves them all to the front,
A[perm] = L U.  Once PA = LU is known, PA needs no interchange (Golub and
Van Loan, Matrix Computations, 4th ed., section 4.3), so a second dgbtrf,
on A[perm], returns that L directly.  A solve is then one gather and two
BLAS dtbsv calls on the factors' nonzero diagonals (solver._advance).
Every row receives the same nonzero updates in the same order as under
dgbtrs, and the result is bitwise equal to it.  Everything is stored in
Fortran order so the hot time-stepping loop never copies.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._lapack import lapack as _lapack

__all__ = [
    "SingularMatrix",
    "BandedMatrix",
    "LUFactors",
    "band_lu_factor",
    "band_solve",
    "block_diagonal",
    "check_pivots",
]

# Pivots smaller than this are reported as singular even when LAPACK
# completes the factorization.
_PIVOT_FLOOR = 1e-300


class SingularMatrix(ArithmeticError):
    """Raised when elimination meets a vanishing pivot.

    pivot_index is the 1-based position of the failing pivot, following the
    LAPACK info convention.  It is the exception's only argument, and the
    message is built from it, so that a pickled copy (a forked child's
    result, solver._advance_banded) keeps both.
    """

    def __init__(self, pivot_index):
        super().__init__(pivot_index)
        self.pivot_index = pivot_index

    def __str__(self):
        return f"matrix is singular at pivot {self.pivot_index}"


class BandedMatrix:
    """Square n x n matrix with bandwidths kl and ku; Fortran-ordered bands are not copied.

    The bands may come with kl spare rows on top, (2kl + ku + 1) x n in
    all: _lapack_layout's form, which band_solve then factors in place.
    """

    def __init__(self, n, kl, ku, bands):
        if n < 1 or kl < 0 or ku < 0:
            raise ValueError("need n >= 1 and nonnegative bandwidths")
        self.n = n
        self.kl = kl
        self.ku = ku
        storage = np.asfortranarray(bands, dtype=float)
        if storage.shape not in ((kl + ku + 1, n), (2 * kl + ku + 1, n)):
            raise ValueError("band storage must have shape (kl + ku + 1, n) or (2kl + ku + 1, n)")
        self._storage = storage
        self.bands = storage[len(storage) - (kl + ku + 1) :]


@dataclass(frozen=True)
class LUFactors:
    """Pivoted LU factorization A[perm] = L U of a BandedMatrix, for repeated solves.

    Both factors are in dtbsv's band storage, Fortran-ordered, and end at
    their last nonzero diagonal: lower is the unit lower triangular L, entry
    (i, j) at lower[i - j, j], and upper is U, entry (i, j) at
    upper[k + i - j, j] with k = upper.shape[0] - 1.
    """

    perm: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @property
    def width(self):
        """Lower bandwidth of L in the permuted form."""
        return self.lower.shape[0] - 1


def check_pivots(diagonal):
    """Raise SingularMatrix at the first pivot not at least _PIVOT_FLOOR in size.

    Written so that a NaN pivot fails too, as an overflow in the matrix
    leaves NaN on the diagonal without LAPACK reporting it.
    """
    bad = np.nonzero(~(np.abs(diagonal) >= _PIVOT_FLOOR))[0]
    if bad.size:
        raise SingularMatrix(int(bad[0]) + 1)


def _lapack_layout(m):
    """m's bands in the (2kl + ku + 1) x n layout of dgbtrf and dgbsv.

    The kl rows on top are left for the fill-in of the row interchanges.
    """
    ab = np.zeros((2 * m.kl + m.ku + 1, m.n), order="F")
    ab[m.kl :, :] = m.bands
    return ab


def _check_factors(routine, info, pivots):
    """Raise if dgbtrf or dgbsv failed, or at a pivot check_pivots refuses."""
    if info < 0:
        raise ValueError(f"illegal argument {-info} passed to {routine}")
    if info > 0:
        raise SingularMatrix(info)
    check_pivots(pivots)


def _permuted(m, perm):
    """A[perm] (row i is row perm[i] of A) in _lapack_layout's form: ab, kl and ku.

    kl = m.kl + max(i - perm[i]) and ku = m.ku + max(perm[i] - i).

    In a Fortran-order band buffer of r rows, entry (i, j) lies at element
    d + i + (r - 1) j of it, d the main diagonal's slot, so the band part of
    each matrix row is a strided view of the buffer: r - 1 apart along a
    row, and r from one row's window to the next.  Both buffers get zero
    columns on either side, so that the views of the first and last rows
    stay inside them.  A's rows are then gathered by perm in one copy, and
    row i lands in the window of A[perm]'s row i that starts at column
    perm[i] - m.kl: one row index and one window offset per row, not one
    index per band slot.
    """
    n, width = m.n, m.kl + m.ku + 1
    moved = np.empty(n, dtype=np.intp)
    moved[perm] = np.arange(n)
    moved -= np.arange(n)  # row p of A is row p + moved[p] of A[perm]
    kl, ku = m.kl + int(moved.max()), m.ku - int(moved.min())
    size = np.dtype(float).itemsize
    source = np.zeros((width, m.kl + n + m.ku), order="F")
    source[:, m.kl : m.kl + n] = m.bands
    rows = as_strided(  # rows[p, c] is entry (p, p - m.kl + c) of A
        source.ravel(order="K")[m.kl + m.ku :], (n, width), (width * size, (width - 1) * size)
    )
    height = 2 * kl + ku + 1
    target = np.zeros((height, kl + n + ku), order="F")
    windows = as_strided(  # windows[i, o, c] is entry (i, i - kl + o + c) of A[perm]
        target.ravel(order="K")[height - 1 :],
        (n, kl + ku + 2 - width, width),
        (height * size, (height - 1) * size, (height - 1) * size),
    )
    index = np.arange(n)
    windows[index, kl - m.kl + perm - index] = rows[perm]
    return target[:, kl : kl + n], kl, ku


def _used(diagonals):
    """Rows of diagonals, ordered outward from the main one, up to its last nonzero."""
    used = np.flatnonzero(diagonals.any(axis=1))
    return int(used[-1]) + 1 if used.size else 0


def band_lu_factor(m):
    """Factor A[perm] = LU within band storage (partial pivoting).

    dgbtrf on A gives U, the interchanges and perm (dlaswp of 0 .. n-1).
    A second dgbtrf, on A[perm], then needs no interchange and returns L's
    multipliers with the interchanges already at the front: at each column
    the pivot row is on top and a largest candidate, so idamax keeps it,
    and every row receives the same updates in the same order as in the
    first call.  upper is the first call's U, and lower that L with -0.0
    (a zero multiplier over a negative pivot) stored as 0.0, each trimmed
    to its last nonzero diagonal.  L can be far wider than kl + ku on a
    general band matrix (n = 1600, kl = 3, ku = 2 and random entries gave
    1255); the matrices this package builds keep it within kl + ku.

    Raises SingularMatrix at a vanishing pivot, and RuntimeError should the
    second dgbtrf interchange rows after all (a NaN below a pivot can).
    """
    n, k = m.n, m.kl + m.ku
    lu_bands, ipiv, info = _lapack.dgbtrf(_lapack_layout(m), m.kl, m.ku, overwrite_ab=1)
    _check_factors("dgbtrf", info, lu_bands[k])
    perm = _lapack.dlaswp(np.arange(n, dtype=float)[:, None], ipiv)[:, 0].astype(np.intp)
    ab, kl, ku = _permuted(m, perm)
    lu, pivots, info = _lapack.dgbtrf(ab, kl, ku, overwrite_ab=1)
    if info != 0 or np.any(pivots != np.arange(n)):
        raise RuntimeError(f"dgbtrf interchanged rows of the {n} x {n} matrix in pivot order")
    multipliers = lu[kl + ku + 1 :]  # row r holds the multiplier of row j + 1 + r in column j
    used = multipliers[: _used(multipliers)] + 0.0  # -0.0 + 0.0 is 0.0
    lower = np.asfortranarray(np.vstack([np.ones(n), used]))
    upper = np.array(lu_bands[k + 1 - _used(lu_bands[k::-1]) : k + 1], order="F")
    return LUFactors(perm=perm, lower=lower, upper=upper)


def band_solve(m, b):
    """Solve A x = b once, by one LAPACK dgbsv (dgbtrf, then dgbtrs).

    A matrix stored with its kl spare rows (BandedMatrix) is factored in
    that storage, without a copy, and is not A afterwards; any other is
    copied into _lapack_layout first.
    The solve is backward stable; its forward accuracy depends on the
    conditioning of A (relative error of order cond(A) * eps).  Pivots are
    checked as in band_lu_factor, and a solution that is not finite raises
    ValueError: a NaN below a finite pivot passes the pivot check.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (m.n,):
        raise ValueError(f"vector of length {b.shape} does not match n = {m.n}")
    spare = len(m._storage) == 2 * m.kl + m.ku + 1
    ab = m._storage if spare else _lapack_layout(m)
    lu_bands, _, x, info = _lapack.dgbsv(m.kl, m.ku, ab, b, overwrite_ab=1)
    _check_factors("dgbsv", info, lu_bands[m.kl + m.ku])
    if not np.all(np.isfinite(x)):
        raise ValueError(f"the solution of the {m.n} x {m.n} system is not finite")
    return x


def block_diagonal(matrices):
    """Block-diagonal matrix of matrices, their band columns side by side.

    Each block's bands are padded with zero rows to the widest kl and ku.
    No pivot crosses a block, so band_lu_factor of the stack solves each
    block bitwise as that block's own factors do.
    """
    if len(matrices) == 1:
        return matrices[0]
    kl = max(m.kl for m in matrices)
    ku = max(m.ku for m in matrices)
    padded = [np.pad(m.bands, ((ku - m.ku, kl - m.kl), (0, 0))) for m in matrices]
    return BandedMatrix(sum(m.n for m in matrices), kl, ku, np.concatenate(padded, axis=1))
