"""Banded square matrices with LU factorization and solves.

Storage is the standard band layout: a matrix with lower bandwidth kl and
upper bandwidth ku keeps entry (i, j) at bands[ku + i - j, j], using
(kl + ku + 1) x n doubles.  Factorization appends kl extra rows for the
fill-in produced by partial pivoting and is delegated to LAPACK dgbtrf.
The layout is also that of BLAS dgbmv, which the solver calls directly for
its matrix-vector products.

dgbtrf leaves its row interchanges interleaved with the columns of L, and
LAPACK's dgbtrs applies them one column and one BLAS call at a time.
band_lu_factor moves them all to the front once, A[perm] = L U (Golub and
Van Loan, Matrix Computations, 4th ed., section 4.3), so that a solve is
one gather and two BLAS dtbsv calls, each a single loop.  Every row then
receives the same updates in the same order as under dgbtrs, and the
result is bitwise equal to it.  Everything is stored in Fortran order so
the hot time-stepping loop never copies.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._lapack import blas as _blas
from ._lapack import lapack as _lapack

__all__ = [
    "SingularMatrix",
    "BandedMatrix",
    "LUFactors",
    "band_lu_factor",
    "band_lu_solve",
    "block_diagonal",
    "check_pivots",
]

# Pivots smaller than this are reported as singular even when LAPACK
# completes the factorization.
_PIVOT_FLOOR = 1e-300


class SingularMatrix(ArithmeticError):
    """Raised when elimination meets a vanishing pivot.

    pivot_index is the 1-based position of the failing pivot, following the
    LAPACK info convention.
    """

    def __init__(self, pivot_index):
        self.pivot_index = pivot_index
        super().__init__(f"matrix is singular at pivot {pivot_index}")


class BandedMatrix:
    """Square n x n matrix with bandwidths kl (below) and ku (above)."""

    def __init__(self, n, kl, ku, bands=None):
        if n < 1 or kl < 0 or ku < 0:
            raise ValueError("need n >= 1 and nonnegative bandwidths")
        self.n = n
        self.kl = kl
        self.ku = ku
        if bands is None:
            bands = np.zeros((kl + ku + 1, n), order="F")
        else:
            bands = np.asfortranarray(bands, dtype=float)
            if bands.shape != (kl + ku + 1, n):
                raise ValueError("band storage must have shape (kl + ku + 1, n)")
        self.bands = bands

    @classmethod
    def from_entries(cls, n, rows, cols, values):
        """Build from parallel index/value arrays (each position set once)."""
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        kl = max(int(np.max(rows - cols)), 0)
        ku = max(int(np.max(cols - rows)), 0)
        m = cls(n, kl, ku)
        m.bands[m.ku + rows - cols, cols] = values
        return m

    def to_dense(self):
        dense = np.zeros((self.n, self.n))
        # only the diagonals that meet the matrix; kl or ku may pass n - 1
        for d in range(max(-self.kl, 1 - self.n), min(self.ku, self.n - 1) + 1):
            lo = max(0, d)
            hi = min(self.n, self.n + d)
            idx = np.arange(lo, hi)
            dense[idx - d, idx] = self.bands[self.ku - d, lo:hi]
        return dense


@dataclass(frozen=True)
class LUFactors:
    """Pivoted LU factorization of a BandedMatrix, ready for repeated solves.

    lu_bands and ipiv are dgbtrf's output: U in rows 0 .. kl + ku of
    lu_bands (dtbsv's upper band storage with k = kl + ku), the multipliers
    of column j below it, and the interchanges interleaved with them.
    perm and lower hold the same factors with the interchanges moved to the
    front, A[perm] = L U: lower is the unit lower triangular L with entry
    (i, j) at lower[i - j, j] (dtbsv's lower band storage, k = width).
    Both are None when L would be wider than kl + ku (see band_lu_factor),
    and in factors made for a single solve.
    """

    n: int
    kl: int
    ku: int
    lu_bands: np.ndarray
    ipiv: np.ndarray
    perm: Optional[np.ndarray]
    lower: Optional[np.ndarray]

    @property
    def width(self):
        """Lower bandwidth of L in the permuted form, or None without one."""
        return None if self.lower is None else self.lower.shape[0] - 1


def check_pivots(diagonal):
    """Raise SingularMatrix at the first pivot not at least _PIVOT_FLOOR in size.

    Written so that a NaN pivot fails too, as an overflow in the matrix
    leaves NaN on the diagonal without LAPACK reporting it.
    """
    bad = np.nonzero(~(np.abs(diagonal) >= _PIVOT_FLOOR))[0]
    if bad.size:
        raise SingularMatrix(int(bad[0]) + 1)


def _front_interchanges(lu_bands, ipiv, n, kl, ku):
    """(perm, lower) of dgbtrf's factors with every interchange moved to the front.

    perm is dlaswp applied to 0 .. n-1.  The multiplier of row j + r in
    column j is stored where swap j left it; each later swap j + s (s >= 1)
    exchanges two rows at or below j + s and carries it along.  offset
    tracks, per multiplier, its row relative to j, and swap j + s is
    replayed on every column at once.  A multiplier at offset below s is
    in place for good, as later swaps touch only rows below it.  Zero
    multipliers (and those past row n) are not tracked: they add nothing,
    and this keeps the factors of a block-diagonal matrix equal to its
    blocks' (see block_diagonal).

    Returns (None, None) once L's lower bandwidth passes kl + ku, which
    keeps the lower solve no costlier than the upper one; general band
    matrices can pass it by far (n = 1600, kl = 3, ku = 2 and random
    entries gave 1255), the matrices this package builds do not.
    """
    cap = kl + ku
    perm = _lapack.dlaswp(np.arange(n, dtype=float)[:, None], ipiv)[:, 0].astype(np.intp)
    columns = np.arange(n)
    r = np.arange(1, kl + 1)[:, None]
    small = np.min_scalar_type(cap + kl)
    offset = np.repeat(r.astype(small), n, axis=1)
    multipliers = np.ascontiguousarray(lu_bands[cap + 1 :, :])
    offset[(columns + r >= n) | (multipliers == 0.0)] = 0
    # swap j + s exchanges the rows at offsets s and s + shift[j + s] from j
    shift = (ipiv - columns).astype(small)
    for s in range(1, cap + 1):
        if not (offset >= s).any():
            break
        moved = np.zeros(n, dtype=small)
        moved[: n - s] = shift[s:]
        down = moved * (offset == s)
        offset -= moved * (offset == moved + s)
        offset += down
    width = int(offset.max(initial=0))
    if width > cap:
        return None, None
    lower = np.zeros((width + 1, n), order="F")
    # untracked multipliers land on the diagonal, which is then set to 1
    lower.reshape(-1, order="F")[columns * (width + 1) + offset] = multipliers
    lower[0] = 1.0
    return perm, lower


def _interleaved_factors(m):
    """dgbtrf's factors of m, without the permuted form.

    Enough for a single solve, which band_lu_solve passes to dgbtrs; the
    permuted form costs more to build than it saves there.
    """
    ab = np.zeros((2 * m.kl + m.ku + 1, m.n), order="F")
    ab[m.kl :, :] = m.bands
    lu_bands, ipiv, info = _lapack.dgbtrf(ab, m.kl, m.ku, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} passed to dgbtrf")
    if info > 0:
        raise SingularMatrix(info)
    check_pivots(lu_bands[m.kl + m.ku, :])
    return LUFactors(n=m.n, kl=m.kl, ku=m.ku, lu_bands=lu_bands, ipiv=ipiv, perm=None, lower=None)


def band_lu_factor(m):
    """Factor A[perm] = LU within band storage (partial pivoting)."""
    factors = _interleaved_factors(m)
    perm, lower = _front_interchanges(factors.lu_bands, factors.ipiv, m.n, m.kl, m.ku)
    return replace(factors, perm=perm, lower=lower)


def band_lu_solve(factors, b):
    """Solve A x = b using a previously computed factorization.

    The solve is backward stable; its forward accuracy depends on the
    conditioning of A (relative error of order cond(A) * eps).  Factors
    without the permuted form are solved by LAPACK dgbtrs, bitwise equal.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (factors.n,):
        raise ValueError(f"vector of length {b.shape} does not match n = {factors.n}")
    if factors.lower is None:
        x, info = _lapack.dgbtrs(factors.lu_bands, factors.kl, factors.ku, b, factors.ipiv)
        if info != 0:
            raise ValueError(f"dgbtrs failed with info = {info}")
        return x
    y = _blas.dtbsv(factors.width, factors.lower, b[factors.perm], 1, 0, 1, 0, 1, 1)
    return _blas.dtbsv(factors.kl + factors.ku, factors.lu_bands, y, 1, 0, 0, 0, 0, 1)


def block_diagonal(matrices, factors):
    """Block-diagonal matrix of matrices with equal bandwidths, and its factors.

    factors[i] is the LU factorization of matrices[i].  Band columns are
    placed side by side, each block's pivots and permutation are offset by
    the rows before it, and the lower factors are padded with zero bands to
    the widest.  No pivot crosses a block, so the factors equal those of
    band_lu_factor on the stacked matrix, bitwise.
    """
    if len(matrices) == 1:
        return matrices[0], factors[0]
    kl, ku = matrices[0].kl, matrices[0].ku
    if any((m.kl, m.ku) != (kl, ku) for m in matrices):
        raise ValueError("blocks must share their bandwidths")
    n = sum(m.n for m in matrices)
    bands = np.concatenate([m.bands for m in matrices], axis=1)
    lu_bands = np.asfortranarray(np.concatenate([f.lu_bands for f in factors], axis=1))
    offsets = np.cumsum([0] + [m.n for m in matrices[:-1]]).tolist()
    ipiv = np.concatenate([f.ipiv + offset for f, offset in zip(factors, offsets)])
    perm = lower = None
    if all(f.lower is not None for f in factors):
        perm = np.concatenate([f.perm + offset for f, offset in zip(factors, offsets)])
        width = max(f.width for f in factors)
        padded = [np.pad(f.lower, ((0, width - f.width), (0, 0))) for f in factors]
        lower = np.asfortranarray(np.concatenate(padded, axis=1))
    stacked = LUFactors(n=n, kl=kl, ku=ku, lu_bands=lu_bands, ipiv=ipiv, perm=perm, lower=lower)
    return BandedMatrix(n, kl, ku, bands), stacked
