"""Banded square matrices with LU factorization and solves.

Storage is the standard band layout: a matrix with lower bandwidth kl and
upper bandwidth ku keeps entry (i, j) at bands[ku + i - j, j], using
(kl + ku + 1) x n doubles.  Factorization appends kl extra rows for the
fill-in produced by partial pivoting and is delegated to LAPACK (dgbtrf /
dgbtrs); matrix-vector products use BLAS dgbmv.  Everything is stored in
Fortran order so the hot time-stepping loop never copies.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas as _blas
from scipy.linalg import lapack as _lapack

__all__ = [
    "SingularMatrix",
    "BandedMatrix",
    "LUFactors",
    "band_matvec",
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
        for d in range(-self.kl, self.ku + 1):
            lo = max(0, d)
            hi = min(self.n, self.n + d)
            idx = np.arange(lo, hi)
            dense[idx - d, idx] = self.bands[self.ku - d, lo:hi]
        return dense


@dataclass(frozen=True)
class LUFactors:
    """Pivoted LU factorization of a BandedMatrix, ready for repeated solves."""

    n: int
    kl: int
    ku: int
    lu_bands: np.ndarray
    ipiv: np.ndarray


def band_matvec(m, v):
    """Product m @ v restricted to the band."""
    v = np.asarray(v, dtype=float)
    if v.shape != (m.n,):
        raise ValueError(f"vector of length {v.shape} does not match n = {m.n}")
    if m.n >= m.kl + m.ku + 1:
        return _blas.dgbmv(m.n, m.n, m.kl, m.ku, 1.0, m.bands, v)
    # the BLAS wrapper rejects matrices narrower than their band; sum the
    # diagonals directly instead
    out = np.zeros(m.n)
    for d in range(-m.kl, m.ku + 1):
        lo = max(0, d)
        hi = min(m.n, m.n + d)
        out[lo - d : hi - d] += m.bands[m.ku - d, lo:hi] * v[lo:hi]
    return out


def check_pivots(diagonal):
    """Raise SingularMatrix at the first pivot not at least _PIVOT_FLOOR in size.

    Written so that a NaN pivot fails too, as an overflow in the matrix
    leaves NaN on the diagonal without LAPACK reporting it.
    """
    bad = np.nonzero(~(np.abs(diagonal) >= _PIVOT_FLOOR))[0]
    if bad.size:
        raise SingularMatrix(int(bad[0]) + 1)


def band_lu_factor(m):
    """Factor PA = LU within band storage (partial pivoting)."""
    ab = np.zeros((2 * m.kl + m.ku + 1, m.n), order="F")
    ab[m.kl :, :] = m.bands
    lu_bands, ipiv, info = _lapack.dgbtrf(ab, m.kl, m.ku, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} passed to dgbtrf")
    if info > 0:
        raise SingularMatrix(info)
    check_pivots(lu_bands[m.kl + m.ku, :])
    return LUFactors(n=m.n, kl=m.kl, ku=m.ku, lu_bands=lu_bands, ipiv=ipiv)


def band_lu_solve(factors, b):
    """Solve A x = b using a previously computed factorization.

    The solve is backward stable; its forward accuracy depends on the
    conditioning of A (relative error of order cond(A) * eps).
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (factors.n,):
        raise ValueError(f"vector of length {b.shape} does not match n = {factors.n}")
    x, info = _lapack.dgbtrs(factors.lu_bands, factors.kl, factors.ku, b, factors.ipiv)
    if info != 0:
        raise ValueError(f"dgbtrs failed with info = {info}")
    return x


def block_diagonal(matrices, factors):
    """Block-diagonal matrix of matrices with equal bandwidths, and its factors.

    factors[i] is the LU factorization of matrices[i].  Band columns are
    placed side by side and each block's pivots are offset by the rows
    before it.  No pivot crosses a block, so the factors equal those of
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
    return BandedMatrix(n, kl, ku, bands), LUFactors(n=n, kl=kl, ku=ku, lu_bands=lu_bands, ipiv=ipiv)
