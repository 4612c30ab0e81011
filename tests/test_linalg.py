import numpy as np
import pytest

from hermite_heat.linalg import (
    BandedMatrix,
    SingularMatrix,
    band_lu_factor,
    band_lu_solve,
    band_matvec,
    block_diagonal,
    check_pivots,
)


def gauss_solve(a, b):
    """Dense Gaussian elimination with partial pivoting (test oracle)."""
    a = np.array(a, dtype=float)
    x = np.array(b, dtype=float)
    n = len(x)
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0.0:
            raise ZeroDivisionError("singular")
        if p != k:
            a[[k, p]] = a[[p, k]]
            x[[k, p]] = x[[p, k]]
        for i in range(k + 1, n):
            factor = a[i, k] / a[k, k]
            a[i, k + 1 :] -= factor * a[k, k + 1 :]
            x[i] -= factor * x[k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    return x


def random_band(rng, n, kl, ku, dominant=True):
    """Random entry (i, j) of the band, drawn row by row; entry (i, j) is
    stored at bands[ku + i - j, j]."""
    bands = np.zeros((kl + ku + 1, n))
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            bands[ku + i - j, j] = rng.normal()
    if dominant:
        bands[ku] += kl + ku + 3.0
    return BandedMatrix(n, kl, ku, bands)


def identity_band(n, kl=1, ku=1):
    bands = np.zeros((kl + ku + 1, n))
    bands[ku] = 1.0
    return BandedMatrix(n, kl, ku, bands)


def test_matvec_identity():
    m = identity_band(3)
    assert band_matvec(m, np.array([1.0, 2.0, 3.0])) == pytest.approx([1, 2, 3])


def test_matvec_zero_matrix():
    m = BandedMatrix(4, 2, 2)
    assert band_matvec(m, np.arange(4.0)) == pytest.approx([0, 0, 0, 0], abs=0.0)


def test_matvec_against_dense():
    rng = np.random.default_rng(1)
    m = random_band(rng, 10, 3, 3, dominant=False)
    v = rng.normal(size=10)
    assert band_matvec(m, v) == pytest.approx(m.to_dense() @ v, abs=1e-14)


def test_matvec_dimension_mismatch():
    with pytest.raises(ValueError):
        band_matvec(identity_band(3), np.ones(4))


def test_factor_identity_solves_identity():
    factors = band_lu_factor(identity_band(2))
    assert band_lu_solve(factors, np.array([5.0, 6.0])) == pytest.approx([5.0, 6.0])


def test_zero_one_by_one_matrix_is_singular():
    m = BandedMatrix(1, 0, 0)
    with pytest.raises(SingularMatrix) as info:
        band_lu_factor(m)
    assert info.value.pivot_index == 1


def test_subnormal_pivot_reported_singular():
    m = identity_band(3)
    m.bands[m.ku, 1] = 1e-310
    with pytest.raises(SingularMatrix):
        band_lu_factor(m)


def test_nan_pivot_reported_singular():
    """NaN fails every comparison, so the pivot check is written to fail on it.
    An overflow in the matrix (inf - inf) leaves such pivots."""
    m = identity_band(3)
    m.bands[m.ku, 1] = np.nan
    with pytest.raises(SingularMatrix) as info:
        band_lu_factor(m)
    assert info.value.pivot_index == 2
    with pytest.raises(SingularMatrix) as info:
        check_pivots(np.array([1.0, -2.0, np.nan, 0.0]))
    assert info.value.pivot_index == 3
    check_pivots(np.array([1.0, -1e-300, np.inf]))


def test_residual_on_diagonally_dominant_system():
    rng = np.random.default_rng(2)
    m = random_band(rng, 20, 4, 4)
    b = rng.normal(size=20)
    x = band_lu_solve(band_lu_factor(m), b)
    residual = m.to_dense() @ x - b
    assert np.max(np.abs(residual)) / np.max(np.abs(b)) < 1e-12


def test_solve_recovers_known_vector():
    rng = np.random.default_rng(3)
    m = random_band(rng, 25, 3, 5)
    x0 = rng.normal(size=25)
    b = band_matvec(m, x0)
    x = band_lu_solve(band_lu_factor(m), b)
    assert x == pytest.approx(x0, rel=1e-10)


def test_zero_rhs_gives_zero_solution():
    rng = np.random.default_rng(4)
    m = random_band(rng, 12, 2, 2)
    x = band_lu_solve(band_lu_factor(m), np.zeros(12))
    assert np.max(np.abs(x)) == 0.0


def test_solve_dimension_mismatch():
    factors = band_lu_factor(identity_band(3))
    with pytest.raises(ValueError):
        band_lu_solve(factors, np.ones(5))


def test_band_solves_match_dense_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 61))
        kw = int(rng.integers(1, 10))
        kw = min(kw, n - 1)
        m = random_band(rng, n, kw, kw)
        b = rng.normal(size=n)
        x = band_lu_solve(band_lu_factor(m), b)
        expected = gauss_solve(m.to_dense(), b)
        assert x == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_factorization_is_reusable_bitwise():
    rng = np.random.default_rng(6)
    m = random_band(rng, 30, 4, 4)
    b1 = rng.normal(size=30)
    b2 = rng.normal(size=30)
    factors = band_lu_factor(m)
    x1 = band_lu_solve(factors, b1)
    x2 = band_lu_solve(factors, b2)
    y1 = band_lu_solve(band_lu_factor(m), b1)
    y2 = band_lu_solve(band_lu_factor(m), b2)
    assert np.array_equal(x1, y1)
    assert np.array_equal(x2, y2)


def test_block_diagonal_factors_equal_a_fresh_factorization_bitwise():
    """Pivots never cross blocks, so side-by-side LU bands with offset
    pivots are exactly the factorization of the stacked matrix."""
    rng = np.random.default_rng(7)
    blocks = [random_band(rng, n, 3, 2, dominant=False) for n in (7, 2, 30, 12)]
    factors = [band_lu_factor(m) for m in blocks]
    stacked, stacked_factors = block_diagonal(blocks, factors)
    dense = np.zeros((51, 51))
    start = 0
    for m in blocks:
        dense[start : start + m.n, start : start + m.n] = m.to_dense()
        start += m.n
    assert np.array_equal(stacked.to_dense(), dense)
    fresh = band_lu_factor(stacked)
    assert np.array_equal(stacked_factors.lu_bands, fresh.lu_bands)
    assert np.array_equal(stacked_factors.ipiv, fresh.ipiv)
    b = rng.normal(size=51)
    x = band_lu_solve(stacked_factors, b)
    assert np.array_equal(x, band_lu_solve(fresh, b))
    pieces = np.split(b, np.cumsum([m.n for m in blocks])[:-1])
    assert np.array_equal(x, np.concatenate([band_lu_solve(f, p) for f, p in zip(factors, pieces)]))
    with pytest.raises(ValueError):
        block_diagonal([blocks[0], identity_band(3)], [factors[0], band_lu_factor(identity_band(3))])
