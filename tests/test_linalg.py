import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

from hermite_heat import build_mesh, chebyshev_rule, control_problem, legendre_rule
from hermite_heat.assembly import assemble_crank_nicolson, assemble_initial_system
from hermite_heat.linalg import (
    BandedMatrix,
    SingularMatrix,
    _interleaved_factors,
    band_lu_factor,
    band_lu_solve,
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


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_to_dense_reads_the_band_slots_even_when_a_bandwidth_passes_n(n):
    """Entry (i, j) is bands[ku + i - j, j] for every shape, including kl or
    ku >= n (diagonals that miss the matrix); the other slots are ignored."""
    rng = np.random.default_rng(n)
    for kl in range(9):
        for ku in range(9):
            m = BandedMatrix(n, kl, ku, rng.normal(size=(kl + ku + 1, n)))
            expected = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    if -kl <= j - i <= ku:
                        expected[i, j] = m.bands[ku + i - j, j]
            assert np.array_equal(m.to_dense(), expected), (kl, ku)


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
    b = m.to_dense() @ x0
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


def assert_stack_equals_a_fresh_factorization(blocks, rng):
    """Stack blocks with block_diagonal, check it against band_lu_factor of
    the stacked matrix and against solo solves, bitwise; return its factors."""
    factors = [band_lu_factor(m) for m in blocks]
    stacked, stacked_factors = block_diagonal(blocks, factors)
    n = sum(m.n for m in blocks)
    dense = np.zeros((n, n))
    start = 0
    for m in blocks:
        dense[start : start + m.n, start : start + m.n] = m.to_dense()
        start += m.n
    assert np.array_equal(stacked.to_dense(), dense)
    fresh = band_lu_factor(stacked)
    assert np.array_equal(stacked_factors.lu_bands, fresh.lu_bands)
    assert np.array_equal(stacked_factors.ipiv, fresh.ipiv)
    for name in ("perm", "lower"):
        ours, theirs = getattr(stacked_factors, name), getattr(fresh, name)
        assert (ours is None) == (theirs is None) == any(getattr(f, name) is None for f in factors)
        assert ours is None or np.array_equal(ours, theirs)
    b = rng.normal(size=n)
    x = band_lu_solve(stacked_factors, b)
    assert np.array_equal(x, band_lu_solve(fresh, b))
    pieces = np.split(b, np.cumsum([m.n for m in blocks])[:-1])
    assert np.array_equal(x, np.concatenate([band_lu_solve(f, p) for f, p in zip(factors, pieces)]))
    return stacked_factors


def test_block_diagonal_factors_equal_a_fresh_factorization_bitwise():
    """Pivots never cross blocks, so side-by-side LU bands with offset
    pivots are exactly the factorization of the stacked matrix.  So are the
    offset permutations and the lower factors padded to the widest, as
    zero multipliers (here those that cross into the next block) are not
    carried by the interchanges."""
    rng = np.random.default_rng(7)
    blocks = [random_band(rng, n, 3, 2, dominant=False) for n in (7, 2, 30, 12)]
    # these random blocks pivot past the width cap, so only the
    # interleaved factors stack
    assert assert_stack_equals_a_fresh_factorization(blocks, rng).lower is None
    problem = control_problem()
    steps = [
        assemble_crank_nicolson(build_mesh(problem, n), legendre_rule(), 1.0, dt).left
        for n, dt in ((2, 1e-5), (4, 1e-2), (7, 1e-3), (3, 1e-5))
    ]
    stacked = assert_stack_equals_a_fresh_factorization(steps, rng)
    widths = [band_lu_factor(m).width for m in steps]
    assert stacked.width == max(widths) > min(widths)
    assert stacked.lower.flags.f_contiguous
    factors = band_lu_factor(blocks[0])
    with pytest.raises(ValueError):
        block_diagonal([blocks[0], identity_band(3)], [factors, band_lu_factor(identity_band(3))])


def dense_factors(factors):
    """Dense L and U of the permuted form, from its band storage."""
    n, width = factors.n, factors.width
    lower = BandedMatrix(n, width, 0, factors.lower).to_dense()
    k = factors.kl + factors.ku
    upper = BandedMatrix(n, 0, k, factors.lu_bands[: k + 1]).to_dense()
    return lower, upper


def lower_width(dense_lower):
    rows, cols = np.nonzero(dense_lower)
    return int(np.max(rows - cols, initial=0))


# (n, kl, ku): n <= 3 kl, kl = 0, and n <= kl + ku + 1, where no width can
# pass the cap, among them
RANDOM_SHAPES = [(1, 0, 0), (5, 0, 2), (3, 1, 1), (4, 2, 1), (6, 2, 1), (7, 3, 3), (9, 3, 3), (12, 4, 2), (40, 3, 2), (60, 6, 6)]


def test_permuted_factors_reproduce_the_matrix():
    """A[perm] = L U to rounding, with L unit lower triangular.  perm and L
    are those of a dense partial-pivoting LU, which picks the same pivots,
    and the permuted form is stored exactly when that L is at most kl + ku
    wide.  Random non-dominant matrices mostly pass that width (their
    interchanges carry multipliers far down); the dominant ones never pivot."""
    rng = np.random.default_rng(8)
    eps = np.finfo(float).eps
    stored = past_cap = 0
    for n, kl, ku in RANDOM_SHAPES:
        for dominant in (True, False, False, False):
            m = random_band(rng, n, kl, ku, dominant=dominant)
            factors = band_lu_factor(m)
            dense = m.to_dense()
            p, dense_lower, dense_upper = scipy.linalg.lu(dense)
            if factors.lower is None:
                assert lower_width(dense_lower) > kl + ku
                past_cap += 1
                continue
            stored += 1
            assert factors.width == lower_width(dense_lower) <= kl + ku
            assert factors.lower.shape == (factors.width + 1, n) and factors.lower.flags.f_contiguous
            lower, upper = dense_factors(factors)
            assert np.array_equal(np.diag(lower), np.ones(n))
            bound = 4 * (factors.width + 1) * eps * (np.abs(lower) @ np.abs(upper))
            assert np.all(np.abs(dense[factors.perm] - lower @ upper) <= bound)
            assert np.array_equal(factors.perm, np.argmax(p, axis=0))
            assert lower == pytest.approx(dense_lower, rel=1e-12, abs=1e-12)
            assert upper == pytest.approx(dense_upper, rel=1e-12, abs=1e-12)
    assert stored >= 20 and past_cap >= 5


def package_matrices(n_elements):
    """L and W for both rules at one N, named for messages."""
    problem = control_problem()
    mesh = build_mesh(problem, n_elements)
    for rule in (legendre_rule(), chebyshev_rule()):
        name = f"{rule.kind}, N = {n_elements}"
        yield f"L ({name})", assemble_crank_nicolson(mesh, rule, 1.0, 1e-3).left
        yield f"W ({name})", assemble_initial_system(mesh, rule, problem.initial_condition).W


@pytest.mark.parametrize("n_elements", [1, 2, 4, 40, 171, 1000])
def test_permuted_solve_equals_dgbtrs_bitwise_on_the_package_matrices(n_elements):
    """Each row receives the same updates in the same order as under dgbtrs.
    These matrices pivot (L and W move a half to all of their rows at
    N = 1000) and stay within the cap."""
    rng = np.random.default_rng(n_elements)
    eps = np.finfo(float).eps
    for name, m in package_matrices(n_elements):
        factors = band_lu_factor(m)
        assert factors.lower is not None, name
        if n_elements <= 4:
            lower, upper = dense_factors(factors)
            bound = 4 * (factors.width + 1) * eps * (np.abs(lower) @ np.abs(upper))
            assert np.all(np.abs(m.to_dense()[factors.perm] - lower @ upper) <= bound), name
        b = rng.normal(size=m.n)
        expected, info = lapack.dgbtrs(factors.lu_bands, m.kl, m.ku, b, factors.ipiv)
        assert info == 0
        assert np.array_equal(band_lu_solve(factors, b), expected), name
        assert np.array_equal(band_lu_solve(_interleaved_factors(m), b), expected), name


def test_permuted_solve_equals_dgbtrs_bitwise_on_random_matrices():
    rng = np.random.default_rng(9)
    solved = 0
    for n, kl, ku in RANDOM_SHAPES:
        for dominant in (True, False, False, False):
            m = random_band(rng, n, kl, ku, dominant=dominant)
            factors = band_lu_factor(m)
            solved += factors.lower is not None
            for b in (rng.normal(size=n), rng.normal(size=n) * 1e-300, np.zeros(n)):
                expected, _ = lapack.dgbtrs(factors.lu_bands, kl, ku, b, factors.ipiv)
                assert np.array_equal(band_lu_solve(factors, b), expected)
    assert solved >= 20


def test_matrix_past_the_width_cap_keeps_the_interleaved_solve():
    """Interchanges can carry a multiplier far down a general band matrix:
    here the dense LU's L is 1255 wide.  The factors then store no permuted
    form, and band_lu_solve takes dgbtrs, still backward stable (the
    normwise backward error measured 0.23 eps)."""
    rng = np.random.default_rng(10)
    m = random_band(rng, 1600, 3, 2, dominant=False)
    factors = band_lu_factor(m)
    assert factors.perm is None and factors.lower is None and factors.width is None
    dense = m.to_dense()
    assert lower_width(scipy.linalg.lu(dense)[1]) > m.kl + m.ku
    b = rng.normal(size=m.n)
    x = band_lu_solve(factors, b)
    expected, _ = lapack.dgbtrs(factors.lu_bands, m.kl, m.ku, b, factors.ipiv)
    assert np.array_equal(x, expected)
    residual = np.max(np.abs(dense @ x - b))
    scale = np.max(np.abs(dense) @ np.abs(x) + np.abs(b))
    assert residual <= 10 * (m.kl + m.ku + 1) * np.finfo(float).eps * scale
    blocks = [m, identity_band(4, 3, 2)]
    assert block_diagonal(blocks, [factors, band_lu_factor(blocks[1])])[1].lower is None
