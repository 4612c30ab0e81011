import pickle

import numpy as np
import pytest
import scipy.linalg

from hermite_heat import build_mesh, chebyshev_rule, control_problem, legendre_rule
from hermite_heat.assembly import assemble_crank_nicolson, assemble_initial_system
from hermite_heat.linalg import (
    BandedMatrix,
    SingularMatrix,
    band_lu_factor,
    band_solve,
    block_diagonal,
    check_pivots,
    _permuted,
)

from conftest import dense, dgbtrf, dgbtrs_solve, gauss_solve, lu_solve


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
def test_dense_reads_the_band_slots_even_when_a_bandwidth_passes_n(n):
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
            assert np.array_equal(dense(m), expected), (kl, ku)


def test_factor_identity_solves_identity():
    factors = band_lu_factor(identity_band(2))
    assert lu_solve(factors, np.array([5.0, 6.0])) == pytest.approx([5.0, 6.0])


# the two entry points that factor a matrix, each checked for singular pivots
FACTORING = (band_lu_factor, lambda m: band_solve(m, np.ones(m.n)))


def test_zero_one_by_one_matrix_is_singular():
    m = BandedMatrix(1, 0, 0, np.zeros((1, 1)))
    for factoring in FACTORING:
        with pytest.raises(SingularMatrix) as info:
            factoring(m)
        assert info.value.pivot_index == 1


def test_subnormal_pivot_reported_singular():
    m = identity_band(3)
    m.bands[m.ku, 1] = 1e-310
    for factoring in FACTORING:
        with pytest.raises(SingularMatrix):
            factoring(m)


def test_nan_pivot_reported_singular():
    """NaN fails every comparison, so the pivot check is written to fail on it.
    An overflow in the matrix (inf - inf) leaves such pivots."""
    m = identity_band(3)
    m.bands[m.ku, 1] = np.nan
    for factoring in FACTORING:
        with pytest.raises(SingularMatrix) as info:
            factoring(m)
        assert info.value.pivot_index == 2
    with pytest.raises(SingularMatrix) as info:
        check_pivots(np.array([1.0, -2.0, np.nan, 0.0]))
    assert info.value.pivot_index == 3
    check_pivots(np.array([1.0, -1e-300, np.inf]))


def test_singular_matrix_survives_pickling():
    """A forked child's refused factorization reaches its parent by pickle,
    which keeps the type, the message and the pivot."""
    error = SingularMatrix(3)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is SingularMatrix
    assert str(copy) == str(error) == "matrix is singular at pivot 3"
    assert copy.pivot_index == 3


def test_residual_on_diagonally_dominant_system():
    rng = np.random.default_rng(2)
    m = random_band(rng, 20, 4, 4)
    b = rng.normal(size=20)
    x = lu_solve(band_lu_factor(m), b)
    residual = dense(m) @ x - b
    assert np.max(np.abs(residual)) / np.max(np.abs(b)) < 1e-12


def test_solve_recovers_known_vector():
    rng = np.random.default_rng(3)
    m = random_band(rng, 25, 3, 5)
    x0 = rng.normal(size=25)
    b = dense(m) @ x0
    x = lu_solve(band_lu_factor(m), b)
    assert x == pytest.approx(x0, rel=1e-10)


def test_zero_rhs_gives_zero_solution():
    rng = np.random.default_rng(4)
    m = random_band(rng, 12, 2, 2)
    x = lu_solve(band_lu_factor(m), np.zeros(12))
    assert np.max(np.abs(x)) == 0.0


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        band_solve(identity_band(3), np.ones(5))


def test_band_solves_match_dense_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 61))
        kw = int(rng.integers(1, 10))
        kw = min(kw, n - 1)
        m = random_band(rng, n, kw, kw)
        b = rng.normal(size=n)
        expected = gauss_solve(dense(m), b)
        for x in (band_solve(m, b), lu_solve(band_lu_factor(m), b)):
            assert x == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_factorization_is_reusable_bitwise():
    rng = np.random.default_rng(6)
    m = random_band(rng, 30, 4, 4)
    b1 = rng.normal(size=30)
    b2 = rng.normal(size=30)
    factors = band_lu_factor(m)
    x1 = lu_solve(factors, b1)
    x2 = lu_solve(factors, b2)
    y1 = lu_solve(band_lu_factor(m), b1)
    y2 = lu_solve(band_lu_factor(m), b2)
    assert np.array_equal(x1, y1)
    assert np.array_equal(x2, y2)


def assert_stack_solves_each_block_bitwise(blocks, rng):
    """Stack blocks with block_diagonal and check that band_lu_factor of the
    stack solves bitwise as each block's own factors do, with a lower factor
    as wide as the widest block's; return the stack's factors."""
    stacked = block_diagonal(blocks)
    assert np.array_equal(dense(stacked), scipy.linalg.block_diag(*[dense(m) for m in blocks]))
    factors = [band_lu_factor(m) for m in blocks]
    stacked_factors = band_lu_factor(stacked)
    assert stacked_factors.lower.shape[0] - 1 == max(f.lower.shape[0] - 1 for f in factors)
    b = rng.normal(size=stacked.n)
    pieces = np.split(b, np.cumsum([m.n for m in blocks])[:-1])
    alone = np.concatenate([lu_solve(f, p) for f, p in zip(factors, pieces)])
    assert lu_solve(stacked_factors, b).tobytes() == alone.tobytes()
    return stacked_factors


def test_block_diagonal_factors_solve_each_block_bitwise():
    """Pivots never cross blocks, so one factorization of the stacked matrix
    solves every block as that block's own does.  Blocks of other
    bandwidths are padded with zero bands to the widest: N = 1's L (kl = ku
    = 5) stacks with those of N >= 2 (6, 6)."""
    rng = np.random.default_rng(7)
    # random blocks of n <= kl + ku + 1 rows pivot freely
    blocks = [random_band(rng, n, 3, 2, dominant=False) for n in (5, 2, 6, 4)]
    assert assert_stack_solves_each_block_bitwise(blocks, rng).lower.shape[0] - 1 > 0
    problem = control_problem()
    steps = [
        assemble_crank_nicolson(build_mesh(problem, n), legendre_rule(), 1.0, dt).left
        for n, dt in ((2, 1e-5), (4, 1e-2), (7, 1e-3), (3, 1e-5))
    ]
    stacked = assert_stack_solves_each_block_bitwise(steps, rng)
    widths = [band_lu_factor(m).lower.shape[0] - 1 for m in steps]
    assert stacked.lower.shape[0] - 1 == max(widths) > min(widths)
    assert stacked.lower.flags.f_contiguous
    one = assemble_crank_nicolson(build_mesh(problem, 1), legendre_rule(), 1.0, 1e-3).left
    assert (one.kl, one.ku) == (5, 5) and (steps[0].kl, steps[0].ku) == (6, 6)
    mixed = [one, steps[0], identity_band(3), random_band(rng, 5, 1, 3, dominant=False), one]
    assert_stack_solves_each_block_bitwise(mixed, rng)
    assert (block_diagonal(mixed).kl, block_diagonal(mixed).ku) == (6, 6)


def dense_factors(factors):
    """Dense L and U of the permuted form, from its band storage."""
    n = len(factors.perm)
    lower = dense(BandedMatrix(n, factors.lower.shape[0] - 1, 0, factors.lower))
    upper = dense(BandedMatrix(n, 0, factors.upper.shape[0] - 1, factors.upper))
    return lower, upper


def assert_no_negative_zero(factors):
    """A zero multiplier over a negative pivot comes out of dgbtrf as -0.0;
    band_lu_factor stores it as 0.0."""
    lower = factors.lower
    assert not np.any(np.signbit(lower) & (lower == 0.0))


def lower_width(dense_lower):
    rows, cols = np.nonzero(dense_lower)
    return int(np.max(rows - cols, initial=0))


# (n, kl, ku): n <= 3 kl, kl = 0, and n <= kl + ku + 1, where L cannot be
# wider than kl + ku, among them
RANDOM_SHAPES = [(1, 0, 0), (5, 0, 2), (3, 1, 1), (4, 2, 1), (6, 2, 1), (7, 3, 3), (9, 3, 3), (12, 4, 2), (40, 3, 2), (60, 6, 6)]


def test_permuted_factors_reproduce_the_matrix():
    """A[perm] = L U to rounding, with L unit lower triangular.  perm and L
    are those of a dense partial-pivoting LU, which picks the same pivots,
    and both factors end at their last nonzero diagonal.  Random
    non-dominant matrices mostly widen L past kl + ku (their interchanges
    carry multipliers far down); the dominant ones never pivot."""
    rng = np.random.default_rng(8)
    eps = np.finfo(float).eps
    past_kl_plus_ku = 0
    for n, kl, ku in RANDOM_SHAPES:
        for dominant in (True, False, False, False):
            m = random_band(rng, n, kl, ku, dominant=dominant)
            matrix = dense(m)
            p, dense_lower, dense_upper = scipy.linalg.lu(matrix)
            factors = band_lu_factor(m)
            width = factors.lower.shape[0] - 1
            assert width == lower_width(dense_lower)
            past_kl_plus_ku += width > kl + ku
            assert factors.lower.shape[1] == n and factors.lower.flags.f_contiguous
            assert factors.upper.shape[0] <= kl + ku + 1 and factors.upper.flags.f_contiguous
            assert factors.upper[0].any()
            lower, upper = dense_factors(factors)
            assert np.array_equal(np.diag(lower), np.ones(n))
            bound = 4 * (width + 1) * eps * (np.abs(lower) @ np.abs(upper))
            assert np.all(np.abs(matrix[factors.perm] - lower @ upper) <= bound)
            assert np.array_equal(factors.perm, np.argmax(p, axis=0))
            assert lower == pytest.approx(dense_lower, rel=1e-12, abs=1e-12)
            assert upper == pytest.approx(dense_upper, rel=1e-12, abs=1e-12)
    assert past_kl_plus_ku >= 5


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
    N = 1000).  upper is dgbtrf's U from its last nonzero superdiagonal
    down, sign bits included, and band_solve's dgbsv is dgbtrf and dgbtrs,
    so it matches too."""
    rng = np.random.default_rng(n_elements)
    eps = np.finfo(float).eps
    for name, m in package_matrices(n_elements):
        factors = band_lu_factor(m)
        assert_no_negative_zero(factors)
        k, used = m.kl + m.ku, factors.upper.shape[0]
        lu_bands = dgbtrf(m)[0]
        assert not lu_bands[: k + 1 - used].any() and factors.upper[0].any(), name
        assert factors.upper.tobytes() == lu_bands[k + 1 - used : k + 1].tobytes(), name
        if n_elements <= 4:
            lower, upper = dense_factors(factors)
            bound = 4 * factors.lower.shape[0] * eps * (np.abs(lower) @ np.abs(upper))
            assert np.all(np.abs(dense(m)[factors.perm] - lower @ upper) <= bound), name
        b = rng.normal(size=m.n)
        expected = dgbtrs_solve(m, b)
        assert np.array_equal(lu_solve(factors, b), expected), name
        assert band_solve(m, b).tobytes() == expected.tobytes(), name


def test_permuted_copies_any_row_permutation_into_lapack_layout():
    """_permuted's strided windows hold A[perm] for any permutation, not only
    the pivot orders band_lu_factor passes: first and last rows moved
    furthest included, with the kl spare rows on top left zero."""
    rng = np.random.default_rng(23)
    for n, kl, ku in [(1, 0, 0), (2, 1, 0), (5, 0, 3), (9, 4, 1), (40, 6, 6)]:
        m = random_band(rng, n, kl, ku)
        for perm in (np.arange(n), np.arange(n)[::-1].copy(), rng.permutation(n)):
            ab, new_kl, new_ku = _permuted(m, perm)
            assert ab.shape == (2 * new_kl + new_ku + 1, n) and ab.flags.f_contiguous
            assert not ab[:new_kl].any()
            assert np.array_equal(dense(BandedMatrix(n, new_kl, new_ku, ab)), dense(m)[perm])


def test_permuted_solve_equals_dgbtrs_bitwise_on_random_matrices():
    rng = np.random.default_rng(9)
    for n, kl, ku in RANDOM_SHAPES:
        for dominant in (True, False, False, False):
            m = random_band(rng, n, kl, ku, dominant=dominant)
            rhs = (rng.normal(size=n), rng.normal(size=n) * 1e-300, np.zeros(n))
            factors = band_lu_factor(m)
            assert_no_negative_zero(factors)
            for b in rhs:
                assert np.array_equal(lu_solve(factors, b), dgbtrs_solve(m, b))
    # kl >= 32 takes dgbtrf's blocked path; this band pivots and widens L to 47
    wide = random_band(np.random.default_rng(0), 300, 40, 40, dominant=False)
    wide.bands[wide.ku] += 10.0
    factors = band_lu_factor(wide)
    assert np.any(factors.perm != np.arange(wide.n)) and factors.lower.shape[0] - 1 > wide.kl
    assert_no_negative_zero(factors)
    b = rng.normal(size=wide.n)
    assert np.array_equal(lu_solve(factors, b), dgbtrs_solve(wide, b))


def nan_below_a_pivot():
    """A 4 x 4 lower triangular band matrix with a NaN below its first pivot."""
    matrix = np.array([[2.0, 0, 0, 0], [3.0, 1.0, 0, 0], [2.0, 1.0, 3.0, 0], [np.nan, 2.0, 2.0, 1.0]])
    bands = np.zeros((4, 4))
    for d in range(4):  # entry (j + d, j) at bands[d, j]
        bands[d, : 4 - d] = np.diagonal(matrix, -d)
    return BandedMatrix(4, 3, 0, bands)


def test_second_factorization_that_interchanges_is_refused():
    """band_lu_factor's second dgbtrf, on A[perm], must keep every pivot in
    place.  A NaN below the first pivot breaks that with OpenBLAS 0.3.30
    (x86_64), whose idamax ranks a NaN by where it stands: the first call
    pivots on 2 rather than 3, and the second, whose column is in another
    order, on the NaN.  band_lu_factor raises rather than return an L that
    disagrees with dgbtrf's."""
    with pytest.raises(RuntimeError, match="interchanged rows of the 4 x 4 matrix"):
        band_lu_factor(nan_below_a_pivot())


def test_band_solve_refuses_a_solution_that_is_not_finite():
    """nan_below_a_pivot passes dgbsv's pivot check, as its NaN lies below
    a finite pivot, yet the solution is all NaN: band_solve raises."""
    with pytest.raises(ValueError, match="4 x 4 system is not finite"):
        band_solve(nan_below_a_pivot(), np.ones(4))


def test_lower_factor_far_past_kl_plus_ku_factors_and_solves_bitwise():
    """Interchanges can carry a multiplier far down a general band matrix:
    here L is 1255 wide, against kl + ku = 5.  band_lu_factor still factors
    it, and its solve equals dgbtrs bitwise, as band_solve's does; both are
    backward stable (the normwise backward error measured 0.23 eps)."""
    rng = np.random.default_rng(10)
    m = random_band(rng, 1600, 3, 2, dominant=False)
    factors = band_lu_factor(m)
    matrix = dense(m)
    assert factors.lower.shape[0] - 1 == lower_width(scipy.linalg.lu(matrix)[1]) == 1255
    b = rng.normal(size=m.n)
    x = lu_solve(factors, b)
    assert x.tobytes() == dgbtrs_solve(m, b).tobytes() == band_solve(m, b).tobytes()
    residual = np.max(np.abs(matrix @ x - b))
    scale = np.max(np.abs(matrix) @ np.abs(x) + np.abs(b))
    assert residual <= 10 * (m.kl + m.ku + 1) * np.finfo(float).eps * scale
