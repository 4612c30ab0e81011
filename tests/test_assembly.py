import math

import numpy as np
import pytest

from hermite_heat import (
    ProblemSpec,
    RunConfig,
    assemble_crank_nicolson,
    band_lu_factor,
    build_mesh,
    evaluate,
    initial_coefficients,
    run,
)
from hermite_heat.assembly import assemble_initial_system, element_blocks
from hermite_heat.basis import RULES, build_basis_table
from hermite_heat.linalg import band_solve

from conftest import dense


def dense_assembly(mesh, rule, block):
    """Dense oracle: scatter one 6x8 block per element, delete the two
    boundary-value columns."""
    n = mesh.n_elements
    full = np.zeros((6 * n, 6 * n + 2))
    for k in range(n):
        full[6 * k : 6 * k + 6, 6 * k : 6 * k + 8] += block
    return np.delete(full, [0, 6 * n], axis=1)


def dense_rhs(mesh, rule, f):
    return np.array(
        [
            f(mesh.nodes[k] + mesh.h * xi)
            for k in range(mesh.n_elements)
            for xi in rule.points
        ]
    )


def test_blocks_reduce_to_mass_when_diffusion_vanishes(legendre):
    table = build_basis_table(legendre, 0.2)
    blocks = element_blocks(table, alpha=1e-150, dt=0.01)
    assert np.allclose(blocks.left, table.H / 0.01, rtol=0, atol=1e-250)
    assert np.allclose(blocks.right, table.H / 0.01, rtol=0, atol=1e-250)


def test_blocks_sum_to_twice_mass(chebyshev):
    table = build_basis_table(chebyshev, 0.25)
    blocks = element_blocks(table, alpha=1.7, dt=0.05)
    assert np.allclose(blocks.left + blocks.right, 2.0 * table.H / 0.05, rtol=1e-13)


def test_blocks_first_entry_scalar(legendre):
    table = build_basis_table(legendre, 0.2)
    blocks = element_blocks(table, alpha=1.0, dt=0.01)
    expected = table.H[0, 0] / 0.01 - table.B[0, 0] / 0.08
    assert blocks.left[0, 0] == pytest.approx(expected, rel=1e-15)


def test_blocks_reject_bad_parameters(legendre):
    """dt must be positive and finite, and alpha positive with a finite
    square, as RunConfig and ProblemSpec require: dt = inf would leave a
    finite L = -cB that factors, a nonsense system."""
    table = build_basis_table(legendre, 0.2)
    for dt in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            element_blocks(table, alpha=1.0, dt=dt)
    for alpha in (0.0, math.nan, math.inf, 1e200):
        with pytest.raises(ValueError, match="alpha must be positive with a finite square"):
            element_blocks(table, alpha=alpha, dt=0.1)


def test_single_element_system_is_six_by_six(legendre, control):
    mesh = build_mesh(control, 1)
    system = assemble_crank_nicolson(mesh, legendre, 1.0, 0.01)
    assert system.left.n == 6
    assert system.right.n == 6
    # the element block keeps local shape columns {2,3,4,5,6,8} of the 8
    table = build_basis_table(legendre, mesh.h)
    blocks = element_blocks(table, 1.0, 0.01)
    expected = np.delete(blocks.left, [0, 6], axis=1)
    assert np.allclose(dense(system.left), expected, rtol=0, atol=1e-15)


def test_three_element_row_occupancy(legendre, control):
    """Middle element rows occupy full columns 7..14 (1-based) before
    elimination, which shift left by one in reduced indexing."""
    mesh = build_mesh(control, 3)
    system = assemble_crank_nicolson(mesh, legendre, 1.0, 0.01)
    assert system.left.n == 18
    left = dense(system.left)
    for r in range(6, 12):
        nonzero = np.nonzero(left[r])[0]
        assert nonzero.min() >= 5 and nonzero.max() <= 12


@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
@pytest.mark.parametrize("n_elements", [1, 2, 3, 7])
def test_crank_nicolson_matches_dense_oracle(n_elements, kind, control):
    """The bands equal the dense scatter exactly; one element has
    kl = ku = 5, more have kl = ku = 6.  They are Fortran-ordered, so
    each step's dgbmv reads them without a copy."""
    rule = RULES[kind]()
    mesh = build_mesh(control, n_elements)
    system = assemble_crank_nicolson(mesh, rule, 1.0, 0.01)
    blocks = element_blocks(build_basis_table(rule, mesh.h), 1.0, 0.01)
    width = 5 if n_elements == 1 else 6
    for matrix, block in ((system.left, blocks.left), (system.right, blocks.right)):
        assert (matrix.kl, matrix.ku) == (width, width)
        assert matrix.bands.flags.f_contiguous
        assert np.array_equal(dense(matrix), dense_assembly(mesh, rule, block))


def test_initial_system_zero_forcing(legendre):
    spec = ProblemSpec(0.0, 1.0, 1.0, lambda x: 0.0)
    mesh = build_mesh(spec, 1)
    system = assemble_initial_system(mesh, legendre, spec.initial_condition)
    assert system.b.shape == (6,)
    assert np.max(np.abs(system.b)) == 0.0


def test_initial_system_rejects_non_finite_data(legendre):
    """Data that vanishes at both ends but is NaN or inf inside is rejected
    before it can reach a solve."""
    for bad in (math.nan, math.inf):
        spec = ProblemSpec(0.0, 1.0, 1.0, lambda x: np.where((0.4 < x) & (x < 0.6), bad, 0.0))
        mesh = build_mesh(spec, 4)
        with pytest.raises(ValueError, match="not finite"):
            assemble_initial_system(mesh, legendre, spec.initial_condition)
        with pytest.raises(ValueError, match="not finite"):
            run(spec, RunConfig(dt=0.1, t_final=0.1, n_elements=4, rule=legendre))


def test_initial_rhs_first_entry(legendre, control):
    mesh = build_mesh(control, 2)
    system = assemble_initial_system(mesh, legendre, control.initial_condition)
    xi1 = legendre.points[0]
    assert system.b[0] == pytest.approx(np.sin(np.pi * 0.5 * xi1), rel=1e-14)
    assert system.b[0] == pytest.approx(0.0530134563, rel=1e-8)


def test_initial_system_matches_dense_oracle(chebyshev, control):
    for n in (1, 2, 4):
        mesh = build_mesh(control, n)
        system = assemble_initial_system(mesh, chebyshev, control.initial_condition)
        table = build_basis_table(chebyshev, mesh.h)
        assert np.allclose(
            dense(system.W), dense_assembly(mesh, chebyshev, table.H), atol=1e-15
        )
        assert np.allclose(
            system.b, dense_rhs(mesh, chebyshev, control.initial_condition), atol=1e-15
        )


def test_initial_system_boundary_block_structure(legendre, control):
    """First element loses shape column 1, last loses shape column 7."""
    mesh = build_mesh(control, 3)
    system = assemble_initial_system(mesh, legendre, control.initial_condition)
    table = build_basis_table(legendre, mesh.h)
    W = dense(system.W)
    assert np.allclose(W[0:6, 0:7], table.H[:, 1:8], atol=1e-15)
    assert np.allclose(W[12:18, 11:17], table.H[:, 0:6], atol=1e-15)
    assert np.allclose(W[12:18, 17], table.H[:, 7], atol=1e-15)


def test_index_maps_omit_boundary_entries(legendre, control):
    """W and the step matrices share one map, which skips the eliminated
    boundary values: full entries 0 and 6N of 6N + 2."""
    mesh = build_mesh(control, 4)
    initial = assemble_initial_system(mesh, legendre, control.initial_condition)
    stepping = assemble_crank_nicolson(mesh, legendre, control.alpha, 0.01)
    assert np.array_equal(initial.reduced_to_full, stepping.reduced_to_full)
    assert np.array_equal(initial.reduced_to_full, np.delete(np.arange(26), [0, 24]))


@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
def test_step_matrices_keep_their_permuted_lower_factor_within_kl_plus_ku(kind):
    """Each triangular solve of a step costs one multiply-add per stored
    diagonal of its factor, and band_lu_factor keeps each factor to its last
    nonzero diagonal.  So the widths are the step's cost: L's, with the
    interchanges moved to the front, stays within kl + ku, and U uses at
    most 7 of the kl + ku superdiagonals dgbtrf reserves for it.  Pinned on
    a subset of the grid alpha = 1e-6 ... 1e50, dt = 1e-12 ... 1e2 and
    N = 1 ... 3000, which measured 5-9 for L (kl = ku = 5 at N = 1, 6 from
    N = 2) and 5-9 for W's L; U measured 5-7 on this subset, on L and W."""
    rule = RULES[kind]()
    problem = ProblemSpec(0.0, 1.0, 1.0, lambda x: 0.0 * x)
    for n in (1, 2, 5, 40, 171, 1000):
        mesh = build_mesh(problem, n)
        for alpha in (1e-6, 1.0, 1e50):
            for dt in (1e-12, 1e-3, 1e2):
                m = assemble_crank_nicolson(mesh, rule, alpha, dt).left
                factors = band_lu_factor(m)
                assert factors.lower.shape[0] - 1 <= m.kl + m.ku, (n, alpha, dt, m.n)
                assert factors.upper.shape[0] - 1 <= 7, (n, alpha, dt, m.n)
        w = band_lu_factor(assemble_initial_system(mesh, rule, problem.initial_condition).W)
        assert w.upper.shape[0] - 1 <= 7, (n, m.n)


def test_band_sparsity_bound(legendre, control):
    for n in (1, 2, 5):
        mesh = build_mesh(control, n)
        system = assemble_crank_nicolson(mesh, legendre, 1.0, 0.01)
        initial = assemble_initial_system(mesh, legendre, control.initial_condition)
        for matrix in (system.left, system.right, initial.W):
            rows, cols = np.nonzero(dense(matrix))
            assert np.max(np.abs(rows - cols)) <= 8


def test_left_plus_right_is_twice_interpolation_matrix(legendre, control):
    mesh = build_mesh(control, 3)
    dt = 0.02
    system = assemble_crank_nicolson(mesh, legendre, 1.0, dt)
    initial = assemble_initial_system(mesh, legendre, control.initial_condition)
    combined = dense(system.left) + dense(system.right)
    expected = (2.0 / dt) * dense(initial.W)
    assert np.allclose(combined, expected, rtol=1e-13)


def test_degree_seven_polynomials_interpolated_exactly(legendre):
    def f(x):
        return x * (1 - x) * (1 + 2 * x - x**2 + 0.3 * x**3 - 0.2 * x**4 + 0.1 * x**5)

    spec = ProblemSpec(0.0, 1.0, 1.0, f)
    mesh = build_mesh(spec, 4)
    a0 = initial_coefficients(spec, mesh, legendre)
    rng = np.random.default_rng(11)
    for x in rng.uniform(0.0, 1.0, 50):
        assert evaluate(mesh, a0, x) == pytest.approx(f(x), rel=1e-10, abs=1e-12)


def test_initial_solve_collocates_exactly(legendre, control):
    """W a0 = b forces the interpolant through f at every collocation point."""
    mesh = build_mesh(control, 5)
    system = assemble_initial_system(mesh, legendre, control.initial_condition)
    matrix = dense(system.W)  # band_solve factors W in its own storage
    solution = band_solve(system.W, system.b)
    residual = matrix @ solution - system.b
    assert np.max(np.abs(residual)) < 1e-13
