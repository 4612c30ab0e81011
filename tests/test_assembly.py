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
from hermite_heat.assembly import (
    assemble_condensed,
    assemble_initial_system,
    element_blocks,
    index_maps,
)
from hermite_heat.basis import build_basis_table
from hermite_heat.linalg import band_lu_solve


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
    table = build_basis_table(legendre, 0.2)
    with pytest.raises(ValueError):
        element_blocks(table, alpha=1.0, dt=0.0)
    with pytest.raises(ValueError):
        element_blocks(table, alpha=0.0, dt=0.1)


def test_single_element_system_is_six_by_six(legendre, control):
    mesh = build_mesh(control, 1)
    system = assemble_crank_nicolson(mesh, legendre, 1.0, 0.01)
    assert system.left.n == 6
    assert system.right.n == 6
    # the element block keeps local shape columns {2,3,4,5,6,8} of the 8
    table = build_basis_table(legendre, mesh.h)
    blocks = element_blocks(table, 1.0, 0.01)
    expected = np.delete(blocks.left, [0, 6], axis=1)
    assert np.allclose(system.left.to_dense(), expected, rtol=0, atol=1e-15)


def test_three_element_row_occupancy(legendre, control):
    """Middle element rows occupy full columns 7..14 (1-based) before
    elimination, which shift left by one in reduced indexing."""
    mesh = build_mesh(control, 3)
    system = assemble_crank_nicolson(mesh, legendre, 1.0, 0.01)
    assert system.left.n == 18
    dense = system.left.to_dense()
    for r in range(6, 12):
        nonzero = np.nonzero(dense[r])[0]
        assert nonzero.min() >= 5 and nonzero.max() <= 12


def test_crank_nicolson_matches_dense_oracle(legendre, control):
    mesh = build_mesh(control, 2)
    system = assemble_crank_nicolson(mesh, legendre, 1.0, 0.01)
    table = build_basis_table(legendre, mesh.h)
    blocks = element_blocks(table, 1.0, 0.01)
    assert np.allclose(
        system.left.to_dense(), dense_assembly(mesh, legendre, blocks.left), atol=1e-15
    )
    assert np.allclose(
        system.right.to_dense(), dense_assembly(mesh, legendre, blocks.right), atol=1e-15
    )


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
        spec = ProblemSpec(0.0, 1.0, 1.0, lambda x: bad if 0.4 < x < 0.6 else 0.0)
        mesh = build_mesh(spec, 4)
        with pytest.raises(ValueError):
            assemble_initial_system(mesh, legendre, spec.initial_condition)
        with pytest.raises(ValueError):
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
            system.W.to_dense(), dense_assembly(mesh, chebyshev, table.H), atol=1e-15
        )
        assert np.allclose(
            system.b, dense_rhs(mesh, chebyshev, control.initial_condition), atol=1e-15
        )


def test_initial_system_boundary_block_structure(legendre, control):
    """First element loses shape column 1, last loses shape column 7."""
    mesh = build_mesh(control, 3)
    system = assemble_initial_system(mesh, legendre, control.initial_condition)
    table = build_basis_table(legendre, mesh.h)
    dense = system.W.to_dense()
    assert np.allclose(dense[0:6, 0:7], table.H[:, 1:8], atol=1e-15)
    assert np.allclose(dense[12:18, 11:17], table.H[:, 0:6], atol=1e-15)
    assert np.allclose(dense[12:18, 17], table.H[:, 7], atol=1e-15)


def test_index_maps_omit_boundary_entries():
    reduced_to_full, full_to_reduced = index_maps(4)
    assert len(reduced_to_full) == 24
    assert full_to_reduced[0] == -1
    assert full_to_reduced[24] == -1
    assert np.all(np.sort(reduced_to_full) == reduced_to_full)
    # 6N collocation equations plus the 2 eliminated coefficients
    assert len(reduced_to_full) + 2 == 26


def test_condensed_system_shapes_and_interface_band(chebyshev, control):
    """The interface matrix has two rows per element, bandwidths 2, and one
    unknown per nodal value and slope except the two boundary values."""
    for n in (2, 5, 200):
        system = assemble_condensed(build_mesh(control, n), chebyshev, 1.0, 0.01)
        assert system.element_rhs.shape == (6, 8)
        assert system.local_solve.shape == (4, 8)
        interface = system.interface
        assert (interface.n, interface.kl, interface.ku) == (2 * n, 2, 2)
        nodal = [p for j in range(n + 1) for p in (6 * j, 6 * j + 1) if p not in (0, 6 * n)]
        assert system.interface_positions.tolist() == nodal


def test_band_sparsity_bound(legendre, control):
    for n in (1, 2, 5):
        mesh = build_mesh(control, n)
        system = assemble_crank_nicolson(mesh, legendre, 1.0, 0.01)
        initial = assemble_initial_system(mesh, legendre, control.initial_condition)
        for dense in (
            system.left.to_dense(),
            system.right.to_dense(),
            initial.W.to_dense(),
        ):
            rows, cols = np.nonzero(dense)
            assert np.max(np.abs(rows - cols)) <= 8


def test_left_plus_right_is_twice_interpolation_matrix(legendre, control):
    mesh = build_mesh(control, 3)
    dt = 0.02
    system = assemble_crank_nicolson(mesh, legendre, 1.0, dt)
    initial = assemble_initial_system(mesh, legendre, control.initial_condition)
    combined = system.left.to_dense() + system.right.to_dense()
    expected = (2.0 / dt) * initial.W.to_dense()
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
    solution = band_lu_solve(band_lu_factor(system.W), system.b)
    residual = system.W.to_dense() @ solution - system.b
    assert np.max(np.abs(residual)) < 1e-13
