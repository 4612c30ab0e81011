import warnings

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyder, polyval

from hermite_heat import (
    ProblemSpec,
    RunConfig,
    chebyshev_rule,
    hermite_first_derivs,
    hermite_second_derivs,
    hermite_values,
    legendre_rule,
    run,
)
from hermite_heat.basis import _WIDEST, A_COEFFS, B_COEFFS, H_COEFFS, H_POWERS, build_basis_table


def five_point_derivative(func, xi, h, eps=0.001):
    """Fourth-order central finite difference of an 8-vector family."""
    return (
        -func(xi + 2 * eps, h) + 8 * func(xi + eps, h) - 8 * func(xi - eps, h) + func(xi - 2 * eps, h)
    ) / (12 * eps)


def test_values_at_left_end():
    assert hermite_values(0.0, 0.1) == pytest.approx([1, 0, 0, 0, 0, 0, 0, 0], abs=1e-15)


def test_values_at_right_end():
    assert hermite_values(1.0, 0.1) == pytest.approx([0, 0, 0, 0, 0, 0, 1, 0], abs=1e-15)


def test_value_functions_split_evenly_at_midpoint():
    vals = hermite_values(0.5, 1.0)
    # 1 - 35/16 + 84/32 - 70/64 + 20/128 by hand
    assert vals[0] == pytest.approx(0.5, abs=1e-15)
    assert vals[6] == pytest.approx(0.5, abs=1e-15)


def test_first_derivs_at_ends():
    left = hermite_first_derivs(0.0, 0.1)
    assert left[1] == pytest.approx(0.1, abs=1e-16)
    assert np.max(np.abs(np.delete(left, 1))) < 1e-15
    right = hermite_first_derivs(1.0, 0.1)
    assert right[7] == pytest.approx(0.1, abs=1e-16)
    assert right[0] == pytest.approx(0.0, abs=1e-15)
    assert right[6] == pytest.approx(0.0, abs=1e-15)


def test_second_derivs_at_ends():
    left = hermite_second_derivs(0.0, 0.1)
    assert left[2] == pytest.approx(0.01, abs=1e-17)
    assert np.max(np.abs(np.delete(left, 2))) < 1e-15
    right = hermite_second_derivs(1.0, 0.1)
    assert right[5] == pytest.approx(0.01, abs=1e-17)
    assert right[0] == pytest.approx(0.0, abs=1e-13)
    assert right[6] == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("bad_xi", [-0.01, 1.01, 2.0, np.nan])
def test_domain_error_on_xi(bad_xi):
    """A bad xi fails alone and as any one entry of an array."""
    for func in (hermite_values, hermite_first_derivs, hermite_second_derivs):
        for xi in (bad_xi, [0.0, bad_xi], [[0.5, 1.0], [bad_xi, 0.25]]):
            with pytest.raises(ValueError, match=f"xi must lie in \\[0, 1\\], got {bad_xi}$"):
                func(xi, 0.1)


@pytest.mark.parametrize("func", [hermite_values, hermite_first_derivs, hermite_second_derivs])
def test_families_of_an_array_equal_the_stacked_scalar_calls_bitwise(func):
    """An array of local coordinates gives its shape plus a trailing axis of
    eight, each row bitwise the call at that one coordinate."""
    xi = np.concatenate([[0.0, 1.0, 0.5], np.random.default_rng(5).uniform(0.0, 1.0, 9)]).reshape(3, 4)
    values = func(xi, 0.3)
    assert values.shape == (3, 4, 8)
    assert values.tobytes() == np.array([[func(x, 0.3) for x in row] for row in xi.tolist()]).tobytes()
    assert func(0.5, 0.3).shape == func(np.array(0.5), 0.3).shape == (8,)


@pytest.mark.parametrize("bad_h", [0.0, -1.0, np.nan, np.inf, 1e200])
def test_domain_error_on_h(bad_h, legendre):
    """h must be positive with a finite cube (h**3 scales two shape
    functions), and a bad h raises before any power can overflow."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for func in (hermite_values, hermite_first_derivs, hermite_second_derivs):
            with pytest.raises(ValueError, match="h must be positive with a finite cube"):
                func(0.5, bad_h)
        with pytest.raises(ValueError, match="h must be positive with a finite cube"):
            build_basis_table(legendre, bad_h)


def test_widest_element_has_a_finite_cube(legendre):
    """_WIDEST is the last h whose cube is finite: its table builds with no
    warning, and the next float up is refused."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(build_basis_table(legendre, _WIDEST).H))
        with pytest.raises(ValueError):
            build_basis_table(legendre, np.nextafter(_WIDEST, np.inf))


def test_run_on_a_domain_too_wide_for_the_basis_table_names_h(legendre):
    """A 1e200 wide element would overflow h**3 in the table and end in a
    misleading SingularMatrix; the run stops at the width check instead."""
    spec = ProblemSpec(0.0, 1e200, 1.0, lambda x: np.sin(np.pi * x / 1e200))
    cfg = RunConfig(dt=0.01, t_final=0.01, n_elements=1, rule=legendre)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="got 1e\\+200$"):
            run(spec, cfg)


def test_first_derivs_match_finite_differences():
    rng = np.random.default_rng(42)
    for xi in rng.uniform(0.05, 0.95, 20):
        fd = five_point_derivative(hermite_values, xi, 0.3)
        exact = hermite_first_derivs(xi, 0.3)
        assert np.allclose(fd, exact, rtol=1e-6, atol=1e-9)


def test_second_derivs_match_finite_differences():
    rng = np.random.default_rng(43)
    for xi in rng.uniform(0.05, 0.95, 20):
        fd = five_point_derivative(hermite_first_derivs, xi, 0.3)
        exact = hermite_second_derivs(xi, 0.3)
        assert np.allclose(fd, exact, rtol=1e-6, atol=1e-9)


def test_value_functions_partition():
    for xi in np.linspace(0.0, 1.0, 101):
        vals = hermite_values(xi, 2.0)
        assert abs(vals[0] + vals[6] - 1.0) < 1e-14


def test_endpoint_cardinality_identity():
    """Value and scaled derivative functionals at the ends form the identity."""
    h = 0.25
    third = polyder(B_COEFFS, axis=1)
    third = np.pad(third, ((0, 0), (0, 1)))

    def functionals(xi):
        scale = h ** H_POWERS
        return np.array(
            [
                hermite_values(xi, h),
                hermite_first_derivs(xi, h) / h,
                hermite_second_derivs(xi, h) / h**2,
                polyval(xi, third.T) * scale / h**3,
            ]
        )

    left = functionals(0.0)
    right = functionals(1.0)
    # rows: value-L, u'-L, u''-L, u'''-L, u'''-R, u''-R, value-R, u'-R
    matrix = np.vstack([left[:4], right[3], right[2], right[0], right[1]])
    assert np.max(np.abs(matrix - np.eye(8))) < 1e-12


def test_width_scaling_of_columns():
    rng = np.random.default_rng(44)
    for xi in rng.uniform(0.0, 1.0, 5):
        base = hermite_values(xi, 1.0)
        for h in (0.5, 2.0):
            scaled = hermite_values(xi, h)
            assert scaled == pytest.approx(base * h**H_POWERS, rel=1e-14, abs=1e-16)


@pytest.mark.parametrize("rule_factory", [legendre_rule, chebyshev_rule])
def test_rule_points_increasing_symmetric(rule_factory):
    rule = rule_factory()
    pts = rule.points
    assert pts.shape == (6,)
    assert np.all(np.diff(pts) > 0)
    assert pts[0] > 0 and pts[-1] < 1
    assert np.max(np.abs(pts + pts[::-1] - 1.0)) < 1e-12
    # built once per process: one shared rule, safe as its points are read-only
    assert rule_factory() is rule and not pts.flags.writeable


def test_legendre_rule_six_digit_values():
    pts = legendre_rule().points
    assert np.round(pts, 6).tolist() == [
        0.033765,
        0.169395,
        0.380690,
        0.619310,
        0.830605,
        0.966235,
    ]


def test_legendre_rule_matches_mapped_degree_six_roots():
    # roots of P6 on [-1, 1] mapped through (1 + x) / 2
    p6 = np.array([-0.2386191860831969, -0.6612093864662645, -0.9324695142031521])
    expected = np.sort(np.concatenate([(1 + p6) / 2, (1 - p6) / 2]))
    assert legendre_rule().points == pytest.approx(expected, abs=1e-14)


def test_chebyshev_rule_closed_form():
    pts = chebyshev_rule().points
    assert pts[0] == pytest.approx((1 - np.cos(np.pi / 12)) / 2, abs=1e-15)
    assert pts[5] == pytest.approx((1 - np.cos(11 * np.pi / 12)) / 2, abs=1e-15)
    assert pts[0] == pytest.approx(0.0170370869, abs=1e-9)
    assert pts[5] == pytest.approx(0.9829629131, abs=1e-9)
    assert pts[2] + pts[3] == pytest.approx(1.0, abs=1e-15)


def test_basis_table_first_entry(legendre):
    table = build_basis_table(legendre, 1.0)
    xi = legendre.points[0]
    direct = 1 - 35 * xi**4 + 84 * xi**5 - 70 * xi**6 + 20 * xi**7
    assert table.H[0, 0] == pytest.approx(direct, abs=1e-14)
    assert table.H[0, 0] == pytest.approx(0.9999580906, abs=1e-9)


@pytest.mark.parametrize("rule_factory", [legendre_rule, chebyshev_rule])
@pytest.mark.parametrize("n_elements", [1, 3, 5, 16, 171, 1000])
def test_basis_table_equals_per_point_evaluation_bitwise(n_elements, rule_factory):
    """One polyval call per family gives bitwise the per-point values, in a
    C-contiguous, read-only table."""
    rule = rule_factory()
    h = 1.0 / n_elements
    table = build_basis_table(rule, h)
    assert np.array_equal(table.H, [hermite_values(xi, h) for xi in rule.points])
    assert np.array_equal(table.B, [hermite_second_derivs(xi, h) for xi in rule.points])
    for arr in (table.H, table.B):
        assert arr.shape == (6, 8)
        assert arr.flags.c_contiguous and not arr.flags.writeable


def test_basis_table_partition_rows(chebyshev):
    table = build_basis_table(chebyshev, 0.7)
    assert table.H[:, 0] + table.H[:, 6] == pytest.approx(np.ones(6), abs=1e-14)


def test_basis_table_slope_column_scales_with_width(chebyshev):
    half = build_basis_table(chebyshev, 0.5)
    unit = build_basis_table(chebyshev, 1.0)
    assert half.H[:, 1] == pytest.approx(0.5 * unit.H[:, 1], rel=1e-14)


def test_families_are_derivative_chains():
    """A and B coefficient tables are polynomial derivatives of H and A."""
    dH = np.pad(polyder(H_COEFFS, axis=1), ((0, 0), (0, 1)))
    dA = np.pad(polyder(A_COEFFS, axis=1), ((0, 0), (0, 1)))
    assert np.allclose(dH, A_COEFFS, rtol=0, atol=1e-13)
    assert np.allclose(dA, B_COEFFS, rtol=0, atol=1e-13)
