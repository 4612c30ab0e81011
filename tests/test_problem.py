import math

import numpy as np
import pytest

from hermite_heat import ProblemSpec, build_mesh, control_problem, legendre_rule
from hermite_heat.assembly import assemble_initial_system
from hermite_heat.basis import RULES
from hermite_heat.problem import collocation_abscissae


def test_mesh_unit_interval():
    mesh = build_mesh(control_problem(), 5)
    assert mesh.nodes == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], abs=1e-15)
    assert mesh.h == pytest.approx(0.2, abs=1e-16)
    assert mesh.n_elements == 5


def test_mesh_single_element():
    mesh = build_mesh(control_problem(), 1)
    assert mesh.nodes.tolist() == [0.0, 1.0]
    assert mesh.h == 1.0


def test_mesh_wider_domain():
    spec = ProblemSpec(0.0, 2.0, 1.0, lambda x: x * (2.0 - x))
    mesh = build_mesh(spec, 4)
    assert mesh.h == pytest.approx(0.5, abs=1e-16)
    assert mesh.nodes[-1] == pytest.approx(2.0, rel=1e-13)


def test_mesh_uniformity():
    spec = ProblemSpec(-1.5, 2.5, 0.7, lambda x: (x + 1.5) * (2.5 - x))
    mesh = build_mesh(spec, 13)
    widths = np.diff(mesh.nodes)
    assert np.max(np.abs(widths - mesh.h)) < 1e-13 * mesh.h


def test_mesh_rejects_zero_elements():
    with pytest.raises(ValueError):
        build_mesh(control_problem(), 0)


def test_problem_rejects_incompatible_initial_condition():
    with pytest.raises(ValueError):
        ProblemSpec(0.0, 1.0, 1.0, lambda x: np.cos(np.pi * x))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ProblemSpec(0.0, 1.0, 1.0, lambda x: bad, exact_solution=lambda x, t: 0.0)


def test_problem_rejects_a_callable_that_breaks_the_array_contract():
    """The initial condition takes an ndarray and returns its shape (or a
    constant); construction probes it once, on [x_left, x_right]."""
    for f in (lambda x: math.sin(math.pi * x), lambda x: x * (1 - x) if x > 0.0 else 0.0):
        with pytest.raises(ValueError, match="initial_condition must take an ndarray"):
            ProblemSpec(0.0, 1.0, 1.0, f)
    with pytest.raises(ValueError, match=r"initial_condition returned shape \(3,\)"):
        ProblemSpec(0.0, 1.0, 1.0, lambda x: np.zeros(3))
    assert ProblemSpec(0.0, 1.0, 1.0, lambda x: 0.0).x_right == 1.0


def test_problem_rejects_bad_domain_and_alpha():
    f = lambda x: 0.0
    with pytest.raises(ValueError):
        ProblemSpec(1.0, 0.0, 1.0, f)
    with pytest.raises(ValueError):
        ProblemSpec(0.0, 1.0, -2.0, f)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ProblemSpec(0.0, 1.0, bad, f)
        with pytest.raises(ValueError):
            ProblemSpec(0.0, bad, 1.0, f)
        with pytest.raises(ValueError):
            ProblemSpec(-bad, 1.0, 1.0, f)


def test_alpha_whose_square_overflows_is_rejected():
    """alpha**2 of a Python float raises OverflowError past about 1.34e154;
    both entry points report a ValueError instead."""
    with pytest.raises(ValueError, match="square"):
        ProblemSpec(0.0, 1.0, 1e200, lambda x: 0.0)
    with pytest.raises(ValueError, match="square"):
        control_problem(1e200)
    assert ProblemSpec(0.0, 1.0, 1e150, lambda x: 0.0).alpha == 1e150


def test_control_problem_exact_values():
    prob = control_problem()
    assert prob.exact_solution(0.5, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert prob.exact_solution(0.5, 1.0) == pytest.approx(math.exp(-math.pi**2), rel=1e-14)
    assert prob.exact_solution(0.5, 1.0) == pytest.approx(5.1723e-5, rel=1e-4)
    assert abs(prob.initial_condition(0.0)) < 1e-15
    assert abs(prob.initial_condition(1.0)) < 1e-15


@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
@pytest.mark.parametrize("n_elements", [5, 40, 1000])
def test_control_problem_array_calls_equal_scalar_calls_bitwise(n_elements, kind):
    """One array call gives bitwise the per-point scalar values, for the
    initial data b and the exact solution: Table 3's roundoff floor reacts
    to any change in them."""
    control = control_problem()
    rule = RULES[kind]()
    mesh = build_mesh(control, n_elements)
    x = collocation_abscissae(mesh, rule.points)
    b = assemble_initial_system(mesh, rule, control.initial_condition).b
    assert np.array_equal(b, [float(control.initial_condition(v)) for v in x.ravel()])
    for t in (0.1, 0.5, 1.0):
        scalar = [[float(control.exact_solution(v, t)) for v in row] for row in x]
        assert np.array_equal(control.exact_solution(x, t), scalar)


def test_collocation_abscissa_examples():
    mesh = build_mesh(control_problem(), 5)
    x = collocation_abscissae(mesh, np.array([0.0, 0.5, 1.0]))
    assert x.shape == (5, 3)
    assert x[0, 0] == pytest.approx(0.0, abs=1e-15)  # element 1, xi = 0
    assert x[4, 2] == pytest.approx(1.0, rel=1e-15)  # element 5, xi = 1
    assert x[1, 1] == pytest.approx(0.3, rel=1e-14)  # element 2, xi = 1/2


def test_global_collocation_points_strictly_increase():
    mesh = build_mesh(control_problem(), 7)
    rule = legendre_rule()
    points = collocation_abscissae(mesh, rule.points).ravel()
    assert len(points) == 6 * mesh.n_elements
    assert np.all(np.diff(points) > 0)
