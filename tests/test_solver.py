import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermite_heat import (
    NonIntegralStepCount,
    ProblemSpec,
    RunConfig,
    SingularMatrix,
    assemble_crank_nicolson,
    band_lu_factor,
    build_mesh,
    control_problem,
    error_norms,
    evaluate,
    evaluate_derivatives,
    initial_coefficients,
    run,
    step,
    table_spec,
)
from hermite_heat.assembly import assemble_condensed
from hermite_heat.basis import RULES
from hermite_heat.linalg import band_matvec
from hermite_heat.problem import collocation_abscissae
from hermite_heat.solver import CoefficientVector, _advance_condensed, run_batch


def quadratic_problem():
    return ProblemSpec(0.0, 1.0, 1.0, lambda x: x * (1.0 - x))


def test_run_config_rejects_non_integral_step_count(legendre):
    with pytest.raises(NonIntegralStepCount):
        RunConfig(dt=0.3, t_final=1.0, n_elements=4, rule=legendre)


def test_run_config_accepts_decimal_step_counts(legendre):
    # exact in decimal, not in binary
    cfg = RunConfig(dt=0.0025, t_final=1.0, n_elements=4, rule=legendre)
    assert cfg.n_steps == 400
    cfg = RunConfig(dt=1e-6, t_final=1.0, n_elements=4, rule=legendre)
    assert cfg.n_steps == 10**6


def test_run_config_rejects_bad_parameters(legendre):
    with pytest.raises(ValueError):
        RunConfig(dt=-0.1, t_final=1.0, n_elements=4, rule=legendre)
    with pytest.raises(ValueError):
        RunConfig(dt=0.1, t_final=-1.0, n_elements=4, rule=legendre)
    with pytest.raises(ValueError):
        RunConfig(dt=0.1, t_final=1.0, n_elements=0, rule=legendre)
    for bad in (2.5, 3.0, True, "4", None):
        with pytest.raises(ValueError):
            RunConfig(dt=0.1, t_final=1.0, n_elements=bad, rule=legendre)
    assert RunConfig(dt=0.1, t_final=1.0, n_elements=np.int32(3), rule=legendre).n_elements == 3
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            RunConfig(dt=bad, t_final=0.0, n_elements=4, rule=legendre)
        with pytest.raises(ValueError):
            RunConfig(dt=0.1, t_final=bad, n_elements=4, rule=legendre)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    dt=st.one_of(st.floats(), st.integers(1, 10**7).map(lambda m: 1.0 / m)),
    t_final=st.sampled_from([1e-12, 0.1, 1.0, 3.0]),
)
def test_run_config_accepts_exactly_finite_positive_integral_steps(dt, t_final, legendre):
    """Accepted: finite dt > 0 with t_final / dt within 1e-9 of a whole number >= 1."""
    ratio = t_final / dt if math.isfinite(dt) and dt > 0.0 else math.nan
    steps = round(ratio) if math.isfinite(ratio) else 0
    valid = steps >= 1 and abs(ratio - steps) <= 1e-9 * max(1.0, ratio)
    try:
        cfg = RunConfig(dt=dt, t_final=t_final, n_elements=4, rule=legendre)
    except ValueError:  # NonIntegralStepCount included
        assert not valid
    else:
        assert valid
        assert cfg.n_steps == steps


def test_initial_coefficients_zero_data(legendre):
    spec = ProblemSpec(0.0, 1.0, 1.0, lambda x: 0.0)
    mesh = build_mesh(spec, 3)
    a0 = initial_coefficients(spec, mesh, legendre)
    assert a0.full.shape == (20,)
    assert np.max(np.abs(a0.full)) == 0.0
    assert a0.time_index == 0


def test_initial_coefficients_reproduce_quadratic(legendre):
    spec = quadratic_problem()
    mesh = build_mesh(spec, 6)
    a0 = initial_coefficients(spec, mesh, legendre)
    rng = np.random.default_rng(21)
    for x in rng.uniform(0.0, 1.0, 20):
        assert evaluate(mesh, a0, x) == pytest.approx(x * (1 - x), rel=1e-10, abs=1e-13)


def test_initial_coefficients_interpolate_sine(legendre, control):
    mesh = build_mesh(control, 16)
    a0 = initial_coefficients(control, mesh, legendre)
    assert abs(evaluate(mesh, a0, 0.5) - 1.0) < 1e-9


def test_step_preserves_zero(legendre, control):
    mesh = build_mesh(control, 4)
    system = assemble_crank_nicolson(mesh, legendre, 1.0, 0.01)
    factors = band_lu_factor(system.left)
    zero = CoefficientVector(full=np.zeros(26), time_index=0)
    advanced = step(system, factors, zero)
    assert np.max(np.abs(advanced.full)) == 0.0
    assert advanced.time_index == 1


def test_step_is_linear(legendre, control):
    mesh = build_mesh(control, 4)
    system = assemble_crank_nicolson(mesh, legendre, 1.0, 0.01)
    factors = band_lu_factor(system.left)
    a0 = initial_coefficients(control, mesh, legendre)
    once = step(system, factors, a0)
    # scaling by a power of two commutes with every IEEE rounding, so the
    # step is homogeneous bitwise whatever order the BLAS kernel sums in
    quadrupled = step(system, factors, CoefficientVector(full=4.0 * a0.full, time_index=0))
    assert np.array_equal(quadrupled.full, 4.0 * once.full)
    # For other factors two solves differ by their forward errors, of order
    # cond(L) * eps / 2 = 1.8e-11 here (and growing like h**-3), so bound the
    # backward deviation |L d| that banded LU keeps small instead (2.3e-17 here).
    twice = step(system, factors, CoefficientVector(full=3.5 * a0.full, time_index=0))
    deviation = (twice.full - 3.5 * once.full)[system.reduced_to_full]
    residual = np.max(np.abs(band_matvec(system.left, deviation)))
    left_norm = np.linalg.norm(system.left.to_dense(), np.inf)
    assert residual <= 1e-12 * left_norm * np.max(np.abs(3.5 * once.full))


def test_one_step_error_against_exact_solution(legendre, control):
    """A single Crank-Nicolson step deviates from the decaying sine by the
    one-mode amplification defect, about 7.3e-5 for dt = 0.01."""
    mesh = build_mesh(control, 16)
    system = assemble_crank_nicolson(mesh, legendre, 1.0, 0.01)
    factors = band_lu_factor(system.left)
    a1 = step(system, factors, initial_coefficients(control, mesh, legendre))
    worst = max(
        abs(evaluate(mesh, a1, x) - control.exact_solution(x, 0.01)) for x in mesh.nodes
    )
    z = math.pi**2 * 0.01
    scalar_oracle = math.exp(-z) - (1 - z / 2) / (1 + z / 2)
    assert worst == pytest.approx(scalar_oracle, rel=1e-4)
    assert worst < 1e-4


def test_run_zero_horizon_returns_initial_state(legendre, control):
    cfg = RunConfig(dt=0.01, t_final=0.0, n_elements=8, rule=legendre)
    mesh = build_mesh(control, 8)
    a = run(control, cfg)
    a0 = initial_coefficients(control, mesh, legendre)
    assert np.array_equal(a.full, a0.full)
    assert a.time_index == 0


def test_boundary_entries_pinned_every_step(legendre, control):
    seen = []

    def check(state):
        seen.append(state.time_index)
        assert state.full[0] == 0.0
        assert state.full[6 * 8] == 0.0

    cfg = RunConfig(dt=0.01, t_final=0.2, n_elements=8, rule=legendre)
    run(control, cfg, on_step=check)
    assert seen == list(range(1, 21))


def test_peak_decays_monotonically(legendre, control):
    mesh = build_mesh(control, 4)
    peaks = []

    def record(state):
        peaks.append(max(abs(evaluate(mesh, state, x)) for x in mesh.nodes))

    cfg = RunConfig(dt=0.1, t_final=1.0, n_elements=4, rule=legendre)
    run(control, cfg, on_step=record)
    assert all(b <= a * (1 + 1e-12) for a, b in zip(peaks, peaks[1:]))


def test_symmetry_preserved(legendre, control):
    mesh = build_mesh(control, 8)
    xs = np.linspace(0.05, 0.45, 5)

    def check(state):
        for x in xs:
            left = evaluate(mesh, state, x)
            right = evaluate(mesh, state, 1.0 - x)
            assert abs(left - right) < 1e-10

    cfg = RunConfig(dt=0.01, t_final=0.1, n_elements=8, rule=legendre)
    run(control, cfg, on_step=check)


def test_runs_are_bitwise_deterministic(legendre, control):
    cfg = RunConfig(dt=0.01, t_final=0.3, n_elements=12, rule=legendre)
    first = run(control, cfg)
    second = run(control, cfg)
    assert np.array_equal(first.full, second.full)


@pytest.mark.parametrize("n_elements", [1, 2, 4, 16])
@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
def test_run_equals_a_loop_of_step_bitwise(n_elements, kind, control):
    """run() and step() share one kernel; N = 1 and 2 take its narrow-band path."""
    rule = RULES[kind]()
    cfg = RunConfig(dt=0.01, t_final=0.25, n_elements=n_elements, rule=rule)
    mesh = build_mesh(control, n_elements)
    system = assemble_crank_nicolson(mesh, rule, control.alpha, cfg.dt)
    factors = band_lu_factor(system.left)
    a = initial_coefficients(control, mesh, rule)
    for _ in range(cfg.n_steps):
        a = step(system, factors, a)
    final = run(control, cfg)
    assert np.array_equal(final.full, a.full)
    assert final.time_index == a.time_index == 25


def closed_form_l2(n_elements, dt, t_final, rule, alpha=1.0):
    """L2 error of exact Crank-Nicolson on the control problem's sine mode.

    A step multiplies the mode by (1 - x) / (1 + x) = exp(-2 atanh x), with
    x = dt mu / 2 and mu = alpha**2 pi**2, where the exact solution decays by
    exp(-2x).  After M steps the error is exp(-mu T) |exp(-2M (atanh x - x)) - 1|
    times the mode's discrete L2 norm; atanh x - x = x**3/3 + x**5/5 + x**7/7
    up to x**9/9, below 1e-26 of the sum at x = 5e-5.  The spatial error
    at N = 180 is far smaller than the 1e-4 relative this reference is
    used at.
    """
    mu = alpha**2 * math.pi**2
    x = dt * mu / 2
    steps = round(t_final / dt)
    h = 1.0 / n_elements
    points = h * np.arange(n_elements)[:, None] + h * rule.points[None, :]
    norm = math.sqrt(h * float(np.sum(np.sin(math.pi * points) ** 2)))
    return math.exp(-mu * t_final) * abs(math.expm1(-2 * steps * (x**3 / 3 + x**5 / 5 + x**7 / 7))) * norm


@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
def test_condensed_run_meets_the_closed_form_crank_nicolson_error(kind, control):
    """N = 180 (1080 unknowns) steps condensed.  Its L2 error after 10**4
    steps matched the closed form to 5.7e-6 (Legendre) and 6.2e-6
    (Chebyshev) relative; the banded kernel missed it by 4.7e-4 and 2.1e-3."""
    rule = RULES[kind]()
    cfg = RunConfig(dt=1e-5, t_final=0.1, n_elements=180, rule=rule)
    l2, _ = error_norms(control, build_mesh(control, 180), rule, run(control, cfg), cfg.t_final)
    assert abs(l2 / closed_form_l2(180, cfg.dt, cfg.t_final, rule) - 1.0) <= 1e-4


@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
def test_condensed_run_agrees_with_a_loop_of_banded_step(kind, control):
    """run() at N = 180 steps condensed, step() banded, so they agree to
    rounding, not bitwise.  After 25 steps the largest difference measured
    3.7e-7 (Legendre) and 3.4e-7 (Chebyshev) of the largest coefficient:
    the banded solve's forward error, cond_inf(L) * eps = 1.5e-6 and 1.1e-6
    here.  on_step still sees every level, boundary entries exactly zero."""
    rule = RULES[kind]()
    cfg = RunConfig(dt=0.01, t_final=0.25, n_elements=180, rule=rule)
    mesh = build_mesh(control, 180)
    system = assemble_crank_nicolson(mesh, rule, control.alpha, cfg.dt)
    factors = band_lu_factor(system.left)
    a = initial_coefficients(control, mesh, rule)
    for _ in range(cfg.n_steps):
        a = step(system, factors, a)
    seen = []

    def check(state):
        seen.append(state.time_index)
        assert state.full[0] == 0.0 and state.full[6 * 180] == 0.0

    final = run(control, cfg, on_step=check)
    assert seen == list(range(1, 26))
    assert final.time_index == 25
    assert final.full[0] == 0.0 and final.full[6 * 180] == 0.0
    assert np.max(np.abs(final.full - a.full)) <= 4e-6 * np.max(np.abs(a.full))


@pytest.mark.parametrize("n_elements", [1, 2, 3, 7, 16])
@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
def test_condensed_step_matches_a_dense_solve(n_elements, kind, control):
    """The condensed kernel on small meshes, against a + L^-1 (R - L) a by
    dense elimination; both carry forward errors of order cond(L) * eps
    (measured at most 1.3e-11 of the largest coefficient, N = 16)."""
    rule = RULES[kind]()
    mesh = build_mesh(control, n_elements)
    banded = assemble_crank_nicolson(mesh, rule, control.alpha, 0.01)
    left, right = banded.left.to_dense(), banded.right.to_dense()
    a = initial_coefficients(control, mesh, rule)
    x = a.full[banded.reduced_to_full]
    expected = np.zeros_like(a.full)
    expected[banded.reduced_to_full] = x + np.linalg.solve(left, (right - left) @ x)
    system = assemble_condensed(mesh, rule, control.alpha, 0.01)
    advanced = _advance_condensed(system, band_lu_factor(system.interface), a, 1)
    assert advanced.full[0] == 0.0 and advanced.full[6 * n_elements] == 0.0
    bound = np.linalg.cond(left, np.inf) * np.finfo(float).eps * np.max(np.abs(expected))
    assert np.max(np.abs(advanced.full - expected)) <= bound


def test_condensed_run_reports_nan_pivots(legendre):
    """alpha**2 / h**2 overflows in the element block, so R_b's diagonal is NaN."""
    cfg = RunConfig(dt=0.01, t_final=0.01, n_elements=200, rule=legendre)
    with pytest.raises(SingularMatrix):
        run(control_problem(alpha=1e154), cfg)


def batch_matches_solo_runs(spec, configs):
    outcomes = list(run_batch(spec, configs))
    assert sorted(index for index, _, _ in outcomes) == list(range(len(configs)))
    for index, state, seconds in outcomes:
        solo = run(spec, configs[index])
        assert np.array_equal(state.full, solo.full), configs[index]
        assert state.time_index == solo.time_index
        assert seconds >= 0.0


@pytest.mark.parametrize("table_id, t_final", [(2, 1e-3), (3, 1e-2)])
def test_run_batch_equals_solo_runs_on_the_floor_tables(table_id, t_final, control):
    """All rows of a table stack into one system (900 and 420 unknowns),
    yet every result is bitwise the solo run's.  The 10**6 and 10**5 steps
    of the tables are cut to 10**3 and 10**4 (same meshes, rules, dt and
    stacks) to keep the suite fast."""
    configs = [
        RunConfig(
            dt=row.dt,
            t_final=t_final,
            n_elements=row.n_elements,
            rule=RULES[kind](),
        )
        for row in table_spec(table_id).rows
        for kind in ("legendre", "chebyshev")
    ]
    batch_matches_solo_runs(control, configs)


def test_run_batch_mixes_one_element_meshes_with_wider_ones(control):
    """N = 1 and 2 are narrower than their band and step alone; the other
    30-step runs stack.  A 20-step run, a zero-step run and a mesh above
    the stack size (N = 200, 1200 unknowns) each run on their own; the last
    takes the condensed kernel, and batch and solo still agree bitwise."""
    configs = [
        RunConfig(dt=0.01, t_final=0.3, n_elements=n, rule=RULES[kind]())
        for n in (1, 3, 1, 2, 7)
        for kind in ("legendre", "chebyshev")
    ]
    configs += [
        RunConfig(dt=0.02, t_final=0.4, n_elements=5, rule=RULES["legendre"]()),
        RunConfig(dt=0.1, t_final=0.0, n_elements=4, rule=RULES["chebyshev"]()),
        RunConfig(dt=0.01, t_final=0.3, n_elements=200, rule=RULES["legendre"]()),
    ]
    batch_matches_solo_runs(control, configs)


def test_run_batch_keeps_going_when_one_member_fails(legendre, control):
    """One member's initial data is NaN at one of its own collocation
    points; it gets its own ValueError, its stack mates are unchanged."""
    target = collocation_abscissae(build_mesh(control, 3), legendre.points)[1, 2]
    for n in (2, 4, 5):
        assert target not in collocation_abscissae(build_mesh(control, n), legendre.points)
    spec = ProblemSpec(
        0.0, 1.0, 1.0, lambda x: math.nan if x == target else math.sin(math.pi * x)
    )
    configs = [
        RunConfig(dt=0.01, t_final=0.2, n_elements=n, rule=legendre) for n in (2, 3, 4, 5)
    ]
    outcomes = {index: state for index, state, _ in run_batch(spec, configs)}
    assert isinstance(outcomes[1], ValueError)
    with pytest.raises(ValueError):
        run(spec, configs[1])
    for index in (0, 2, 3):
        assert np.array_equal(outcomes[index].full, run(spec, configs[index]).full)


def test_evaluate_at_boundaries_and_nodes(legendre, control):
    mesh = build_mesh(control, 8)
    a0 = initial_coefficients(control, mesh, legendre)
    assert evaluate(mesh, a0, 0.0) == 0.0
    # summing the septic coefficients at xi = 1 leaves ~1e-19 of roundoff
    assert abs(evaluate(mesh, a0, 1.0)) < 1e-15
    # interior node value is the matching value coefficient, exactly
    for m in (1, 4, 7):
        assert evaluate(mesh, a0, mesh.nodes[m]) == a0.full[6 * m]


def test_evaluate_outside_domain(legendre, control):
    mesh = build_mesh(control, 4)
    a0 = initial_coefficients(control, mesh, legendre)
    with pytest.raises(ValueError):
        evaluate(mesh, a0, -0.1)
    with pytest.raises(ValueError):
        evaluate(mesh, a0, 1.1)


def test_element_boundary_evaluations_agree_bitwise(legendre, control):
    """Value and slope continuity make both neighbour elements give the
    same number at a shared node."""
    mesh = build_mesh(control, 5)
    a0 = initial_coefficients(control, mesh, legendre)
    h = mesh.h
    from hermite_heat import hermite_values

    for m in (1, 2, 3, 4):
        coeffs_left = a0.full[6 * (m - 1) : 6 * (m - 1) + 8]
        coeffs_right = a0.full[6 * m : 6 * m + 8]
        from_left = float(coeffs_left @ hermite_values(1.0, h))
        from_right = float(coeffs_right @ hermite_values(0.0, h))
        assert from_left == from_right


def test_second_derivative_of_quadratic(legendre):
    spec = quadratic_problem()
    mesh = build_mesh(spec, 5)
    a0 = initial_coefficients(spec, mesh, legendre)
    rng = np.random.default_rng(22)
    for x in rng.uniform(0.0, 1.0, 10):
        _, second = evaluate_derivatives(mesh, a0, x)
        assert second == pytest.approx(-2.0, abs=1e-9)
    first, _ = evaluate_derivatives(mesh, a0, 0.5)
    assert abs(first) < 1e-10


def test_first_derivative_matches_finite_difference(legendre, control):
    mesh = build_mesh(control, 8)
    a0 = initial_coefficients(control, mesh, legendre)
    eps = 1e-6
    rng = np.random.default_rng(23)
    for x in rng.uniform(0.1, 0.9, 10):
        fd = (evaluate(mesh, a0, x + eps) - evaluate(mesh, a0, x - eps)) / (2 * eps)
        first, _ = evaluate_derivatives(mesh, a0, x)
        assert first == pytest.approx(fd, rel=1e-6, abs=1e-8)
