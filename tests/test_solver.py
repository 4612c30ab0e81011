import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import blas, lapack

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
from hermite_heat.assembly import ElementBlocks, element_blocks
from hermite_heat.basis import RULES, build_basis_table
from hermite_heat.linalg import BandedMatrix
from hermite_heat.problem import collocation_abscissae
from hermite_heat import solver
from hermite_heat.solver import CoefficientVector, run_batch

from conftest import dense


def quadratic_problem():
    return ProblemSpec(0.0, 1.0, 1.0, lambda x: x * (1.0 - x))


def step_levels(spec, cfg):
    """The CoefficientVectors of levels 1 .. M of cfg's run as a loop of banded step()."""
    mesh = build_mesh(spec, cfg.n_elements)
    system = assemble_crank_nicolson(mesh, cfg.rule, spec.alpha, cfg.dt)
    factors = band_lu_factor(system.left)
    a = initial_coefficients(spec, mesh, cfg.rule)
    levels = []
    for _ in range(cfg.n_steps):
        a = step(system, factors, a)
        levels.append(a)
    return levels


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
    zero = CoefficientVector(full=np.zeros(26))
    advanced = step(system, factors, zero)
    assert np.max(np.abs(advanced.full)) == 0.0


def test_step_is_linear(legendre, control):
    mesh = build_mesh(control, 4)
    system = assemble_crank_nicolson(mesh, legendre, 1.0, 0.01)
    factors = band_lu_factor(system.left)
    a0 = initial_coefficients(control, mesh, legendre)
    once = step(system, factors, a0)
    # scaling by a power of two commutes with every IEEE rounding, so the
    # step is homogeneous bitwise whatever order the BLAS kernel sums in
    quadrupled = step(system, factors, CoefficientVector(full=4.0 * a0.full))
    assert np.array_equal(quadrupled.full, 4.0 * once.full)
    # For other factors two solves differ by their forward errors, of order
    # cond(L) * eps / 2 = 1.8e-11 here (and growing like h**-3), so bound the
    # backward deviation |L d| that banded LU keeps small instead (2.3e-17 here).
    twice = step(system, factors, CoefficientVector(full=3.5 * a0.full))
    deviation = (twice.full - 3.5 * once.full)[system.reduced_to_full]
    left = dense(system.left)
    residual = np.max(np.abs(left @ deviation))
    left_norm = np.linalg.norm(left, np.inf)
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


# Below the stacking line every level of step_levels is run()'s, bitwise
# (test_run_equals_a_loop_of_step_bitwise), so these hold for run() too.


def test_boundary_entries_pinned_every_step(legendre, control):
    cfg = RunConfig(dt=0.01, t_final=0.2, n_elements=8, rule=legendre)
    levels = step_levels(control, cfg)
    assert len(levels) == 20
    for state in levels:
        assert state.full[0] == 0.0
        assert state.full[6 * 8] == 0.0


def test_peak_decays_monotonically(legendre, control):
    mesh = build_mesh(control, 4)
    cfg = RunConfig(dt=0.1, t_final=1.0, n_elements=4, rule=legendre)
    peaks = [
        max(abs(evaluate(mesh, state, x)) for x in mesh.nodes) for state in step_levels(control, cfg)
    ]
    assert len(peaks) == 10
    assert all(b <= a * (1 + 1e-12) for a, b in zip(peaks, peaks[1:]))


def test_symmetry_preserved(legendre, control):
    mesh = build_mesh(control, 8)
    xs = np.linspace(0.05, 0.45, 5)
    cfg = RunConfig(dt=0.01, t_final=0.1, n_elements=8, rule=legendre)
    levels = step_levels(control, cfg)
    assert len(levels) == 10
    for state in levels:
        for x in xs:
            left = evaluate(mesh, state, x)
            right = evaluate(mesh, state, 1.0 - x)
            assert abs(left - right) < 1e-10


def test_runs_are_bitwise_deterministic(legendre, control):
    cfg = RunConfig(dt=0.01, t_final=0.3, n_elements=12, rule=legendre)
    first = run(control, cfg)
    second = run(control, cfg)
    assert np.array_equal(first.full, second.full)


@pytest.mark.parametrize("n_elements", [1, 2, 4, 16])
@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
def test_run_equals_a_loop_of_step_bitwise(n_elements, kind, control):
    """run() and step() share one kernel, also at N = 1 and 2, whose
    matrices are narrower than their band: run() to t_final = k dt is the
    loop's level k, bitwise, for every k = 1 .. 25."""
    rule = RULES[kind]()
    cfg = RunConfig(dt=0.01, t_final=0.25, n_elements=n_elements, rule=rule)
    levels = step_levels(control, cfg)
    assert len(levels) == 25
    for k, expected in enumerate(levels, start=1):
        ran = run(control, RunConfig(dt=cfg.dt, t_final=k * cfg.dt, n_elements=n_elements, rule=rule))
        assert np.array_equal(ran.full, expected.full), k


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
    """N = 180 (1080 unknowns) steps by its Fourier modes.  Its L2 error
    after 10**4 steps matched the closed form to 1.1e-5 (Legendre) and
    8.0e-6 (Chebyshev) relative; the banded kernel missed it by 4.7e-4 and
    2.1e-3."""
    rule = RULES[kind]()
    cfg = RunConfig(dt=1e-5, t_final=0.1, n_elements=180, rule=rule)
    l2, _ = error_norms(control, build_mesh(control, 180), rule, run(control, cfg), cfg.t_final)
    assert abs(l2 / closed_form_l2(180, cfg.dt, cfg.t_final, rule) - 1.0) <= 1e-4


@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
def test_modal_run_agrees_with_a_loop_of_banded_step(kind, control):
    """run() at N = 180 steps by its Fourier modes, step() banded, so they
    agree to rounding, not bitwise.  After 25 steps the largest difference
    measured 3.4e-7 (Legendre) and 2.3e-7 (Chebyshev) of the largest
    coefficient: the banded solve's forward error, cond_inf(L) * eps = 1.5e-6
    and 1.1e-6 here.  The single levels are held to banded step() by
    test_modal_power_agrees_with_stepping_one_level_at_a_time."""
    rule = RULES[kind]()
    cfg = RunConfig(dt=0.01, t_final=0.25, n_elements=180, rule=rule)
    a = banded_step_loop(control, cfg)
    final = run(control, cfg)
    assert final.full[0] == 0.0 and final.full[6 * 180] == 0.0
    assert np.max(np.abs(final.full - a.full)) <= 4e-6 * np.max(np.abs(a.full))


@pytest.mark.parametrize("n_elements", [1, 2, 4])
@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
def test_banded_step_matches_a_dense_solve(n_elements, kind, control):
    """One banded step against L^-1 (R a) by dense elimination, within their
    forward errors, of order cond(L) * eps.  At N = 1 and 2 the matrices
    are narrower than their band (6N < kl + ku + 1 = 11 and 13), and dgbmv
    forms the product with padding rows that the solve drops."""
    rule = RULES[kind]()
    mesh = build_mesh(control, n_elements)
    system = assemble_crank_nicolson(mesh, rule, control.alpha, 0.01)
    left, right = dense(system.left), dense(system.right)
    a = initial_coefficients(control, mesh, rule)
    expected = np.zeros_like(a.full)
    expected[system.reduced_to_full] = np.linalg.solve(left, right @ a.full[system.reduced_to_full])
    advanced = step(system, band_lu_factor(system.left), a)
    assert advanced.full[0] == 0.0 and advanced.full[6 * n_elements] == 0.0
    bound = np.linalg.cond(left, np.inf) * np.finfo(float).eps * np.max(np.abs(expected))
    assert np.max(np.abs(advanced.full - expected)) <= bound


def septic_problem(alpha):
    """A degree-7 polynomial vanishing at both ends, which excites every mode."""
    return ProblemSpec(
        0.0, 1.0, alpha, lambda x: x * (1 - x) * (1 + 2 * x - x**2 + 0.3 * x**3 - 0.2 * x**4 + 0.1 * x**5)
    )


def bump_problem(alpha):
    """A bump on the non-unit domain [-1, 2]."""
    return ProblemSpec(-1.0, 2.0, alpha, lambda x: (x + 1) ** 2 * (2 - x) ** 2 * np.exp(x))


def mirror_asymmetry(block):
    """max |block - its mirror image| / max |block| for a 6 x 8 element block.

    Mirroring the element (xi -> 1 - xi) reverses the collocation points and
    swaps its ends; value and u'' keep their sign, slope and u''' change it.
    The tabulated blocks are symmetric only to rounding.
    """
    mirrored = block[::-1][:, [6, 7, 5, 4, 3, 2, 0, 1]] * np.array([1, -1, 1, -1, -1, 1, 1, -1])
    return np.max(np.abs(block - mirrored)) / np.max(np.abs(block))


@pytest.mark.parametrize("n_elements", [1, 2, 3, 7, 16, 60, 180])
@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
def test_modal_step_matches_a_dense_solve_and_banded_step(n_elements, kind):
    """One step through the Fourier modes against a + L^-1 (R - L) a by
    dense elimination and against banded step(), on the sine, a degree-7
    polynomial and a bump on [-1, 2], for alpha in {1e-3, 1, 1e3} and dt in
    {1e-8, 1e-2, 1e2}, within the modal step's forward error.

    The modal step solves with the symbols L(theta), not L, and assumes the
    element blocks mirror-symmetric, which they are only to within
    mirror_asymmetry (1e-15 to 2.3e-14 here).  So its forward error is of
    order max(cond(L), cond(L(theta))) * (eps + asymmetry) relative.  On
    meshes above the stacking line the two condition numbers agree (0.999
    at N = 180), while small meshes at large alpha**2 dt / h**2 have
    symbols up to 6.6e5 times worse conditioned than L.  The largest
    deviation measured 0.071 of the bound (N = 1), and 5e-4 at N = 180.
    The boundary entries come out exactly zero."""
    rule = RULES[kind]()
    eps = np.finfo(float).eps
    for alpha in (1e-3, 1.0, 1e3):
        # the sine and the polynomial share the unit interval's mesh
        for specs in ((control_problem(alpha), septic_problem(alpha)), (bump_problem(alpha),)):
            mesh = build_mesh(specs[0], n_elements)
            table = build_basis_table(rule, mesh.h)
            states = [initial_coefficients(spec, mesh, rule) for spec in specs]
            for dt in (1e-8, 1e-2, 1e2):
                banded = assemble_crank_nicolson(mesh, rule, alpha, dt)
                left, right = dense(banded.left), dense(banded.right)
                factors = band_lu_factor(banded.left)
                propagator = solver._propagator(mesh, rule, alpha, dt)
                block = element_blocks(table, alpha, dt).left
                cond = max(
                    np.linalg.cond(left, np.inf),
                    np.max(np.linalg.cond(solver._symbols(block, n_elements), np.inf)),
                )
                asymmetry = max(mirror_asymmetry(block), mirror_asymmetry(table.B))
                for a in states:
                    x = a.full[banded.reduced_to_full]
                    expected = np.zeros_like(a.full)
                    expected[banded.reduced_to_full] = x + np.linalg.solve(left, (right - left) @ x)
                    stepped = step(banded, factors, a)
                    advanced = solver._advance_modes(propagator, a, 1)
                    assert advanced.full[0] == 0.0 and advanced.full[6 * n_elements] == 0.0
                    bound = cond * (eps + asymmetry) * np.max(np.abs(expected))
                    for other in (expected, stepped.full):
                        assert np.max(np.abs(advanced.full - other)) <= bound, (alpha, dt)


@pytest.mark.parametrize("spec", [control_problem(), bump_problem(1.0)], ids=["sine", "bump"])
@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
def test_extension_is_the_odd_reflection_of_the_state(spec, kind):
    """_extend's 2N elements, closed by node 2N = node 0 (value 0, slope
    s_0), evaluate on [a, 2b - a] to minus the state's mirror image: u(2b -
    x) = -u(x), u'(2b - x) = u'(x), u''(2b - x) = -u''(x).  The coefficients
    are copied with sign flips only, so the two sides differ by the
    rounding of 2b - x and of the evaluation: measured at most 3.4e-15,
    2.4e-14 and 2.2e-13 of the largest value, u' and u'' at N = 7.  A
    wrong sign or a swapped pair in the extension moves u'' by order one.
    _restrict reads the state back bitwise."""
    rule = RULES[kind]()
    n = 7
    mesh = build_mesh(spec, n)
    a = initial_coefficients(spec, mesh, rule)
    extended = solver._extend(a.full, n)
    span = spec.x_right - spec.x_left
    wide = build_mesh(ProblemSpec(spec.x_left, spec.x_right + span, 1.0, lambda x: 0.0), 2 * n)
    reflected = CoefficientVector(full=np.concatenate([extended.ravel(), [0.0, a.full[1]]]))
    xs = np.linspace(spec.x_left, spec.x_right, 37)

    def values(m, state, points):
        return np.array([[evaluate(m, state, x), *evaluate_derivatives(m, state, x)] for x in points])

    own = values(mesh, a, xs)
    mirrored = values(wide, reflected, 2 * spec.x_right - xs)
    deviation = np.max(np.abs(mirrored + own * [1.0, -1.0, 1.0]), axis=0) / np.max(np.abs(own), axis=0)
    assert np.all(deviation <= [1e-13, 1e-13, 1e-12]), deviation
    assert np.array_equal(solver._restrict(extended, n).full, a.full)


@pytest.mark.parametrize("n_steps", [2, 3, 32, 63])
def test_modal_power_agrees_with_stepping_one_level_at_a_time(n_steps, control):
    """_power applies (I + E)**M through the bits of M: only the top bit is
    set at M = 32, all of them at M = 63.  Against M single steps (each
    mode stepped by E, then one inverse FFT per level) at N = 180, dt =
    0.01, the final states agreed to 3.6e-13 (M = 8) and 1.9e-9 (M = 64,
    Legendre) of the largest coefficient, the undamped stiff modes
    accumulating the products' rounding; one step more or less moves the
    state by 0.10 of it.  Every level's boundary entries are exactly zero.
    The first level is held to banded step() (measured 2.1e-8 Legendre,
    1.3e-8 Chebyshev; the bound is that of the 25-step comparison above),
    so the two paths cannot agree by both skipping the single step."""
    mesh = build_mesh(control, 180)
    for kind in ("legendre", "chebyshev"):
        rule = RULES[kind]()
        a = initial_coefficients(control, mesh, rule)
        propagator = solver._propagator(mesh, rule, control.alpha, 0.01)
        powered = solver._advance_modes(propagator, a, n_steps)
        modes = np.fft.rfft(solver._extend(a.full, 180), axis=0)
        levels = []
        for _ in range(n_steps):
            solver._power(propagator, modes, 1)
            levels.append(solver._restrict(np.fft.irfft(modes, 2 * 180, axis=0), 180))
            assert levels[-1].full[0] == 0.0 and levels[-1].full[6 * 180] == 0.0
        stepped = levels[-1]
        banded = assemble_crank_nicolson(mesh, rule, control.alpha, 0.01)
        first = step(banded, band_lu_factor(banded.left), a).full
        assert np.max(np.abs(levels[0].full - first)) <= 4e-6 * np.max(np.abs(first)), kind
        scale = np.max(np.abs(stepped.full))
        assert np.max(np.abs(powered.full - stepped.full)) <= 1e-7 * scale, kind


def test_modal_runs_are_bitwise_deterministic(legendre, control):
    cfg = RunConfig(dt=0.01, t_final=0.3, n_elements=200, rule=legendre)
    first = run(control, cfg)
    second = run(control, cfg)
    assert np.array_equal(first.full, second.full)


def test_modal_run_reports_nan_pivots(legendre):
    """alpha**2 / h**2 overflows in the element block, so L(theta) is not finite."""
    cfg = RunConfig(dt=0.01, t_final=0.01, n_elements=200, rule=legendre)
    with pytest.raises(SingularMatrix):
        run(control_problem(alpha=1e154), cfg)


def banded_step_loop(spec, cfg):
    """The final CoefficientVector of cfg's run as a loop of banded step()."""
    return step_levels(spec, cfg)[-1]


def test_modal_run_steps_banded_where_a_symbol_is_singular(legendre, control, monkeypatch):
    """A finite L(theta) that numpy's solve finds singular (here column 2 of
    the patched block is zero) sends the mesh to the banded LU of L, built
    by assembly from the true blocks: the run equals a loop of banded
    step(), bitwise."""
    block = np.eye(6, 8)
    block[2, 2] = 0.0

    def singular_blocks(table, alpha, dt):
        return ElementBlocks(left=block, right=block)

    monkeypatch.setattr(solver, "element_blocks", singular_blocks)
    mesh = build_mesh(control, 200)
    with pytest.raises(np.linalg.LinAlgError):
        solver._propagator(mesh, legendre, control.alpha, 0.01)
    cfg = RunConfig(dt=0.01, t_final=0.03, n_elements=200, rule=legendre)
    final, looped = run(control, cfg), banded_step_loop(control, cfg)
    assert final.full.tobytes() == looped.full.tobytes()


@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
def test_stiff_mesh_above_the_stacking_line_steps_banded(kind):
    """At alpha = 1e10, N = 171 and dt = 0.01, alpha**2 dt / h**2 is 2.9e22:
    the H / dt term of L(0) is lost to rounding, and numpy's solve finds the
    symbol singular though L is not.  run() then steps through the banded
    LU of L, and equals a loop of step(), bitwise."""
    spec = control_problem(alpha=1e10)
    rule = RULES[kind]()
    with pytest.raises(np.linalg.LinAlgError):
        solver._propagator(build_mesh(spec, 171), rule, spec.alpha, 0.01)
    cfg = RunConfig(dt=0.01, t_final=0.03, n_elements=171, rule=rule)
    final, looped = run(spec, cfg), banded_step_loop(spec, cfg)
    assert np.all(np.isfinite(final.full))
    assert final.full.tobytes() == looped.full.tobytes()


def mode_one_nodal_values(rule, n_elements, dt, n_steps):
    """Nodal values of the sine after n_steps Crank-Nicolson steps, without FFT.

    sin(pi x) holds the one Fourier mode theta = pi / N: its element states
    are Im(e^{i theta k} c) for one complex 6-vector c, which solves
    H(theta) c = e^{i pi h xi} at the collocation points xi.  Each step
    multiplies c by I + E(theta), E = L(theta)^-1 D(theta), powered here in
    delta form, F <- 2F + F^2.  The symbols are built from the element
    blocks directly.
    """
    h = 1.0 / n_elements
    table = build_basis_table(rule, h)
    phase = np.exp(1j * math.pi / n_elements)

    def symbol(block):
        own = block[:, :6].astype(complex)
        own[:, :2] += phase * block[:, 6:]
        return own

    c = np.linalg.solve(symbol(table.H), np.exp(1j * math.pi * h * rule.points))
    left = element_blocks(table, 1.0, dt).left
    power = np.linalg.solve(symbol(left), symbol(table.B / h**2))
    while True:
        if n_steps & 1:
            c = c + power @ c
        n_steps >>= 1
        if n_steps == 0:
            break
        power = 2.0 * power + power @ power
    return np.imag(phase ** np.arange(n_elements + 1) * c[0])


@pytest.mark.parametrize("n_elements", [200, 1000])
@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
def test_modal_run_meets_a_mode_one_reference_on_nodal_values(n_elements, kind, control):
    """Table 4's rows at N = 200 and 1000 (dt = 1/N, M = N) against
    mode_one_nodal_values.  The nodal values deviated by at most 6.0e-11 of
    the largest (1.2e-11 at N = 200); the bound is 5e-10.  That reference
    is itself within 1.9e-12 of the same computation in 50-digit mpmath.
    The u'' and u''' coefficients are not compared: W a0 = b leaves their
    stiff modes off by up to 3e-4 relative, and Crank-Nicolson does not damp
    those, so every kernel ends several times the largest u''' away from
    exact Crank-Nicolson there."""
    rule = RULES[kind]()
    dt = 1.0 / n_elements
    cfg = RunConfig(dt=dt, t_final=1.0, n_elements=n_elements, rule=rule)
    nodal = run(control, cfg).full[0::6]
    expected = mode_one_nodal_values(rule, n_elements, dt, cfg.n_steps)
    assert np.max(np.abs(nodal - expected)) <= 5e-10 * np.max(np.abs(expected))


def batch_matches_solo_runs(spec, configs):
    outcomes = list(run_batch(spec, configs))
    assert sorted(index for index, _ in outcomes) == list(range(len(configs)))
    for index, state in outcomes:
        solo = run(spec, configs[index])
        assert np.array_equal(state.full, solo.full), configs[index]


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
    """N = 1 (kl = ku = 5) stacks with N = 2, 3 and 7 (kl = ku = 6), its
    bands padded to theirs, though N = 1 and 2 are narrower than their band.
    A 20-step run, a zero-step run and a mesh above the stack size (N =
    200, 1200 unknowns) each run on their own; the last steps by its
    Fourier modes, and batch and solo still agree bitwise."""
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
    spec = ProblemSpec(0.0, 1.0, 1.0, lambda x: np.where(x == target, math.nan, np.sin(np.pi * x)))
    configs = [
        RunConfig(dt=0.01, t_final=0.2, n_elements=n, rule=legendre) for n in (2, 3, 4, 5)
    ]
    outcomes = dict(run_batch(spec, configs))
    assert isinstance(outcomes[1], ValueError)
    assert "not finite" in str(outcomes[1])
    with pytest.raises(ValueError, match="not finite"):
        run(spec, configs[1])
    for index in (0, 2, 3):
        assert np.array_equal(outcomes[index].full, run(spec, configs[index]).full)


def overflowing_problem(scale):
    return ProblemSpec(0.0, 1.0, 1.0, lambda x: scale * x * (1.0 - x))


@pytest.mark.parametrize("n_elements", [3, 200])
def test_run_rejects_a_state_that_overflows(n_elements, legendre):
    """The initial coefficients of 1e307 x (1 - x) are finite, but one step
    overflows them, on the banded (N = 3) and the Fourier-mode (N = 200) kernel."""
    cfg = RunConfig(dt=0.01, t_final=0.01, n_elements=n_elements, rule=legendre)
    spec = overflowing_problem(1e307)
    assert np.all(np.isfinite(initial_coefficients(spec, build_mesh(spec, n_elements), legendre).full))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="after step 1"):
        run(spec, cfg)


def test_run_batch_reports_overflow_per_member(legendre):
    """At 1e307 every member overflows.  At 1e305 N = 1, 2 and 3 stay finite
    and equal their solo runs bitwise, while N = 200 overflows."""
    configs = [
        RunConfig(dt=0.01, t_final=0.01, n_elements=n, rule=legendre) for n in (1, 2, 3, 200)
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = dict(run_batch(overflowing_problem(1e307), configs))
        assert all(isinstance(outcomes[index], ValueError) for index in range(4))
        spec = overflowing_problem(1e305)
        outcomes = dict(run_batch(spec, configs))
    assert isinstance(outcomes[3], ValueError)
    for index in (0, 1, 2):
        assert np.array_equal(outcomes[index].full, run(spec, configs[index]).full)


def test_an_overflowing_member_leaves_its_stack_mates_as_their_solo_runs(legendre):
    """At 1e306 x (1 - x) one step overflows N = 20 but not N = 2, 3, 4
    and 8.  All five fit one stack, where the overflow would reach the others
    through 0 * inf in the band slots between their blocks."""
    spec = overflowing_problem(1e306)
    sizes = (2, 3, 4, 8, 20)
    configs = [RunConfig(dt=0.01, t_final=0.01, n_elements=n, rule=legendre) for n in sizes]
    assert len(solver._plan_stacks(configs)) == 1
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = dict(run_batch(spec, configs))
        with pytest.raises(ValueError, match="after step 1"):
            run(spec, configs[4])
    assert isinstance(outcomes[4], ValueError)
    for index in range(4):
        assert np.array_equal(outcomes[index].full, run(spec, configs[index]).full)


def test_a_stack_whose_factorization_raises_factors_each_member_alone(legendre, control, monkeypatch):
    """band_lu_factor is patched to refuse the stack of N = 2, 3 and 4 (54
    unknowns) and N = 3's L alone (18).  The stack then steps each member
    alone: N = 3 gets the error, and N = 2 and 4 equal their solo runs."""
    factor = solver.band_lu_factor

    def refusing(m):
        if m.n in (18, 54):
            raise ValueError(f"refused {m.n}")
        return factor(m)

    configs = [RunConfig(dt=0.01, t_final=0.02, n_elements=n, rule=legendre) for n in (2, 3, 4)]
    solo = [run(control, cfg) for cfg in configs[::2]]
    monkeypatch.setattr(solver, "band_lu_factor", refusing)
    outcomes = dict(run_batch(control, configs))
    assert isinstance(outcomes[1], ValueError) and str(outcomes[1]) == "refused 18"
    assert np.array_equal(outcomes[0].full, solo[0].full)
    assert np.array_equal(outcomes[2].full, solo[1].full)


@pytest.mark.parametrize("n_elements", [4, 10, 40])
@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
def test_banded_run_equals_the_interleaved_lapack_loop_bitwise(n_elements, kind, control):
    """The banded kernel solves with the interchanges moved to the front,
    and that changes no bit: run() equals a loop of dgbmv and LAPACK dgbtrs
    on dgbtrf's interleaved factors (Table 3's roundoff floor depends on it)."""
    rule = RULES[kind]()
    cfg = RunConfig(dt=1e-3, t_final=0.05, n_elements=n_elements, rule=rule)
    mesh = build_mesh(control, n_elements)
    system = assemble_crank_nicolson(mesh, rule, 1.0, cfg.dt)
    factors = band_lu_factor(system.left)
    right = system.right
    n, kl, ku = right.n, right.kl, right.ku
    x = initial_coefficients(control, mesh, rule).full[system.reduced_to_full]
    for _ in range(cfg.n_steps):
        rhs = blas.dgbmv(n, n, kl, ku, 1.0, right.bands, x)
        x, _ = lapack.dgbtrs(factors.lu_bands, kl, ku, rhs, factors.ipiv)
    assert np.array_equal(run(control, cfg).full[system.reduced_to_full], x)


def test_runs_refuse_step_factors_without_the_permuted_form(legendre, control, monkeypatch):
    """No step matrix the package builds widens its permuted lower factor
    past kl + ku (see test_assembly), but band_lu_factor would refuse one
    that did with a ValueError naming the cap, and run_batch reports it per
    member.  Meshes above the stacking line factor no step matrix."""
    factor = solver.band_lu_factor
    # lower bidiagonal, pivoting at every column: each interchange carries
    # the multipliers above it one row further down, past kl + ku = 1
    widening = BandedMatrix(3, 1, 0, np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 0.0]]))

    def past_the_cap(m):
        return factor(widening)

    monkeypatch.setattr(solver, "band_lu_factor", past_the_cap)
    mesh = build_mesh(control, 4)
    a0 = initial_coefficients(control, mesh, legendre)
    assert abs(evaluate(mesh, a0, 0.5) - 1.0) < 1e-9
    cfg = RunConfig(dt=0.01, t_final=0.02, n_elements=4, rule=legendre)
    with pytest.raises(ValueError, match="kl \\+ ku = 1$"):
        run(control, cfg)
    configs = [RunConfig(dt=0.01, t_final=t, n_elements=4, rule=legendre) for t in (0.0, 0.02)]
    outcomes = [state for _, state in run_batch(control, configs)]
    assert np.array_equal(outcomes[0].full, a0.full)
    assert isinstance(outcomes[1], ValueError) and str(outcomes[1]).endswith("kl + ku = 1")


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


def test_evaluate_rejects_a_nan_abscissa(legendre, control):
    """NaN fails the domain check rather than the element index's int()."""
    mesh = build_mesh(control, 4)
    a0 = initial_coefficients(control, mesh, legendre)
    for evaluator in (evaluate, evaluate_derivatives):
        with pytest.raises(ValueError, match="lies outside"):
            evaluator(mesh, a0, math.nan)


@pytest.mark.parametrize("n_elements", [1, 4, 16])
def test_evaluation_rejects_a_state_from_another_mesh(n_elements, legendre, control):
    """An N = 8 state holds 50 coefficients.  Read on another mesh it gave
    wrong numbers silently (0.9845 at x = 0.9 on N = 4, where its own mesh
    gives 0.3090; norms of 3.74 and 0.95 on N = 1), or failed by accident
    in numpy's broadcasting (error_norms on N = 4); every evaluation names
    both sizes instead."""
    a8 = initial_coefficients(control, build_mesh(control, 8), legendre)
    mesh = build_mesh(control, n_elements)
    expected = f"holds 50 coefficients, but a mesh of {n_elements} elements needs {6 * n_elements + 2}$"
    for evaluator in (evaluate, evaluate_derivatives):
        with pytest.raises(ValueError, match=expected):
            evaluator(mesh, a8, 0.9)
    with pytest.raises(ValueError, match=expected):
        error_norms(control, mesh, legendre, a8, 0.1)


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
