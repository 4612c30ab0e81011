import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import blas

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
from hermite_heat.problem import collocation_abscissae
from hermite_heat import solver
from hermite_heat.solver import run_batch

from conftest import dense, dgbtrs_solve


def assert_state(a, n_elements):
    """a is a state: the float64 array of the 6N + 2 coefficients."""
    assert type(a) is np.ndarray and a.dtype == np.float64 and a.shape == (6 * n_elements + 2,)


def quadratic_problem():
    return ProblemSpec(0.0, 1.0, 1.0, lambda x: x * (1.0 - x))


def step_levels(spec, cfg):
    """The states of levels 1 .. M of cfg's run as a loop of banded step()."""
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
    assert a0.shape == (20,)
    assert np.max(np.abs(a0)) == 0.0


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
    zero = np.zeros(26)
    advanced = step(system, factors, zero)
    assert np.max(np.abs(advanced)) == 0.0


def test_step_is_linear(legendre, control):
    mesh = build_mesh(control, 4)
    system = assemble_crank_nicolson(mesh, legendre, 1.0, 0.01)
    factors = band_lu_factor(system.left)
    a0 = initial_coefficients(control, mesh, legendre)
    once = step(system, factors, a0)
    # scaling by a power of two commutes with every IEEE rounding, so the
    # step is homogeneous bitwise whatever order the BLAS kernel sums in
    quadrupled = step(system, factors, 4.0 * a0)
    assert np.array_equal(quadrupled, 4.0 * once)
    # For other factors two solves differ by their forward errors, of order
    # cond(L) * eps / 2 = 1.8e-11 here (and growing like h**-3), so bound the
    # backward deviation |L d| that banded LU keeps small instead (2.3e-17 here).
    twice = step(system, factors, 3.5 * a0)
    deviation = (twice - 3.5 * once)[system.reduced_to_full]
    left = dense(system.left)
    residual = np.max(np.abs(left @ deviation))
    left_norm = np.linalg.norm(left, np.inf)
    assert residual <= 1e-12 * left_norm * np.max(np.abs(3.5 * once))


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
    assert_state(a, 8)
    assert_state(a0, 8)
    assert np.array_equal(a, a0)


# Below the stacking line every level of step_levels is run()'s, bitwise
# (test_run_equals_a_loop_of_step_bitwise), so these hold for run() too.


def test_boundary_entries_pinned_every_step(legendre, control):
    cfg = RunConfig(dt=0.01, t_final=0.2, n_elements=8, rule=legendre)
    levels = step_levels(control, cfg)
    assert len(levels) == 20
    for state in levels:
        assert state[0] == 0.0
        assert state[6 * 8] == 0.0


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
    assert np.array_equal(first, second)


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
        assert np.array_equal(ran, expected), k


def complex_symbols(block, thetas):
    """B_0 + e^{i theta} B_1 of a 6 x 8 element block for each theta, as len(thetas) x 6 x 6.

    B_0 is the block's first six columns, on the element's own state, and
    B_1 its last two, on the next element's value and slope: the symbol of
    the block-circulant matrix of the state's odd extension at mode theta.
    """
    phase = np.exp(1j * np.asarray(thetas))
    symbols = np.repeat(block[None, :, :6].astype(complex), len(phase), axis=0)
    symbols[:, :, :2] += phase[:, None, None] * block[:, 6:]
    return symbols


def exact_crank_nicolson(rule, n_elements, dt, n_steps):
    """The state after n_steps exact Crank-Nicolson steps of the control problem, without FFT.

    sin(pi x) on [0, 1] (alpha = 1) holds the one Fourier mode theta = pi /
    N: its element states are Im(e^{i theta k} c) for one complex 6-vector
    c, which solves H(theta) c = e^{i pi h xi} at the collocation points xi.
    Each step multiplies c by I + E(theta), E = L(theta)^-1 D(theta).  All
    of it is computed in the odd extension's real coordinates
    (real_coordinates: c = i Q x for a real 6-vector x, and a symbol S
    becomes Re(P^-1 S Q)), and E is powered there in delta form, F <- 2F +
    F^2.  So c_0 is real and the state a sine series, as for the scheme
    whose points and tables are exactly mirror-symmetric.  The tabulated
    ones are symmetric only to rounding, which in complex coordinates gave
    c_0 an imaginary part of 3.1e-15 (N = 1000), a cos(pi x) term of 6e-11
    of the final amplitude.  At N = 1000, M = 1000 the nodal values are
    within 1.7e-12 (Legendre) and 9.7e-13 (Chebyshev) of the largest of a
    40-digit mpmath run on the mirror-symmetrized tables and points.  The
    symbols come from the element blocks by complex_symbols, so no solver
    code runs.  Returns the float array of all 6N + 2 coefficients, entries
    0 and 6N (the boundary values) set to exactly 0, as run() returns them.
    """
    h = 1.0 / n_elements
    table = build_basis_table(rule, h)
    theta = math.pi / n_elements
    p_inverse, q = (maps[0] for maps in real_coordinates([theta]))

    def symbol(block):
        return (p_inverse @ complex_symbols(block, [theta])[0] @ q).real

    # P^-1 takes the collocated e^{i pi x} to an imaginary vector, as the extension is odd
    g = p_inverse @ np.exp(1j * math.pi * h * rule.points)
    x = np.linalg.solve(symbol(table.H), g.imag)
    left = element_blocks(table, 1.0, dt).left
    power = np.linalg.solve(symbol(left), symbol(table.B / h**2))
    while True:
        if n_steps & 1:
            x = x + power @ x
        n_steps >>= 1
        if n_steps == 0:
            break
        power = 2.0 * power + power @ power
    c = 1j * (q @ x)
    phase = np.exp(1j * theta) ** np.arange(n_elements + 1)
    state = np.imag(phase[:, None] * c).ravel()[: 6 * n_elements + 2]
    state[0] = state[6 * n_elements] = 0.0
    return state


@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
def test_modal_run_meets_the_closed_form_crank_nicolson_error(kind, control):
    """N = 180 (1080 unknowns) steps by its Fourier modes.  Its L2 error
    after 10**4 steps matched that of exact_crank_nicolson to 1.1e-5
    (Legendre) and 2.4e-6 (Chebyshev) relative, and the closed form of the
    sine mode's error, exp(-mu T) |exp(-2M (atanh x - x)) - 1| times its
    discrete norm (x = dt mu / 2, mu = pi**2), to 4.8e-6 and 4.4e-6.  The
    spatial error at N = 180 is far below this bound; the banded kernel
    missed the closed form by 4.7e-4 and 2.1e-3."""
    rule = RULES[kind]()
    cfg = RunConfig(dt=1e-5, t_final=0.1, n_elements=180, rule=rule)
    mesh = build_mesh(control, 180)
    l2, _ = error_norms(control, mesh, rule, run(control, cfg), cfg.t_final)
    exact = exact_crank_nicolson(rule, 180, cfg.dt, cfg.n_steps)
    l2_exact, _ = error_norms(control, mesh, rule, exact, cfg.t_final)
    assert abs(l2 / l2_exact - 1.0) <= 1e-4


@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
def test_modal_run_agrees_with_a_loop_of_banded_step(kind, control):
    """run() at N = 180 steps by its Fourier modes, step() banded, so they
    agree to rounding, not bitwise.  After 25 steps the largest difference
    measured 3.4e-7 (Legendre) and 2.1e-7 (Chebyshev) of the largest
    coefficient: the banded solve's forward error, cond_inf(L) * eps = 1.5e-6
    and 1.1e-6 here.  The single levels are held to banded step() by
    test_modal_power_agrees_with_stepping_one_level_at_a_time."""
    rule = RULES[kind]()
    cfg = RunConfig(dt=0.01, t_final=0.25, n_elements=180, rule=rule)
    a = banded_step_loop(control, cfg)
    final = run(control, cfg)
    assert final[0] == 0.0 and final[6 * 180] == 0.0
    assert np.max(np.abs(final - a)) <= 4e-6 * np.max(np.abs(a))


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
    expected = np.zeros_like(a)
    expected[system.reduced_to_full] = np.linalg.solve(left, right @ a[system.reduced_to_full])
    advanced = step(system, band_lu_factor(system.left), a)
    assert advanced[0] == 0.0 and advanced[6 * n_elements] == 0.0
    bound = np.linalg.cond(left, np.inf) * np.finfo(float).eps * np.max(np.abs(expected))
    assert np.max(np.abs(advanced - expected)) <= bound


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
    deviation measured 0.096 of the bound (N = 1), and 5e-4 at N = 180.
    The boundary entries come out exactly zero."""
    rule = RULES[kind]()
    eps = np.finfo(float).eps
    thetas = np.pi / n_elements * np.arange(n_elements + 1)
    for alpha in (1e-3, 1.0, 1e3):
        # the sine and the polynomial share the unit interval's mesh
        for specs in ((control_problem(alpha), septic_problem(alpha)), (bump_problem(alpha),)):
            mesh = build_mesh(specs[0], n_elements)
            table = build_basis_table(rule, mesh.h)
            states = [initial_coefficients(spec, mesh, rule) for spec in specs]
            shared = solver._Shared(specs[0], n_elements, rule)
            for dt in (1e-8, 1e-2, 1e2):
                banded = assemble_crank_nicolson(mesh, rule, alpha, dt)
                left, right = dense(banded.left), dense(banded.right)
                factors = band_lu_factor(banded.left)
                propagator = solver._propagator(shared, dt)
                block = element_blocks(table, alpha, dt).left
                cond = max(
                    np.linalg.cond(left, np.inf),
                    np.max(np.linalg.cond(complex_symbols(block, thetas), np.inf)),
                )
                asymmetry = max(mirror_asymmetry(block), mirror_asymmetry(table.B))
                for a in states:
                    x = a[banded.reduced_to_full]
                    expected = np.zeros_like(a)
                    expected[banded.reduced_to_full] = x + np.linalg.solve(left, (right - left) @ x)
                    stepped = step(banded, factors, a)
                    advanced = solver._advance_modes(propagator, solver._real_modes(a), 1)
                    assert advanced[0] == 0.0 and advanced[6 * n_elements] == 0.0
                    bound = cond * (eps + asymmetry) * np.max(np.abs(expected))
                    for other in (expected, stepped):
                        assert np.max(np.abs(advanced - other)) <= bound, (alpha, dt)


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
    extended = solver._extend(a, n)
    span = spec.x_right - spec.x_left
    wide = build_mesh(ProblemSpec(spec.x_left, spec.x_right + span, 1.0, lambda x: 0.0), 2 * n)
    reflected = np.concatenate([extended.ravel(), [0.0, a[1]]])
    xs = np.linspace(spec.x_left, spec.x_right, 37)

    def values(m, state, points):
        return np.array([[evaluate(m, state, x), *evaluate_derivatives(m, state, x)] for x in points])

    own = values(mesh, a, xs)
    mirrored = values(wide, reflected, 2 * spec.x_right - xs)
    deviation = np.max(np.abs(mirrored + own * [1.0, -1.0, 1.0]), axis=0) / np.max(np.abs(own), axis=0)
    assert np.all(deviation <= [1e-13, 1e-13, 1e-12]), deviation
    assert np.array_equal(solver._restrict(extended, n), a)


@pytest.mark.parametrize("n_steps", [2, 3, 32, 63])
def test_modal_power_agrees_with_stepping_one_level_at_a_time(n_steps, control):
    """_power applies (I + E)**M through the bits of M: only the top bit is
    set at M = 32, all of them at M = 63.  Against M single steps (each
    real mode stepped by E, then one inverse FFT per level) at N = 180, dt =
    0.01, the final states agreed to 1.3e-14 (M = 3) and 2.7e-9 (M = 63,
    Legendre) of the largest coefficient, the undamped stiff modes
    accumulating the products' rounding; one step more or less moves the
    state by 0.10 of it.  Every level's boundary entries are exactly zero.
    The first level is held to banded step() (measured 1.8e-8 Legendre,
    1.2e-8 Chebyshev; the bound is that of the 25-step comparison above),
    so the two paths cannot agree by both skipping the single step."""
    mesh = build_mesh(control, 180)
    for kind in ("legendre", "chebyshev"):
        rule = RULES[kind]()
        a = initial_coefficients(control, mesh, rule)
        propagator = solver._propagator(solver._Shared(control, 180, rule), 0.01)
        powered = solver._advance_modes(propagator, solver._real_modes(a), n_steps)
        modes = solver._real_modes(a)
        levels = []
        for _ in range(n_steps):
            solver._power(propagator, modes, 1)
            levels.append(solver._state(modes))
            assert levels[-1][0] == 0.0 and levels[-1][6 * 180] == 0.0
        stepped = levels[-1]
        banded = assemble_crank_nicolson(mesh, rule, control.alpha, 0.01)
        first = step(banded, band_lu_factor(banded.left), a)
        assert np.max(np.abs(levels[0] - first)) <= 4e-6 * np.max(np.abs(first)), kind
        scale = np.max(np.abs(stepped))
        assert np.max(np.abs(powered - stepped)) <= 1e-7 * scale, kind


@pytest.mark.parametrize("n_elements", [1, 2, 7, 180])
@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
def test_real_modes_give_back_the_state(n_elements, kind):
    """_state(_real_modes(a)) is a to rounding on the sine, a degree-7
    polynomial and a bump on [-1, 2]: the real modes drop only parts of
    the FFT's modes that the odd extension makes zero.  The largest
    difference measured 4.6 eps of the largest coefficient (N = 180); the
    bound is 16 eps.  The boundary entries come back exactly zero."""
    rule = RULES[kind]()
    for spec in (control_problem(), septic_problem(1.0), bump_problem(1.0)):
        a = initial_coefficients(spec, build_mesh(spec, n_elements), rule)
        modes = solver._real_modes(a)
        assert modes.dtype == np.float64 and modes.shape == (n_elements + 1, 6)
        back = solver._state(modes)
        assert back[0] == 0.0 and back[6 * n_elements] == 0.0
        assert np.max(np.abs(back - a)) <= 16 * np.finfo(float).eps * np.max(np.abs(a))


def real_coordinates(thetas):
    """(P^-1, Q) for each theta: the maps between a complex symbol and _symbols.

    Q takes a real mode x (_real_modes) to the complex mode (v, s, p, q, r,
    t) = (i x_0, x_1, phi (x_2 + i x_5), phi (x_3 + i x_4), phi (x_3 - i
    x_4), -phi (x_2 - i x_5)), phi = e^{i theta / 2}.  P^-1 takes the six
    complex residuals w to the half-differences (w_i - w_{5-i}) / (2 phi)
    and the half-sums (w_i + w_{5-i}) / (2 i phi), i = 0, 1, 2.
    """
    phi = np.exp(0.5j * np.asarray(thetas))[:, None, None]
    q = np.zeros((len(thetas), 6, 6), dtype=complex)
    rows, cols = [0, 1, 2, 5, 3, 4, 3, 4, 2, 5], [0, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    q[:, rows, cols] = [1j, 1, 1, -1, 1, 1, 1j, -1j, 1j, 1j]
    q[:, 2:, 2:] *= phi
    p_inverse = np.zeros((len(thetas), 6, 6), dtype=complex)
    i = np.arange(3)
    p_inverse[:, i, i], p_inverse[:, i, 5 - i] = 0.5, -0.5
    p_inverse[:, 3 + i, i], p_inverse[:, 3 + i, 5 - i] = -0.5j, -0.5j
    return p_inverse / phi, q


@pytest.mark.parametrize("n_elements", [1, 7, 180])
@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
def test_real_symbols_are_the_complex_symbols_in_real_coordinates(n_elements, kind):
    """_symbols(block) is Re(P^-1 S(theta) Q) for the complex symbols S of
    complex_symbols, on H, B and L's block for alpha in {1e-3, 1, 1e3} and
    dt in {1e-8, 1e-2, 1e2}.  What it drops, the imaginary part, and what
    it differs by are the block's mirror asymmetry plus rounding: both
    measured at most 0.99 of (eps + mirror_asymmetry) max|block|, and the
    bound is twice that.  _propagator returns the float64 (N + 1) x 6 x 6
    array of the real E(theta)."""
    rule = RULES[kind]()
    mesh = build_mesh(control_problem(), n_elements)
    table = build_basis_table(rule, mesh.h)
    thetas = np.pi / n_elements * np.arange(n_elements + 1)
    p_inverse, q = real_coordinates(thetas)
    for alpha in (1e-3, 1.0, 1e3):
        for dt in (1e-8, 1e-2, 1e2):
            for block in (table.H, table.B, element_blocks(table, alpha, dt).left):
                expected = p_inverse @ complex_symbols(block, thetas) @ q
                bound = 2 * (np.finfo(float).eps + mirror_asymmetry(block)) * np.max(np.abs(block))
                assert np.max(np.abs(solver._symbols(block, n_elements) - expected.real)) <= bound
                assert np.max(np.abs(expected.imag)) <= bound
            propagator = solver._propagator(solver._Shared(control_problem(alpha), n_elements, rule), dt)
            assert propagator.dtype == np.float64 and propagator.shape == (n_elements + 1, 6, 6)


# The largest relative deviation of l2 and linf from exact Crank-Nicolson,
# by table and by kernel (banded below the stacking line, modal above it).
_TABLE_BOUNDS = {1: (None, 1.4e-8), 4: (1.7e-9, 9e-8), 5: (4.5e-10, None)}


@pytest.mark.parametrize("table_id", [1, 4, 5])
def test_every_table_row_meets_the_exact_crank_nicolson_reference(table_id, control):
    """Every row of Tables 1, 4 and 5, both rules, against error_norms of
    exact_crank_nicolson.  Before the modal kernel stepped in real
    arithmetic the largest relative deviations of l2 or linf were 6.7e-9
    (Table 1, all above the stacking line), 8.2e-10 below and 4.3e-8 above
    the line (Table 4; Chebyshev N = 1000, linf) and 2.2e-10 (Table 5, all
    below); the bounds are about twice those.  In real arithmetic the rows
    above the line measured 6.4e-9 (Table 1) and 4.2e-8 (Table 4), and the
    banded rows were unchanged.  Against the reference in real coordinates
    they measure 5.5e-9 (Table 1), 1.56e-9 below the line (Table 4,
    Legendre N = 160, linf: the banded kernel keeps the rounding asymmetry
    of the tables, which the reference drops), 3.3e-8 above it, and 3.4e-11
    (Table 5).  So Table 4's bound below the line is no longer about twice
    what it measures but 1.09 times: the kernel it tests is unchanged, and
    the bound is kept rather than loosened, but a BLAS or libm that rounds
    otherwise may come near it.  Table 3 (about 5 s, at the roundoff
    floor) and Table 2 (10**6 steps a row) are left out for the suite's
    time."""
    below, above = _TABLE_BOUNDS[table_id]
    for row in table_spec(table_id).rows:
        mesh = build_mesh(control, row.n_elements)
        for kind in ("legendre", "chebyshev"):
            rule = RULES[kind]()
            cfg = RunConfig(dt=row.dt, t_final=row.t_final, n_elements=row.n_elements, rule=rule)
            norms = error_norms(control, mesh, rule, run(control, cfg), cfg.t_final)
            exact = exact_crank_nicolson(rule, cfg.n_elements, cfg.dt, cfg.n_steps)
            reference = error_norms(control, mesh, rule, exact, cfg.t_final)
            bound = above if 6 * cfg.n_elements > solver._STACK_UNKNOWNS else below
            deviation = max(abs(x / y - 1.0) for x, y in zip(norms, reference))
            assert deviation <= bound, (kind, row.n_elements, row.dt, row.t_final, deviation)


def test_modal_runs_are_bitwise_deterministic(legendre, control):
    cfg = RunConfig(dt=0.01, t_final=0.3, n_elements=200, rule=legendre)
    first = run(control, cfg)
    second = run(control, cfg)
    assert np.array_equal(first, second)


def test_modal_run_reports_nan_pivots(legendre):
    """alpha**2 / h**2 overflows in the element block, so L(theta) is not finite."""
    cfg = RunConfig(dt=0.01, t_final=0.01, n_elements=200, rule=legendre)
    with pytest.raises(SingularMatrix):
        run(control_problem(alpha=1e154), cfg)


def banded_step_loop(spec, cfg):
    """The final state of cfg's run as a loop of banded step()."""
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
    with pytest.raises(np.linalg.LinAlgError):
        solver._propagator(solver._Shared(control, 200, legendre), 0.01)
    cfg = RunConfig(dt=0.01, t_final=0.03, n_elements=200, rule=legendre)
    final, looped = run(control, cfg), banded_step_loop(control, cfg)
    assert final.tobytes() == looped.tobytes()


@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
def test_stiff_mesh_above_the_stacking_line_steps_banded(kind):
    """At alpha = 1e10, N = 171 and dt = 0.01, alpha**2 dt / h**2 is 2.9e22:
    the H / dt term of L(0) is lost to rounding, and numpy's solve finds the
    symbol singular though L is not.  run() then steps through the banded
    LU of L, and equals a loop of step(), bitwise."""
    spec = control_problem(alpha=1e10)
    rule = RULES[kind]()
    with pytest.raises(np.linalg.LinAlgError):
        solver._propagator(solver._Shared(spec, 171, rule), 0.01)
    cfg = RunConfig(dt=0.01, t_final=0.03, n_elements=171, rule=rule)
    final, looped = run(spec, cfg), banded_step_loop(spec, cfg)
    assert np.all(np.isfinite(final))
    assert final.tobytes() == looped.tobytes()


@pytest.mark.parametrize("n_elements", [200, 1000])
@pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
def test_modal_run_meets_a_mode_one_reference_on_nodal_values(n_elements, kind, control):
    """Table 4's rows at N = 200 and 1000 (dt = 1/N, M = N) against
    exact_crank_nicolson.  The nodal values deviated by at most 9.7e-12 of
    the largest (Chebyshev, N = 200; 6.4e-12 and 7.7e-12 at N = 1000); the
    bound is 2e-11.  Against the reference computed in complex coordinates,
    whose cos(pi x) term the real modes cannot hold, they deviated by
    6.2e-11.
    The u'' and u''' coefficients are not compared: W a0 = b leaves their
    stiff modes off by up to 3e-4 relative, and Crank-Nicolson does not damp
    those, so every kernel ends several times the largest u''' away from
    exact Crank-Nicolson there."""
    rule = RULES[kind]()
    dt = 1.0 / n_elements
    cfg = RunConfig(dt=dt, t_final=1.0, n_elements=n_elements, rule=rule)
    nodal = run(control, cfg)[0::6]
    expected = exact_crank_nicolson(rule, n_elements, dt, cfg.n_steps)[0::6]
    assert np.max(np.abs(nodal - expected)) <= 2e-11 * np.max(np.abs(expected))


def batch_matches_solo_runs(spec, configs):
    """Every result of run_batch is its solo run's bitwise, and no two share memory."""
    outcomes = list(run_batch(spec, configs))
    assert sorted(index for index, _ in outcomes) == list(range(len(configs)))
    for index, state in outcomes:
        solo = run(spec, configs[index])
        assert_state(state, configs[index].n_elements)
        assert_state(solo, configs[index].n_elements)
        assert state.tobytes() == solo.tobytes(), configs[index]
    states = [state for _, state in outcomes]
    for i, state in enumerate(states):
        assert state.flags.writeable and not any(np.shares_memory(state, other) for other in states[:i])


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


def test_run_batch_shares_each_mesh_and_rule_across_its_step_sizes(control):
    """Members with the same N and rule share the initial state, and above
    the stacking line its real modes and D's symbols, across dt, t_final
    and stacks: N = 16 (banded) and N = 180 (Fourier modes), both rules,
    interleaved, with zero-step members and, at N = 180, dt = 1e13, where
    L(0) rounds to singular and the member steps banded alone."""
    for kind in ("legendre", "chebyshev"):
        with pytest.raises(np.linalg.LinAlgError):
            solver._propagator(solver._Shared(control, 180, RULES[kind]()), 1e13)
    configs = [
        RunConfig(dt=dt, t_final=t_final, n_elements=n, rule=RULES[kind]())
        for dt, t_final in [(0.01, 0.2), (0.02, 0.2), (0.01, 0.0), (1e13, 2e13), (0.005, 0.1)]
        for n in (180, 16)
        for kind in ("legendre", "chebyshev")
    ]
    batch_matches_solo_runs(control, configs)


def test_run_batch_reads_a_generator_of_configs(control):
    """configs may be a generator, which run_batch reads once: every member
    still runs, as it does from a list."""
    configs = [
        RunConfig(dt=dt, t_final=0.2, n_elements=n, rule=RULES[kind]())
        for dt in (0.01, 0.02)
        for n in (180, 16)
        for kind in ("legendre", "chebyshev")
    ]
    expected = dict(run_batch(control, configs))
    outcomes = dict(run_batch(control, (cfg for cfg in configs)))
    assert sorted(outcomes) == list(range(len(configs)))
    for index, state in outcomes.items():
        assert state.tobytes() == expected[index].tobytes(), configs[index]


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
        assert np.array_equal(outcomes[index], run(spec, configs[index]))


def overflowing_problem(scale):
    return ProblemSpec(0.0, 1.0, 1.0, lambda x: scale * x * (1.0 - x))


@pytest.mark.parametrize("n_elements", [3, 200])
def test_run_rejects_a_state_that_overflows(n_elements, legendre):
    """The initial coefficients of 1e307 x (1 - x) are finite, but one step
    overflows them, on the banded (N = 3) and the Fourier-mode (N = 200) kernel."""
    cfg = RunConfig(dt=0.01, t_final=0.01, n_elements=n_elements, rule=legendre)
    spec = overflowing_problem(1e307)
    assert np.all(np.isfinite(initial_coefficients(spec, build_mesh(spec, n_elements), legendre)))
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
        assert np.array_equal(outcomes[index], run(spec, configs[index]))


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
        assert np.array_equal(outcomes[index], run(spec, configs[index]))


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
    assert np.array_equal(outcomes[0], solo[0])
    assert np.array_equal(outcomes[2], solo[1])


def fork_every_stack(monkeypatch):
    """Make every stack of several members step on two CPUs, one group in a
    forked child, however small its work; return the list of the pids that
    forked, one entry per fork."""
    monkeypatch.setattr(solver, "_FORK_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def split_groups(sizes, count=2):
    """The indices of each group _split makes of members with sizes elements."""
    members = [(index, None, np.empty(6 * n)) for index, n in enumerate(sizes)]
    return [[index for index, _, _ in group] for group in solver._split(members, count)]


def test_split_balances_unknowns_largest_first():
    """floor's stack (Table 3, Legendre) splits into {N = 40} and {N = 10,
    20}; the first group steps in the child, the last one in the parent."""
    assert split_groups([10, 20, 40]) == [[2], [0, 1]]
    assert split_groups([20, 12, 8, 4, 3, 2]) == [[0, 3], [1, 2, 4, 5]]
    assert split_groups([5, 5, 5], count=3) == [[0], [1], [2]]


@pytest.mark.parametrize("table_id, t_final", [(2, 1e-3), (3, 1e-2)])
def test_a_split_stack_equals_the_whole_stack_and_solo_runs(table_id, t_final, control, monkeypatch):
    """Tables 2 and 3, both rules, cut to 10**3 and 10**4 steps as in
    test_run_batch_equals_solo_runs_on_the_floor_tables: split across a
    forked child, every result is bitwise that of the whole stack and of
    the solo run, and solo runs never fork."""
    configs = [
        RunConfig(dt=row.dt, t_final=t_final, n_elements=row.n_elements, rule=RULES[kind]())
        for row in table_spec(table_id).rows
        for kind in ("legendre", "chebyshev")
    ]
    assert len(solver._plan_stacks(configs)) == 1
    monkeypatch.setattr(solver, "_FORK_WORK", math.inf)
    whole = dict(run_batch(control, configs))
    forks = fork_every_stack(monkeypatch)
    split = dict(run_batch(control, configs))
    solo = [run(control, cfg) for cfg in configs]
    assert forks == [os.getpid()]
    for index, state in split.items():
        assert_state(state, configs[index].n_elements)
        assert state.tobytes() == whole[index].tobytes() == solo[index].tobytes(), configs[index]
    assert_no_child_process()


def test_an_overflow_in_a_child_leaves_its_group_mates_as_their_solo_runs(legendre, monkeypatch):
    """At 1e306 x (1 - x) one step overflows N = 20 but not the others.  N
    = 20 and 4 step in the child, where the overflow sends the group back to
    stepping each member alone; the N = 20 result is a ValueError, and every
    other member equals its solo run."""
    sizes = (20, 12, 8, 4, 3, 2)
    assert split_groups(sizes)[0] == [0, 3]
    spec = overflowing_problem(1e306)
    configs = [RunConfig(dt=0.01, t_final=0.01, n_elements=n, rule=legendre) for n in sizes]
    forks = fork_every_stack(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = dict(run_batch(spec, configs))
    assert len(forks) == 1
    assert isinstance(outcomes[0], ValueError) and "after step 1" in str(outcomes[0])
    for index in range(1, len(sizes)):
        assert np.array_equal(outcomes[index], run(spec, configs[index]))
    assert_no_child_process()


def test_a_factorization_refused_in_a_child_reaches_the_parent(legendre, control, monkeypatch):
    """band_lu_factor is patched to refuse N = 6's L, alone (36 unknowns)
    or in the child's stack with N = 2 (48).  Neither is factored in the
    parent, yet the parent gets the SingularMatrix that the solo run
    raises, with its message and pivot, through the child's pipe."""
    factor = solver.band_lu_factor
    refused = []

    def refusing(m):
        if m.n in (36, 48):
            refused.append(m.n)
            raise SingularMatrix(m.n - 5)
        return factor(m)

    sizes = (2, 3, 4, 6)
    assert split_groups(sizes) == [[0, 3], [1, 2]]
    configs = [RunConfig(dt=0.01, t_final=0.02, n_elements=n, rule=legendre) for n in sizes]
    monkeypatch.setattr(solver, "band_lu_factor", refusing)
    forks = fork_every_stack(monkeypatch)
    outcomes = dict(run_batch(control, configs))
    assert len(forks) == 1 and refused == []
    with pytest.raises(SingularMatrix) as solo:
        run(control, configs[3])
    assert type(outcomes[3]) is SingularMatrix
    assert str(outcomes[3]) == str(solo.value) == "matrix is singular at pivot 31"
    assert outcomes[3].pivot_index == solo.value.pivot_index == 31
    for index in range(3):
        assert np.array_equal(outcomes[index], run(control, configs[index]))
    assert_no_child_process()


@pytest.mark.parametrize("status", [0, 1])
def test_the_parent_steps_the_group_of_a_child_that_dies(status, legendre, control, monkeypatch):
    """The child leaves before it sends anything, with status 1 or 0; the
    parent steps the child's group itself, and every result is its solo
    run's."""
    parent = os.getpid()
    advance = solver._advance_stack

    def dying_in_the_child(stack, n_steps):
        if os.getpid() != parent:
            os._exit(status)
        return advance(stack, n_steps)

    configs = [RunConfig(dt=0.01, t_final=0.2, n_elements=n, rule=legendre) for n in (2, 3, 4, 6)]
    monkeypatch.setattr(solver, "_advance_stack", dying_in_the_child)
    forks = fork_every_stack(monkeypatch)
    outcomes = dict(run_batch(control, configs))
    assert len(forks) == 1
    for index, cfg in enumerate(configs):
        assert np.array_equal(outcomes[index], run(control, cfg))
    assert_no_child_process()


def test_a_group_that_cannot_fork_steps_in_the_parent(legendre, control, monkeypatch):
    """Where os.fork fails (EAGAIN: no process to spare), the parent steps
    the child's group too, and every result is its solo run's."""

    def failing_fork():
        raise BlockingIOError("fork: Resource temporarily unavailable")

    configs = [RunConfig(dt=0.01, t_final=0.2, n_elements=n, rule=legendre) for n in (2, 3, 4, 6)]
    fork_every_stack(monkeypatch)
    monkeypatch.setattr(os, "fork", failing_fork)
    outcomes = dict(run_batch(control, configs))
    for index, cfg in enumerate(configs):
        assert np.array_equal(outcomes[index], run(control, cfg))
    assert_no_child_process()


def test_an_interrupted_parent_kills_and_reaps_its_child(legendre, control, monkeypatch):
    """The child would step for a minute; the parent is interrupted while
    it steps its own group, and kills and reaps the child before the
    KeyboardInterrupt leaves run_batch."""
    parent = os.getpid()

    def interrupted(stack, n_steps):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    configs = [RunConfig(dt=0.01, t_final=0.2, n_elements=n, rule=legendre) for n in (2, 3, 4, 6)]
    monkeypatch.setattr(solver, "_advance_stack", interrupted)
    forks = fork_every_stack(monkeypatch)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        dict(run_batch(control, configs))
    assert len(forks) == 1 and time.monotonic() - start < 30
    assert_no_child_process()


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
    right = system.right
    n, kl, ku = right.n, right.kl, right.ku
    x = initial_coefficients(control, mesh, rule)[system.reduced_to_full]
    for _ in range(cfg.n_steps):
        rhs = blas.dgbmv(n, n, kl, ku, 1.0, right.bands, x)
        x = dgbtrs_solve(system.left, rhs)
    assert np.array_equal(run(control, cfg)[system.reduced_to_full], x)


def test_evaluate_at_boundaries_and_nodes(legendre, control):
    mesh = build_mesh(control, 8)
    a0 = initial_coefficients(control, mesh, legendre)
    assert evaluate(mesh, a0, 0.0) == 0.0
    # summing the septic coefficients at xi = 1 leaves ~1e-19 of roundoff
    assert abs(evaluate(mesh, a0, 1.0)) < 1e-15
    # interior node value is the matching value coefficient, exactly
    for m in (1, 4, 7):
        assert evaluate(mesh, a0, mesh.nodes[m]) == a0[6 * m]


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
        coeffs_left = a0[6 * (m - 1) : 6 * (m - 1) + 8]
        coeffs_right = a0[6 * m : 6 * m + 8]
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
