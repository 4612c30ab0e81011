"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds; pytest failure
output identifies the offending configuration otherwise.
"""

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyder, polyval

from hermite_heat import (
    ProblemSpec,
    RunConfig,
    assemble_crank_nicolson,
    band_lu_factor,
    build_mesh,
    chebyshev_rule,
    control_problem,
    convergence_order,
    error_norms,
    evaluate,
    hermite_first_derivs,
    hermite_second_derivs,
    hermite_values,
    initial_coefficients,
    legendre_rule,
    run,
    run_table,
    step,
    table_spec,
)
from hermite_heat.basis import B_COEFFS, H_POWERS
from hermite_heat.linalg import BandedMatrix, band_solve

from conftest import dense, gauss_solve, lu_solve

REL_TABLE_TOL = 1e-2


@pytest.fixture(scope="module")
def temporal_sweep():
    """Criterion 1 runs, shared with criterion 5: N = 1000, T = 1."""
    problem = control_problem()
    mesh = build_mesh(problem, 1000)
    results = {}
    for rule in (legendre_rule(), chebyshev_rule()):
        for dt in (0.01, 0.005, 0.0025):
            cfg = RunConfig(dt=dt, t_final=1.0, n_elements=1000, rule=rule)
            a = run(problem, cfg)
            l2, _ = error_norms(problem, mesh, rule, a, 1.0)
            results[(rule.kind, dt)] = l2
    return results


def test_criterion_1_temporal_accuracy_table(temporal_sweep):
    references = {0.01: 7.1591e-7, 0.005: 1.7931e-7, 0.0025: 4.4851e-8}
    for dt, ref in references.items():
        computed = temporal_sweep[("legendre", dt)]
        assert computed == pytest.approx(ref, rel=REL_TABLE_TOL), f"dt={dt}"
    for dt in references:
        l_val = temporal_sweep[("legendre", dt)]
        c_val = temporal_sweep[("chebyshev", dt)]
        # agreement to 3 significant figures
        assert abs(l_val - c_val) / l_val < 5e-4, f"dt={dt}"
    print("criterion 1 (temporal accuracy, N=1000 dt sweep): PASS")


def test_criterion_2_coupled_refinement_table():
    results = run_table(table_spec(4))
    assert len(results) == 22
    for r in results:
        assert r.error is None, f"{r.rule_kind} h=k={r.dt}: {r.error}"
        assert r.ref_norm == "linf"
        assert r.linf == pytest.approx(r.ref_value, rel=REL_TABLE_TOL), (
            f"{r.rule_kind} h=k={r.dt}"
        )
    print("criterion 2 (coupled h=k refinement table): PASS")


def test_criterion_3_error_history_table():
    results = run_table(table_spec(5), rules=("legendre",))
    assert len(results) == 12  # 6 horizons x 2 norms
    for r in results:
        assert r.error is None
        computed = {"l2": r.l2, "linf": r.linf}[r.ref_norm]
        assert computed == pytest.approx(r.ref_value, rel=REL_TABLE_TOL), (
            f"t={r.t_final} {r.ref_norm}"
        )
    print("criterion 3 (N=16 error history table): PASS")


def test_criterion_4_spatial_accuracy_at_roundoff_floor():
    problem = control_problem()
    rule = legendre_rule()
    floors = {}
    for n in (5, 10, 20, 40):
        cfg = RunConfig(dt=1e-6, t_final=1.0, n_elements=n, rule=rule)
        a = run(problem, cfg)
        mesh = build_mesh(problem, n)
        l2, _ = error_norms(problem, mesh, rule, a, 1.0)
        floors[n] = l2
        assert l2 <= 1e-11, f"N={n}: l2={l2}"
    detail = ", ".join(f"N={n}: {v:.2e}" for n, v in floors.items())
    print(f"criterion 4 (roundoff-floor regime, {detail}): PASS")


def test_criterion_5_temporal_convergence_order(temporal_sweep):
    pairs = [(dt, temporal_sweep[("legendre", dt)]) for dt in (0.01, 0.005, 0.0025)]
    orders = convergence_order(pairs)
    for order in orders:
        assert order == pytest.approx(2.0, abs=0.05)
    print(f"criterion 5 (temporal orders {[round(o, 3) for o in orders]}): PASS")


def test_criterion_6_property_suite():
    h = 0.3

    # partition of the two value functions
    for xi in np.linspace(0.0, 1.0, 41):
        vals = hermite_values(xi, h)
        assert abs(vals[0] + vals[6] - 1.0) < 1e-12

    # endpoint cardinality with h-scaled derivative functionals
    third_coeffs = np.pad(polyder(B_COEFFS, axis=1), ((0, 0), (0, 1)))

    def functionals(xi):
        return np.array(
            [
                hermite_values(xi, h),
                hermite_first_derivs(xi, h) / h,
                hermite_second_derivs(xi, h) / h**2,
                polyval(xi, third_coeffs.T) * h**H_POWERS / h**3,
            ]
        )

    left, right = functionals(0.0), functionals(1.0)
    cardinal = np.vstack([left[:4], right[3], right[2], right[0], right[1]])
    assert np.max(np.abs(cardinal - np.eye(8))) < 1e-12

    # derivative families against five-point central differences
    rng = np.random.default_rng(99)
    eps = 1e-3
    for xi in rng.uniform(0.05, 0.95, 20):
        for fine, coarse in (
            (hermite_first_derivs, hermite_values),
            (hermite_second_derivs, hermite_first_derivs),
        ):
            fd = (
                -coarse(xi + 2 * eps, h)
                + 8 * coarse(xi + eps, h)
                - 8 * coarse(xi - eps, h)
                + coarse(xi - 2 * eps, h)
            ) / (12 * eps)
            assert np.allclose(fd, fine(xi, h), rtol=1e-6, atol=1e-9)

    # banded LU against the dense elimination oracle
    for _ in range(50):
        n = int(rng.integers(2, 61))
        kw = min(int(rng.integers(1, 10)), n - 1)
        bands = np.zeros((2 * kw + 1, n))
        for i in range(n):
            for j in range(max(0, i - kw), min(n, i + kw + 1)):
                bands[kw + i - j, j] = rng.normal()
        bands[kw] += 2 * kw + 3.0
        m = BandedMatrix(n, kw, kw, bands)
        b = rng.normal(size=n)
        expected = gauss_solve(dense(m), b)
        for x in (band_solve(m, b), lu_solve(band_lu_factor(m), b)):
            assert np.allclose(x, expected, rtol=1e-10, atol=1e-12)

    # degree <= 7 interpolation exactness through the initial solve
    def poly(x):
        return x * (1 - x) * (1 + 2 * x - x**2 + 0.3 * x**3 - 0.2 * x**4 + 0.1 * x**5)

    spec = ProblemSpec(0.0, 1.0, 1.0, poly)
    mesh = build_mesh(spec, 4)
    a0 = initial_coefficients(spec, mesh, legendre_rule())
    for x in rng.uniform(0.0, 1.0, 50):
        assert evaluate(mesh, a0, x) == pytest.approx(poly(x), rel=1e-10, abs=1e-12)

    # boundary pinning after every step of a loop of step(), which below
    # the kernel line is run()'s loop, bitwise
    problem = control_problem()
    cfg = RunConfig(dt=0.01, t_final=0.25, n_elements=8, rule=legendre_rule())
    mesh = build_mesh(problem, 8)
    system = assemble_crank_nicolson(mesh, cfg.rule, problem.alpha, cfg.dt)
    factors = band_lu_factor(system.left)
    state = initial_coefficients(problem, mesh, cfg.rule)
    for _ in range(cfg.n_steps):
        state = step(system, factors, state)
        assert state[0] == 0.0
        assert state[6 * 8] == 0.0

    # bitwise determinism of repeated runs
    first = run(problem, cfg)
    second = run(problem, cfg)
    assert np.array_equal(first, second)

    print("criterion 6 (property suite, no table runs): PASS")
