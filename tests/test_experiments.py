import math

import numpy as np
import pytest

from hermite_heat import (
    MissingExactSolution,
    ProblemSpec,
    RunConfig,
    build_mesh,
    convergence_order,
    error_norms,
    evaluate,
    initial_coefficients,
    run,
    run_table,
    table_spec,
)
from hermite_heat.experiments import Reference, TableRow, TableSpec
from hermite_heat.problem import collocation_abscissae


def test_zero_error_when_exact_matches_numeric(legendre):
    zero = ProblemSpec(0.0, 1.0, 1.0, lambda x: 0.0, exact_solution=lambda x, t: 0.0)
    mesh = build_mesh(zero, 4)
    a0 = initial_coefficients(zero, mesh, legendre)
    l2, linf = error_norms(zero, mesh, legendre, a0, 0.0)
    assert l2 == 0.0
    assert linf == 0.0


def test_constant_offset_error_norms(legendre, control):
    """A uniform offset c at all 6N points gives linf = c and
    l2 = c * sqrt(6 h N) = c * sqrt(6) on the unit interval."""
    mesh = build_mesh(control, 4)
    a0 = initial_coefficients(control, mesh, legendre)
    offset = ProblemSpec(
        0.0,
        1.0,
        1.0,
        control.initial_condition,
        exact_solution=np.vectorize(lambda x, t: evaluate(mesh, a0, x) + 1e-3),
    )
    l2, linf = error_norms(offset, mesh, legendre, a0, 0.0)
    assert linf == pytest.approx(1e-3, rel=1e-12)
    assert l2 == pytest.approx(1e-3 * math.sqrt(6.0), rel=1e-12)


def test_missing_exact_solution(legendre):
    spec = ProblemSpec(0.0, 1.0, 1.0, lambda x: x * (1 - x))
    mesh = build_mesh(spec, 4)
    a0 = initial_coefficients(spec, mesh, legendre)
    with pytest.raises(MissingExactSolution):
        error_norms(spec, mesh, legendre, a0, 0.0)


def test_norms_are_internally_consistent(legendre, control):
    """linf is the max of exactly the pointwise errors that build l2."""
    mesh = build_mesh(control, 6)
    cfg = RunConfig(dt=0.01, t_final=0.1, n_elements=6, rule=legendre)
    a = run(control, cfg)
    l2, linf = error_norms(control, mesh, legendre, a, 0.1)
    errs = np.array(
        [
            control.exact_solution(x, 0.1) - evaluate(mesh, a, x)
            for x in collocation_abscissae(mesh, legendre.points).ravel()
        ]
    )
    assert linf == pytest.approx(np.max(np.abs(errs)), rel=1e-12)
    assert l2 == pytest.approx(math.sqrt(mesh.h * np.sum(errs**2)), rel=1e-12)


def test_error_history_midpoint_row(legendre, control):
    mesh = build_mesh(control, 16)
    cfg = RunConfig(dt=0.01, t_final=0.5, n_elements=16, rule=legendre)
    a = run(control, cfg)
    l2, linf = error_norms(control, mesh, legendre, a, 0.5)
    assert l2 == pytest.approx(4.9872e-5, rel=1e-2)
    assert linf == pytest.approx(2.8793e-5, rel=1e-2)


def test_convergence_order_exact_halving():
    assert convergence_order([(0.01, 4e-4), (0.005, 1e-4)]) == pytest.approx([2.0])


def test_convergence_order_reference_sequence():
    orders = convergence_order([(0.01, 7.1591e-7), (0.005, 1.7931e-7)])
    assert orders == pytest.approx([1.997], abs=5e-3)


def test_convergence_order_scale_invariance():
    pairs = [(0.04, 3.1e-3), (0.02, 8.2e-4), (0.01, 2.0e-4)]
    scaled = [(s, 10 * e) for s, e in pairs]
    assert convergence_order(scaled) == pytest.approx(convergence_order(pairs))


def test_convergence_order_rejects_bad_input():
    with pytest.raises(ValueError):
        convergence_order([(0.01, 1e-3)])
    with pytest.raises(ValueError):
        convergence_order([(0.01, 1e-3), (0.005, 0.0)])
    with pytest.raises(ValueError):
        convergence_order([(0.01, 1e-3), (0.01, 1e-4)])
    with pytest.raises(ValueError):
        convergence_order([(-0.01, 1e-3), (0.005, 1e-4)])


def test_table_spec_lookup():
    spec = table_spec(4)
    assert spec.table_id == 4
    assert len(spec.rows) == 11
    with pytest.raises(ValueError):
        table_spec(7)


def test_temporal_table_finest_row(legendre, control):
    spec = table_spec(1)
    row = spec.rows[-1]
    assert row.dt == 0.0025
    cfg = RunConfig(dt=row.dt, t_final=row.t_final, n_elements=row.n_elements, rule=legendre)
    a = run(control, cfg)
    mesh = build_mesh(control, row.n_elements)
    l2, _ = error_norms(control, mesh, legendre, a, row.t_final)
    assert l2 == pytest.approx(4.4851e-8, rel=1e-2)


def test_run_table_coupled_refinement_first_row():
    spec = TableSpec(table_id=4, rows=(table_spec(4).rows[0],))
    results = run_table(spec)
    assert len(results) == 2
    legendre_row, chebyshev_row = results
    assert legendre_row.rule_kind == "legendre"
    assert legendre_row.linf == pytest.approx(5.1578e-5, rel=1e-2)
    assert abs(legendre_row.rel_dev) < 1e-2
    assert chebyshev_row.linf == pytest.approx(5.1552e-5, rel=1e-2)


def test_rules_agree_when_temporal_error_dominates(control):
    """At N = 1000 the spatial error is negligible, so both rules land on
    the same number to well under 3 significant figures."""
    spec = TableSpec(table_id=1, rows=(table_spec(1).rows[0],))
    results = run_table(spec)
    by_rule = {r.rule_kind: r.l2 for r in results}
    assert abs(by_rule["legendre"] - by_rule["chebyshev"]) / by_rule["legendre"] < 5e-4


def test_temporal_sweep_is_monotone(legendre, control):
    mesh = build_mesh(control, 200)
    values = []
    for dt in (0.02, 0.01, 0.005):
        cfg = RunConfig(dt=dt, t_final=1.0, n_elements=200, rule=legendre)
        a = run(control, cfg)
        l2, _ = error_norms(control, mesh, legendre, a, 1.0)
        values.append(l2)
    assert values[0] > values[1] > values[2]


def test_run_table_captures_row_failures():
    bad = TableRow(
        n_elements=4,
        dt=0.3,
        t_final=1.0,
        references=(Reference("legendre", "l2", 1e-6),),
    )
    good = table_spec(5).rows[0]
    results = run_table(TableSpec(table_id=0, rows=(bad, good)), rules=("legendre",))
    assert results[0].error is not None
    assert math.isnan(results[0].l2)
    # the failing row does not stop the remaining rows
    good_results = [r for r in results if r.error is None]
    assert len(good_results) == 2  # one config, two reference norms
    assert {r.ref_norm for r in good_results} == {"l2", "linf"}


def test_run_table_samples_f_per_mesh_and_exact_per_solve(control):
    """A batch calls the initial condition once per distinct (N, rule), as
    its members share the initial state (W a0 = b), and run_table calls the
    exact solution once per solve for its norms, each on arrays of all 6N
    abscissae; building the spec adds one call of f, on its two ends.
    Table 1 solves one N at three dt, and Table 5 one N at six t_final,
    both rules each."""
    for table_id, meshes, solves in [(1, 2, 6), (5, 2, 12)]:
        calls = {"f": 0, "exact": 0}

        def f(x):
            calls["f"] += 1
            return control.initial_condition(x)

        def exact(x, t):
            calls["exact"] += 1
            return control.exact_solution(x, t)

        problem = ProblemSpec(0.0, 1.0, 1.0, f, exact_solution=exact)
        assert calls == {"f": 1, "exact": 0}
        results = run_table(table_spec(table_id), problem=problem)
        assert all(r.error is None for r in results)
        assert calls == {"f": 1 + meshes, "exact": solves}, table_id


def test_error_norms_reject_an_exact_solution_that_breaks_the_array_contract(legendre, control):
    mesh = build_mesh(control, 4)
    a0 = initial_coefficients(control, mesh, legendre)
    for exact, message in [
        (lambda x, t: math.sin(math.pi * x), "exact_solution must take an ndarray"),
        (lambda x, t: np.zeros(4), r"exact_solution returned shape \(4,\)"),
    ]:
        spec = ProblemSpec(0.0, 1.0, 1.0, control.initial_condition, exact_solution=exact)
        with pytest.raises(ValueError, match=message):
            error_norms(spec, mesh, legendre, a0, 0.0)
