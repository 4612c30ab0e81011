"""Error norms, convergence orders and the reference table harness.

Error norms are measured where the scheme collocates: the 6N global
collocation abscissae.  The discrete norms are

    L2   = sqrt(h * sum_p |u(x_p, t) - u_N(x_p)|**2),
    Linf = max_p |u(x_p, t) - u_N(x_p)|,

with p running over all 6N points.  The built-in table specifications pair
solver configurations with published reference values for both collocation
rules so that a whole accuracy table can be recomputed in one call.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import RULES, build_basis_table
from .problem import _sample, build_mesh, collocation_abscissae, control_problem
from .solver import RunConfig, _windows, run_batch

__all__ = [
    "MissingExactSolution",
    "Reference",
    "TableRow",
    "TableSpec",
    "TableResult",
    "TABLE_IDS",
    "error_norms",
    "convergence_order",
    "table_spec",
    "run_table",
]


class MissingExactSolution(ValueError):
    """Raised when norms are requested for a problem without exact solution."""


def _solution_at_collocation_points(mesh, rule, a):
    """Numerical solution at all 6N collocation abscissae, shape (N, 6)."""
    return _windows(mesh, a) @ build_basis_table(rule, mesh.h).H.T


def error_norms(spec, mesh, rule, a, t):
    """(L2, Linf) of exact minus numerical at the collocation points."""
    if spec.exact_solution is None:
        raise MissingExactSolution("problem has no exact solution to compare against")
    numeric = _solution_at_collocation_points(mesh, rule, a)
    abscissae = collocation_abscissae(mesh, rule.points)
    errors = _sample("exact_solution", spec.exact_solution, abscissae, t) - numeric
    l2 = math.sqrt(mesh.h * float(np.sum(errors**2)))
    linf = float(np.max(np.abs(errors)))
    return l2, linf


def convergence_order(pairs):
    """Observed orders from a refinement sweep of (step, error) pairs.

    Consecutive rows give order log(e1/e2) / log(s1/s2); the result has one
    entry fewer than the input.
    """
    if len(pairs) < 2:
        raise ValueError("need at least two (step, error) pairs")
    steps = [float(s) for s, _ in pairs]
    errors = [float(e) for _, e in pairs]
    if any(s <= 0.0 for s in steps) or len(set(steps)) != len(steps):
        raise ValueError("steps must be positive and distinct")
    if any(e <= 0.0 for e in errors):
        raise ValueError("errors must be positive")
    return [
        math.log(errors[i] / errors[i + 1]) / math.log(steps[i] / steps[i + 1])
        for i in range(len(pairs) - 1)
    ]


@dataclass(frozen=True)
class Reference:
    """One published value and the rule and norm it refers to."""

    rule_kind: str
    norm: str
    value: float


@dataclass(frozen=True)
class TableRow:
    n_elements: int
    dt: float
    t_final: float
    references: tuple


@dataclass(frozen=True)
class TableSpec:
    table_id: int
    rows: tuple


def _refs(by_rule_norm):
    return tuple(
        Reference(rule_kind=rule, norm=norm, value=value)
        for (rule, norm), value in by_rule_norm.items()
    )


def _build_tables():
    tables = {}

    # Temporal refinement at a fine mesh: N = 1000, T = 1.
    rows = []
    for dt, l_val, c_val in [
        (0.01, 7.1591e-7, 7.1591e-7),
        (0.005, 1.7931e-7, 1.7932e-7),
        (0.0025, 4.4851e-8, 4.4851e-8),
    ]:
        refs = _refs({("legendre", "l2"): l_val, ("chebyshev", "l2"): c_val})
        rows.append(TableRow(n_elements=1000, dt=dt, t_final=1.0, references=refs))
    tables[1] = TableSpec(table_id=1, rows=tuple(rows))

    # Spatial refinement at the roundoff floor: dt = 1e-6, T = 1.
    rows = []
    for n, l_val, c_val in [
        (5, 1.2153e-14, 1.0075e-12),
        (10, 1.9449e-15, 2.3323e-14),
        (20, 4.6215e-15, 7.4211e-15),
        (40, 8.1433e-15, 9.6794e-15),
    ]:
        refs = _refs({("legendre", "l2"): l_val, ("chebyshev", "l2"): c_val})
        rows.append(TableRow(n_elements=n, dt=1e-6, t_final=1.0, references=refs))
    tables[2] = TableSpec(table_id=2, rows=tuple(rows))

    # Same regime at T = 0.1 (reference values exist only for the Legendre rule).
    rows = []
    for n, l_val in [(10, 6.2482e-13), (20, 3.3280e-12), (40, 5.8595e-12)]:
        refs = _refs({("legendre", "l2"): l_val})
        rows.append(TableRow(n_elements=n, dt=1e-6, t_final=0.1, references=refs))
    tables[3] = TableSpec(table_id=3, rows=tuple(rows))

    # Coupled refinement h = dt, T = 1, Linf references.
    rows = []
    for s, l_val, c_val in [
        (0.2, 5.1578e-5, 5.1552e-5),
        (0.1, 3.1586e-5, 3.1587e-5),
        (0.05, 9.7106e-6, 9.7107e-6),
        (0.025, 2.5489e-6, 2.5489e-6),
        (0.0125, 6.4490e-7, 6.4490e-7),
        (0.00625, 1.6171e-7, 1.6171e-7),
        (0.01, 4.1333e-7, 4.1333e-7),
        (0.005, 1.0353e-7, 1.0353e-7),
        (0.0025, 2.5895e-8, 2.5895e-8),
        (0.002, 1.6574e-8, 1.6574e-8),
        (0.001, 4.1437e-9, 4.1437e-9),
    ]:
        inv = 1.0 / s
        n = round(inv)
        if abs(inv - n) > 1e-9 * inv:
            raise ValueError(f"h = {s} does not divide the unit interval")
        refs = _refs({("legendre", "linf"): l_val, ("chebyshev", "linf"): c_val})
        rows.append(TableRow(n_elements=n, dt=s, t_final=1.0, references=refs))
    tables[4] = TableSpec(table_id=4, rows=tuple(rows))

    # Error history at N = 16, dt = 0.01 (Legendre-rule references, both norms).
    rows = []
    for t, l2_val, linf_val in [
        (0.1, 5.1774e-4, 2.9891e-4),
        (0.3, 2.1558e-4, 1.2447e-4),
        (0.5, 4.9872e-5, 2.8793e-5),
        (0.7, 9.6911e-6, 5.5950e-6),
        (0.9, 1.7294e-6, 9.9847e-7),
        (1.0, 7.1591e-7, 4.1332e-7),
    ]:
        refs = _refs({("legendre", "l2"): l2_val, ("legendre", "linf"): linf_val})
        rows.append(TableRow(n_elements=16, dt=0.01, t_final=t, references=refs))
    tables[5] = TableSpec(table_id=5, rows=tuple(rows))

    return tables


_TABLES = _build_tables()
TABLE_IDS = tuple(sorted(_TABLES))


def table_spec(table_id):
    """Built-in table specification by identifier."""
    try:
        return _TABLES[table_id]
    except KeyError:
        raise ValueError(f"unknown table id {table_id}; known: {TABLE_IDS}") from None


@dataclass(frozen=True)
class TableResult:
    """One computed table cell next to its reference value (when any).

    error holds the message of a configuration that failed, whose norms
    are NaN.
    """

    table_id: int
    rule_kind: str
    n_elements: int
    dt: float
    t_final: float
    l2: float
    linf: float
    ref_value: Optional[float]
    ref_norm: Optional[str]
    rel_dev: Optional[float]
    error: Optional[str] = None


def run_table(spec_table, rules=("legendre", "chebyshev"), problem=None):
    """Recompute a reference table for the requested rules.

    Each (row, rule) configuration is solved once, all of them through
    run_batch, so rows that share a step count are stacked and rows that
    share a mesh and rule share its initial state.  A result is emitted per
    matching reference value (or a single reference-free result when the
    table has none for that rule).  Failures are captured per row so the
    remaining rows still run.
    """
    if problem is None:
        problem = control_problem()
    # each case holds an index into configs, or the failed (l2, linf, error)
    # when no RunConfig could be built
    cases, configs = [], []
    for row in spec_table.rows:
        for rule_kind in rules:
            try:
                cfg = RunConfig(
                    dt=row.dt,
                    t_final=row.t_final,
                    n_elements=row.n_elements,
                    rule=RULES[rule_kind](),
                )
            except Exception as exc:  # reported in the row's result
                cases.append((row, rule_kind, (math.nan, math.nan, str(exc))))
            else:
                cases.append((row, rule_kind, len(configs)))
                configs.append(cfg)
    # Norms are taken as each state arrives, and the state is dropped before
    # the next stack runs: a live state at the top of the heap keeps the
    # allocator from returning the next stack's freed matrices (table 1's
    # peak RSS read 1 MiB higher while states were kept).
    solved = {}
    for index, state in run_batch(problem, configs):
        cfg = configs[index]
        try:
            if isinstance(state, Exception):
                raise state
            mesh = build_mesh(problem, cfg.n_elements)
            solved[index] = (*error_norms(problem, mesh, cfg.rule, state, cfg.t_final), None)
        except Exception as exc:
            solved[index] = (math.nan, math.nan, str(exc))
        del state
    results = []
    for row, rule_kind, outcome in cases:
        l2, linf, error = solved[outcome] if isinstance(outcome, int) else outcome
        refs = [r for r in row.references if r.rule_kind == rule_kind]
        if error is None:
            computed = {"l2": l2, "linf": linf}
            cells = [(r.value, r.norm, (computed[r.norm] - r.value) / r.value) for r in refs]
        else:
            cells = [(refs[0].value, refs[0].norm, None)] if refs else []
        for ref_value, ref_norm, rel_dev in cells or [(None, None, None)]:
            results.append(
                TableResult(
                    table_id=spec_table.table_id,
                    rule_kind=rule_kind,
                    n_elements=row.n_elements,
                    dt=row.dt,
                    t_final=row.t_final,
                    l2=l2,
                    linf=linf,
                    ref_value=ref_value,
                    ref_norm=ref_norm,
                    rel_dev=rel_dev,
                    error=error,
                )
            )
    return results
