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
from .solver import RunConfig, _detached, _windows, run_batch

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


# an overflow leaves inf or NaN, which the checks below report: no warning
@np.errstate(over="ignore", invalid="ignore")
def error_norms(spec, mesh, rule, a, t):
    """(L2, Linf) of exact minus numerical at the collocation points.

    An exact solution that is not finite at a collocation point raises
    ValueError, and so do errors or an L2 norm beyond the float range.
    """
    if spec.exact_solution is None:
        raise MissingExactSolution("problem has no exact solution to compare against")
    numeric = _solution_at_collocation_points(mesh, rule, a)
    abscissae = collocation_abscissae(mesh, rule.points)
    exact = _sample("exact_solution", spec.exact_solution, abscissae, t)
    if not np.all(np.isfinite(exact)):
        raise ValueError("exact solution is not finite at every collocation point")
    errors = exact - numeric
    l2 = math.sqrt(mesh.h * float(np.sum(errors**2)))
    linf = float(np.max(np.abs(errors)))
    if not math.isfinite(linf):
        raise ValueError("exact minus numerical solution is not finite at every collocation point")
    if math.isinf(l2):
        # the squares overflow: sum those of errors / linf, each at most 1
        l2 = linf * math.sqrt(mesh.h * float(np.sum((errors / linf) ** 2)))
        if math.isinf(l2):
            raise ValueError("the L2 error norm overflows")
    return l2, linf


def convergence_order(pairs):
    """Observed orders from a refinement sweep of (step, error) pairs.

    Consecutive rows give order log(e1/e2) / log(s1/s2); the result has one
    entry fewer than the input.  A step or error that is NaN or +-inf, and
    a ratio e1/e2 or s1/s2 that overflows or underflows (which would give
    an order of 0 or +-inf), raise ValueError, as steps that are not
    positive and distinct and errors that are not positive do.
    """
    if len(pairs) < 2:
        raise ValueError("need at least two (step, error) pairs")
    steps = [float(s) for s, _ in pairs]
    errors = [float(e) for _, e in pairs]
    if not all(math.isfinite(v) for v in steps + errors):
        raise ValueError("steps and errors must be finite")
    if any(s <= 0.0 for s in steps) or len(set(steps)) != len(steps):
        raise ValueError("steps must be positive and distinct")
    if any(e <= 0.0 for e in errors):
        raise ValueError("errors must be positive")
    ratios = [(errors[i] / errors[i + 1], steps[i] / steps[i + 1]) for i in range(len(pairs) - 1)]
    if not all(0.0 < r < math.inf for pair in ratios for r in pair):
        raise ValueError("the ratio of consecutive steps or errors overflows or underflows")
    return [math.log(e) / math.log(s) for e, s in ratios]


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


def _table(table_id, keys, rows):
    """TableSpec of rows (N, dt, t_final, *values), value i the reference
    for keys[i], a (rule_kind, norm) pair."""
    return TableSpec(
        table_id=table_id,
        rows=tuple(
            TableRow(n, dt, t_final, tuple(Reference(*key, v) for key, v in zip(keys, values)))
            for n, dt, t_final, *values in rows
        ),
    )


_L2 = (("legendre", "l2"), ("chebyshev", "l2"))
_TABLES = {
    # Temporal refinement at a fine mesh: N = 1000, T = 1.
    1: _table(1, _L2, [
        (1000, 0.01, 1.0, 7.1591e-7, 7.1591e-7),
        (1000, 0.005, 1.0, 1.7931e-7, 1.7932e-7),
        (1000, 0.0025, 1.0, 4.4851e-8, 4.4851e-8),
    ]),
    # Spatial refinement at the roundoff floor: dt = 1e-6, T = 1.
    2: _table(2, _L2, [
        (5, 1e-6, 1.0, 1.2153e-14, 1.0075e-12),
        (10, 1e-6, 1.0, 1.9449e-15, 2.3323e-14),
        (20, 1e-6, 1.0, 4.6215e-15, 7.4211e-15),
        (40, 1e-6, 1.0, 8.1433e-15, 9.6794e-15),
    ]),
    # Same regime at T = 0.1 (reference values exist only for the Legendre rule).
    3: _table(3, (("legendre", "l2"),), [
        (10, 1e-6, 0.1, 6.2482e-13),
        (20, 1e-6, 0.1, 3.3280e-12),
        (40, 1e-6, 0.1, 5.8595e-12),
    ]),
    # Coupled refinement h = dt, T = 1, Linf references.
    4: _table(4, (("legendre", "linf"), ("chebyshev", "linf")), [
        (5, 0.2, 1.0, 5.1578e-5, 5.1552e-5),
        (10, 0.1, 1.0, 3.1586e-5, 3.1587e-5),
        (20, 0.05, 1.0, 9.7106e-6, 9.7107e-6),
        (40, 0.025, 1.0, 2.5489e-6, 2.5489e-6),
        (80, 0.0125, 1.0, 6.4490e-7, 6.4490e-7),
        (160, 0.00625, 1.0, 1.6171e-7, 1.6171e-7),
        (100, 0.01, 1.0, 4.1333e-7, 4.1333e-7),
        (200, 0.005, 1.0, 1.0353e-7, 1.0353e-7),
        (400, 0.0025, 1.0, 2.5895e-8, 2.5895e-8),
        (500, 0.002, 1.0, 1.6574e-8, 1.6574e-8),
        (1000, 0.001, 1.0, 4.1437e-9, 4.1437e-9),
    ]),
    # Error history at N = 16, dt = 0.01 (Legendre-rule references, both norms).
    5: _table(5, (("legendre", "l2"), ("legendre", "linf")), [
        (16, 0.01, 0.1, 5.1774e-4, 2.9891e-4),
        (16, 0.01, 0.3, 2.1558e-4, 1.2447e-4),
        (16, 0.01, 0.5, 4.9872e-5, 2.8793e-5),
        (16, 0.01, 0.7, 9.6911e-6, 5.5950e-6),
        (16, 0.01, 0.9, 1.7294e-6, 9.9847e-7),
        (16, 0.01, 1.0, 7.1591e-7, 4.1332e-7),
    ]),
}
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

    A configuration that failed has NaN norms, no rel_dev, and its
    exception in error.
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
    error: Optional[Exception] = None


def _norms(problem, configs):
    """Yield (index, (l2, linf)) for each of configs, run by run_batch, or
    (index, exc) for one whose run or norms raised exc (_detached).

    Norms are taken as each state arrives, and the state is dropped before
    the next stack runs: a live state at the top of the heap keeps the
    allocator from returning the next stack's freed matrices (table 1's
    peak RSS read 1 MiB higher while states were kept).
    """
    for index, outcome in run_batch(problem, configs):
        if not isinstance(outcome, Exception):
            cfg = configs[index]
            try:
                mesh = build_mesh(problem, cfg.n_elements)
                outcome = error_norms(problem, mesh, cfg.rule, outcome, cfg.t_final)
            except Exception as exc:
                outcome = _detached(exc)
        yield index, outcome


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
    cases = [(row, rule_kind) for row in spec_table.rows for rule_kind in rules]
    # each outcome is (l2, linf) or the exception of a RunConfig that could
    # not be built, a run or its norms
    outcomes, built = {}, []
    for case, (row, rule_kind) in enumerate(cases):
        try:
            cfg = RunConfig(
                dt=row.dt, t_final=row.t_final, n_elements=row.n_elements, rule=RULES[rule_kind]()
            )
        except Exception as exc:
            outcomes[case] = _detached(exc)
        else:
            built.append((case, cfg))
    for index, outcome in _norms(problem, [cfg for _, cfg in built]):
        outcomes[built[index][0]] = outcome
    results = []
    for case, (row, rule_kind) in enumerate(cases):
        failed = isinstance(outcomes[case], Exception)
        l2, linf = (math.nan, math.nan) if failed else outcomes[case]
        for ref in [r for r in row.references if r.rule_kind == rule_kind] or [None]:
            rel_dev = None
            if ref and not failed:
                rel_dev = ({"l2": l2, "linf": linf}[ref.norm] - ref.value) / ref.value
            results.append(
                TableResult(
                    table_id=spec_table.table_id,
                    rule_kind=rule_kind,
                    n_elements=row.n_elements,
                    dt=row.dt,
                    t_final=row.t_final,
                    l2=l2,
                    linf=linf,
                    ref_value=ref.value if ref else None,
                    ref_norm=ref.norm if ref else None,
                    rel_dev=rel_dev,
                    error=outcomes[case] if failed else None,
                )
            )
    return results
