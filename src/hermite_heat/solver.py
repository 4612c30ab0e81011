"""Time-stepping pipeline and evaluation of the numerical solution.

A run interpolates the initial condition (W a0 = b), assembles and factors
the Crank-Nicolson matrix L once, then advances the coefficient vector
through M = t_final / dt solves of L a^{n+1} = R a^n.  The full coefficient
vector keeps the two eliminated boundary entries pinned at zero so that
evaluation code can index elements uniformly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .assembly import assemble_crank_nicolson, assemble_initial_system, index_maps
from .basis import CollocationRule, hermite_first_derivs, hermite_second_derivs, hermite_values
from .linalg import band_lu_factor, band_lu_solve, band_matvec
from .problem import build_mesh

__all__ = [
    "NonIntegralStepCount",
    "CoefficientVector",
    "RunConfig",
    "initial_coefficients",
    "step",
    "run",
    "evaluate",
    "evaluate_derivatives",
]

_STEP_COUNT_RTOL = 1e-9


class NonIntegralStepCount(ValueError):
    """Raised when t_final is not a whole, nonzero number of steps dt.

    t_final = 0 (zero steps) is allowed; any t_final > 0 needs at least one.
    """


@dataclass(frozen=True)
class CoefficientVector:
    """All 6N + 2 coefficients at one time level.

    full[0] and full[6N] (the boundary value coefficients) stay exactly zero.
    """

    full: np.ndarray
    time_index: int = 0

    @property
    def n_elements(self):
        return (len(self.full) - 2) // 6


@dataclass(frozen=True)
class RunConfig:
    """One solver configuration: step size, horizon, mesh and rule."""

    dt: float
    t_final: float
    n_elements: int
    rule: CollocationRule

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be positive and finite")
        if not (math.isfinite(self.t_final) and self.t_final >= 0.0):
            raise ValueError("t_final must be nonnegative and finite")
        if self.n_elements < 1:
            raise ValueError("n_elements must be at least 1")
        ratio = self.t_final / self.dt
        tolerance = _STEP_COUNT_RTOL * max(1.0, ratio)
        if not (math.isfinite(ratio) and abs(ratio - round(ratio)) <= tolerance):
            raise NonIntegralStepCount(
                f"t_final / dt = {ratio} is not an integer step count"
            )
        if self.t_final > 0.0 and round(ratio) == 0:
            raise NonIntegralStepCount(
                f"t_final / dt = {ratio} rounds to a step count of 0 for t_final > 0"
            )

    @property
    def n_steps(self):
        return round(self.t_final / self.dt)


def initial_coefficients(spec, mesh, rule):
    """Solve W a0 = b and scatter into the full coefficient layout."""
    system = assemble_initial_system(mesh, rule, spec.initial_condition)
    reduced = band_lu_solve(band_lu_factor(system.W), system.b)
    reduced_to_full, _ = index_maps(mesh.n_elements)
    full = np.zeros(6 * mesh.n_elements + 2)
    full[reduced_to_full] = reduced
    return CoefficientVector(full=full, time_index=0)


def step(system, factors, a):
    """Advance one Crank-Nicolson step: solve L a_next = R a_current.

    Accuracy: the banded LU solve is backward stable, so the computed a_next
    exactly solves a system whose matrix differs from L by a small multiple
    of eps * |L| (eps the unit roundoff).  Its forward error per step is of
    order cond(L) * eps, and cond(L) grows like h**-3 (about 1.6e5 at N = 4
    and 7.5e7 at N = 40, Legendre rule, dt = 0.01).  Scaling a by a power of
    two scales a_next by the same power bitwise, barring overflow and
    underflow; other factors agree only to within the forward error.
    """
    reduced = a.full[system.reduced_to_full]
    rhs = band_matvec(system.right, reduced)
    solution = band_lu_solve(factors, rhs)
    full = np.zeros_like(a.full)
    full[system.reduced_to_full] = solution
    return CoefficientVector(full=full, time_index=a.time_index + 1)


def run(spec, cfg, on_step=None):
    """Run the whole pipeline and return the final coefficient vector.

    L is factored once and reused for all steps.  If on_step is given it is
    called with each freshly computed CoefficientVector; nothing is retained
    otherwise, so million-step runs stay flat in memory.
    """
    mesh = build_mesh(spec, cfg.n_elements)
    a = initial_coefficients(spec, mesh, cfg.rule)
    n_steps = cfg.n_steps
    if n_steps == 0:
        return a
    system = assemble_crank_nicolson(mesh, cfg.rule, spec.alpha, cfg.dt)
    factors = band_lu_factor(system.left)
    for _ in range(n_steps):
        a = step(system, factors, a)
        if on_step is not None:
            on_step(a)
    return a


def _locate(mesh, x):
    if x < mesh.nodes[0] or x > mesh.nodes[-1]:
        raise ValueError(f"x = {x} lies outside [{mesh.nodes[0]}, {mesh.nodes[-1]}]")
    k = min(max(int(math.floor((x - mesh.nodes[0]) / mesh.h)), 0), mesh.n_elements - 1)
    xi = min(max((x - mesh.nodes[k]) / mesh.h, 0.0), 1.0)
    return k, xi


def evaluate(mesh, a, x):
    """Value of the numerical solution at abscissa x."""
    k, xi = _locate(mesh, x)
    coeffs = a.full[6 * k : 6 * k + 8]
    return float(coeffs @ hermite_values(xi, mesh.h))


def evaluate_derivatives(mesh, a, x):
    """First and second x-derivatives of the numerical solution at x."""
    k, xi = _locate(mesh, x)
    coeffs = a.full[6 * k : 6 * k + 8]
    first = float(coeffs @ hermite_first_derivs(xi, mesh.h)) / mesh.h
    second = float(coeffs @ hermite_second_derivs(xi, mesh.h)) / mesh.h**2
    return first, second
