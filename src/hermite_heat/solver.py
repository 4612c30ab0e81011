"""Time-stepping pipeline and evaluation of the numerical solution.

A run interpolates the initial condition (W a0 = b), assembles and factors
the Crank-Nicolson matrix L once, then advances the coefficient vector
through M = t_final / dt solves of L a^{n+1} = R a^n.  The full coefficient
vector keeps the two eliminated boundary entries pinned at zero so that
evaluation code can index elements uniformly.

Meshes of up to _STACK_UNKNOWNS unknowns (6N) step through the banded LU of
L, and run_batch stacks them.  Larger meshes step alone, through the
statically condensed system of assembly.assemble_condensed, whose step
costs about 0.55 of the banded one at N = 180 and 0.4 at N = 1000.  Both
kernels solve with the factors' row interchanges moved to the front
(linalg.LUFactors): one gather and two BLAS dtbsv calls per step.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._lapack import blas as _blas
from .assembly import (
    assemble_condensed,
    assemble_crank_nicolson,
    assemble_initial_system,
)
from .basis import CollocationRule, hermite_first_derivs, hermite_second_derivs, hermite_values
from .linalg import _interleaved_factors, band_lu_factor, band_lu_solve, block_diagonal
from .problem import build_mesh

__all__ = [
    "NonIntegralStepCount",
    "CoefficientVector",
    "RunConfig",
    "initial_coefficients",
    "step",
    "run",
    "run_batch",
    "evaluate",
    "evaluate_derivatives",
]

_STEP_COUNT_RTOL = 1e-9

# Largest block-diagonal system run_batch steps as one.  Stacking saves
# about 1 us of call overhead per member and step (x86_64, OpenBLAS), a
# gain that fades by about 1000 unknowns; near 10**4 unknowns the stack's
# bands (256 bytes per unknown) outgrow the L2 cache and stacking loses.
# A mesh above it always steps alone, through the condensed kernel.
_STACK_UNKNOWNS = 1024


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
        if isinstance(self.n_elements, bool) or not isinstance(self.n_elements, numbers.Integral):
            raise ValueError(f"n_elements must be an integer, got {self.n_elements!r}")
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


def _coefficients(reduced_to_full, x, time_index):
    """Scatter the reduced vector x into the full layout, boundary entries zero."""
    full = np.zeros(len(x) + 2)
    full[reduced_to_full] = x
    return CoefficientVector(full=full, time_index=time_index)


def initial_coefficients(spec, mesh, rule):
    """Solve W a0 = b and scatter into the full coefficient layout.

    W is solved once, so its factors skip the permuted form, which only
    repeated solves pay back, and band_lu_solve hands them to dgbtrs.
    """
    system = assemble_initial_system(mesh, rule, spec.initial_condition)
    reduced = band_lu_solve(_interleaved_factors(system.W), system.b)
    return _coefficients(system.reduced_to_full, reduced, 0)


def _advance(right, factors, x, n_steps, on_step=None):
    """Solve L x_next = R x n_steps times on the reduced vector x; return the last x.

    right is R and factors is the LU factorization of L, in its permuted
    form.  BLAS is called directly with positional arguments bound once,
    since per-step Python work costs as much as the solve itself on small
    meshes: one dgbmv, one gather and two dtbsv per step.  on_step, if
    given, is called as on_step(k, x) after step k.

    scipy's dgbmv wrapper wants at least kl + ku + 1 rows, more than n at
    N = 1 and 2, where BLAS asks only for that many band rows (Dongarra et
    al., ACM TOMS 14, 1988).  So dgbmv forms max(n, kl + ku + 1) rows:
    those past n read only band slots outside the matrix, and the gather
    by perm, which lies in 0 .. n-1, drops them.
    """
    n, kl, ku, bands = right.n, right.kl, right.ku, right.bands
    rows = max(n, kl + ku + 1)
    perm, lower, width = factors.perm, factors.lower, factors.width
    upper, upper_width = factors.lu_bands, factors.kl + factors.ku
    dgbmv, dtbsv = _blas.dgbmv, _blas.dtbsv
    for k in range(1, n_steps + 1):
        rhs = dgbmv(rows, n, kl, ku, 1.0, bands, x)
        y = dtbsv(width, lower, rhs[perm], 1, 0, 1, 0, 1, 1)
        x = dtbsv(upper_width, upper, y, 1, 0, 0, 0, 0, 1)
        if on_step is not None:
            on_step(k, x)
    return x


def _advance_condensed(system, factors, a, n_steps, on_step=None):
    """Step a n_steps times as a <- a + L^-1 (D a), through the condensed system.

    factors is the LU factorization of system.interface, in its permuted
    form.  Each step takes one product of the element windows of a with G,
    one gather of the interface right-hand sides in pivot order, two dtbsv
    for the 2N nodal increments, and one product with P for the local
    ones, then adds the increment to a in place; the boundary entries stay
    0.0.  on_step, if given, is called with a CoefficientVector after each
    step.  Returns the final CoefficientVector.
    """
    full = a.full.copy()
    delta = np.zeros_like(full)
    windows = sliding_window_view(full, 8)[::6]
    delta_windows = sliding_window_view(delta, 8)[::6]
    delta_local = delta[:-2].reshape(-1, 6)[:, 2:]
    element_rhs = np.ascontiguousarray(system.element_rhs.T)
    local_solve = np.ascontiguousarray(system.local_solve.T)
    positions = system.interface_positions
    # interface row i is column 4 + i % 2 of element i // 2's right-hand sides
    gather = 6 * (factors.perm // 2) + 4 + factors.perm % 2
    lower, width = factors.lower, factors.width
    upper, upper_width = factors.lu_bands, factors.kl + factors.ku
    dtbsv = _blas.dtbsv
    for k in range(1, n_steps + 1):
        rhs = windows @ element_rhs
        y = dtbsv(width, lower, rhs.ravel()[gather], 1, 0, 1, 0, 1, 1)
        delta[positions] = dtbsv(upper_width, upper, y, 1, 0, 0, 0, 0, 1)
        delta_local[...] = rhs[:, :4]
        delta_local[...] = delta_windows @ local_solve
        full += delta
        if on_step is not None:
            on_step(CoefficientVector(full=full.copy(), time_index=k))
    return CoefficientVector(full=full, time_index=n_steps)


def step(system, factors, a):
    """Advance one Crank-Nicolson step: solve L a_next = R a_current.

    This is one step of the banded loop that run() uses for meshes with
    6N <= 1024 unknowns, so for those a hand-written loop of step()
    reproduces run() bitwise.  Larger meshes run() steps through the
    condensed kernel, which agrees with a loop of step() only to within
    the banded solve's forward error (see below).

    Accuracy: the banded LU solve is backward stable, so the computed a_next
    exactly solves a system whose matrix differs from L by a small multiple
    of eps * |L| (eps the unit roundoff).  Its forward error per step is of
    order cond(L) * eps, and cond(L) grows like h**-3 (about 1.6e5 at N = 4
    and 7.5e7 at N = 40, Legendre rule, dt = 0.01).  Scaling a by a power of
    two scales a_next by the same power bitwise, barring overflow and
    underflow; other factors agree only to within the forward error.
    """
    reduced_to_full = system.reduced_to_full
    x = _advance(system.right, factors, a.full[reduced_to_full], 1)
    return _coefficients(reduced_to_full, x, a.time_index + 1)


def _condensed(cfg):
    """Whether cfg's mesh is too large to stack, and so steps condensed."""
    return 6 * cfg.n_elements > _STACK_UNKNOWNS


def _prepare(spec, cfg):
    """Initial state, and for a run with steps its system and that system's factors.

    The system is the condensed one, with the factors of its interface
    matrix, for meshes too large to stack; otherwise L and R with the
    factors of L.  Raises ValueError if those factors have no permuted
    form, which no matrix the package builds has been found to lack.
    """
    mesh = build_mesh(spec, cfg.n_elements)
    a = initial_coefficients(spec, mesh, cfg.rule)
    if cfg.n_steps == 0:
        return a, None, None
    if _condensed(cfg):
        system = assemble_condensed(mesh, cfg.rule, spec.alpha, cfg.dt)
        matrix = system.interface
    else:
        system = assemble_crank_nicolson(mesh, cfg.rule, spec.alpha, cfg.dt)
        matrix = system.left
    factors = band_lu_factor(matrix)
    if factors.lower is None:
        raise ValueError(
            f"the row interchanges of the {matrix.n} x {matrix.n} step matrix widen "
            f"its lower factor past kl + ku = {matrix.kl + matrix.ku}"
        )
    return a, system, factors


def run(spec, cfg, on_step=None):
    """Run the whole pipeline and return the final coefficient vector.

    The step's matrix is factored once and reused for all steps.  Meshes
    with 6N <= 1024 unknowns advance the reduced 6N-vector through the
    banded LU of L without building a CoefficientVector per step; larger
    ones step through the condensed kernel, in 0.4 to 0.55 of the time.
    If on_step is given it is called with a CoefficientVector of each new
    time level (time_index 1 .. n_steps); nothing is retained otherwise,
    so million-step runs stay flat in memory.  run is run_batch's stack of
    one member, and raises the exception that member's result would hold.
    """
    ((_, result),) = _run_stack(spec, [(0, cfg)], on_step)
    if isinstance(result, Exception):
        raise result
    return result


def _plan_stacks(configs):
    """(index, config) pairs of configs grouped into stacks that step as one.

    Members of a stack share their step count and hold at most
    _STACK_UNKNOWNS unknowns (6N each) together; a larger member stacks
    alone.  Stacks and their members keep input order.
    """
    stacks = []
    filling = {}  # n_steps -> (members, unknowns) of the stack still open
    for index, cfg in enumerate(configs):
        size = 6 * cfg.n_elements
        members, unknowns = filling.get(cfg.n_steps, (None, 0))
        if members is None or unknowns + size > _STACK_UNKNOWNS:
            members, unknowns = [], 0
            stacks.append(members)
        members.append((index, cfg))
        filling[cfg.n_steps] = (members, unknowns + size)
    return stacks


def _run_stack(spec, members, on_step=None):
    """(index, result) of each (index, config) in members, which share a step count.

    Members whose (kl, ku) agree step as one block-diagonal system, and a
    mesh too large to stack steps condensed.  A member whose preparation
    raises gets that exception as its result, and one whose final state is
    not finite a ValueError.  on_step is run()'s, passed only for its one
    member.
    """
    n_steps = members[0][1].n_steps
    results = {}
    groups = {}
    for index, cfg in members:
        try:
            a, system, factors = _prepare(spec, cfg)
        except Exception as exc:  # reported per member; the others still run
            results[index] = exc
            continue
        if system is None:
            results[index] = a
        elif _condensed(cfg):  # always alone in its stack
            results[index] = _advance_condensed(system, factors, a, n_steps, on_step)
        else:
            right, reduced_to_full = system.right, system.reduced_to_full
            member = (index, right, factors, a.full[reduced_to_full], reduced_to_full)
            groups.setdefault((right.kl, right.ku), []).append(member)
    for group in groups.values():
        results.update(_advance_group(group, n_steps, on_step))
    for index, result in results.items():
        if isinstance(result, CoefficientVector) and not np.all(np.isfinite(result.full)):
            results[index] = ValueError(f"the solution is not finite after step {n_steps}")
    return [(index, results[index]) for index, _ in members]


def _advance_group(group, n_steps, on_step):
    """(index, final state) of each banded member of group, stepped as one.

    Where a state overflows, dgbmv's 0 * inf in the band slots between the
    blocks makes NaN of its neighbours too, so a group of several members
    that ends not finite steps each member again alone.
    """
    stacked, rights, factor_list, xs, maps = zip(*group)
    right, factors = block_diagonal(rights, factor_list)
    report = None if on_step is None else lambda k, x: on_step(_coefficients(maps[0], x, k))
    x = _advance(right, factors, np.concatenate(xs), n_steps, report)
    if len(group) > 1 and not np.all(np.isfinite(x)):
        return [pair for member in group for pair in _advance_group([member], n_steps, None)]
    parts = np.split(x, np.cumsum([len(v) for v in xs[:-1]]))
    return [
        (index, _coefficients(reduced_to_full, part, n_steps))
        for index, reduced_to_full, part in zip(stacked, maps, parts)
    ]


def run_batch(spec, configs):
    """Run every configuration on one problem, yielding (index, result).

    index points into configs; result is the final CoefficientVector,
    bitwise equal to run(spec, configs[index]), or the exception that its
    run raised, and the other configurations still run.  Configurations
    with the same step count are stacked into one block-diagonal banded
    system of at most 1024 unknowns, which steps faster than separate
    loops on small meshes; a larger mesh runs alone and condensed, as in
    run().  A stack with a state that is not finite at the end steps its
    members again one by one, so a member that overflows gets a ValueError
    without changing the results of its stack mates.
    Results come stack by stack, and each stack's matrices and states are
    freed before the next one is assembled, so a caller that reduces each
    state as it arrives holds only one stack at a time.
    """
    for members in _plan_stacks(configs):
        yield from _run_stack(spec, members)


def _locate(mesh, x):
    # written so that NaN fails too
    if not (mesh.nodes[0] <= x <= mesh.nodes[-1]):
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
