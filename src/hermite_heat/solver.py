"""Time-stepping pipeline and evaluation of the numerical solution.

A run interpolates the initial condition (W a0 = b), then advances the
coefficient vector through M = t_final / dt Crank-Nicolson steps
L a^{n+1} = R a^n.  A state is the float array of all 6N + 2
coefficients, whose two eliminated boundary entries (0 and 6N) stay exactly
zero so that evaluation code can index elements uniformly.

Meshes of up to _STACK_UNKNOWNS unknowns (6N) step through the banded LU of
L, and run_batch stacks them, factoring each stack once; each step is one
dgbmv, one gather and two BLAS dtbsv calls (linalg.LUFactors).  Larger
meshes step alone, through their Fourier modes: one real FFT of the
state's odd extension splits the run into N + 1 independent 6 x 6 real
problems, each powered in log2(M) batched products, and one inverse FFT
returns the final state (_propagator, _advance_modes).  A stiff mesh whose
symbols round to singular steps banded instead.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import blas as _blas
from .assembly import assemble_crank_nicolson, assemble_initial_system, element_blocks
from .basis import CollocationRule, build_basis_table, hermite_values
from .basis import hermite_first_derivs, hermite_second_derivs
from .linalg import SingularMatrix, band_lu_factor, band_solve, block_diagonal
from .problem import _check_element_count, build_mesh

__all__ = [
    "NonIntegralStepCount",
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
# A mesh above it always steps alone, through its Fourier modes.
_STACK_UNKNOWNS = 1024


class NonIntegralStepCount(ValueError):
    """Raised when t_final is not a whole, nonzero number of steps dt.

    t_final = 0 (zero steps) is allowed; any t_final > 0 needs at least one.
    """


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
        _check_element_count(self.n_elements)
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


def _coefficients(reduced_to_full, x):
    """Scatter the reduced vector x into the 6N + 2 coefficients, boundary entries zero."""
    a = np.zeros(len(x) + 2)
    a[reduced_to_full] = x
    return a


def initial_coefficients(spec, mesh, rule):
    """The 6N + 2 coefficients a0 that solve W a0 = b, boundary entries zero.

    W is solved once, so it is not factored into the permuted form, which
    only repeated solves pay back: band_solve makes one LAPACK dgbsv call.
    """
    system = assemble_initial_system(mesh, rule, spec.initial_condition)
    reduced = band_solve(system.W, system.b)
    return _coefficients(system.reduced_to_full, reduced)


def _advance(right, factors, x, n_steps):
    """Solve L x_next = R x n_steps times on the reduced vector x; return the last x.

    right is R and factors is the LU factorization of L, in its permuted
    form.  BLAS is called directly with positional arguments bound once,
    since per-step Python work costs as much as the solve itself on small
    meshes: one dgbmv, one gather and two dtbsv per step, and nothing else.

    scipy's dgbmv wrapper wants at least kl + ku + 1 rows, more than n at
    N = 1 and 2, where BLAS asks only for that many band rows (Dongarra et
    al., ACM TOMS 14, 1988).  So dgbmv forms max(n, kl + ku + 1) rows:
    those past n read only band slots outside the matrix, and the gather
    by perm, which lies in 0 .. n-1, drops them.
    """
    n, kl, ku, bands = right.n, right.kl, right.ku, right.bands
    rows = max(n, kl + ku + 1)
    perm, lower, upper = factors.perm, factors.lower, factors.upper
    lower_width, upper_width = lower.shape[0] - 1, upper.shape[0] - 1
    dgbmv, dtbsv = _blas.dgbmv, _blas.dtbsv
    for _ in range(n_steps):
        rhs = dgbmv(rows, n, kl, ku, 1.0, bands, x)
        y = dtbsv(lower_width, lower, rhs[perm], 1, 0, 1, 0, 1, 1)
        x = dtbsv(upper_width, upper, y, 1, 0, 0, 0, 0, 1)
    return x


def _symbols(block, n_elements):
    """Real 6 x 6 symbols of a 6 x 8 block G for theta = pi m / N, m = 0 .. N.

    They are B_0 + e^{i theta} B_1 (B_0 G's first six columns, B_1 its last
    two, on the next element's value and slope) in _real_modes' coordinates.
    With c = cos(theta / 2) and s = sin(theta / 2), rows 0 .. 2 are half the
    difference of G's rows i and 5 - i in [s (G_0 - G_6), c (G_1 + G_7),
    G_2 - G_5, G_3 + G_4, 0, 0], rows 3 .. 5 half their sum in [c (G_0 + G_6),
    s (G_7 - G_1), 0, 0, G_3 - G_4, G_2 + G_5]; only G's rounding-level
    mirror asymmetry is dropped.
    """
    half = np.pi / (2 * n_elements) * np.arange(n_elements + 1)
    sc = np.stack([np.sin(half), np.cos(half)], axis=1)[:, None, :]
    signs = [-1, 1, -1, 1, 1, -1, -1, 1]
    g = block[:, [0, 1, 2, 3, 0, 7, 3, 2]] + block[:, [6, 7, 5, 4, 6, 1, 4, 5]] * signs
    symbols = np.zeros((n_elements + 1, 6, 6))
    symbols[:, :3, :4] = (g[:3, :4] - g[:2:-1, :4]) / 2
    symbols[:, 3:, [0, 1, 4, 5]] = (g[:3, 4:] + g[:2:-1, 4:]) / 2
    symbols[:, :3, :2] *= sc
    symbols[:, 3:, :2] *= sc[:, :, ::-1]
    return symbols


def _propagator(mesh, rule, alpha, dt):
    """E(theta) = L(theta)^-1 D(theta) for the N + 1 Fourier modes of the mesh.

    On a uniform mesh with symmetric collocation points the odd extension
    of a state (_extend) steps by a block-circulant matrix (P. J. Davis,
    Circulant Matrices, 1979), so a real FFT over the element index splits
    a <- a + L^-1 (D a) into one 6 x 6 problem per mode, real by the
    extension's symmetry (_symbols, _real_modes) as the DCT and DST are (G.
    Strang, SIAM Review 41(1), 1999).  D = (alpha**2 / h**2) B is built
    directly rather than as R - L.  Returns the float64 (N + 1) x 6 x 6 E.

    Raises SingularMatrix at the first row of L's element block that is
    not finite (numpy's solve does not check; it is that row of L(0)), and
    numpy.linalg.LinAlgError where an L(theta) is singular to working
    precision.  Once alpha**2 dt / h**2 passes about 1e17, the H / dt term
    of L(0) is lost to rounding and L(0) is singular though L is not, so
    _prepare then steps the mesh by its banded L instead.
    """
    n = mesh.n_elements
    table = build_basis_table(rule, mesh.h)
    block = element_blocks(table, alpha, dt).left
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        raise SingularMatrix(int(np.argmin(finite)) + 1)
    return np.linalg.solve(_symbols(block, n), _symbols((alpha**2 / mesh.h**2) * table.B, n))


def _extend(a, n):
    """The 2N x 6 element states of state a's odd extension past x_right.

    Element k < N is a[6k : 6k + 6], ordered (v, s, u''L, u'''L, u'''R,
    u''R).  Element N + j mirrors element N - 1 - j, whose ends swap and
    whose value and u'' change sign: [-v, s] of node N - j, then
    [-u''R, u'''R, u'''L, -u''L] of element N - 1 - j.
    """
    own = a[: 6 * n].reshape(n, 6)
    mirrored = np.column_stack([a[6 * n : 0 : -6], a[6 * n + 1 : 1 : -6], own[::-1, :1:-1]])
    return np.concatenate([own, mirrored * [-1.0, 1.0, -1.0, 1.0, 1.0, -1.0]])


def _restrict(extended, n):
    """The 6N + 2 coefficients of the first N elements and node N of an extended state.

    The boundary values are set to exactly 0.0, as the extension holds them
    only to rounding.
    """
    a = np.zeros(6 * n + 2)
    a[: 6 * n] = extended[:n].ravel()
    a[0] = 0.0
    a[6 * n + 1] = extended[n, 1]
    return a


def _real_modes(a):
    """The real (N + 1) x 6 modes of state a, one row per theta = pi m / N.

    The extension maps node k to node -k and element k to element -1 - k,
    so of the FFT's modes (v, s, p, q, r, t) v is imaginary, s real, r =
    e^{i theta} conj(q) and t = -e^{i theta} conj(p).  With phi = e^{i theta
    / 2}, a row is (Im v, Re s, Re p/phi, Re q/phi, Im q/phi, Im p/phi).  Only
    here and in _state is numpy.fft reached, so the package loads it lazily.
    """
    modes = np.fft.rfft(_extend(a, (len(a) - 2) // 6), axis=0)
    n = len(modes) - 1
    ends = modes[:, 2:4] * np.exp(-0.5j * np.pi / n * np.arange(n + 1))[:, None]
    return np.column_stack([modes[:, 0].imag, modes[:, 1].real, ends.real, ends[:, ::-1].imag])


def _state(x):
    """The 6N + 2 coefficients whose _real_modes are the (N + 1) x 6 rows x: one
    inverse FFT of v = i x_0, s = x_1, p = phi (x_2 + i x_5), q = phi (x_3 +
    i x_4), r = phi (x_3 - i x_4) and t = -phi (x_2 - i x_5)."""
    n = len(x) - 1
    phi = np.exp(0.5j * np.pi / n * np.arange(n + 1))[:, None]
    p_q = phi * (x[:, 2:4] + 1j * x[:, :3:-1])
    r_t = phi * (x[:, 3:1:-1] - 1j * x[:, 4:]) * [1.0, -1.0]
    modes = np.column_stack([1j * x[:, 0], x[:, 1], p_q, r_t])
    return _restrict(np.fft.irfft(modes, 2 * n, axis=0), n)


def _power(propagator, modes, n_steps):
    """Apply (I + E)^n_steps to the real (N + 1) x 6 modes, in place.

    I + F = (I + E)^(2^k) is squared in delta form, F <- 2F + F^2, which
    keeps the digits of a small E (N. J. Higham, Functions of Matrices,
    2008), and each F whose bit is set in n_steps is applied as
    modes <- modes + F modes: log2(n_steps) batched products in all.
    """
    power, square = propagator, None
    while True:
        if n_steps & 1:
            modes += (power @ modes[:, :, None])[:, :, 0]
        n_steps >>= 1
        if n_steps == 0:
            return
        if square is None:  # then square in place: new arrays cost more to fault in
            power, square = power.copy(), np.empty_like(power)
        np.matmul(power, power, out=square)
        power *= 2.0
        power += square


def _advance_modes(propagator, a, n_steps):
    """The coefficients n_steps steps after a: one FFT, _power, one inverse FFT."""
    modes = _real_modes(a)
    _power(propagator, modes, n_steps)
    return _state(modes)


def step(system, factors, a):
    """Advance one Crank-Nicolson step: solve L a_next = R a_current.

    This is one step of the banded loop that run() uses for meshes with
    6N <= 1024 unknowns, so for those a hand-written loop of step()
    reproduces run() bitwise, and gives the intermediate levels, which
    run() does not keep.  Larger meshes run() steps through their
    Fourier modes, which agree with a loop of step() only to within the
    banded solve's forward error (see below), except for a stiff mesh whose
    symbol L(0) rounds to singular: run() steps that one banded too, and a
    loop of step() reproduces it bitwise.

    Accuracy: the banded LU solve is backward stable, so the computed a_next
    exactly solves a system whose matrix differs from L by a small multiple
    of eps * |L| (eps the unit roundoff).  Its forward error per step is of
    order cond(L) * eps, and cond(L) grows like h**-3 (about 1.6e5 at N = 4
    and 7.5e7 at N = 40, Legendre rule, dt = 0.01).  Scaling a by a power of
    two scales a_next by the same power bitwise, barring overflow and
    underflow; other factors agree only to within the forward error.
    """
    reduced_to_full = system.reduced_to_full
    x = _advance(system.right, factors, a[reduced_to_full], 1)
    return _coefficients(reduced_to_full, x)


def _prepare(spec, cfg):
    """Initial state, and for a run with steps what its kernel steps with.

    That is the propagator of the Fourier modes for a mesh too large to
    stack, and otherwise the system of L and R, unfactored: a stack
    factors its members' L as one (_advance_stack).  A mesh too large to
    stack whose symbol L(0) rounds to singular (_propagator) gets its
    system too, and steps alone through the banded LU of L.
    """
    mesh = build_mesh(spec, cfg.n_elements)
    a = initial_coefficients(spec, mesh, cfg.rule)
    if cfg.n_steps == 0:
        return a, None
    if 6 * cfg.n_elements > _STACK_UNKNOWNS:
        try:
            return a, _propagator(mesh, cfg.rule, spec.alpha, cfg.dt)
        except np.linalg.LinAlgError:
            pass
    return a, assemble_crank_nicolson(mesh, cfg.rule, spec.alpha, cfg.dt)


def run(spec, cfg):
    """Run the whole pipeline and return the final state: its 6N + 2 coefficients.

    Meshes with 6N <= 1024 unknowns factor L once and advance the reduced
    6N-vector through its banded LU, without scattering it per step, so
    million-step runs stay flat in memory; a loop of step() reproduces the
    final state, and the levels before it, bitwise.
    Larger ones step by their Fourier modes: M steps cost one batched
    solve of the N + 1 real 6 x 6 symbols and log2(M) batched products
    (Table 4's N = 1000 row, M = 1000, takes 4 to 7 ms on a shared 2-vCPU
    x86_64 host).  These agree with a loop of step() to within the banded solve's
    forward error.  Where alpha**2 dt / h**2 is so large (above about 1e17)
    that L(0) rounds to singular, a larger mesh steps through the banded
    LU of L instead, as a small one does.

    run is run_batch's stack of one member, and raises the exception that
    member's result would hold.
    """
    ((_, result),) = _run_stack(spec, [(0, cfg)])
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


def _run_stack(spec, members):
    """(index, result) of each (index, config) in members, which share a step count.

    The banded members step as one block-diagonal system, and a mesh too
    large to stack steps by its Fourier modes (or, where its symbol is
    singular, banded and alone).  A member whose preparation raises gets
    that exception as its result, and one whose final state is not finite
    a ValueError.
    """
    n_steps = members[0][1].n_steps
    results = {}
    banded = []
    for index, cfg in members:
        try:
            a, kernel = _prepare(spec, cfg)
        except Exception as exc:  # reported per member; the others still run
            results[index] = exc
            continue
        if kernel is None:
            results[index] = a
        elif isinstance(kernel, np.ndarray):  # the propagator, always alone in its stack
            results[index] = _advance_modes(kernel, a, n_steps)
        else:
            banded.append((index, kernel, a[kernel.reduced_to_full]))
    if banded:
        results.update(_advance_stack(banded, n_steps))
    for index, result in results.items():
        if not isinstance(result, Exception) and not np.all(np.isfinite(result)):
            results[index] = ValueError(f"the solution is not finite after step {n_steps}")
    return [(index, results[index]) for index, _ in members]


def _advance_stack(stack, n_steps):
    """(index, final state or exception) of each (index, system, x) in stack.

    The members' L are stacked and factored once, and their R stacked, by
    linalg.block_diagonal.  Where that factorization raises, a stack of one
    member gets the exception as its result.  Where a state overflows,
    dgbmv's 0 * inf in the band slots between the blocks makes NaN of its
    neighbours too.  So a stack of several members whose factorization
    raises or whose state ends not finite steps each member again alone.
    """
    indices, systems, xs = zip(*stack)
    try:
        factors = band_lu_factor(block_diagonal([system.left for system in systems]))
    except Exception as exc:  # reported per member, as its own factorization raises it
        if len(stack) == 1:
            return [(indices[0], exc)]
    else:
        right = block_diagonal([system.right for system in systems])
        x = _advance(right, factors, np.concatenate(xs), n_steps)
        if len(stack) == 1 or np.all(np.isfinite(x)):
            parts = np.split(x, np.cumsum([len(v) for v in xs[:-1]]))
            return [
                (index, _coefficients(system.reduced_to_full, part))
                for index, system, part in zip(indices, systems, parts)
            ]
    return [pair for member in stack for pair in _advance_stack([member], n_steps)]


def run_batch(spec, configs):
    """Run every configuration on one problem, yielding (index, result).

    index points into configs; result is the final state, bitwise equal to
    run(spec, configs[index]), or the exception that its run raised, and
    the other configurations still run.  Configurations with the same step
    count are stacked into one block-diagonal banded system of at most 1024
    unknowns, factored once, which steps faster than separate loops on
    small meshes; a larger mesh runs alone, as in run().
    A stack whose factorization raises, or whose state is not finite at the
    end, steps its members again one by one, so a member that overflows
    gets a ValueError without changing the results of its stack mates.
    Results come stack by stack, and each stack's matrices and states are
    freed before the next one is assembled, so a caller that reduces each
    state as it arrives holds only one stack at a time.
    """
    for members in _plan_stacks(configs):
        yield from _run_stack(spec, members)


def _check_layout(mesh, a):
    """Raise ValueError unless a holds the 6N + 2 coefficients of mesh's N elements."""
    if len(a) != 6 * mesh.n_elements + 2:
        raise ValueError(
            f"the state holds {len(a)} coefficients, but a mesh of "
            f"{mesh.n_elements} elements needs {6 * mesh.n_elements + 2}"
        )


def _element(mesh, a, x):
    """The 8 coefficients of the element holding x, and x's local coordinate there."""
    _check_layout(mesh, a)
    # written so that NaN fails too
    if not (mesh.nodes[0] <= x <= mesh.nodes[-1]):
        raise ValueError(f"x = {x} lies outside [{mesh.nodes[0]}, {mesh.nodes[-1]}]")
    k = min(max(int(math.floor((x - mesh.nodes[0]) / mesh.h)), 0), mesh.n_elements - 1)
    xi = min(max((x - mesh.nodes[k]) / mesh.h, 0.0), 1.0)
    return a[6 * k : 6 * k + 8], xi


def evaluate(mesh, a, x):
    """Value of the numerical solution at abscissa x."""
    coeffs, xi = _element(mesh, a, x)
    return float(coeffs @ hermite_values(xi, mesh.h))


def evaluate_derivatives(mesh, a, x):
    """First and second x-derivatives of the numerical solution at x."""
    coeffs, xi = _element(mesh, a, x)
    first = float(coeffs @ hermite_first_derivs(xi, mesh.h)) / mesh.h
    second = float(coeffs @ hermite_second_derivs(xi, mesh.h)) / mesh.h**2
    return first, second
