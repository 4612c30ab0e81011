"""Time-stepping pipeline and evaluation of the numerical solution.

A run interpolates the initial condition (W a0 = b), then advances the
coefficient vector through M = t_final / dt Crank-Nicolson steps
L a^{n+1} = R a^n.  A state is the float array of all 6N + 2
coefficients, whose two eliminated boundary entries (0 and 6N) stay exactly
zero so that evaluation code can index elements uniformly.

_steps_by_modes(cfg) chooses the kernel: it draws the "kernel line",
past the measured crossover of the two kernels (6N > _MODE_UNKNOWNS,
N >= 65).  Runs below the line step through the banded LU of L, and
run_batch stacks those of one step count into one system, factored
once; each step is one dgbmv, one gather and two BLAS dtbsv calls
(linalg.LUFactors).  Runs above it step alone, through their
Fourier modes: one real FFT of the state's odd extension splits the run
into N + 1 independent 6 x 6 real problems, each powered in log2(M)
batched products, and one inverse FFT returns the final state
(_propagator, _power, _state).  A stiff mesh whose symbols round to
singular steps banded instead.

A long stack of several members (at least _FORK_WORK unknowns times
steps) steps on every CPU the process may use: its members are split
into groups of about equal size, and all groups but one step in forked
children, which send their states back through pipes (_advance_banded).
A member's state does not depend on its stack mates, so the results are
bitwise those of the whole stack, and every child is reaped, or killed
and reaped, before the call returns.

One rule decides failures (run_batch): a member alone that fails anywhere
gets the exception as its result, detached from its frames, and a stack
of several that fails anywhere steps each member again alone.

What depends only on the mesh and rule is computed once per run_batch
call (_Shared): the initial state, and above the kernel line its real
modes and the symbols of D = (alpha**2 / h**2) B.  Each step size then
builds only L's symbols, their batched solve, the powering and one
inverse FFT.  run is run_batch of one configuration, so every run steps
in _run_stack.

Each configuration travels through run_batch as one record, _Member(index,
cfg, system, x, result): _plan_stacks groups the members into stacks;
_prepare, the one place that picks a kernel, gives a run with no steps
or one that steps by its Fourier modes its result, and every other run
its system and reduced vector x; _advance_stack, _advance_banded, _split
and _fork_stack step those and set their results, a forked child sending
back only its group's results, in group order.  run_batch yields each
member's (index, result).
"""

import contextlib
import math
import os
import pickle
import signal
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import blas as _blas
from .assembly import assemble_crank_nicolson, assemble_initial_system, element_blocks
from .basis import CollocationRule, build_basis_table, hermite_values
from .basis import hermite_first_derivs, hermite_second_derivs
from .linalg import SingularMatrix, band_lu_factor, band_solve, block_diagonal
from .problem import _check_element_count, _real, build_mesh

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

# The kernel line: a run on a mesh of more unknowns (6N) than this steps by
# its Fourier modes.  Solo, the modal kernel was faster than the banded one
# in 10 of 10 repeats from N = 30 on, at M = 10, 100 and 1000 steps: 0.84x
# the banded time at N = 65, M = 10 and 0.04x at M = 1000; at N = 10, M = 10
# it was 1.09x (tools/thresholds.py, table 1; 2-vCPU x86_64 host).
# 384 = 6 x 64 keeps every mesh of at most 64 elements banded, and with
# them the bits of Tables 2 and 3 (N <= 40), where the banded kernel's
# roundoff partly cancels the exact Crank-Nicolson error at the roundoff
# floor.
_MODE_UNKNOWNS = 384

# Least work, in steps times unknowns, for which a stack of several members
# steps on several CPUs (_advance_banded).  run_batch of two N = 64 members
# took 1.20 to 1.25x its time without the fork at 10**6 and 3 x 10**6
# unknown-steps, 0.94x at 10**7 (faster in 9 of 10 repeats) and 0.59 to
# 0.64x from 3 x 10**7 on (tools/thresholds.py, table 3; 2-vCPU x86_64
# host).  A larger parent forks more slowly, as its page tables are copied.
_FORK_WORK = 10**7


class NonIntegralStepCount(ValueError):
    """Raised when t_final is not a whole, nonzero number of steps dt.

    t_final = 0 (zero steps) is allowed; any t_final > 0 needs at least one.
    """


@dataclass(frozen=True)
class RunConfig:
    """One solver configuration: step size, horizon, mesh and rule.

    A bad value raises ValueError, and a dt or t_final that is no real
    number (a str, say) TypeError.
    """

    dt: float
    t_final: float
    n_elements: int
    rule: CollocationRule

    def __post_init__(self):
        dt, t_final = _real(self.dt), _real(self.t_final)  # floats, which do not warn
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError("dt must be positive and finite")
        if not (math.isfinite(t_final) and t_final >= 0.0):
            raise ValueError("t_final must be nonnegative and finite")
        _check_element_count(self.n_elements)
        ratio = t_final / dt
        tolerance = _STEP_COUNT_RTOL * max(1.0, ratio)
        if not (math.isfinite(ratio) and abs(ratio - round(ratio)) <= tolerance):
            raise NonIntegralStepCount(
                f"t_final / dt = {ratio} is not an integer step count"
            )
        if t_final > 0.0 and round(ratio) == 0:
            raise NonIntegralStepCount(
                f"t_final / dt = {ratio} rounds to a step count of 0 for t_final > 0"
            )
        if not math.isfinite(1.0 / dt):
            raise ValueError(f"dt = {self.dt} is too small: 1 / dt overflows")

    @property
    def n_steps(self):
        return round(self.t_final / self.dt)


def _steps_by_modes(cfg):
    """Whether cfg's run steps by its Fourier modes, the "kernel line",
    drawn here only: it has steps to take, on a mesh of more than
    _MODE_UNKNOWNS unknowns (6N > 384, N >= 65).  Other runs step through
    the banded LU of L, and so does a stiff one whose symbol L(0) is
    singular (_prepare)."""
    return cfg.n_steps > 0 and 6 * cfg.n_elements > _MODE_UNKNOWNS


def _coefficients(reduced_to_full, x):
    """Scatter the reduced vector x into the 6N + 2 coefficients, boundary entries zero."""
    a = np.zeros(len(x) + 2)
    a[reduced_to_full] = x
    return a


def initial_coefficients(spec, mesh, rule):
    """The 6N + 2 coefficients a0 that solve W a0 = b, boundary entries zero.

    W is solved once, so it is not factored into the permuted form, which
    only repeated solves pay back: band_solve makes one LAPACK dgbsv call,
    in W's own storage.
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
    mirror asymmetry is dropped.  So each symbol is [1, s, c] times a 3 x 36
    table of G's entries, one product for all modes: every symbol entry is
    one of its three terms, and the other two are zero.
    """
    half = np.pi / (2 * n_elements) * np.arange(n_elements + 1)
    weights = np.column_stack([np.ones(n_elements + 1), np.sin(half), np.cos(half)])
    signs = [-1, 1, -1, 1, 1, -1, -1, 1]
    g = block[:, [0, 1, 2, 3, 0, 7, 3, 2]] + block[:, [6, 7, 5, 4, 6, 1, 4, 5]] * signs
    entries = np.zeros((6, 6))
    entries[:3, :4] = (g[:3, :4] - g[:2:-1, :4]) / 2
    entries[3:, [0, 1, 4, 5]] = (g[:3, 4:] + g[:2:-1, 4:]) / 2
    table = np.zeros((3, 6, 6))
    table[0, :, 2:] = entries[:, 2:]
    table[1, :3, 0], table[2, :3, 1] = entries[:3, 0], entries[:3, 1]
    table[2, 3:, 0], table[1, 3:, 1] = entries[3:, 0], entries[3:, 1]
    return (weights @ table.reshape(3, 36)).reshape(n_elements + 1, 6, 6)


def _propagator(shared, dt):
    """E(theta) = L(theta)^-1 D(theta) for the N + 1 Fourier modes of shared's mesh.

    On a uniform mesh with symmetric collocation points the odd extension
    of a state (_extend) steps by a block-circulant matrix (P. J. Davis,
    Circulant Matrices, 1979), so a real FFT over the element index splits
    a <- a + L^-1 (D a) into one 6 x 6 problem per mode, real by the
    extension's symmetry (_symbols, _real_modes) as the DCT and DST are (G.
    Strang, SIAM Review 41(1), 1999).  D = (alpha**2 / h**2) B is built
    directly rather than as R - L, and does not depend on dt: its symbols
    come from shared (_Shared.diffusion).  Returns the float64 (N + 1) x 6
    x 6 E.

    Raises SingularMatrix at the first row of L's element block that is
    not finite (numpy's solve does not check; it is that row of L(0)),
    before any symbol is built, and numpy.linalg.LinAlgError where an
    L(theta) is singular to working precision.  Once alpha**2 dt / h**2
    passes about 1e17, the H / dt term of L(0) is lost to rounding and L(0)
    is singular though L is not, so _prepare then steps the mesh by its
    banded L instead.
    """
    mesh = shared.mesh
    block = element_blocks(build_basis_table(shared.rule, mesh.h), shared.spec.alpha, dt).left
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        raise SingularMatrix(int(np.argmin(finite)) + 1)
    return np.linalg.solve(_symbols(block, mesh.n_elements), shared.diffusion)


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


def step(system, factors, a):
    """Advance one Crank-Nicolson step: solve L a_next = R a_current.

    This is one step of the banded loop that run() uses below the kernel
    line (_steps_by_modes, N <= 64), so there a hand-written loop of step()
    reproduces run() bitwise, and gives the intermediate levels, which
    run() does not keep.  Above the line run() steps by Fourier modes,
    which agree with a loop of step() only to within the banded solve's
    forward error (see below), except for a stiff mesh whose symbol L(0)
    rounds to singular: run() steps that one banded too, and a loop of
    step() reproduces it bitwise.

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


class _Shared:
    """What the members of one batch with the same mesh and rule share.

    None of it depends on dt: the mesh; the initial state a0, so that W is
    assembled and solved once; and for members that step by their Fourier
    modes (_steps_by_modes), a0's real modes and the symbols of D =
    (alpha**2 / h**2) B.  Each is built when a member first asks for it,
    and one whose build raises is built again by the next member.  The
    arrays are read-only: a member copies what it steps in place.
    """

    def __init__(self, spec, n_elements, rule):
        self.spec = spec
        self.rule = rule
        self.mesh = build_mesh(spec, n_elements)

    @cached_property
    def initial(self):
        return _read_only(initial_coefficients(self.spec, self.mesh, self.rule))

    @cached_property
    def modes(self):
        """a0's real modes, which _power overwrites: members step a copy."""
        return _read_only(_real_modes(self.initial))

    @cached_property
    def diffusion(self):
        """D's real symbols; _propagator asks for them only once L's block is finite."""
        h = self.mesh.h
        block = (self.spec.alpha**2 / h**2) * build_basis_table(self.rule, h).B
        return _read_only(_symbols(block, self.mesh.n_elements))


def _read_only(array):
    array.setflags(write=False)
    return array


def _key(cfg):
    """What a config's _Shared depends on: its element count and its rule,
    told apart by identity, as the built-in rules are built once."""
    return cfg.n_elements, id(cfg.rule)


@dataclass(eq=False)
class _Member:
    """One configuration's run through run_batch, from plan to result.

    index points into run_batch's configs.  A banded member carries its
    system of L and R and its reduced vector x from _prepare until its
    stack steps; result is its final state or the exception its run
    raised, set by _prepare, _run_stack or the stack functions.
    """

    index: int
    cfg: RunConfig
    system: object = None
    x: object = None
    result: object = None


def _prepare(shared, member):
    """Start member's run, the one place that picks its kernel.

    shared is member's _Shared: a0 and, above the kernel line, its real
    modes and D's symbols come from there, built by the first member that
    needs them, so that each dt adds only what depends on it.  A run with
    no steps gets a0 as its result.  A run that steps by its Fourier modes
    (_steps_by_modes) powers a copy of a0's real modes by their propagator
    and gets its final state here, having dropped shared first: the last
    member of a mesh and rule holds the only reference to it.  Every other
    run gets the system of L and R, unfactored (a stack factors its
    members' L as one, _advance_stack), and a0's reduced vector as its x;
    so does a modal run whose symbol L(0) rounds to singular (_propagator),
    which then steps alone through the banded LU of L.
    """
    cfg, a, propagator = member.cfg, shared.initial, None
    with contextlib.suppress(np.linalg.LinAlgError):  # L(0) rounds to singular: step banded
        propagator = _propagator(shared, cfg.dt) if _steps_by_modes(cfg) else None
    if cfg.n_steps == 0:
        member.result = _finite(a.copy(), 0)
    elif propagator is not None:
        modes = shared.modes.copy()
        del shared, a  # so the last member of a mesh and rule frees them before it steps
        _power(propagator, modes, cfg.n_steps)
        member.result = _finite(_state(modes), cfg.n_steps)
    else:
        member.system = assemble_crank_nicolson(shared.mesh, cfg.rule, shared.spec.alpha, cfg.dt)
        member.x = a[member.system.reduced_to_full]


def run(spec, cfg):
    """Run the whole pipeline and return the final state: its 6N + 2 coefficients.

    Below the kernel line (_steps_by_modes, N <= 64) a run factors L once
    and advances the reduced 6N-vector through its banded LU, without
    scattering it per step, so million-step runs stay flat in memory; a
    loop of step() reproduces the final state, and the levels before it,
    bitwise.  Above it a run steps by its Fourier modes: M steps cost one
    batched solve of the N + 1 real 6 x 6 symbols and log2(M) batched
    products (Table 4's N = 1000 row, M = 1000, takes 4 to 7 ms on a shared
    2-vCPU x86_64 host).  These agree with a loop of step() to within the
    banded solve's forward error.  Where alpha**2 dt / h**2 is so large
    (above about 1e17) that L(0) rounds to singular, such a mesh steps
    through the banded LU of L instead.

    run is run_batch of one configuration, and raises the exception that
    its result holds.
    """
    ((_, result),) = run_batch(spec, [cfg])
    if isinstance(result, Exception):
        raise result
    return result


def _plan_stacks(configs):
    """The members of configs (_Member) grouped into stacks that step as one.

    The banded members of one step count make one stack, however many.  At
    every size measured, 540 to 32,760 unknowns, it stepped faster than its
    members one by one: 0.53 to 0.63x their time per step at N = 10 and
    0.86 to 0.94x at N = 64 (tools/thresholds.py, table 2).  While it steps
    it holds about 0.93 KiB of matrices and states per unknown (6N a
    member): 29.7 MiB for 546 members of N = 10 (tracemalloc's peak).  A
    member that steps by its Fourier modes (_steps_by_modes) stacks alone.
    Members keep input order, and so do stacks whose first members have
    the same mesh and rule, but those stacks run one after another, in the
    order their mesh and rule first appear: a batch then holds the shared
    data of one mesh and rule at a time (run_batch).
    """
    stacks = []
    banded = {}  # n_steps -> its stack
    first = {}  # _key -> index of its first config
    for index, cfg in enumerate(configs):
        first.setdefault(_key(cfg), index)
        if _steps_by_modes(cfg):
            stacks.append([_Member(index, cfg)])
            continue
        members = banded.setdefault(cfg.n_steps, [])
        if not members:
            stacks.append(members)
        members.append(_Member(index, cfg))
    return sorted(stacks, key=lambda members: first[_key(members[0].cfg)])


def _finite(state, n_steps):
    """state, or a ValueError raised where it is not finite after n_steps steps."""
    if not np.all(np.isfinite(state)):
        raise ValueError(f"the solution is not finite after step {n_steps}")
    return state


def _detached(exc):
    """exc with no traceback on it or any exception it chains (__cause__,
    __context__), whose frames would keep a failed member's arrays alive."""
    chain, seen = [exc], set()
    while chain:
        link = chain.pop()
        if link is not None and id(link) not in seen:
            seen.add(id(link))
            link.__traceback__ = None
            chain += [link.__cause__, link.__context__]
    return exc


# an overflow leaves inf or NaN, which the factorization or _finite reports: no warning
@np.errstate(over="ignore", invalid="ignore")
def _run_stack(spec, shared, last, members):
    """Set the result of each member of members, which share a step count.

    Each member is prepared (_prepare): one with no steps or one that
    steps by its Fourier modes gets its result there, and the members left
    without one carry their systems and step as one block-diagonal system
    (_advance_banded).  A member that fails anywhere, from building its
    _Shared to a final state that is not finite (a ValueError), gets the
    exception as its result, detached from its frames (_detached); the
    others still run (_advance_stack).

    shared holds the batch's _Shared by _key, and last the index of each
    key's last member in plan order.  A member builds its _Shared if it is
    missing; the last member pops it, so the shared arrays are freed once
    it is prepared, before it steps.
    """
    for member in members:
        key = _key(member.cfg)
        try:
            if key not in shared:
                shared[key] = _Shared(spec, member.cfg.n_elements, member.cfg.rule)
            _prepare(shared.pop(key) if last[key] == member.index else shared[key], member)
        except Exception as exc:  # reported per member; the others still run
            member.result = _detached(exc)
    banded = [member for member in members if member.result is None]
    if banded:
        _advance_banded(banded, members[0].cfg.n_steps)


def _advance_stack(stack, n_steps):
    """Set the result of each member of stack: its final state or exception.

    The members' L are stacked and factored once, and their R stacked, by
    linalg.block_diagonal.  A stack of one member that fails anywhere, from
    its factorization to a state that is not finite, gets the exception
    as its result.  A stack of several that fails steps each member again
    alone: where a state overflows, dgbmv's 0 * inf in the band slots
    between the blocks makes NaN of its neighbours too.
    """
    try:
        factors = band_lu_factor(block_diagonal([member.system.left for member in stack]))
        right = block_diagonal([member.system.right for member in stack])
        x = _advance(right, factors, np.concatenate([member.x for member in stack]), n_steps)
        parts = np.split(_finite(x, n_steps), np.cumsum([len(member.x) for member in stack[:-1]]))
        for member, part in zip(stack, parts):
            member.result = _coefficients(member.system.reduced_to_full, part)
        return
    except Exception as exc:  # reported per member, as its solo run raises it
        if len(stack) == 1:
            stack[0].result = _detached(exc)
            return
    for member in stack:
        _advance_stack([member], n_steps)


def _advance_banded(banded, n_steps):
    """Set the result of each member of banded, which carry their systems.

    With several members, two CPUs or more, os.fork and at least _FORK_WORK
    unknown-steps, the members are split into one group per CPU (_split).
    Each group but the last steps by _advance_stack in a forked child
    (_fork_stack), and the last one steps here.  A member's result does not
    depend on its stack mates (run_batch), so the results are bitwise those
    of one stack.  A group whose child cannot be forked, or exits non-zero
    or sends nothing, steps here instead.  Where this raises, on a
    KeyboardInterrupt say, its children are killed; every child is reaped
    before it returns.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    count = min(cpus, len(banded))
    work = n_steps * sum(len(member.x) for member in banded)
    if count < 2 or not hasattr(os, "fork") or work < _FORK_WORK:
        _advance_stack(banded, n_steps)
        return
    *forked, own = _split(banded, count)
    children = []  # (pid, read end of its pipe, group)
    try:
        for group in forked:
            try:
                children.append((*_fork_stack(group, n_steps), group))
            except OSError:  # no process or pipe to spare: the group steps here
                own += group
        _advance_stack(own, n_steps)
        for pid, pipe, group in children:
            with pipe:
                data = pipe.read()
            if os.waitpid(pid, 0)[1] != 0 or not data:
                _advance_stack(group, n_steps)
                continue
            for member, result in zip(group, pickle.loads(data)):
                member.result = result
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            with contextlib.suppress(ChildProcessError):  # reaped above
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def _split(stack, count):
    """stack's members in count groups of about equal unknowns: the largest
    first, each onto the group with the fewest unknowns so far (the first
    such group).  Each group keeps input order."""
    groups = [[] for _ in range(count)]
    unknowns = [0] * count
    for member in sorted(stack, key=lambda member: -len(member.x)):
        fewest = unknowns.index(min(unknowns))
        groups[fewest].append(member)
        unknowns[fewest] += len(member.x)
    return [sorted(group, key=lambda member: member.index) for group in groups]


def _fork_stack(group, n_steps):
    """(pid, read end of its pipe) of a forked child that steps group.

    The child steps group by _advance_stack and pickles its members'
    results, in group order, into the pipe: only the results, not the
    members' systems.  It leaves by os._exit: it runs no exit handler and
    flushes no buffer of the parent, stdout included, and it exits with
    status 1 on any failure.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            _advance_stack(group, n_steps)
            with open(write, "wb") as pipe:
                pickle.dump([member.result for member in group], pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, open(read, "rb")


def run_batch(spec, configs):
    """Run every configuration on one problem, yielding (index, result).

    index points into configs; result is the final state, bitwise equal to
    run(spec, configs[index]), or the exception that its run raises, and
    the other configurations still run.  Each configuration becomes one
    member (_Member), which carries its run from the plan to its result:
    _plan_stacks groups the members into stacks, _prepare picks each
    member's kernel, and the stack functions set each result.  Below the
    kernel line (_steps_by_modes), configurations with the same step count
    are stacked into one block-diagonal banded system (_plan_stacks),
    factored once, which steps faster than separate loops, and holds about
    0.93 KiB per unknown while it steps; one above the line runs alone, as
    in run().  A stack of several members with at least _FORK_WORK
    unknowns times steps is split across the CPUs the process may use, all
    groups but one stepping in forked children, which send back only their
    group's results (_advance_banded); the results are bitwise the same,
    and no child process outlives the call.
    A member alone that fails anywhere, from its shared data to a final
    state that is not finite (a ValueError), gets the exception as its
    result, holding no traceback (_detached).  A stack of several that
    fails anywhere steps each member again alone, so an overflowing member
    leaves its stack mates' results as they were, and a forked child that
    fails hands its group back to the parent.
    Members with the same mesh and rule share what does not depend on dt
    (_Shared): the mesh, the initial state, and above the kernel line its
    real modes and D's symbols.  Each is built once, for the first member
    that needs it, and dropped once the last such member in the plan's
    order is prepared; nothing outlives the call, and no result shares
    memory with another.
    Results come stack by stack, the stacks of one mesh and rule one after
    another (_plan_stacks).  Each stack is dropped from the plan as it
    runs, and its members, with their matrices and states, are freed
    before the next one is assembled, so a caller that reduces each state
    as it arrives holds only one stack at a time, and the shared data of
    the members still to come.  configs may be any iterable; it is read
    once, before the first stack runs.
    """
    stacks = _plan_stacks(configs)
    last = {_key(member.cfg): member.index for members in stacks for member in members}
    shared = {}
    while stacks:  # each stack leaves the plan as it yields, and is freed after
        _run_stack(spec, shared, last, stacks[0])
        yield from ((member.index, member.result) for member in stacks.pop(0))


def _windows(mesh, a):
    """Row k of the (N, 8) result is element k's coefficients, a[6k : 6k + 8].

    Raises ValueError unless a holds the 6N + 2 coefficients of mesh's N elements.
    """
    if len(a) != 6 * mesh.n_elements + 2:
        raise ValueError(
            f"the state holds {len(a)} coefficients, but a mesh of "
            f"{mesh.n_elements} elements needs {6 * mesh.n_elements + 2}"
        )
    return np.lib.stride_tricks.sliding_window_view(a, 8)[::6]


def _combine(mesh, a, x, families):
    """Each family's shape functions at abscissae x, weighted by the coefficients of x's element.

    One float per family for a scalar x, else one array of x's shape.
    """
    windows = _windows(mesh, a)
    x = np.asarray(x, dtype=float)
    # written so that NaN fails too
    outside = ~((mesh.nodes[0] <= x) & (x <= mesh.nodes[-1]))
    if np.any(outside):
        raise ValueError(f"x = {x[outside][0]} lies outside [{mesh.nodes[0]}, {mesh.nodes[-1]}]")
    k = np.clip(np.floor((x - mesh.nodes[0]) / mesh.h).astype(int), 0, mesh.n_elements - 1)
    xi = np.clip((x - mesh.nodes[k]) / mesh.h, 0.0, 1.0)
    # a batched matmul sums the eight terms as a 1-D dot product does; einsum does not
    sums = [(windows[k][..., None, :] @ f(xi, mesh.h)[..., None])[..., 0, 0] for f in families]
    return [float(s) if x.ndim == 0 else s for s in sums]


def evaluate(mesh, a, x):
    """Value of the numerical solution at abscissae x: a float for a scalar x, else x's shape."""
    return _combine(mesh, a, x, [hermite_values])[0]


def evaluate_derivatives(mesh, a, x):
    """First and second x-derivatives of the numerical solution at x, shaped as evaluate's value."""
    first, second = _combine(mesh, a, x, [hermite_first_derivs, hermite_second_derivs])
    return first / mesh.h, second / mesh.h**2
