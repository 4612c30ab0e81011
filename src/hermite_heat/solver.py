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

A long stack of several members (at least _FORK_WORK unknowns times
steps) steps on every CPU the process may use: its members are split
into groups of about equal size, and all groups but one step in forked
children, which send their states back through pipes (_advance_banded).
A member's state does not depend on its stack mates, so the results are
bitwise those of the whole stack, and every child is reaped, or killed
and reaped, before the call returns.

What depends only on the mesh and rule is computed once per run_batch
call (_Shared): the initial state, and above the stacking line its real
modes and the symbols of D = (alpha**2 / h**2) B.  Each step size then
builds only L's symbols, their batched solve, the powering and one
inverse FFT.
"""

import contextlib
import math
import os
import pickle
import signal
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

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

# Least work, in steps times unknowns, for which a stack of several members
# steps on several CPUs (_advance_banded).  A stack steps at about 0.03 us
# per unknown and step, so this is about 0.3 s of stepping, while a fork,
# pipe, pickle and reap of a warm 38 MB process took 2.4 to 3.1 ms (two
# medians of 30 round trips; 2-vCPU x86_64 host).  A larger parent forks
# more slowly, as its page tables are copied.
_FORK_WORK = 10**7


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


def _advance_modes(propagator, modes, n_steps):
    """The coefficients n_steps steps on from the real modes given: _power,
    which overwrites them, then one inverse FFT."""
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


class _Shared:
    """What the members of one batch with the same mesh and rule share.

    None of it depends on dt: the mesh; the initial state a0, so that W is
    assembled and solved once; and for a mesh too large to stack, a0's real
    modes and the symbols of D = (alpha**2 / h**2) B.  Each is built when a
    member first asks for it, and one whose build raises is built again by
    the next member.  The arrays are read-only: a member copies what it
    steps in place.
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


class _Batch:
    """The _Shared data of one run_batch call, by _key.

    Each is held from the first member that asks for it until the last one
    has taken it, so the batch holds only what members still to come need.
    """

    def __init__(self, spec, configs):
        self.spec = spec
        self.users = Counter(map(_key, configs))
        self.shared = {}

    def take(self, cfg):
        """cfg's _Shared, dropped from the batch if cfg is its last member."""
        key = _key(cfg)
        shared = self.shared.pop(key, None) or _Shared(self.spec, cfg.n_elements, cfg.rule)
        self.users[key] -= 1
        if self.users[key]:
            self.shared[key] = shared
        return shared


def _prepare(shared, cfg):
    """What cfg's run starts from, as a new array, and what its kernel steps with.

    shared is cfg's _Shared: a0 and, above the stacking line, its real
    modes and D's symbols come from there, built by the first member that
    needs them, so that each dt adds only what depends on it.  With no
    steps the run starts from a0 and has no kernel.  A mesh too large to
    stack starts from a0's real modes and steps by the propagator of its
    Fourier modes.  Otherwise it starts from a0's reduced vector and steps
    by the system of L and R, unfactored: a stack factors its members' L as
    one (_advance_stack).  A mesh too large to stack whose symbol L(0)
    rounds to singular (_propagator) gets its system too, and steps alone
    through the banded LU of L.
    """
    a = shared.initial
    if cfg.n_steps == 0:
        return a.copy(), None
    if 6 * cfg.n_elements > _STACK_UNKNOWNS:
        try:
            propagator = _propagator(shared, cfg.dt)
        except np.linalg.LinAlgError:
            pass
        else:
            return shared.modes.copy(), propagator
    system = assemble_crank_nicolson(shared.mesh, cfg.rule, shared.spec.alpha, cfg.dt)
    return a[system.reduced_to_full], system


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
    ((_, result),) = _run_stack(_Batch(spec, [cfg]), [(0, cfg)])
    if isinstance(result, Exception):
        raise result
    return result


def _plan_stacks(configs):
    """(index, config) pairs of configs grouped into stacks that step as one.

    Members of a stack share their step count and hold at most
    _STACK_UNKNOWNS unknowns (6N each) together; a larger member stacks
    alone.  Members keep input order, and so do stacks whose first
    members have the same mesh and rule, but those stacks run one after
    another, in the order their mesh and rule first appear: a batch then
    holds the shared data of one mesh and rule at a time (_Batch).
    """
    stacks = []
    filling = {}  # n_steps -> (members, unknowns) of the stack still open
    first = {}  # _key -> index of its first config
    for index, cfg in enumerate(configs):
        size = 6 * cfg.n_elements
        members, unknowns = filling.get(cfg.n_steps, (None, 0))
        if members is None or unknowns + size > _STACK_UNKNOWNS:
            members, unknowns = [], 0
            stacks.append(members)
        members.append((index, cfg))
        filling[cfg.n_steps] = (members, unknowns + size)
        first.setdefault(_key(cfg), index)
    return sorted(stacks, key=lambda members: first[_key(members[0][1])])


def _run_stack(batch, members):
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
            start, kernel = _prepare(batch.take(cfg), cfg)
        except Exception as exc:  # reported per member; the others still run
            results[index] = exc
            continue
        if kernel is None:
            results[index] = start
        elif isinstance(kernel, np.ndarray):  # the propagator, always alone in its stack
            results[index] = _advance_modes(kernel, start, n_steps)
        else:
            banded.append((index, kernel, start))
    if banded:
        results.update(_advance_banded(banded, n_steps))
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


def _advance_banded(banded, n_steps):
    """(index, final state or exception) of each (index, system, x) in banded.

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
    work = n_steps * sum(len(x) for _, _, x in banded)
    if count < 2 or not hasattr(os, "fork") or work < _FORK_WORK:
        return _advance_stack(banded, n_steps)
    *forked, own = _split(banded, count)
    children = []  # (pid, read end of its pipe, group)
    try:
        for group in forked:
            try:
                children.append((*_fork_stack(group, n_steps), group))
            except OSError:  # no process or pipe to spare: the group steps here
                own += group
        results = _advance_stack(own, n_steps)
        for pid, pipe, group in children:
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            results += pickle.loads(data) if status == 0 and data else _advance_stack(group, n_steps)
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            with contextlib.suppress(ChildProcessError):  # reaped above
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    return results


def _split(stack, count):
    """stack's members in count groups of about equal unknowns: the largest
    first, each onto the group with the fewest unknowns so far.  Each group
    keeps input order."""
    groups = [[] for _ in range(count)]
    for member in sorted(stack, key=lambda member: -len(member[2])):
        min(groups, key=lambda group: sum(len(x) for _, _, x in group)).append(member)
    return [sorted(group, key=lambda member: member[0]) for group in groups]


def _fork_stack(group, n_steps):
    """(pid, read end of its pipe) of a forked child that steps group.

    The child pickles _advance_stack's list into the pipe and leaves by
    os._exit: it runs no exit handler and flushes no buffer of the parent,
    stdout included, and it exits with status 1 on any failure.
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
            with open(write, "wb") as pipe:
                pickle.dump(_advance_stack(group, n_steps), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, open(read, "rb")


def run_batch(spec, configs):
    """Run every configuration on one problem, yielding (index, result).

    index points into configs; result is the final state, bitwise equal to
    run(spec, configs[index]), or the exception that its run raised, and
    the other configurations still run.  Configurations with the same step
    count are stacked into one block-diagonal banded system of at most 1024
    unknowns, factored once, which steps faster than separate loops on
    small meshes; a larger mesh runs alone, as in run().  A stack of
    several members with at least _FORK_WORK unknowns times steps is split
    across the CPUs the process may use, all groups but one stepping in
    forked children (_advance_banded); its results are bitwise the same,
    and no child process outlives the call.
    A stack whose factorization raises, or whose state is not finite at the
    end, steps its members again one by one, so a member that overflows
    gets a ValueError without changing the results of its stack mates.
    Members with the same mesh and rule share what does not depend on dt
    (_Shared): the mesh, the initial state, and above the stacking line its
    real modes and D's symbols.  Each is built once, for the first member
    that needs it, and dropped once the last such member is prepared;
    nothing outlives the call, and no result shares memory with another.
    Results come stack by stack, the stacks of one mesh and rule one after
    another (_plan_stacks), and each stack's matrices and states are freed
    before the next one is assembled, so a caller that reduces each state
    as it arrives holds only one stack at a time, and the shared data of
    the members still to come.  configs may be any iterable; it is read
    once, before the first stack runs.
    """
    configs = list(configs)
    batch = _Batch(spec, configs)
    for members in _plan_stacks(configs):
        yield from _run_stack(batch, members)


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
