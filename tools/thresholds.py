"""Re-measure the three thresholds at which hermite_heat.solver picks a code path.

Usage: python3 tools/thresholds.py

It imports the package from the src/ of the checkout it lives in and
prints three tables, one per threshold:

1. the kernel line, _MODE_UNKNOWNS: a solo run (initial interpolation
   included) through the banded LU of L against one through the Fourier
   modes, over N in NS and M in STEPS steps, T = 1;
2. stacking: the time per step of one banded stack of identical N <= 64
   members against the same members stepped one by one, each through
   solver._advance on factors built beforehand, in this process, over
   stacks of about 512 to 32,768 unknowns;
3. the fork, _FORK_WORK: run_batch of a two-member stack (two N = 64
   meshes, 768 unknowns) with and without a forked child, over 10**6 to
   10**8 unknown-steps.

In tables 1 and 3 each side is forced by setting solver's constants in
this process, as the tests do: _MODE_UNKNOWNS = 0 or inf, _FORK_WORK = 0
or inf.  Every cell is the median of REPEATS repeats with its
interquartile range, "k/n faster" counts the repeats in which the
left-hand side was faster, and the ratio is that of the two medians.
Following Kalibera and Jones ("Rigorous benchmarking in reasonable
time", ISMM 2013), the repeats are interleaved: each repeat visits every
cell of a table once, both sides back to back, and the side that goes
first alternates from repeat to repeat, so that drift in the host's
speed reaches both sides alike.  Where a run is short (tables 1 and 2), a
repeat runs the two sides ROUNDS times by turns and keeps each side's
fastest.  Each cell runs both sides once, untimed, before the first
repeat.  The whole command took 132 to 147 s on a shared 2-vCPU
x86_64 host.  Standard library and the package only.
"""

import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402  (the package's own dependency)

from hermite_heat import RunConfig, control_problem, legendre_rule, run, solver  # noqa: E402
from hermite_heat.linalg import band_lu_factor, block_diagonal  # noqa: E402

REPEATS = 10
ROUNDS = 3  # turns per repeat of tables 1 and 2, whose runs are short
NS = (10, 30, 64, 65, 70, 170)
STEPS = (10, 100, 1000)
STACK_SIZES = (512, 1024, 2048, 4096, 8192, 16384, 32768)  # unknowns, about
STACK_MEMBERS = (10, 64)  # the members' N
STACK_WORK = 10**6  # unknown-steps per timed stack, at least 20 steps
FORK_WORK = (10**6, 3 * 10**6, 10**7, 3 * 10**7, 10**8)
FORK_MEMBERS = (64, 64)


def _timed(call, **constants):
    """Seconds that call() takes with solver's constants set as given, then restored."""
    saved = {name: getattr(solver, name) for name in constants}
    for name, value in constants.items():
        setattr(solver, name, value)
    try:
        start = time.perf_counter()
        call()
        return time.perf_counter() - start
    finally:
        for name, value in saved.items():
            setattr(solver, name, value)


def _interleaved(cells, rounds):
    """For cells [(left, right)] of two timed callables each, the seconds of
    every repeat of each side: [(lefts, rights)] in cell order.  A repeat
    runs a cell's two sides rounds times by turns and keeps each side's
    fastest, so that a burst of load on the host spoils no repeat."""
    for cell in cells:
        cell[0](), cell[1]()
    times = [([], []) for _ in cells]
    for repeat in range(REPEATS):
        for cell, sides in zip(cells, times):
            fastest = [math.inf, math.inf]
            for turn in range(rounds):
                for side in (1, 0) if (repeat + turn) % 2 else (0, 1):
                    fastest[side] = min(fastest[side], cell[side]())
            for side, seconds in zip(sides, fastest):
                side.append(seconds)
    return times


def _summary(values, scale):
    """'median [q1, q3]' of values times scale."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{statistics.median(values) * scale:9.3f} [{q1 * scale:.3f}, {q3 * scale:.3f}]"


def _print_table(title, heads, labels, times, scale, sides):
    """One line per cell: its label, each side's summary, the win count of
    the left side and the ratio of the medians, left / right."""
    print(title)
    print("  ".join(heads) + f"  {sides[0]:>25}  {sides[1]:>25}  {sides[0] + ' faster':>14}  ratio")
    for label, (lefts, rights) in zip(labels, times):
        wins = sum(left < right for left, right in zip(lefts, rights))
        ratio = statistics.median(lefts) / statistics.median(rights)
        print(
            "  ".join(f"{value:>{len(head)}}" for value, head in zip(label, heads))
            + f"  {_summary(lefts, scale):>25}  {_summary(rights, scale):>25}"
            + f"  {f'{wins}/{REPEATS}':>14}  {ratio:5.2f}"
        )
    print()


def kernel_line(spec, rule):
    """Table 1: a solo run through each kernel, in ms."""
    labels, cells = [], []
    for n in NS:
        for m in STEPS:
            cfg = RunConfig(dt=1.0 / m, t_final=1.0, n_elements=n, rule=rule)
            labels.append((n, m))
            cells.append(
                (
                    lambda cfg=cfg: _timed(lambda: run(spec, cfg), _MODE_UNKNOWNS=0),
                    lambda cfg=cfg: _timed(lambda: run(spec, cfg), _MODE_UNKNOWNS=math.inf),
                )
            )
    _print_table(
        f"(1) kernel line: solo run, T = 1, ms (_MODE_UNKNOWNS = {solver._MODE_UNKNOWNS})",
        ["    N", "    M"],
        labels,
        _interleaved(cells, ROUNDS),
        1e3,
        ("modal", "banded"),
    )


def _stepper(members, n_steps):
    """A call of solver._advance that takes n_steps steps on the reduced
    vectors of members (solver._Member, each given its system and x by
    solver._prepare), as one block-diagonal system factored here, once:
    what _advance_stack does after its factorization."""
    right = block_diagonal([member.system.right for member in members])
    factors = band_lu_factor(block_diagonal([member.system.left for member in members]))
    x = np.concatenate([member.x for member in members])
    return lambda: solver._advance(right, factors, x, n_steps)


def _prepared(shared, index, cfg):
    """cfg's member as solver._prepare leaves it: with its system and x."""
    member = solver._Member(index, cfg)
    solver._prepare(shared, member)
    return member


def stacking(spec, rule):
    """Table 2: one stack against its members solo, in us per step."""
    labels, cells = [], []
    for n in STACK_MEMBERS:
        for unknowns in STACK_SIZES:
            count = max(2, round(unknowns / (6 * n)))
            n_steps = max(20, round(STACK_WORK / (6 * n * count)))
            cfg = RunConfig(dt=1e-6, t_final=n_steps * 1e-6, n_elements=n, rule=rule)
            shared = solver._Shared(spec, n, rule)
            members = [_prepared(shared, index, cfg) for index in range(count)]
            stack = _stepper(members, n_steps)
            solos = [_stepper([member], n_steps) for member in members]
            labels.append((n, count, 6 * n * count, n_steps))
            cells.append(
                (
                    lambda stack=stack: _timed(stack),
                    lambda solos=solos: _timed(lambda: [solo() for solo in solos]),
                )
            )
    times = [
        ([t / n_steps for t in lefts], [t / n_steps for t in rights])
        for (lefts, rights), (*_, n_steps) in zip(_interleaved(cells, ROUNDS), labels)
    ]
    _print_table(
        "(2) stacking: us per step, no fork",
        ["    N", "members", "unknowns", "steps"],
        labels,
        times,
        1e6,
        ("stack", "solo"),
    )


def fork(spec, rule):
    """Table 3: run_batch of a two-member stack with and without the fork, in ms."""
    unknowns = sum(6 * n for n in FORK_MEMBERS)
    labels, cells = [], []
    for work in FORK_WORK:
        n_steps = round(work / unknowns)
        configs = [
            RunConfig(dt=1e-6, t_final=n_steps * 1e-6, n_elements=n, rule=rule) for n in FORK_MEMBERS
        ]

        def batch(configs=configs):
            return list(solver.run_batch(spec, configs))

        labels.append((f"{work:.0e}", n_steps))
        cells.append(
            (
                lambda call=batch: _timed(call, _FORK_WORK=0),
                lambda call=batch: _timed(call, _FORK_WORK=math.inf),
            )
        )
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    _print_table(
        f"(3) fork: run_batch of N = {FORK_MEMBERS}, {unknowns} unknowns, ms"
        f" (_FORK_WORK = {solver._FORK_WORK:.0e}; {cpus} CPUs)",
        ["unknown-steps", "  steps"],
        labels,
        _interleaved(cells, 1),
        1e3,
        ("fork", "no fork"),
    )


def main():
    print(
        f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()},"
        f" numpy {np.__version__}; {REPEATS} interleaved repeats; median [q1, q3]"
    )
    print()
    spec, rule = control_problem(), legendre_rule()
    start = time.monotonic()
    kernel_line(spec, rule)
    stacking(spec, rule)
    fork(spec, rule)
    print(f"{time.monotonic() - start:.0f} s in all")


if __name__ == "__main__":
    main()
