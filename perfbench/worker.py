"""One fresh benchmark process: runs a workload's passes, or a side measurement.

    worker.py machine                      import the package, print the machine record
    worker.py passes WORKLOAD SEED SECONDS [--trace]
    worker.py kernel WORKLOAD              bare dgbmv + dgbtrs loop against step()

`passes` runs closed-loop passes until SECONDS have gone by (at least one).
floor and fine_mesh call run_table in this process; cli_table4 is only run
here when traced, as one cli.main call (the untraced command is the console
script itself, started by run.py).  The last line of stdout is one JSON object.
"""

import contextlib
import dataclasses
import io
import json
import os
import platform
import random
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import SHAPED, Tracer, package_modules, rebind
from workloads import TABLES, PassChecker, parse_table_csv

import hermite_heat as hh

OUT = Path(__file__).resolve().parent / "out"


def machine_record():
    import numpy
    import scipy

    record = {
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    for label, lib in (("numpy_blas", numpy), ("scipy_blas", scipy)):
        try:
            blas = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
            record[label] = f"{blas['name']} {blas['version']}"
        except (TypeError, KeyError):
            record[label] = "unknown"
    return record


class CallCounts:
    """Counts calls of the control problem's f and exact solution."""

    def __init__(self):
        self.f = 0
        self.exact = 0

    def problem(self, base):
        def f(x):
            self.f += 1
            return base.initial_condition(x)

        def exact(x, t):
            self.exact += 1
            return base.exact_solution(x, t)

        return dataclasses.replace(base, initial_condition=f, exact_solution=exact)


def table_rows(results):
    return [
        {"rule": r.rule_kind, "n": r.n_elements, "dt": r.dt, "l2": r.l2, "linf": r.linf, "error": r.error}
        for r in results
    ]


def shuffled_spec(workload, rng):
    """The workload's built-in table, rows and rules in a seed-chosen order."""
    table_id, rules = TABLES[workload]
    spec = hh.table_spec(table_id)
    rows = list(spec.rows)
    rules = list(rules)
    rng.shuffle(rows)
    rng.shuffle(rules)
    return dataclasses.replace(spec, rows=tuple(rows)), tuple(rules)


def warm_up():
    """One untimed solve on a mesh (N = 3) that no workload times."""
    spec = hh.table_spec(3)
    row = dataclasses.replace(spec.rows[0], n_elements=3, dt=1e-3, t_final=1e-2)
    hh.run_table(dataclasses.replace(spec, rows=(row,)), rules=("legendre", "chebyshev"))


def matvec_cost(n, kl, ku):
    """Computed flops and bytes of one dgbmv y = A x with A n x n banded."""
    nnz = n * (kl + ku + 1) - kl * (kl + 1) // 2 - ku * (ku + 1) // 2
    return 2 * nnz, 8 * ((kl + ku + 1) * n + 2 * n)


def lu_solve_cost(n, kl, ku):
    """Computed flops and bytes of one dgbtrs solve with a single right-hand side.

    L is unit lower with bandwidth kl; pivoting widens U to kl + ku.
    """
    ku_u = kl + ku
    flops = 2 * (n * kl - kl * (kl + 1) // 2) + 2 * (n * ku_u - ku_u * (ku_u + 1) // 2) + n
    return flops, 8 * ((2 * kl + ku + 1) * n + 2 * n) + 4 * n


def computed_costs(tracer):
    out = {}
    for name, cost in zip(SHAPED, (lu_solve_cost, matvec_cost)):
        counts = {shape: c for shape, c in tracer.shapes[name].items() if shape is not None}
        calls = sum(counts.values()) or 1
        flops = sum(c * cost(*shape)[0] for shape, c in counts.items())
        moved = sum(c * cost(*shape)[1] for shape, c in counts.items())
        out[f"{name}.flops_computed"] = flops / calls
        out[f"{name}.bytes_computed"] = moved / calls
    return out


def run_passes(workload, seed, seconds, trace):
    rng = random.Random(seed)
    checker = PassChecker(workload)
    tracer = Tracer() if trace else None
    passes = []
    if workload != "cli_table4":
        warm_up()
    if trace:
        tracer.install()
    deadline = time.perf_counter() + seconds
    while True:
        record = {}
        spec, rules = shuffled_spec(workload, rng)
        counts = CallCounts()
        if trace:
            tracer.reset()
        start = time.perf_counter()
        try:
            if workload == "cli_table4":
                rows = cli_pass(counts)
            else:
                problem = hh.control_problem()
                if trace:
                    problem = counts.problem(problem)
                rows = table_rows(hh.run_table(spec, rules=rules, problem=problem))
        except Exception as exc:  # a failed pass is counted, not fatal
            traceback.print_exc()
            checker.fail_pass(f"{type(exc).__name__}: {exc}")
        else:
            record["wall_s"] = time.perf_counter() - start
            checker.check(rows)
        if trace:
            record["layers"] = {
                **tracer.summary(),
                **computed_costs(tracer),
                "problem.f_calls": counts.f,
                "problem.exact_calls": counts.exact,
            }
        passes.append(record)
        # closed loop: start another pass only if it should end in time
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            break
    if trace:
        tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{workload}.npz")
    return {
        "passes": passes,
        "attempted": checker.attempted,
        "failures": checker.failures,
        "err_to_gate": checker.err_to_gate,
    }


def cli_pass(counts):
    """`hermite-heat table --id 4` as one in-process cli.main call.

    The control problem is swapped for a counting copy wherever the
    package bound it, as the wrappers are.
    """
    from hermite_heat import cli

    original = hh.control_problem
    patched = rebind(original, lambda *a, **k: counts.problem(original(*a, **k)), package_modules())
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["table", "--id", "4"])
    except SystemExit as exc:
        code = exc.code
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
    if code != 0:
        raise RuntimeError(f"cli.main exited with {code}")
    return parse_table_csv(stdout.getvalue())


def per_call_us(loops, budget=0.01, repeats=7):
    """Median microseconds per iteration of each loop(k), which runs k iterations.

    Each loop is sized to about `budget` seconds; the loops take turns so
    that all of them see the same phases of a noisy machine.
    """
    sizes = []
    for loop in loops:
        k = 10
        while (elapsed := loop(k)) < budget / 4 and k < 1 << 20:
            k *= 4
        sizes.append(max(k, int(k * budget / elapsed)))
    samples = [[] for _ in loops]
    for _ in range(repeats):
        for loop, k, times in zip(loops, sizes, samples):
            times.append(loop(k) / k)
    return [statistics.median(times) * 1e6 for times in samples]


def kernel_costs(workload):
    """Step-weighted per-step time of step() and of its bare LAPACK kernels.

    For every solve the workload times, assemble and factor L through the
    public API, then time two loops from the same initial vector: step()
    and a bare dgbmv + dgbtrs on the reduced vector.  Loops restart from
    the initial vector every M steps so the state never decays further
    than the real run's does.
    """
    from scipy.linalg import blas, lapack

    table_id, rules = TABLES[workload]
    problem = hh.control_problem()
    step_total = bare_total = steps = 0.0
    for row in hh.table_spec(table_id).rows:
        for kind in rules:
            rule = {"legendre": hh.legendre_rule, "chebyshev": hh.chebyshev_rule}[kind]()
            mesh = hh.build_mesh(problem, row.n_elements)
            system = hh.assemble_crank_nicolson(mesh, rule, problem.alpha, row.dt)
            factors = hh.band_lu_factor(system.left)
            a0 = hh.initial_coefficients(problem, mesh, rule)
            m = round(row.t_final / row.dt)
            step = hh.step

            def step_loop(k):
                start = time.perf_counter()
                for done in range(0, k, m):
                    a = a0
                    for _ in range(min(m, k - done)):
                        a = step(system, factors, a)
                return time.perf_counter() - start

            right = system.right
            n, kl, ku, bands = right.n, right.kl, right.ku, right.bands
            lu, ipiv = factors.lu_bands, factors.ipiv
            x0 = a0.full[system.reduced_to_full]
            dgbmv, dgbtrs = blas.dgbmv, lapack.dgbtrs

            def bare_loop(k):
                start = time.perf_counter()
                for done in range(0, k, m):
                    x = x0
                    for _ in range(min(m, k - done)):
                        x = dgbtrs(lu, kl, ku, dgbmv(n, n, kl, ku, 1.0, bands, x), ipiv)[0]
                return time.perf_counter() - start

            step_us, bare_us = per_call_us((step_loop, bare_loop))
            step_total += m * step_us
            bare_total += m * bare_us
            steps += m
    step_us = step_total / steps
    bare_us = bare_total / steps
    return {
        "solver.step.per_call_us": step_us,
        "kernel.bare_step_us": bare_us,
        "solver.step.glue_frac": 1.0 - bare_us / step_us,
    }


def main(argv):
    mode = argv[0]
    if mode == "machine":
        result = machine_record()
    elif mode == "kernel":
        try:
            result = kernel_costs(argv[1])
        except (AttributeError, TypeError) as exc:  # the public API it drives has changed
            print(f"kernel baseline unavailable: {exc!r}", file=sys.stderr)
            result = dict.fromkeys(("solver.step.per_call_us", "kernel.bare_step_us", "solver.step.glue_frac"), 0.0)
    elif mode == "passes":
        result = run_passes(argv[1], int(argv[2]), float(argv[3]), "--trace" in argv[4:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
