"""Command line front end: single solves, table reproduction, sweeps.

Exit codes: 0 on success, 1 on numerical failure (singular matrix,
non-integral step count), 2 on invalid flags.  All numeric CSV output uses
shortest round-trip formatting and LF line endings, so repeated runs with
identical flags are byte-identical.
"""

import argparse
import math
import sys

from .basis import RULES
from .experiments import (
    TABLE_IDS,
    convergence_order,
    error_norms,
    run_table,
    table_spec,
)
from .linalg import SingularMatrix
from .problem import _sample, build_mesh, control_problem
from .solver import NonIntegralStepCount, RunConfig, evaluate, run, run_batch


def _fmt(value):
    if value is None:
        return ""
    return repr(float(value))


def _write(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as handle:
            handle.write(text)


def _solve_rows(args):
    problem = control_problem(alpha=args.alpha)
    rule = RULES[args.rule]()
    cfg = RunConfig(dt=args.dt, t_final=args.t_final, n_elements=args.n, rule=rule)
    a = run(problem, cfg)
    mesh = build_mesh(problem, args.n)
    exact = _sample("exact_solution", problem.exact_solution, mesh.nodes, args.t_final)
    rows = []
    for x, ex in zip(mesh.nodes, exact.tolist()):
        numeric = evaluate(mesh, a, x)
        rows.append((x, numeric, ex, abs(ex - numeric)))
    l2, linf = error_norms(problem, mesh, rule, a, args.t_final)
    return rows, l2, linf


def cmd_solve(args):
    rows, l2, linf = _solve_rows(args)
    if args.format == "csv":
        lines = ["x,numeric,exact,abs_error"]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        lines += [
            f"# rule,{args.rule}",
            f"# n,{args.n}",
            f"# dt,{_fmt(args.dt)}",
            f"# t_final,{_fmt(args.t_final)}",
            f"# alpha,{_fmt(args.alpha)}",
            f"# l2,{_fmt(l2)}",
            f"# linf,{_fmt(linf)}",
        ]
    else:
        lines = [f"{'x':>12} {'numeric':>14} {'exact':>14} {'abs_error':>12}"]
        lines += [f"{x:12.6f} {num:14.6e} {ex:14.6e} {err:12.4e}" for x, num, ex, err in rows]
        lines += [f"rule={args.rule} n={args.n} dt={args.dt} t_final={args.t_final}"]
        lines += [f"L2 = {l2:.4e}   Linf = {linf:.4e}"]
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_table(args):
    rules = ("legendre", "chebyshev") if args.rule == "both" else (args.rule,)
    results = run_table(table_spec(args.id), rules=rules)
    if args.format == "csv":
        lines = ["table,rule,N,dt,t_final,l2,linf,ref_value,ref_norm,rel_dev"]
        for r in results:
            lines.append(
                ",".join(
                    [
                        str(r.table_id),
                        r.rule_kind,
                        str(r.n_elements),
                        _fmt(r.dt),
                        _fmt(r.t_final),
                        _fmt(r.l2),
                        _fmt(r.linf),
                        _fmt(r.ref_value),
                        r.ref_norm or "",
                        _fmt(r.rel_dev),
                    ]
                )
            )
    else:
        lines = [
            f"{'rule':>10} {'N':>5} {'dt':>9} {'t_final':>8} {'l2':>11} "
            f"{'linf':>11} {'ref':>11} {'norm':>5} {'rel_dev':>9}"
        ]
        for r in results:
            ref = f"{r.ref_value:.4e}" if r.ref_value is not None else "-"
            dev = f"{r.rel_dev:+.2e}" if r.rel_dev is not None else "-"
            lines.append(
                f"{r.rule_kind:>10} {r.n_elements:>5} {r.dt:>9} {r.t_final:>8} "
                f"{r.l2:11.4e} {r.linf:11.4e} {ref:>11} {r.ref_norm or '-':>5} {dev:>9}"
            )
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_convergence(args):
    problem = control_problem(alpha=args.alpha)
    rule = RULES[args.rule]()
    if args.sweep == "dt":
        params = [math.ldexp(args.dt, -i) for i in range(args.count)]
        points = [(args.n, p) for p in params]
    else:
        params = [args.n * 2**i for i in range(args.count)]
        points = [(p, args.dt) for p in params]
    configs = [RunConfig(dt=dt, t_final=args.t_final, n_elements=n, rule=rule) for n, dt in points]
    finals = dict(run_batch(problem, configs))
    records = []
    for index, (cfg, param) in enumerate(zip(configs, params)):
        a = finals[index]
        if isinstance(a, Exception):
            raise a
        mesh = build_mesh(problem, cfg.n_elements)
        l2, linf = error_norms(problem, mesh, rule, a, args.t_final)
        records.append((param, l2, linf))
    orders = [None]
    if len(records) > 1:
        orders += convergence_order([(p, l2) for p, l2, _ in records])
    if args.format == "csv":
        lines = ["param,l2,linf,order_l2"]
        for (param, l2, linf), order in zip(records, orders):
            head = str(param) if isinstance(param, int) else _fmt(param)
            lines.append(f"{head},{_fmt(l2)},{_fmt(linf)},{_fmt(order)}")
    else:
        lines = [f"{'param':>12} {'l2':>12} {'linf':>12} {'order_l2':>9}"]
        for (param, l2, linf), order in zip(records, orders):
            tail = f"{order:9.3f}" if order is not None else f"{'-':>9}"
            lines.append(f"{param:>12} {l2:12.4e} {linf:12.4e} {tail}")
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def _add_common(sub):
    sub.add_argument("--rule", choices=tuple(RULES), default="legendre")
    sub.add_argument("--alpha", type=float, default=1.0)
    sub.add_argument("--output", default="-", help="output file, or - for stdout")
    sub.add_argument("--format", choices=("csv", "pretty"), default="csv")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hermite-heat",
        description="Septic Hermite collocation solver for the 1D heat equation",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser("solve", help="run one configuration")
    solve.add_argument("--n", type=int, required=True, help="number of elements")
    solve.add_argument("--dt", type=float, required=True, help="time step")
    solve.add_argument("--t-final", type=float, required=True, help="final time")
    _add_common(solve)
    solve.set_defaults(func=cmd_solve)

    table = subparsers.add_parser("table", help="recompute a reference table")
    table.add_argument("--id", type=int, choices=TABLE_IDS, required=True)
    table.add_argument("--rule", choices=(*RULES, "both"), default="both")
    table.add_argument("--output", default="-")
    table.add_argument("--format", choices=("csv", "pretty"), default="csv")
    table.set_defaults(func=cmd_table)

    conv = subparsers.add_parser("convergence", help="refinement sweep with observed orders")
    conv.add_argument("--sweep", choices=("dt", "n"), required=True)
    conv.add_argument("--n", type=int, required=True, help="base element count")
    conv.add_argument("--dt", type=float, required=True, help="base time step")
    conv.add_argument("--count", type=int, required=True, help="number of sweep rows")
    conv.add_argument("--t-final", type=float, default=1.0)
    _add_common(conv)
    conv.set_defaults(func=cmd_convergence)
    return parser


def _validate(parser, args):
    if getattr(args, "n", None) is not None and args.n < 1:
        parser.error("--n must be at least 1")
    dt = getattr(args, "dt", None)
    if dt is not None and not (math.isfinite(dt) and dt > 0.0):
        parser.error("--dt must be positive and finite")
    t_final = getattr(args, "t_final", None)
    if t_final is not None and not (math.isfinite(t_final) and t_final >= 0.0):
        parser.error("--t-final must be nonnegative and finite")
    alpha = getattr(args, "alpha", None)
    # alpha * alpha rather than alpha**2, which raises OverflowError
    if alpha is not None and not (alpha > 0.0 and math.isfinite(alpha * alpha)):
        parser.error("--alpha must be positive with a finite square")
    count = getattr(args, "count", None)
    if count is not None and count < 1:
        parser.error("--count must be at least 1")
    if getattr(args, "sweep", None) == "dt" and math.ldexp(dt, 1 - count) == 0.0:
        parser.error("--count halves --dt to 0 before the last row")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        return args.func(args)
    except (SingularMatrix, NonIntegralStepCount) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
