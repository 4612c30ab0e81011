"""Command line front end: single solves, table reproduction, sweeps.

Each command computes and returns its output lines, or raises; it neither
writes nor exits.  main alone writes the lines, to stdout or --output, and
turns every failure into one error: line and its exit code:
- 0 on success;
- 1 on a failed computation: a singular matrix, a step count that is not a
  whole number, a state that is not finite (SingularMatrix, ValueError),
  arrays that cannot be allocated (MemoryError), or a table row that holds
  an error;
- 2 on an invalid flag, which argparse reports, and on an --output that
  the system refuses, before any work where it can tell without opening
  the path, otherwise when the lines are written.
Nothing reaches stdout or --output on a failure.  All numeric CSV output
uses shortest round-trip formatting and LF line endings, so repeated runs
with identical flags are byte-identical.
"""

import argparse
import errno
import math
import os
import sys

from .basis import RULES
from .experiments import (
    TABLE_IDS,
    _norms,
    convergence_order,
    error_norms,
    run_table,
    table_spec,
)
from .linalg import SingularMatrix
from .problem import _sample, build_mesh, control_problem
from .solver import RunConfig, evaluate, run


def _cell(fmt, value, spec):
    """One value as a CSV field or, formatted by spec, as a pretty cell (_lines)."""
    if value is None:
        return "" if fmt == "csv" else "-"
    if fmt == "pretty":
        return format(value, spec)
    return str(value) if isinstance(value, (str, int)) else repr(float(value))


def _lines(fmt, columns, rows):
    """The header line and one line per row of values.

    columns holds (name, width, spec) per column.  CSV joins the names,
    then each row's fields, by commas: a str as it is, an int in decimal,
    any other number in shortest round-trip form and None as an empty
    field.  Pretty right-aligns each name and cell to its column's width
    and joins them by spaces: a value formatted by its column's spec, None
    as -.
    """
    sep = "," if fmt == "csv" else " "
    widths = [0 if fmt == "csv" else width for _, width, _ in columns]
    lines = [sep.join(f"{name:>{w}}" for (name, _, _), w in zip(columns, widths))]
    for row in rows:
        cells = (_cell(fmt, v, spec) for v, (_, _, spec) in zip(row, columns))
        lines.append(sep.join(f"{cell:>{w}}" for cell, w in zip(cells, widths)))
    return lines


def cmd_solve(args):
    problem = control_problem(alpha=args.alpha)
    rule = RULES[args.rule]()
    cfg = RunConfig(dt=args.dt, t_final=args.t_final, n_elements=args.n, rule=rule)
    a = run(problem, cfg)
    mesh = build_mesh(problem, args.n)
    exact = _sample("exact_solution", problem.exact_solution, mesh.nodes, args.t_final)
    numeric = evaluate(mesh, a, mesh.nodes)
    rows = zip(mesh.nodes, numeric, exact, abs(exact - numeric))
    l2, linf = error_norms(problem, mesh, rule, a, args.t_final)
    columns = [("x", 12, ".6f"), ("numeric", 14, ".6e"), ("exact", 14, ".6e"), ("abs_error", 12, ".4e")]
    lines = _lines(args.format, columns, rows)
    if args.format == "csv":
        footer = [("rule", args.rule), ("n", args.n), ("dt", args.dt), ("t_final", args.t_final)]
        footer += [("alpha", args.alpha), ("l2", l2), ("linf", linf)]
        lines += [f"# {key},{_cell('csv', value, '')}" for key, value in footer]
    else:
        lines += [f"rule={args.rule} n={args.n} dt={args.dt} t_final={args.t_final}"]
        lines += [f"L2 = {l2:.4e}   Linf = {linf:.4e}"]
    return lines


def cmd_table(args):
    rules = ("legendre", "chebyshev") if args.rule == "both" else (args.rule,)
    results = run_table(table_spec(args.id), rules=rules)
    for r in results:
        if r.error is not None:
            cause = str(r.error) or type(r.error).__name__
            raise ValueError(f"{r.rule_kind} N = {r.n_elements}, dt = {r.dt}: {cause}")
    csv = args.format == "csv"
    columns = [
        ("table", 0, ""),
        ("rule", 10, ""),
        ("N", 5, ""),
        ("dt", 9, ""),
        ("t_final", 8, ""),
        ("l2", 11, ".4e"),
        ("linf", 11, ".4e"),
        ("ref_value" if csv else "ref", 11, ".4e"),
        ("ref_norm" if csv else "norm", 5, ""),
        ("rel_dev", 9, "+.2e"),
    ]
    rows = [
        (r.table_id, r.rule_kind, r.n_elements, r.dt, r.t_final, r.l2, r.linf)
        + (r.ref_value, r.ref_norm, r.rel_dev)
        for r in results
    ]
    if not csv:  # the pretty table leaves out its id
        columns, rows = columns[1:], [row[1:] for row in rows]
    return _lines(args.format, columns, rows)


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
    norms = dict(_norms(problem, configs))
    records = []
    for index, param in enumerate(params):
        if isinstance(norms[index], Exception):  # the first row that failed
            raise norms[index]
        records.append((param, *norms[index]))
    orders = [None]
    if len(records) > 1:
        # (step, l2): the order is in dt or h, not N, so refining gives a positive one
        steps = params if args.sweep == "dt" else [build_mesh(problem, n).h for n in params]
        orders += convergence_order([(step, l2) for step, (_, l2, _) in zip(steps, records)])
    columns = [("param", 12, ""), ("l2", 12, ".4e"), ("linf", 12, ".4e"), ("order_l2", 9, ".3f")]
    return _lines(args.format, columns, [(*record, order) for record, order in zip(records, orders)])


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


def _reciprocal_overflows(dt, t_final):
    """Whether 1 / dt overflows while t_final / dt does not: L's H / dt would
    overflow.  Where t_final / dt overflows too, RunConfig reports the step
    count, a numerical failure (exit 1)."""
    return math.isfinite(t_final / dt) and not math.isfinite(1.0 / dt)


def _validate(parser, args):
    if getattr(args, "n", None) is not None and args.n < 1:
        parser.error("--n must be at least 1")
    dt = getattr(args, "dt", None)
    if dt is not None and not (math.isfinite(dt) and dt > 0.0):
        parser.error("--dt must be positive and finite")
    t_final = getattr(args, "t_final", None)
    if t_final is not None and not (math.isfinite(t_final) and t_final >= 0.0):
        parser.error("--t-final must be nonnegative and finite")
    if dt is not None and _reciprocal_overflows(dt, t_final):
        parser.error("--dt must have a finite reciprocal")
    alpha = getattr(args, "alpha", None)
    # alpha * alpha rather than alpha**2, which raises OverflowError
    if alpha is not None and not (alpha > 0.0 and math.isfinite(alpha * alpha)):
        parser.error("--alpha must be positive with a finite square")
    count = getattr(args, "count", None)
    if count is not None and count < 1:
        parser.error("--count must be at least 1")
    if getattr(args, "sweep", None) == "dt":
        finest = math.ldexp(dt, 1 - count)
        if finest == 0.0:
            parser.error("--count halves --dt to 0 before the last row")
        if _reciprocal_overflows(finest, t_final):
            parser.error("--count halves --dt until 1 / dt overflows before the last row")


def _output_refusal(path):
    """The OSError that writing --output path would raise, where the system
    tells it without opening the path (so that an existing file keeps its
    bytes), or None: a directory that cannot be searched or is no directory
    (the system's errno), a directory or a name ending in a separator, a
    name longer than the directory's file system allows, or the empty
    path."""
    if path == "-":
        return None
    directory, name = os.path.split(path.rstrip(os.sep) or path)
    directory = directory or "."
    try:
        os.stat(os.path.join(directory, ""))  # the trailing separator: ENOTDIR for a file
        if path.endswith(os.sep) or os.path.isdir(path):
            code = errno.EISDIR
        elif len(os.fsencode(name)) > os.pathconf(directory, "PC_NAME_MAX"):
            code = errno.ENAMETOOLONG
        elif not name:  # the empty path
            code = errno.ENOENT
        else:
            return None
    except OSError as exc:
        code = exc.errno
    return OSError(code, os.strerror(code), path)


def main(argv=None):
    """Run one command line: return 0 or 1, or exit 2 (module docstring)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    refused = _output_refusal(args.output)
    if refused is None:
        try:
            lines = args.func(args)
        except (SingularMatrix, ValueError, MemoryError) as exc:
            print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return 1
        text = "\n".join(lines) + "\n"
        if args.output == "-":
            sys.stdout.write(text)
            return 0
        try:
            with open(args.output, "w", newline="") as handle:
                handle.write(text)
            return 0
        except OSError as exc:  # the write's only: the computation's is no --output error
            refused = OSError(exc.errno, exc.strerror, args.output)  # named, as a failed close is not
    # an --output that the system refuses is an invalid flag, as argparse's are
    print(f"error: cannot write --output: {refused}", file=sys.stderr)
    sys.exit(2)


if __name__ == "__main__":
    sys.exit(main())
