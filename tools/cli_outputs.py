"""Record what a fixed set of hermite-heat CLI commands print, one file per command.

Usage: python3 tools/cli_outputs.py SRC OUT

SRC is the directory that holds the hermite_heat package (a checkout's
src/).  Each command runs in a fresh interpreter with SRC first on its
path, and OUT/<name>.txt receives its exit code, stdout and stderr.  Two
checkouts print the same for every command when

    diff -r OUT_A OUT_B

is empty.  The commands cover solve on both sides of the kernel line in
both formats, the two meshes that the line parts (N = 64 and 65), a stiff
mesh that steps banded, every reference table, both convergence sweeps,
each in both formats, six error exits, and --output paths that are
refused or discard the output.  Standard library only.
"""

import os
import subprocess
import sys
from pathlib import Path


def commands():
    """(name, arguments) of each command, in the order they run."""
    for n in (1, 16, 170, 1000):
        for rule in ("legendre", "chebyshev"):
            for fmt in ("csv", "pretty"):
                args = ["--n", str(n), "--dt", "0.01", "--t-final", "1", "--rule", rule]
                yield f"solve_n{n}_{rule}_{fmt}", ["solve", *args, "--format", fmt]
    for n in (64, 65):
        args = ["--n", str(n), "--dt", "0.01", "--t-final", "1", "--rule", "legendre"]
        yield f"solve_n{n}_legendre_csv", ["solve", *args, "--format", "csv"]
    one_step = ["--dt", "0.01", "--t-final", "0.01"]
    yield "solve_n171_stiff", ["solve", "--n", "171", *one_step, "--alpha", "1e10"]
    for table_id in range(1, 6):
        yield f"table_{table_id}", ["table", "--id", str(table_id)]
    yield "table_4_pretty", ["table", "--id", "4", "--format", "pretty"]
    yield "table_5_pretty", ["table", "--id", "5", "--format", "pretty"]
    sweep = ["--count", "3", "--t-final", "1"]
    dt_sweep = ["convergence", "--sweep", "dt", "--n", "1000", "--dt", "0.01", *sweep]
    n_sweep = ["convergence", "--sweep", "n", "--n", "5", "--dt", "1e-06", *sweep]
    yield "convergence_dt", dt_sweep
    yield "convergence_n", n_sweep
    yield "convergence_dt_pretty", [*dt_sweep, "--format", "pretty"]
    yield "convergence_n_pretty", [*n_sweep, "--format", "pretty"]
    yield "error_overflow_n4", ["solve", "--n", "4", "--dt", "0.01", "--t-final", "1", "--alpha", "1e154"]
    yield "error_overflow_n200", ["solve", "--n", "200", *one_step, "--alpha", "1e154"]
    yield "error_step_count", ["solve", "--n", "4", "--dt", "0.3", "--t-final", "1"]
    # RunConfig refuses the last row's step count before any row runs
    long_sweep = ["--sweep", "dt", "--n", "1", "--dt", "0.01", "--count", "1030"]
    yield "error_sweep_step_count", ["convergence", *long_sweep]
    yield "error_tiny_dt", ["solve", "--n", "4", "--dt", "5e-324", "--t-final", "5e-324"]
    # the mesh's arange refuses the size before it allocates anything
    yield "error_huge_n", ["solve", "--n", str(10**30), *one_step]
    small = ["solve", "--n", "2", *one_step]
    yield "output_dev_null", [*small, "--output", "/dev/null"]
    yield "output_missing_dir", [*small, "--output", "/nonexistent-dir/out.csv"]
    yield "output_under_a_file", [*small, "--output", "/etc/passwd/out.csv"]
    yield "output_long_name", [*small, "--output", "/tmp/" + "x" * 300]


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: python3 tools/cli_outputs.py SRC OUT")
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    if not (src / "hermite_heat").is_dir():
        sys.exit(f"{src} holds no hermite_heat package")
    out.mkdir(parents=True, exist_ok=True)
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for name, args in commands():
        command = [sys.executable, "-m", "hermite_heat.cli", *args]
        done = subprocess.run(command, env=env, capture_output=True, text=True)
        (out / f"{name}.txt").write_text(
            f"$ hermite-heat {' '.join(args)}\nexit {done.returncode}\n"
            f"--- stdout\n{done.stdout}--- stderr\n{done.stderr}"
        )
        print(f"{name}: exit {done.returncode}")


if __name__ == "__main__":
    main(sys.argv[1:])
