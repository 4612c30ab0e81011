"""Benchmark of hermite-heat from the outside.  See README.md in this directory.

    python3 perfbench/run.py --workload floor|fine_mesh|cli_table4|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
Every workload runs in fresh single-threaded child processes, one at a
time.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Standard library only.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import NAMES
from workloads import CLI_TABLE4, CONSOLE_SCRIPT, WORKLOADS, PassChecker, parse_table_csv

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKER = str(Path(__file__).resolve().parent / "worker.py")

SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 5
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "fraction",
    "err_to_gate": "ratio",
}
PER_LAYER_UNITS = {
    **{f"{name}.{part}": unit for name in NAMES for part, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))},
    "solver.step.per_call_us": "us",
    "kernel.bare_step_us": "us",
    "solver.step.glue_frac": "fraction",
    "linalg.band_lu_solve.flops_computed": "flop",
    "linalg.band_lu_solve.bytes_computed": "B",
    "linalg.band_matvec.flops_computed": "flop",
    "linalg.band_matvec.bytes_computed": "B",
    "problem.f_calls": "count",
    "problem.exact_calls": "count",
    "import.total_s": "s",
    "import.numpy_s": "s",
    "import.scipy_linalg_s": "s",
    "import.hermite_heat_self_s": "s",
    "trace.overhead_s": "s",
}


class ChildTimeout(Exception):
    pass


class Runner:
    """Starts one child at a time, times it from outside and reads its peak RSS."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        # bytecode is cached under src/ as for an installed package, so setup_s
        # does not depend on whether the caller's environment forbids that
        inherited = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env = {
            **inherited,
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONHASHSEED": "0",
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }

    def run(self, *args):
        """(exit code, wall seconds, peak RSS in MiB, stdout, stderr) of python3 args."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildTimeout("run time limit reached")
        OUT.mkdir(exist_ok=True)
        out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=self.env, cwd=ROOT)
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -signal.SIGKILL and time.monotonic() >= self.deadline:
            raise ChildTimeout(f"{args[:2]} killed at the run time limit")
        return proc.returncode, wall, usage.ru_maxrss / 1024, out_path.read_text(), err_path.read_text()

    def worker(self, *args):
        """Run worker.py; its parsed JSON result and peak RSS."""
        code, _, rss, stdout, stderr = self.run(WORKER, *map(str, args))
        if code != 0 or not stdout.strip():
            sys.stderr.write(stderr)
            raise RuntimeError(f"worker {args} exited with {code}")
        return json.loads(stdout.splitlines()[-1]), rss


def import_breakdown(runner):
    """Medians of `python -X importtime -c "import hermite_heat"`, in seconds."""
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        code, _, _, _, stderr = runner.run("-X", "importtime", "-c", "import hermite_heat")
        if code != 0:
            raise RuntimeError(f"import hermite_heat exited with {code}")
        self_us = {}
        cumulative_us = {}
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            own, cumulative, package = line[len("import time:") :].split("|")
            package = package.strip()
            self_us[package] = self_us.get(package, 0) + int(own)
            cumulative_us.setdefault(package, int(cumulative))
        samples.append(
            {
                "import.total_s": cumulative_us.get("hermite_heat", 0) / 1e6,
                "import.numpy_s": cumulative_us.get("numpy", 0) / 1e6,
                "import.scipy_linalg_s": cumulative_us.get("scipy.linalg", 0) / 1e6,
                "import.hermite_heat_self_s": sum(
                    us for pkg, us in self_us.items() if pkg == "hermite_heat" or pkg.startswith("hermite_heat.")
                )
                / 1e6,
            }
        )
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def cli_passes(runner, seconds, checker):
    """Closed loop of `hermite-heat table --id 4` commands; walls and peak RSS."""
    runner.run(*CONSOLE_SCRIPT, "solve", "--n", "3", "--dt", "0.001", "--t-final", "0.01")  # warm-up
    walls, rss = [], []
    stop = time.monotonic() + seconds
    while True:
        code, wall, peak, stdout, stderr = runner.run(*CLI_TABLE4)
        walls.append(wall)
        rss.append(peak)
        if code != 0:
            sys.stderr.write(stderr)
            checker.fail_pass(f"exit code {code}")
        else:
            try:
                checker.check(parse_table_csv(stdout))
            except ValueError as exc:
                checker.fail_pass(f"unreadable CSV: {exc}")
        if time.monotonic() + wall > stop:
            return walls, rss


def worker_passes(runner, workload, seed, seconds, checker, trace):
    """One worker process running the workload's passes; walls, peak RSS, layers."""
    result, rss = runner.worker("passes", workload, seed, seconds, *(["--trace"] if trace else []))
    merge(checker, result)
    walls = [p["wall_s"] for p in result["passes"] if "wall_s" in p]
    layers = [p["layers"] for p in result["passes"] if "layers" in p]
    return walls, rss, layers


def traced_cli_passes(runner, seed, seconds, checker):
    """Closed loop of fresh processes, each one traced cli.main pass."""
    walls, layers = [], []
    stop = time.monotonic() + seconds
    while True:
        code, wall, _, stdout, stderr = runner.run(WORKER, "passes", "cli_table4", str(seed), "0", "--trace")
        if code != 0 or not stdout.strip():
            sys.stderr.write(stderr)
            checker.fail_pass(f"traced worker exit code {code}")
        else:
            result = json.loads(stdout.splitlines()[-1])
            merge(checker, result)
            walls.append(wall)
            layers += [p["layers"] for p in result["passes"]]
        if time.monotonic() + wall > stop:
            return walls, layers


def merge(checker, result):
    checker.attempted += result["attempted"]
    checker.failures += result["failures"]
    checker.err_to_gate = max(checker.err_to_gate, result["err_to_gate"])


def end_to_end(runner, workload, seed, seconds, checker):
    setup = [runner.run("-c", "import hermite_heat")[1] for _ in range(SETUP_REPEATS)]
    if workload == "cli_table4":
        walls, rss = cli_passes(runner, seconds, checker)
        peak = statistics.median(rss)
    else:
        walls, peak, _ = worker_passes(runner, workload, seed, seconds, checker, trace=False)
    attempted = max(checker.attempted, 1)
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak,
        "ok_frac": (attempted - len(checker.failures)) / attempted,
        "err_to_gate": checker.err_to_gate,
    }


def per_layer(runner, workload, seed, seconds, checker):
    metrics = import_breakdown(runner)
    half = seconds / 2
    if workload == "cli_table4":
        walls, _ = cli_passes(runner, half, checker)
        traced, layers = traced_cli_passes(runner, seed, half, checker)
    else:
        walls, _, _ = worker_passes(runner, workload, seed, half, checker, trace=False)
        traced, _, layers = worker_passes(runner, workload, seed, half, checker, trace=True)
    for key in layers[0] if layers else ():
        metrics[key] = statistics.median(layer[key] for layer in layers)
    metrics.update(runner.worker("kernel", workload)[0])
    if walls and traced:
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
    return metrics


def measure(workload, seed, seconds, trace):
    """(correct, attempted, failed, metrics) of one workload."""
    runner = Runner()
    checker = PassChecker(workload)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    try:
        machine = runner.worker("machine")[0]  # also fills the bytecode cache before setup_s
        print(json.dumps({"workload": workload, "machine": machine}), flush=True)
        values = (per_layer if trace else end_to_end)(runner, workload, seed, seconds, checker)
    except (ChildTimeout, RuntimeError, ValueError) as exc:
        print(f"{workload}: {exc}", file=sys.stderr)
        checker.fail_pass(str(exc))
        values = {}
    for failure in checker.failures[:20]:
        print(f"{workload}: failed {failure}", file=sys.stderr)
    missing = [name for name in units if name not in values]
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    correct = not checker.failures and not missing
    return correct, max(checker.attempted, 1), len(checker.failures), metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hermite_heat" / "__init__.py").is_file():
        print(f"no hermite_heat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        ok, tried, bad, values = measure(workload, args.seed, args.seconds, bool(args.trace))
        correct, attempted, failed = correct and ok, attempted + tried, failed + bad
        prefix = f"{workload}." if len(workloads) > 1 else ""
        metrics.update({prefix + name: value for name, value in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
