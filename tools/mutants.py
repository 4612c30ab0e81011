"""Run the Tier-1 suite on one-line mutants of a checkout: does it notice each?

Usage: python3 tools/mutants.py CHECKOUT OUT

CHECKOUT is a checkout (the directory that holds src/ and tests/), OUT a
scratch directory outside it.  The unmutated checkout runs first and must
pass.  Then each mutant of MUTANTS is applied to a fresh copy of it in
OUT, after checking that its old text occurs exactly once in its file (so
that a rename in src/ stops the tool instead of skipping a mutant), and
the Tier-1 command runs there with -x:

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors -x

Each line printed gives the mutant's label, KILLED (a test failed),
SURVIVED (every test passed) or TIMEOUT (after TIMEOUT_S), the time taken
and the first failing test.  A survivor is a gap in the tests: close it
with a new test, never by loosening a bound.  Only a mutant marked
equivalent, one that changes no result the tests can see, is meant to
survive, and its line repeats the reason it is marked with.  The whole
list takes several minutes, so the tool is not part of Tier-1.  Standard
library only.
"""

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

TIMEOUT_S = 900

_SOLVE = "    return np.linalg.solve(_symbols(block, mesh.n_elements), shared.diffusion)\n"


def _one_mode(index, factor):
    """_propagator with E of mode index scaled by factor, only where N >= 65:
    below, the mesh steps banded and _propagator serves the tests alone."""
    return (
        "    e = np.linalg.solve(_symbols(block, mesh.n_elements), shared.diffusion)\n"
        "    if mesh.n_elements >= 65:\n"
        f"        e[{index}] *= {factor}\n"
        "    return e\n"
    )


# (label, file under src/hermite_heat, old text, new text), and for a mutant
# that no test can tell from the checkout, a fifth entry: why it is equivalent
MUTANTS = [
    ("kernel line at 1024 unknowns", "solver.py", "_MODE_UNKNOWNS = 384", "_MODE_UNKNOWNS = 1024"),
    ("mass H / (dt (1 + 1e-8))", "assembly.py", "mass = table.H / dt", "mass = table.H / (dt * (1 + 1e-8))"),
    ("mass H / (dt (1 + 1e-6))", "assembly.py", "mass = table.H / dt", "mass = table.H / (dt * (1 + 1e-6))"),
    (
        "alpha**2 (1 + 1e-7) in element_blocks",
        "assembly.py",
        "diffusion = (alpha**2 / ",
        "diffusion = (alpha**2 * (1 + 1e-7) / ",
    ),
    (
        "_symbols' theta grid pi / (2N + 1e-9)",
        "solver.py",
        "half = np.pi / (2 * n_elements)",
        "half = np.pi / (2 * n_elements + 1e-9)",
    ),
    ("_STEP_COUNT_RTOL 1e-3", "solver.py", "_STEP_COUNT_RTOL = 1e-9", "_STEP_COUNT_RTOL = 1e-3"),
    (
        "L2 weight 1.00001 h",
        "experiments.py",
        "l2 = math.sqrt(mesh.h * ",
        "l2 = math.sqrt(1.00001 * mesh.h * ",
    ),
    (
        "B table x (1 + 1e-10)",
        "basis.py",
        "B = _eval_family(B_COEFFS, xi, h)",
        "B = _eval_family(B_COEFFS, xi, h) * (1 + 1e-10)",
    ),
    (
        "B table x (1 + 1e-9)",
        "basis.py",
        "B = _eval_family(B_COEFFS, xi, h)",
        "B = _eval_family(B_COEFFS, xi, h) * (1 + 1e-9)",
    ),
    ("E of mode 3 x (1 + 1e-9), N >= 65", "solver.py", _SOLVE, _one_mode(3, "1 + 1e-9")),
    ("E of the top mode x (1 + 1e-6), N >= 65", "solver.py", _SOLVE, _one_mode(-1, "1 + 1e-6")),
    (
        "pretty missing value - -> empty",
        "cli.py",
        'return "" if fmt == "csv" else "-"',
        'return "" if fmt == "csv" else ""',
    ),
    (
        "CSV missing value empty -> None",
        "cli.py",
        'return "" if fmt == "csv" else "-"',
        'return "None" if fmt == "csv" else "-"',
    ),
    (
        "_plan_stacks by N, not step count",
        "solver.py",
        "banded.setdefault(cfg.n_steps, [])",
        "banded.setdefault(cfg.n_elements, [])",
    ),
    (
        "_split smallest first",
        "solver.py",
        "sorted(stack, key=lambda member: -len(member.x))",
        "sorted(stack, key=lambda member: len(member.x))",
    ),
    (
        "_split onto the last of equal groups",
        "solver.py",
        "fewest = unknowns.index(min(unknowns))",
        "fewest = count - 1 - unknowns[::-1].index(min(unknowns))",
    ),
    ("_power's bit test n_steps & 2", "solver.py", "if n_steps & 1:", "if n_steps & 2:"),
    (
        "_detached walks only __cause__",
        "solver.py",
        "chain += [link.__cause__, link.__context__]",
        "chain += [link.__cause__]",
    ),
    (
        "_finite with np.any for np.all",
        "solver.py",
        "if not np.all(np.isfinite(state)):",
        "if not np.any(np.isfinite(state)):",
    ),
    ("_advance's rows = n", "solver.py", "rows = max(n, kl + ku + 1)", "rows = n"),
    (
        "a forked group's results in reverse order",
        "solver.py",
        "zip(group, pickle.loads(data))",
        "zip(group[::-1], pickle.loads(data))",
    ),
    (
        "the last member keeps shared[key]",
        "solver.py",
        "_prepare(shared.pop(key) if",
        "_prepare(shared[key] if",
    ),
    (
        "_extend's sign of u'''R flipped",
        "solver.py",
        "[-1.0, 1.0, -1.0, 1.0, 1.0, -1.0]",
        "[-1.0, 1.0, -1.0, 1.0, -1.0, -1.0]",
    ),
    (
        "_restrict without its a[0] = 0.0",
        "solver.py",
        "    a[0] = 0.0\n",
        "",
        "numpy's irfft gives node 0's value as a sum of exact zeros, +0.0, on every mesh tried"
        " (N = 65 to 1000, both rules); the line guards against an FFT that rounds it",
    ),
    (
        "_FORK_WORK 10**8",
        "solver.py",
        "_FORK_WORK = 10**7",
        "_FORK_WORK = 10**8",
        "the fork changes no bit of a result, only the time; tools/thresholds.py's table 3 measures it",
    ),
]


def _fresh_copy(source, checkout, mutant=None):
    """checkout as a new copy of source, with mutant (file, old text, new text) applied."""
    shutil.rmtree(checkout, ignore_errors=True)
    ignored = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
    shutil.copytree(source, checkout, ignore=ignored)
    if mutant is not None:
        file, old, new = mutant
        path = checkout / "src" / "hermite_heat" / file
        text = path.read_text()
        count = text.count(old)
        if count != 1:
            sys.exit(f"{file}: the old text occurs {count} times, not once: {old!r}")
        path.write_text(text.replace(old, new))


def _tier1(checkout):
    """(outcome, seconds, first failing test) of the Tier-1 command with -x in checkout."""
    path = os.pathsep.join(filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-x"]
    start = time.monotonic()
    # a session of its own, so that a timeout also ends the solver's forked children
    child = subprocess.Popen(
        command,
        cwd=checkout,
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = child.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return "TIMEOUT", time.monotonic() - start, "-"
    seconds = time.monotonic() - start
    failed = [line for line in out.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    first = failed[0].split(" - ", 1)[0].split(" ", 1)[1] if failed else "-"
    return ("SURVIVED" if child.returncode == 0 else "KILLED"), seconds, first


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: python3 tools/mutants.py CHECKOUT OUT")
    source, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (source / "src" / "hermite_heat").is_dir() or not (source / "tests").is_dir():
        sys.exit(f"{source} is no checkout: it needs src/hermite_heat and tests")
    if out == source or source in out.parents:
        sys.exit("OUT must lie outside CHECKOUT")
    out.mkdir(parents=True, exist_ok=True)
    checkout = out / "checkout"
    _fresh_copy(source, checkout)
    outcome, seconds, first = _tier1(checkout)
    print(f"{'unmutated':45} {outcome.replace('SURVIVED', 'PASSED'):8} {seconds:6.1f} s  {first}", flush=True)
    if outcome != "SURVIVED":
        sys.exit("the unmutated checkout must pass Tier-1")
    for label, file, old, new, *equivalent in MUTANTS:
        _fresh_copy(source, checkout, (file, old, new))
        outcome, seconds, first = _tier1(checkout)
        note = f"  (equivalent: {equivalent[0]})" if equivalent else ""
        print(f"{label:45} {outcome:8} {seconds:6.1f} s  {first}{note}", flush=True)
    shutil.rmtree(checkout)


if __name__ == "__main__":
    main(sys.argv[1:])
