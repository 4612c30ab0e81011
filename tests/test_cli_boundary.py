"""The CLI's input boundary as a property: whatever the flags, main exits
0, 1 or 2; a failure prints one error: line and no traceback or warning,
and writes nothing to stdout or --output."""

import contextlib
import io
import math
import os
import tempfile
import warnings

from hypothesis import HealthCheck, assume, given, note, settings
from hypothesis import strategies as st

from hermite_heat import RunConfig, legendre_rule
from hermite_heat.cli import main

from conftest import EDGE_FLOATS

# Runs are kept cheap by construction: at most this many elements, and a
# drawn case whose step count is a whole number above _MAX_STEPS is
# refused rather than run.
_MAX_ELEMENTS = 256
_MAX_STEPS = 50

_NON_NUMBERS = ["", "x", "1e", "0x10", "1,5", "--", "one"]

# An unusual value of each flag, most of them invalid: for a number, an
# edge of its range, any value of its type, or no number at all.
_UNUSUAL = {
    "--n": st.sampled_from(["0", "-0", "-1", str(10**30), "1.5", "nan", "inf", *_NON_NUMBERS])
    | st.integers().map(str),
    "--count": st.sampled_from(["0", "-1", str(10**30), "2.5", "inf", *_NON_NUMBERS])
    | st.integers().map(str),
    "--rule": st.sampled_from(["gauss", "Legendre", "both", ""]),
    "--format": st.sampled_from(["json", "CSV", ""]),
    "--output": st.sampled_from(["dir", "missing", "under_a_file", "long_name"]),
}
for _flag in ("--dt", "--t-final", "--alpha"):
    _UNUSUAL[_flag] = st.one_of(
        st.sampled_from(EDGE_FLOATS).map(repr), st.floats().map(repr), st.sampled_from(_NON_NUMBERS)
    )

# Each --output that may be drawn, as a path under the case's directory:
# stdout, a new file, a directory, a file under a missing directory, a file
# under a regular file, and a name too long for the file system.
_OUTPUTS = {
    "-": None,
    "out.csv": "out.csv",
    "dir": ".",
    "missing": os.path.join("missing", "out.csv"),
    "under_a_file": os.path.join("plain", "out.csv"),
    "long_name": "x" * 300,
}


def _parsed(text, kind):
    try:
        return kind(text)
    except ValueError:
        return None


def _step_count(dt, t_final):
    """The step count that RunConfig gives dt and t_final, or None where it
    refuses them."""
    try:
        return RunConfig(dt=dt, t_final=t_final, n_elements=1, rule=legendre_rule()).n_steps
    except ValueError:
        return None


@st.composite
def _argv(draw):
    """A command line of solve or of either convergence sweep, whose flags
    take usual values but for at most two (_UNUSUAL), and the name of its
    --output (None where it has none).  Usual values are valid alone;
    together they may still fail, say on a step count that is not a whole
    number."""
    command = draw(st.sampled_from(["solve", "dt", "n"]))
    argv = ["solve"] if command == "solve" else ["convergence", "--sweep", command]
    optional = ["--alpha", "--rule", "--format", "--output"]
    required = ["--n", "--dt"] + (["--t-final"] if command == "solve" else ["--count"])
    unusual = draw(st.sets(st.sampled_from(required + optional + ["--t-final"]), max_size=2))

    def value(flag, usual):
        return draw(_UNUSUAL[flag] if flag in unusual else usual)

    values = {
        "--n": value("--n", st.sampled_from(["1", "2", "4", "16", "171", "200"])),
        "--dt": value("--dt", st.sampled_from([0.005, 0.01, 0.02, 0.1, 0.25, 1.0, 1e300]).map(repr)),
    }
    dt = _parsed(values["--dt"], float)
    steps = st.integers(0, _MAX_STEPS).map(lambda m: repr(m * dt))
    values["--t-final"] = value("--t-final", steps if dt is not None else st.just("1.0"))
    values["--count"] = value("--count", st.sampled_from(["1", "2", "3", "4"]))
    alphas = [5e-324, 1e-3, 0.5, 1.0, 3.0, 100.0, 1e150, 1e153, 1e154]
    values["--alpha"] = value("--alpha", st.sampled_from(alphas).map(repr))
    values["--rule"] = value("--rule", st.sampled_from(["legendre", "chebyshev"]))
    values["--format"] = value("--format", st.sampled_from(["csv", "pretty"]))
    values["--output"] = value("--output", st.sampled_from(["-", "out.csv"]))
    named = required + [flag for flag in optional if flag in unusual or draw(st.booleans())]
    if command != "solve" and ("--t-final" in unusual or draw(st.booleans())):
        named.append("--t-final")
    for flag in named:
        argv += [flag, values[flag]]
    output = values["--output"] if "--output" in named else None

    # refuse, rather than run, a case whose meshes or step count are too large
    n, count = _parsed(values["--n"], int), _parsed(values["--count"], int)
    t_final = _parsed(values["--t-final"] if "--t-final" in named else "1.0", float)
    if command == "solve":
        count = 1
    if n is not None and n >= 1 and count is not None and count >= 1:
        rows = count if command == "n" else 1  # N, 2N, 4N, ...
        assume(rows <= 9 and n << (rows - 1) <= _MAX_ELEMENTS)
    if dt is not None and t_final is not None and count is not None and count >= 1:
        finest = math.ldexp(dt, 1 - count) if command == "dt" else dt
        steps = _step_count(finest, t_final)
        assume(steps is None or steps <= _MAX_STEPS)
    return argv, output


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(_argv())
def test_every_command_line_exits_0_1_or_2_with_one_error_line(case):
    argv, output = list(case[0]), case[1]
    with tempfile.TemporaryDirectory() as directory:
        plain = os.path.join(directory, "plain")
        with open(plain, "w") as handle:
            handle.write("kept\n")
        if output is not None and _OUTPUTS[output] is not None:
            argv[argv.index("--output") + 1] = os.path.join(directory, _OUTPUTS[output])
        note(f"argv = {argv}")
        before = sorted(os.listdir(directory))
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        after = sorted(os.listdir(directory))
        with open(plain) as handle:
            kept = handle.read()
        written = os.path.join(directory, "out.csv")
        if os.path.isfile(written):
            with open(written) as handle:
                stdout.write(handle.read())
    err = stderr.getvalue()
    note(f"exit {code}, stderr {err!r}")
    assert code in (0, 1, 2)
    assert not caught, [str(warning.message) for warning in caught]
    assert "Traceback" not in err and "Warning" not in err
    assert kept == "kept\n"
    if code == 0:
        assert err == "" and stdout.getvalue() != ""
        assert "nan" not in stdout.getvalue().lower()
    else:
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert stdout.getvalue() == ""
        assert after == before
