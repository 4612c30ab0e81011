import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hermite_heat
from hermite_heat.cli import build_parser, main
from hermite_heat.experiments import TableResult
from hermite_heat.linalg import SingularMatrix

# the tree that holds the package under test, first on the child's path
_SOURCE = str(Path(hermite_heat.__file__).resolve().parents[1])


def run_cli(*args):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": _SOURCE + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-m", "hermite_heat.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def footer_value(stdout, key):
    for line in stdout.splitlines():
        if line.startswith(f"# {key},"):
            return float(line.split(",", 1)[1])
    raise KeyError(key)


def data_rows(stdout):
    lines = stdout.strip().splitlines()
    return [l for l in lines[1:] if not l.startswith("#")]


def test_solve_footer_reports_reference_accuracy():
    result = run_cli("solve", "--rule", "legendre", "--n", "16", "--dt", "0.01", "--t-final", "1")
    assert result.returncode == 0
    assert footer_value(result.stdout, "l2") == pytest.approx(7.1591e-7, rel=1e-2)
    rows = data_rows(result.stdout)
    assert len(rows) == 17  # all 17 nodes of a 16 element mesh
    assert result.stdout.splitlines()[0] == "x,numeric,exact,abs_error"


def test_solve_rejects_zero_elements():
    result = run_cli("solve", "--n", "0", "--dt", "0.01", "--t-final", "1")
    assert result.returncode == 2
    assert "--n" in result.stderr


@pytest.mark.parametrize(
    "flag, value, code, message",
    [
        ("--dt", "nan", 2, "--dt"),
        ("--dt", "inf", 2, "--dt"),
        ("--t-final", "nan", 2, "--t-final"),
        ("--t-final", "inf", 2, "--t-final"),
        ("--alpha", "nan", 2, "--alpha"),
        ("--alpha", "inf", 2, "--alpha"),
        ("--alpha", "1e200", 2, "--alpha"),  # alpha**2 overflows
        ("--t-final", "1e-12", 1, "step count"),  # dt = 1 gives zero steps
    ],
)
def test_solve_rejects_non_finite_flags_and_zero_steps(flag, value, code, message, capsys):
    flags = {"--n": "4", "--dt": "1", "--t-final": "1", "--alpha": "1", flag: value}
    argv = ["solve"] + [item for pair in flags.items() for item in pair]
    try:
        returned = main(argv)
    except SystemExit as exc:  # argparse usage errors
        returned = exc.code
    assert returned == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("n, t_final", [("4", "1"), ("200", "0.01")])
def test_solve_reports_nan_pivots(n, t_final, capsys):
    """alpha**2 / h**2 overflows to inf in L, whose factorization then holds
    NaN pivots (N = 4, banded), or whose element block is not finite (N =
    200, Fourier modes); they are reported, not stepped through."""
    assert main(["solve", "--n", n, "--dt", "0.01", "--t-final", t_final, "--alpha", "1e154"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert any(line.startswith("error:") and "singular" in line for line in captured.err.splitlines())


def test_solve_steps_a_stiff_mesh_above_the_stacking_line(capsys):
    """At alpha = 1e10, N = 171's symbol L(0) rounds to singular, though L
    is not; the mesh then steps through the banded LU of L, as a mesh below
    the kernel line does."""
    assert main(["solve", "--n", "171", "--dt", "0.01", "--t-final", "0.01", "--alpha", "1e10"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(data_rows(captured.out)) == 172


@pytest.mark.parametrize(
    "dt, count, code, message",
    [
        ("0.01", "1030", 1, "step count"),  # 2**1029 is no float; t_final / dt overflows
        ("1e-300", "100", 2, "--count"),  # the finest dt underflows to 0
    ],
)
def test_convergence_rejects_sweeps_beyond_the_float_range(dt, count, code, message, capsys):
    argv = ["convergence", "--sweep", "dt", "--n", "1", "--dt", dt, "--count", count]
    try:
        returned = main(argv)
    except SystemExit as exc:  # argparse usage errors
        returned = exc.code
    assert returned == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["solve", "--n", "4", "--dt", "5e-324", "--t-final", "5e-324"], 2, "--dt"),
        (["convergence", "--sweep", "dt", "--n", "4", "--dt", "1e-308", "--count", "3",
          "--t-final", "1e-308"], 2, "--count"),
        (["solve", "--n", "4", "--dt", "5e-324", "--t-final", "1"], 1, "step count"),
    ],
    ids=["solve", "convergence", "step_count"],
)
def test_a_dt_whose_reciprocal_overflows_is_refused_without_a_warning(argv, code, message, capsys):
    """1 / dt overflows at dt = 5e-324, and at 1e-308 / 4, the last dt of
    the sweep, while t_final / dt does not: each flag is refused before any
    work, with exit 2.  Where t_final / dt overflows too, the step count is
    reported, with exit 1.  Each prints one error: line, and numpy never
    warns of the overflow in H / dt (the suite turns a RuntimeWarning into
    an error)."""
    try:
        returned = main(argv)
    except SystemExit as exc:  # argparse usage errors
        returned = exc.code
    assert returned == code
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]
    assert captured.out == "" and "Warning" not in captured.err


@pytest.mark.parametrize(
    "n, t_final, alpha, code, message",
    [
        ("1", "0.005", "1e154", 1, "not finite after step 1"),  # inf in L and R, not in a pivot
        ("16", "0.005", "1e153", 1, "singular"),  # alpha**2 / h**2 finite, times B not
        ("1", "0", "1e154", 0, None),  # alpha**2 pi**2 overflows in the exact solution
    ],
)
def test_an_alpha_whose_scheme_overflows_is_reported_without_a_warning(
    n, t_final, alpha, code, message, capsys
):
    """Below the largest alpha with a finite square, alpha**2 / h**2 times
    B, or alpha**2 pi**2, can still overflow.  A scheme that holds inf is
    reported with exit 1 and one error: line, no traceback (the state that
    is not finite) and no warning (the product); a run with no steps
    prints its initial state, whose exact solution is sin(pi x), not NaN."""
    argv = ["solve", "--n", n, "--dt", "0.005", "--t-final", t_final, "--alpha", alpha]
    assert main(argv) == code
    captured = capsys.readouterr()
    if message is None:
        assert captured.err == "" and "nan" not in captured.out
        assert footer_value(captured.out, "l2") < 1e-14
    else:
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and message in captured.err


def test_solve_reports_non_integral_step_count():
    result = run_cli("solve", "--n", "4", "--dt", "0.3", "--t-final", "1")
    assert result.returncode == 1
    assert "step count" in result.stderr


def test_solve_output_is_deterministic(tmp_path):
    args = ("solve", "--n", "8", "--dt", "0.05", "--t-final", "0.5")
    first = run_cli(*args, "--output", str(tmp_path / "a.csv"))
    second = run_cli(*args, "--output", str(tmp_path / "b.csv"))
    assert first.returncode == second.returncode == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert b"\r" not in (tmp_path / "a.csv").read_bytes()


def test_output_that_cannot_be_opened_is_an_invalid_flag(tmp_path):
    """One error line and exit 2, not a traceback and the exit code of a
    numerical failure."""
    target = tmp_path / "missing" / "x.csv"
    result = run_cli("solve", "--n", "2", "--dt", "0.01", "--t-final", "0.01", "--output", str(target))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: cannot write --output: ")
    assert result.stderr.count("\n") == 1 and str(target) in result.stderr
    assert not target.parent.exists()


def test_output_that_cannot_be_opened_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    """A missing directory, a directory, an empty path, a name longer than
    the file system allows, a path under a regular file and a name ending
    in a separator as --output exit 2 before the table runs, with the
    system's own message.  The check does
    not open the path, so an existing file keeps its bytes when the run
    then fails."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("run_table called for an --output that cannot be written")

    monkeypatch.setattr("hermite_heat.cli.run_table", must_not_run)
    (tmp_path / "plain").write_bytes(b"kept\n")
    refused = [
        (tmp_path / "missing" / "x", "No such file or directory"),
        (tmp_path, "Is a directory"),
        ("", "No such file or directory"),
        (tmp_path / ("x" * 300), "File name too long"),
        (tmp_path / "plain" / "x.csv", "Not a directory"),
        (str(tmp_path / "plain") + os.sep, "Is a directory"),  # as open() says
    ]
    for target, message in refused:
        with pytest.raises(SystemExit) as info:
            main(["table", "--id", "3", "--output", str(target)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: cannot write --output: ")
        assert message in captured.err and str(target) in captured.err
    assert not (tmp_path / "missing").exists()
    assert (tmp_path / "plain").read_bytes() == b"kept\n"

    def singular(*args, **kwargs):
        raise SingularMatrix(1)

    monkeypatch.setattr("hermite_heat.cli.run_table", singular)
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"earlier table\n")
    assert main(["table", "--id", "3", "--output", str(kept)]) == 1
    assert kept.read_bytes() == b"earlier table\n"


def test_output_that_fails_on_writing_is_an_invalid_flag(capsys):
    """Where the system refuses --output only when the lines are written
    (here a full device), main still exits 2, through SystemExit, with one
    error: line."""
    with pytest.raises(SystemExit) as info:
        main(["solve", "--n", "2", "--dt", "0.01", "--t-final", "0.01", "--output", "/dev/full"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: cannot write --output: ") and "/dev/full" in captured.err


def test_output_dev_null_is_written(capsys):
    """/dev/null is no regular file, but writable: exit 0, nothing on stdout."""
    assert main(["solve", "--n", "2", "--dt", "0.01", "--t-final", "0.01", "--output", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_arrays_that_cannot_be_allocated_exit_1_with_one_line(monkeypatch, capsys):
    """A MemoryError from the run (a --n whose arrays do not fit) is one
    error: line and exit 1, not a traceback.  No large mesh is run: the
    run is replaced."""

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 4.47 GiB for an array")

    monkeypatch.setattr("hermite_heat.cli.run", out_of_memory)
    assert main(["solve", "--n", "100000000", "--dt", "0.01", "--t-final", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate 4.47 GiB for an array\n"

    def bare(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("hermite_heat.cli.run", bare)
    assert main(["solve", "--n", "4", "--dt", "0.01", "--t-final", "0"]) == 1
    assert capsys.readouterr() == ("", "error: MemoryError\n")


def test_an_oserror_of_the_computation_is_no_output_error(monkeypatch, capsys):
    """Only the write of --output is reported as cannot write --output."""

    def fails(*args, **kwargs):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr("hermite_heat.cli.run", fails)
    with pytest.raises(OSError):
        main(["solve", "--n", "4", "--dt", "0.01", "--t-final", "0"])
    assert "--output" not in capsys.readouterr().err


def test_a_failed_table_row_exits_1_with_one_line(monkeypatch, capsys):
    """A table whose row holds an error prints one error: line naming the
    rule, N, dt and the cause, and nothing of the table."""
    ok = TableResult(3, "legendre", 10, 1e-06, 0.1, 1e-12, 2e-12, None, None, None)
    failed = dataclasses.replace(
        ok, rule_kind="chebyshev", l2=math.nan, linf=math.nan, error=SingularMatrix(7)
    )
    monkeypatch.setattr("hermite_heat.cli.run_table", lambda *args, **kwargs: [ok, failed])
    for fmt in ("csv", "pretty"):
        assert main(["table", "--id", "3", "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: chebyshev N = 10, dt = 1e-06: matrix is singular at pivot 7\n"


def test_a_table_row_that_ran_out_of_memory_names_the_type(monkeypatch, capsys):
    """A bare MemoryError has no message: the row's error: line names its
    type, as main does for the command's own exception.  The other rows
    run on states of zeros, so nothing large is solved."""

    def first_row_out_of_memory(problem, configs):
        for index, cfg in enumerate(configs):
            yield index, MemoryError() if index == 0 else np.zeros(6 * cfg.n_elements + 2)

    monkeypatch.setattr("hermite_heat.experiments.run_batch", first_row_out_of_memory)
    assert main(["table", "--id", "1"]) == 1
    assert capsys.readouterr() == ("", "error: legendre N = 1000, dt = 0.01: MemoryError\n")


def test_table_coupled_refinement():
    result = run_cli("table", "--id", "4")
    assert result.returncode == 0
    rows = data_rows(result.stdout)
    assert len(rows) == 22  # 11 step sizes x 2 rules
    first = rows[0].split(",")
    assert first[0] == "4"
    assert first[1] == "legendre"
    assert float(first[6]) == pytest.approx(5.1578e-5, rel=1e-2)  # linf column
    chebyshev_first = rows[1].split(",")
    assert chebyshev_first[1] == "chebyshev"
    assert float(chebyshev_first[6]) == pytest.approx(5.1552e-5, rel=1e-2)


def test_table_temporal_refinement_row_counts():
    result = run_cli("table", "--id", "1")
    assert result.returncode == 0
    rows = data_rows(result.stdout)
    by_rule = {}
    for row in rows:
        by_rule.setdefault(row.split(",")[1], []).append(row)
    assert len(by_rule["legendre"]) == 3
    assert len(by_rule["chebyshev"]) == 3


def test_table_unknown_id_is_rejected():
    result = run_cli("table", "--id", "7")
    assert result.returncode == 2
    assert "--id" in result.stderr


def test_table_accepts_every_library_table_id():
    for table_id in (1, 2, 3, 4, 5):
        assert build_parser().parse_args(["table", "--id", str(table_id)]).id == table_id


def test_convergence_dt_sweep_orders():
    result = run_cli(
        "convergence", "--sweep", "dt", "--n", "1000", "--dt", "0.01",
        "--count", "3", "--t-final", "1",
    )
    assert result.returncode == 0
    rows = data_rows(result.stdout)
    assert len(rows) == 3
    assert rows[0].split(",")[3] == ""  # no order for the first row
    for row in rows[1:]:
        assert float(row.split(",")[3]) == pytest.approx(2.0, abs=0.05)


def test_convergence_n_sweep_hits_roundoff_floor():
    result = run_cli(
        "convergence", "--sweep", "n", "--n", "5", "--dt", "1e-06",
        "--count", "3", "--t-final", "1",
    )
    assert result.returncode == 0
    rows = data_rows(result.stdout)
    assert [row.split(",")[0] for row in rows] == ["5", "10", "20"]
    for row in rows:
        assert float(row.split(",")[1]) <= 1e-11


def test_convergence_n_sweep_orders_are_positive():
    """Orders are taken in the element width h, which halves as N doubles,
    so refining the mesh gives positive orders (l2 falls 300x, then 150x)."""
    result = run_cli(
        "convergence", "--sweep", "n", "--n", "1", "--dt", "1e-5",
        "--count", "3", "--t-final", "0.01",
    )
    assert result.returncode == 0
    rows = data_rows(result.stdout)
    assert [row.split(",")[0] for row in rows] == ["1", "2", "4"]
    for row in rows[1:]:
        assert 6.0 <= float(row.split(",")[3]) <= 9.0


def test_convergence_single_row_sweep():
    result = run_cli(
        "convergence", "--sweep", "dt", "--n", "16", "--dt", "0.1",
        "--count", "1", "--t-final", "0.5",
    )
    assert result.returncode == 0
    rows = data_rows(result.stdout)
    assert len(rows) == 1
    assert rows[0].endswith(",")  # empty order column


def test_pretty_format_smoke():
    result = run_cli(
        "solve", "--n", "8", "--dt", "0.1", "--t-final", "0.5", "--format", "pretty"
    )
    assert result.returncode == 0
    assert "L2" in result.stdout


# Per command: its arguments, its number of data rows, how many of its last
# columns hold no value in every row (Table 5 has no Chebyshev reference, a
# one-row sweep no order), and per format its header and number of footer lines.
_LAYOUTS = {
    "solve": (
        ["solve", "--n", "2", "--dt", "0.1", "--t-final", "0.2"],
        3,
        0,
        {
            "csv": ("x,numeric,exact,abs_error", 7),
            "pretty": ("           x        numeric          exact    abs_error", 2),
        },
    ),
    "table": (
        ["table", "--id", "5", "--rule", "chebyshev"],
        6,
        3,
        {
            "csv": ("table,rule,N,dt,t_final,l2,linf,ref_value,ref_norm,rel_dev", 0),
            "pretty": (
                "      rule     N        dt  t_final          l2        linf         ref  norm   rel_dev",
                0,
            ),
        },
    ),
    "convergence": (
        ["convergence", "--sweep", "dt", "--n", "2", "--dt", "0.1", "--count", "1", "--t-final", "0.2"],
        1,
        1,
        {
            "csv": ("param,l2,linf,order_l2", 0),
            "pretty": ("       param           l2         linf  order_l2", 0),
        },
    ),
}


@pytest.mark.parametrize("fmt", ["csv", "pretty"])
@pytest.mark.parametrize("command", sorted(_LAYOUTS))
def test_each_command_s_layout_in_both_formats(command, fmt, capsys):
    """The header line exactly; in every data line, a CSV field per column
    or, pretty, each cell right-aligned within its header's width and one
    space between columns; and an empty field (CSV) or - (pretty) for a
    missing value, and only there.  Layout only: no digit is checked."""
    argv, n_rows, n_missing, formats = _LAYOUTS[command]
    header, n_footer = formats[fmt]
    assert main([*argv, "--format", fmt]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + n_rows + n_footer
    if fmt == "csv":
        rows = [line.split(",") for line in lines[1 : 1 + n_rows]]
        assert all(len(cells) == header.count(",") + 1 for cells in rows)
        assert all(line.startswith("# ") for line in lines[1 + n_rows :])
    else:
        ends = [m.end() for m in re.finditer(r"\S+", header)]
        starts = [0] + [end + 1 for end in ends[:-1]]
        rows = []
        for line in lines[1 : 1 + n_rows]:
            assert len(line) == len(header) and all(line[end] == " " for end in ends[:-1]), line
            rows.append([line[start:end] for start, end in zip(starts, ends)])
            assert all(re.fullmatch(r" *\S+", cell) for cell in rows[-1]), line
    missing = "" if fmt == "csv" else "-"
    for cells in rows:
        values = [cell.strip() for cell in cells]
        cut = len(values) - n_missing
        assert values[cut:] == [missing] * n_missing and missing not in values[:cut], cells
