import subprocess
import sys

import pytest

from hermite_heat.cli import build_parser, main


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hermite_heat.cli", *args],
        capture_output=True,
        text=True,
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


def test_solve_reports_nan_pivots(capsys):
    """alpha**2 / h**2 overflows to inf in L, whose factorization then holds
    NaN pivots; they are reported, not stepped through."""
    assert main(["solve", "--n", "4", "--dt", "0.01", "--t-final", "1", "--alpha", "1e154"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert any(line.startswith("error:") for line in captured.err.splitlines())


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
