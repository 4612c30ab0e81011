"""Every demo script runs to the end against the current package."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(path):
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        runpy.run_path(str(path), run_name="__main__")
    assert output.getvalue()
