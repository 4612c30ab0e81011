"""The package's top-level names are exactly the README's Public API list,
and the README's library quick start runs."""

import ast
import math
import re
from pathlib import Path

import hermite_heat

README = Path(__file__).resolve().parents[1] / "README.md"


def documented_names():
    section = README.read_text().split("## Public API", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"`(\w+)`", section[section.index("\n- ") :])


def quick_start_code():
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_all_matches_documented_public_api():
    names = documented_names()
    assert len(names) == len(set(names)) == 24
    assert sorted(hermite_heat.__all__) == sorted(names)
    for name in hermite_heat.__all__:
        assert getattr(hermite_heat, name) is not None


def test_readme_quick_start_runs(capsys):
    """The quick start prints the value at x = 0.5, near the exact
    exp(-pi**2 / 2), and the (L2, Linf) pair."""
    exec(compile(quick_start_code(), str(README), "exec"), {})
    value, norms = capsys.readouterr().out.splitlines()
    assert abs(float(value) - math.exp(-math.pi**2 / 2)) < 1e-4
    assert all(0.0 < error < 1e-4 for error in ast.literal_eval(norms))
