"""The package's top-level names are exactly the README's Public API list."""

import re
from pathlib import Path

import hermite_heat

README = Path(__file__).resolve().parents[1] / "README.md"


def documented_names():
    section = README.read_text().split("## Public API", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"`(\w+)`", section[section.index("\n- ") :])


def test_all_matches_documented_public_api():
    names = documented_names()
    assert len(names) == len(set(names)) == 24
    assert sorted(hermite_heat.__all__) == sorted(names)
    for name in hermite_heat.__all__:
        assert getattr(hermite_heat, name) is not None
