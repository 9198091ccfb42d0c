"""Every module of the package parses under the oldest Python that pyproject.toml declares."""

import ast
import re
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "dpcount").glob("*.py"))


def declared_floor() -> tuple[int, int]:
    """(major, minor) of `requires-python = ">=X.Y"` in pyproject.toml."""
    spec = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["requires-python"]
    found = re.fullmatch(r">=\s*(\d+)\.(\d+)", spec)
    assert found, f"requires-python {spec!r} is not of the form >=X.Y"
    return int(found[1]), int(found[2])


def test_the_floor_is_read_and_the_modules_are_found():
    assert declared_floor()[0] == 3
    assert {"__init__.py", "gw.py", "lattice.py", "cusp.py", "cli.py", "verify.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=declared_floor())
