"""pyproject.toml declares exactly the third-party modules the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_declared_dependencies_are_the_imported_third_party_modules():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", requirement)[0].lower().replace("-", "_")
                for requirement in project["dependencies"]}
    imported = set().union(*map(imported_top_level_modules,
                                sorted((ROOT / "src" / "picardnet").glob("*.py"))))
    third_party = imported - set(sys.stdlib_module_names) - {"picardnet"}
    assert third_party == declared == {"numpy", "scipy"}
