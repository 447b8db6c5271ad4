"""The tree needs nothing outside the standard library: every import in the
package and its tests names a standard-library module, the package itself,
pytest, hypothesis or a module of the tests."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = set(sys.stdlib_module_names) | {"tracefuzz", "pytest", "hypothesis"}
ALLOWED |= {path.stem for path in (ROOT / "tests").glob("*.py")}


def imported_packages(path: Path) -> set[str]:
    """The top-level package of every absolute import in a module, at any depth of its body."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.partition(".")[0] for name in names}


def test_every_import_is_the_standard_library_the_package_or_the_test_tools():
    modules = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(modules) > 40
    outside = {str(path.relative_to(ROOT)): sorted(imported_packages(path) - ALLOWED) for path in modules}
    assert {path: names for path, names in outside.items() if names} == {}
