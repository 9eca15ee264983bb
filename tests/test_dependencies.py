"""The package depends on numpy, requests and the standard library alone."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dptext"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "requests", "dptext"}


def imported_roots(source: str):
    """The top-level module of every absolute import in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_imported_roots_sees_every_absolute_import():
    source = "import a.b, c\nfrom d.e import f\nfrom . import g\nif x:\n    import h\n"
    assert list(imported_roots(source)) == ["a", "c", "d", "h"]


def test_package_imports_only_stdlib_numpy_and_requests():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 10
    outside = {
        (path.name, root)
        for path in files
        for root in imported_roots(path.read_text(encoding="utf-8"))
        if root not in ALLOWED
    }
    assert outside == set()
