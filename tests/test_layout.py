"""Package layout: which modules stay free of numpy, and what the package exports."""

import ast
from pathlib import Path

import cvqpv

NUMPY_FREE = ["channel.py", "attack.py", "gaussian.py", "resources.py"]


def imported_roots(path: Path) -> set:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_scalar_modules_import_no_numpy():
    package = Path(cvqpv.__file__).parent
    for name in NUMPY_FREE:
        assert "numpy" not in imported_roots(package / name), name


def test_all_names_resolve():
    for name in cvqpv.__all__:
        assert hasattr(cvqpv, name), name
