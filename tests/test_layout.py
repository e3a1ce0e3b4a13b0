"""Package layout: which modules stay free of numpy, and the names perfbench wraps."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import cvqpv
from cvqpv import attack, bounds, channel, cli, gaussian, protocol, resources

NUMPY_FREE = ["channel.py", "attack.py", "gaussian.py", "resources.py", "bounds.py", "cli.py"]
PACKAGE = Path(cvqpv.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def imported_roots(path: Path) -> set:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_scalar_modules_import_no_numpy():
    for name in NUMPY_FREE:
        assert "numpy" not in imported_roots(PACKAGE / name), name


def test_scalar_modules_load_without_numpy():
    # a fresh interpreter: the package __init__ must not pull numpy in either
    code = ("import sys, cvqpv.gaussian, cvqpv.channel, cvqpv.resources, cvqpv.bounds; "
            "print('numpy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(cvqpv.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def unused_imports(path: Path) -> list:
    """Names bound by a top-level import of path that no expression reads."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_unused_imports():
    files = sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    unused = {path.name: names for path in files if (names := unused_imports(path))}
    assert not unused


def test_perfbench_tracer_finds_every_name():
    # perfbench/tracer.py wraps layers by attribute name: renaming or deleting one of
    # them (session_seeds, say) fails here, not only in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    cv = SimpleNamespace(attack=attack, bounds=bounds, channel=channel, cli=cli,
                         gaussian=gaussian, protocol=protocol, resources=resources)
    owners = [*vars(cv).values(), protocol.GaussianResponder, channel.ChannelParams]
    before = [dict(vars(owner)) for owner in owners]
    patcher = tracer.Patcher()
    try:
        tracer.install(tracer.Tracer(), patcher, cv)
    finally:
        patcher.restore()
    for owner, saved in zip(owners, before):
        restored = vars(owner)
        assert restored.keys() == saved.keys(), owner
        assert all(restored[name] is value for name, value in saved.items()), owner


def _is_cv(node) -> bool:
    """The namespace of cvqpv modules that perfbench's workloads hold: cv or self.cv."""
    return (isinstance(node, ast.Name) and node.id == "cv"
            or isinstance(node, ast.Attribute) and node.attr == "cv")


def perfbench_reads() -> set:
    """(module, name) pairs perfbench reads from cvqpv outside its tracer.

    These are the names of every ``from cvqpv... import`` in perfbench/*.py,
    and every ``cv.<module>.<name>`` read in perfbench/workloads.py.
    """
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cvqpv":
                reads.update((node.module, alias.name) for alias in node.names)
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and _is_cv(node.value.value)):
            reads.add((f"cvqpv.{node.value.attr}", node.attr))
    return reads


def test_perfbench_reads_only_names_that_exist():
    # the workloads and perfbench's self-test call these directly: deleting one
    # (bounds.condition_holds, say) fails here, not only in a benchmark run
    reads = perfbench_reads()
    assert {("cvqpv.bounds", "condition_holds"), ("cvqpv.protocol", "write_rounds_csv")} <= reads
    missing = sorted(f"{module}.{name}" for module, name in reads
                     if not hasattr(importlib.import_module(module), name))
    assert not missing


def test_cli_loads_orjson_only_to_write_a_trace(tmp_path):
    # a fresh interpreter: only simulate --trace --out formats with orjson
    code = ("import sys, cvqpv.cli as cli; loaded = ['orjson' in sys.modules]\n"
            "for argv in (['resources'], ['rounds'], ['sweep'], ['bounds', '--out', sys.argv[1]]):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    loaded.append('orjson' in sys.modules)\n"
            "print(loaded)")
    env = {**os.environ, "PYTHONPATH": str(Path(cvqpv.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "bounds")], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == str([False] * 5)
