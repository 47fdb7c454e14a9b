"""Every module in the package imports cleanly, exposes its __all__, and
uses every name it imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    # __main__ runs the CLI (and exits) on import, by design.
    if not name.endswith("__main__")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"


def test_package_version():
    assert repro.__version__


def test_public_api_surface():
    for symbol in (
        "compile_source",
        "run_program",
        "allocate_gra",
        "allocate_rap",
    ):
        assert hasattr(repro, symbol)


def _module_imports(body):
    """(name, line) bound by the module-level imports in ``body``,
    including those under a module-level ``if`` or ``try``."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            nested = node.body + node.orelse
            for handler in getattr(node, "handlers", ()):
                nested += handler.body
            yield from _module_imports(nested)


def _names_read(tree):
    """Every name the module uses, including those inside string
    annotations such as ``"CompileService"`` (an ``if TYPE_CHECKING``
    import in ``service/workers.py``)."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for leaf in ast.walk(annotation):
                if not (
                    isinstance(leaf, ast.Constant)
                    and isinstance(leaf.value, str)
                ):
                    continue
                try:
                    quoted = ast.parse(leaf.value, mode="eval")
                except SyntaxError:
                    continue
                read |= {
                    name.id
                    for name in ast.walk(quoted)
                    if isinstance(name, ast.Name)
                }
    return read


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return {
                leaf.value
                for leaf in ast.walk(node.value)
                if isinstance(leaf, ast.Constant)
            }
    return set()


PACKAGE_DIR = Path(repro.__file__).parent
#: Package ``__init__`` modules import to re-export, so only the
#: modules that do the work are checked.
SOURCE_FILES = sorted(
    path for path in PACKAGE_DIR.rglob("*.py") if path.name != "__init__.py"
)


@pytest.mark.parametrize(
    "path",
    SOURCE_FILES,
    ids=[str(path.relative_to(PACKAGE_DIR)) for path in SOURCE_FILES],
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _names_read(tree) | _exported(tree)
    unused = sorted(
        f"line {line}: {name}"
        for name, line in _module_imports(tree.body)
        if name not in used
    )
    assert not unused, f"imported but never used: {unused}"
