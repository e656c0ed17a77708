"""The package's modules import each other in one direction only.

Each module may import, at module level, only modules before it in
``LAYERS``, so the layers form no cycle and an import never has to be
deferred into a function body. Imports under ``if TYPE_CHECKING:`` run only
for type checkers and are exempt, as is ``__init__.py``, which re-exports
every layer.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import smirsim

LAYERS = (
    "errors", "tables", "infonet", "scenario", "contactnet", "abm", "meanfield", "svgplot", "cli",
)
PACKAGE = Path(smirsim.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def is_type_checking(node):
    return isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)


def module_level(body):
    """Statements run on import: the module body and its ifs and trys,
    but not function or class bodies and not ``if TYPE_CHECKING:``."""
    for node in body:
        if is_type_checking(node):
            continue
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            for block in ("body", "orelse", "finalbody"):
                yield from module_level(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                yield from module_level(handler.body)


def imported_modules(node):
    """Package modules a relative import names; ``__version__`` is no module."""
    if node.module is not None:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names if alias.name != "__version__"]


def test_every_module_has_a_layer():
    assert sorted(LAYERS) == MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_relative_import_inside_a_function(module):
    for func in ast.walk(tree(module)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = [n for n in ast.walk(func) if isinstance(n, ast.ImportFrom) and n.level]
            assert not nested, f"{module}.py:{nested[0].lineno} imports inside {func.name}"


@pytest.mark.parametrize("module", MODULES)
def test_imports_only_earlier_layers(module):
    allowed = set(LAYERS[: LAYERS.index(module)])
    for node in module_level(tree(module).body):
        if isinstance(node, ast.ImportFrom) and node.level:
            for name in imported_modules(node):
                assert name in allowed, f"{module}.py:{node.lineno} imports {name}, a later layer"


def benchmark_spans():
    """The spans perfbench/layers.py reports per-layer metrics from, read from
    its source without running it, plus ``abm.step``, which it also times."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    for node in ast.parse(source.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SPAN_TOTALS":
            return sorted({*ast.literal_eval(node.value).values(), "abm.step"})
    raise AssertionError(f"{source} defines no SPAN_TOTALS")


@pytest.mark.parametrize("span", benchmark_spans())
def test_benchmark_span_names_a_public_function(span):
    # The benchmark wraps these functions from outside; a renamed or private
    # one would silently drop its per-layer metric.
    layer, name = span.split(".")
    module = importlib.import_module(f"smirsim.{layer}")
    func = getattr(module, name, None)
    assert not name.startswith("_") and inspect.isfunction(func), span
    assert func.__module__ == module.__name__, f"{span} is defined in {func.__module__}"
