"""The package's public names, and every name the benchmark imports from
it, still exist: a deletion that would break `perfbench` fails here at
once rather than as an import error partway through a benchmark run."""

import ast
import importlib
from pathlib import Path

import maskpolicy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_all_names_resolve_once():
    assert len(maskpolicy.__all__) == len(set(maskpolicy.__all__))
    missing = [name for name in maskpolicy.__all__ if not hasattr(maskpolicy, name)]
    assert missing == []


def _benchmark_imports():
    """(module, name) for each `from maskpolicy... import name` and
    (module, None) for each `import maskpolicy...` in perfbench."""
    for path in sorted(PERFBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                if node.level or (node.module or "").split(".")[0] != "maskpolicy":
                    continue
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "maskpolicy":
                        yield path.name, alias.name, None


def test_benchmark_imports_exist():
    found = list(_benchmark_imports())
    assert any(name for _, _, name in found)
    missing = []
    for where, module, name in found:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{where}: {module}.{name}")
    assert missing == []
