"""The package's public names, and every name the benchmark imports from
it, still exist: a deletion that would break `perfbench` fails here at
once rather than as an import error partway through a benchmark run.
And every public function of the autodiff core has a caller in the
package or the benchmark, the BiLSTM modules import nothing from it, and
the modules that train and score keep no process-wide state that a
call could switch for every thread: they have no `global` statement, and
no module of the package assigns to an attribute of a module or name it
imports. One function of the package parses JSON, so every JSON input
is refused in the same way."""

import ast
import importlib
import inspect
from pathlib import Path

import maskpolicy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


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


def _autodiff_calls():
    """Names of `maskpolicy.autodiff` functions called by name in another
    module of src/ or perfbench/ that imports them."""
    called = set()
    for path in sorted(SRC.rglob("*.py")) + sorted(PERFBENCH.rglob("*.py")):
        if path.name == "autodiff.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("autodiff")
            for alias in node.names
        }
        called.update(imported[node.func.id] for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id in imported)
    return called


def test_every_autodiff_function_has_a_caller():
    # An op that only tests call is dead weight on the tape: delete it.
    autodiff = importlib.import_module("maskpolicy.autodiff")
    public = {name for name, value in vars(autodiff).items()
              if inspect.isfunction(value) and value.__module__ == autodiff.__name__
              and not name.startswith("_")}
    assert sorted(public - _autodiff_calls()) == []


def test_lstm_layers_stay_off_the_tape():
    # the BiLSTM runs on plain arrays; forward_batch records it on the tape
    for name in ("lstm.py", "reverse_helper.py"):
        tree = ast.parse((SRC / "maskpolicy" / name).read_text(encoding="utf-8"))
        imported = [name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for name in (node.module or "", *(a.name for a in node.names))]
        imported += [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                     for a in node.names]
        assert not [m for m in imported if m.split(".")[-1] == "autodiff"], name


def _imported_names(tree):
    """The names an `import` or `from ... import` binds in a module."""
    return {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def test_training_and_scoring_modules_rebind_no_module_state():
    # whether a forward records, and where a layer's reverse direction runs,
    # are arguments of the call, never module-level switches: a `global`
    # statement, or an assignment to another module's attribute, would let
    # one thread's call change what another thread's call does
    for name in ("autodiff", "policy", "lstm", "training", "optim"):
        tree = ast.parse((SRC / "maskpolicy" / f"{name}.py").read_text(encoding="utf-8"))
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)], name
    rebound = []
    for path in sorted((SRC / "maskpolicy").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = _imported_names(tree)
        rebound += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id in imported]
    assert rebound == []


class _JsonParses(ast.NodeVisitor):
    """The innermost function around each `json.load`, `json.loads` or
    `json.JSONDecoder` of a module, "<module>" outside any function."""

    def __init__(self):
        self.found, self._inside = [], ["<module>"]

    def visit_FunctionDef(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    def visit_Attribute(self, node):
        if (isinstance(node.value, ast.Name) and node.value.id == "json"
                and node.attr in ("load", "loads", "JSONDecoder")):
            self.found.append(self._inside[-1])
        self.generic_visit(node)


def test_one_function_parses_json():
    # what counts as a bad JSON text, and how it is reported, is decided
    # in one place, for every JSON input the package reads
    parses = []
    for path in sorted((SRC / "maskpolicy").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "json"], path.name
        visitor = _JsonParses()
        visitor.visit(tree)
        parses += [f"{path.name}:{name}" for name in visitor.found]
    assert parses == ["corpus.py:parse_json_object"]
