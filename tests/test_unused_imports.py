"""The package modules import nothing they do not use, except the bindings
that the benchmark's tracer (perfbench/tracing.py) patches, no function
takes a parameter it never reads, only dataset.class_labels converts
labels and only dataset.float_matrix converts signal and atom matrices."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "itdl"

TRACER_BINDINGS = {
    ("itds", "code_ls"),
    ("itdu", "qmi_grad_codes"),
    ("info_measures", "pinv"),
}


def unused_imports(tree: ast.Module) -> set[str]:
    """Names an import binds that the module never loads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return bound - loaded - {"annotations"}


def unused_parameters(tree: ast.Module) -> set[str]:
    """function.parameter for each parameter that its function's body never loads."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            loaded = {
                n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            found |= {f"{node.name}.{p.arg}" for p in params if p.arg not in loaded}
    return found


MATRIX_NAMES = {"signals", "atoms", "dict_selected"}


def conversions(tree: ast.Module, names: set[str]) -> set[str]:
    """Each function that passes one of the names to np.asarray, np.array
    or np.ascontiguousarray, or calls ``<name>.astype``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
                    continue
                f = call.func
                args = call.args + [k.value for k in call.keywords]
                if (
                    isinstance(f.value, ast.Name)
                    and f.value.id == "np"
                    and f.attr in ("asarray", "array", "ascontiguousarray")
                    and any(isinstance(a, ast.Name) and a.id in names for a in args)
                ) or (
                    f.attr == "astype" and isinstance(f.value, ast.Name) and f.value.id in names
                ):
                    found.add(node.name)
    return found


def test_only_the_tracer_bindings_are_unused():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found |= {(path.stem, name) for name in unused_imports(tree)}
    assert found == TRACER_BINDINGS


def test_every_parameter_is_read():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {(path.stem, name) for name in unused_parameters(tree)}
    assert found == set()


def test_only_class_labels_converts_labels():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {(path.stem, name) for name in conversions(tree, {"labels"})}
    assert found == {("dataset", "class_labels")}


def test_only_float_matrix_converts_signals_and_atoms():
    # float_matrix itself converts a parameter named ``values``
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {(path.stem, name) for name in conversions(tree, MATRIX_NAMES)}
    assert found == set()


def test_the_label_check_sees_each_conversion():
    tree = ast.parse(
        "def a(labels):\n    return np.asarray(labels, dtype=np.int64)\n"
        "def b(labels):\n    return np.ascontiguousarray(x, dtype=labels)\n"
        "def c(labels):\n    return labels.astype(int)\n"
        "def d(labels):\n    return (labels == 1).astype(int), np.asarray(y)\n"
    )
    assert conversions(tree, {"labels"}) == {"a", "b", "c"}


def test_the_matrix_check_sees_each_conversion():
    tree = ast.parse(
        "def a(signals):\n    return np.asarray(signals, dtype=np.float64)\n"
        "def b(atoms):\n    return np.ascontiguousarray(atoms)\n"
        "def c(dict_selected):\n    return np.array(dict_selected, copy=True)\n"
        "def d(signals):\n    return signals.astype(float)\n"
        "def e(values):\n    return np.asarray(values), float_matrix(signals, 'signals')\n"
    )
    assert conversions(tree, MATRIX_NAMES) == {"a", "b", "c", "d"}
