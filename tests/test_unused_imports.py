"""The package modules import nothing they do not use, except the bindings
that the benchmark's tracer (perfbench/tracing.py) patches, and no
function takes a parameter it never reads."""

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
