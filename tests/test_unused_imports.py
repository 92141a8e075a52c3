"""The package modules import nothing they do not use, except the bindings
that the benchmark's tracer (perfbench/tracing.py) patches."""

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


def test_only_the_tracer_bindings_are_unused():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found |= {(path.stem, name) for name in unused_imports(tree)}
    assert found == TRACER_BINDINGS
