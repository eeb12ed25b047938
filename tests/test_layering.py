"""Import layering: the lower layers never depend on seed selection.

``repro.history``, ``repro.trend`` and ``repro.speed`` sit below
``repro.seeds``; shared plumbing they need (such as the shared-memory
array export both worker pools use) lives in ``repro.core``. Checked
on the source AST, so imports inside functions count too.
"""

import ast
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
LOWER_LAYERS = ("history", "speed", "trend")


def imported_modules(path: Path) -> list[str]:
    modules = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.append(node.module)
            modules.extend(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


@pytest.mark.parametrize("layer", LOWER_LAYERS)
def test_layer_does_not_import_seeds(layer):
    offenders = [
        f"{path.relative_to(PACKAGE_ROOT)}: {module}"
        for path in sorted((PACKAGE_ROOT / layer).rglob("*.py"))
        for module in imported_modules(path)
        if module == "repro.seeds" or module.startswith("repro.seeds.")
    ]
    assert not offenders, offenders


def test_src_does_not_import_tests():
    offenders = [
        f"{path.relative_to(PACKAGE_ROOT)}: {module}"
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        for module in imported_modules(path)
        if module == "tests" or module.startswith("tests.")
    ]
    assert not offenders, offenders
