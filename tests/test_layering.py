"""Package structure, checked on the source AST.

* Import layering: ``repro.history``, ``repro.trend`` and
  ``repro.speed`` sit below ``repro.seeds``; shared plumbing they need
  (such as the shared-memory array export the worker pool uses) lives
  in ``repro.core``. Imports inside functions count too.
* No dead code: every module-level def under ``src/repro`` is used by
  the package, the benchmarks, the perf bench or the examples, except
  the few on :data:`UNCALLED_ALLOWLIST`. Reference code that only
  tests call lives in ``tests/oracles``.
* The third-party modules the package imports are exactly the runtime
  dependencies ``pyproject.toml`` declares.
"""

import ast
import re
import sys
from collections.abc import Iterable, Mapping
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
REPO_ROOT = Path(__file__).resolve().parents[1]
LOWER_LAYERS = ("history", "speed", "trend")

#: Directories whose code counts as a caller of the package.
CALLER_DIRS = ("benchmarks", "perfbench", "examples")

#: Module-level defs nothing in the system calls, kept on purpose.
UNCALLED_ALLOWLIST = {
    "roadnet/io.py::load_network": "library I/O: users load their own networks",
    "roadnet/io.py::save_network": "library I/O: the writer load_network reads",
    "roadnet/io.py::load_network_csv": "library I/O: GIS and spreadsheet exports",
    "roadnet/io.py::save_network_csv": "library I/O: the writer load_network_csv reads",
    "history/persistence.py::load_store": "library I/O: reload a fitted store",
    "history/persistence.py::save_store": "library I/O: the writer load_store reads",
    "history/persistence.py::load_graph": "library I/O: reload a mined graph",
    "history/persistence.py::save_graph": "library I/O: the writer load_graph reads",
    "history/persistence.py::load_field": "library I/O: reload a speed field",
    "history/persistence.py::save_field": "library I/O: the writer load_field reads",
    "baselines/base.py::SpeedBaseline": "the protocol every baseline implements",
    "history/fidelity.py::set_fidelity_service": "test seam: swap the process cache",
    "core/clock.py::use_clock": "test seam: swap the process clock",
}


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


def uncalled_defs(
    package: Path,
    callers: Iterable[Path] = (),
    allowlist: Mapping[str, str] | None = None,
) -> list[str]:
    """Module-level defs under ``package`` that nothing references.

    A def (function or class, public or private) is referenced when its
    name is loaded, or read as an attribute, anywhere in ``package`` or
    in the ``callers`` directories outside the def's own body. Names
    match by spelling alone, so a same-named use anywhere keeps a def.
    An import or an ``__all__`` entry is not a reference, so a def that
    an ``__init__.py`` only re-exports is reported; a call inside an
    ``__init__.py`` is one. Defs are keyed ``"<path under
    package>::<name>"``; an ``allowlist`` key that names no def, or a
    def that has since gained a reference, is reported as stale.
    """
    allowlist = allowlist or {}
    defs: dict[str, tuple[Path, int, int]] = {}
    uses: dict[str, list[tuple[Path, int]]] = {}
    scanned = [(path, True) for path in sorted(package.rglob("*.py"))]
    for root in callers:
        scanned += [(path, False) for path in sorted(root.rglob("*.py"))]
    for path, in_package in scanned:
        tree = ast.parse(path.read_text(), filename=str(path))
        if in_package:
            for node in tree.body:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    key = f"{path.relative_to(package).as_posix()}::{node.name}"
                    defs[key] = (path, node.lineno, node.end_lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                uses.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((path, node.lineno))

    def referenced(key: str) -> bool:
        path, first, last = defs[key]
        return any(
            where != path or not first <= line <= last
            for where, line in uses.get(key.split("::")[1], ())
        )

    problems = [
        f"uncalled: {key}"
        for key in sorted(defs)
        if key not in allowlist and not referenced(key)
    ]
    problems += [
        f"stale allowlist entry: {key}"
        for key in sorted(allowlist)
        if key not in defs or referenced(key)
    ]
    return problems


def test_no_uncalled_defs():
    callers = [REPO_ROOT / name for name in CALLER_DIRS]
    assert uncalled_defs(PACKAGE_ROOT, callers, UNCALLED_ALLOWLIST) == []


def test_uncalled_defs_scan_reports_dead_code(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from pkg.mod import called_by_init, exported\n"
        "DEFAULT = called_by_init()\n"
        '__all__ = ["exported"]\n'
    )
    (package / "mod.py").write_text(
        "def uncalled():\n"
        "    return 1\n"
        "\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "\n"
        "def exported():\n"
        "    return 2\n"
        "\n"
        "def called_by_init():\n"
        "    return 3\n"
        "\n"
        "class _Helper:\n"
        "    pass\n"
        "\n"
        "def kept():\n"
        "    return _Helper()\n"
        "\n"
        "def allowed():\n"
        "    return 4\n"
    )
    app = tmp_path / "app"
    app.mkdir()
    (app / "main.py").write_text("import pkg.mod\nprint(pkg.mod.kept())\n")
    allowlist = {
        "mod.py::allowed": "kept on purpose",
        "mod.py::kept": "stale: it has a caller",
        "mod.py::gone": "stale: no such def",
    }
    assert uncalled_defs(package, [app], allowlist) == [
        "uncalled: mod.py::exported",
        "uncalled: mod.py::recursive",
        "uncalled: mod.py::uncalled",
        "stale allowlist entry: mod.py::gone",
        "stale allowlist entry: mod.py::kept",
    ]


def declared_dependencies(pyproject: Path) -> set[str]:
    """Import names of ``[project] dependencies`` in ``pyproject``.

    Read with a regular expression rather than ``tomllib``, which
    Python 3.10 lacks; the array holds one quoted requirement per entry.
    """
    text = pyproject.read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[)", text, re.M | re.S)
    assert project, "pyproject.toml has no [project] table"
    array = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project.group(1), re.M | re.S)
    assert array, "[project] declares no dependencies array"
    return {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")
        for requirement in re.findall(r"[\"']([^\"']+)[\"']", array.group(1))
    }


def test_runtime_dependencies_match_imports():
    imported = {
        module.split(".")[0]
        for path in PACKAGE_ROOT.rglob("*.py")
        for module in imported_modules(path)
    }
    third_party = {
        name
        for name in imported
        if name not in sys.stdlib_module_names and name not in ("repro", "__future__")
    }
    assert third_party == declared_dependencies(REPO_ROOT / "pyproject.toml")
