"""The public surface: what the packages export and what callers import.

Every name a package lists in ``__all__`` must resolve, and be listed once.
Every ``from repro... import ...`` in the examples, the benchmarks and the
``repro`` package docstring must resolve too: the examples run only in CI,
so a deletion that breaks one of their imports would otherwise pass tier-1.
The imports are read with :mod:`ast`, so no example or benchmark runs here.
"""

from __future__ import annotations

import ast
import importlib
import textwrap
from pathlib import Path
from typing import List, Tuple

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = Path(repro.__file__).parent
PACKAGES = sorted(
    ".".join(("repro",) + init.parent.relative_to(PACKAGE_DIR).parts)
    for init in PACKAGE_DIR.rglob("__init__.py")
)
CALLERS = sorted(
    str(path.relative_to(ROOT))
    for pattern in ("examples/*.py", "benchmarks/**/*.py")
    for path in ROOT.glob(pattern)
)


def repro_imports(tree: ast.AST) -> List[Tuple[str, str]]:
    """``(module, name)`` for every absolute import from ``repro`` in
    ``tree``; a plain ``import repro.x`` gives ``(repro.x, "")``."""
    found: List[Tuple[str, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            module = node.module or ""
            if module == "repro" or module.startswith("repro."):
                found.extend((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, "")
                for alias in node.names
                if alias.name == "repro" or alias.name.startswith("repro.")
            )
    return found


def unresolved(imports: List[Tuple[str, str]]) -> List[str]:
    """The imports that do not resolve, as ``module:name``."""
    missing = []
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if not name or hasattr(module, name):
            continue
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            missing.append(f"{module_name}:{name}")
    return missing


def test_every_package_is_found() -> None:
    assert "repro" in PACKAGES and "repro.simulation" in PACKAGES
    assert len(PACKAGES) >= 9


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve_once(package: str) -> None:
    module = importlib.import_module(package)
    names = list(getattr(module, "__all__", []))
    assert names, f"{package} has no __all__"
    assert len(names) == len(set(names)), f"{package} lists a name twice"
    assert [name for name in names if not hasattr(module, name)] == []


def test_the_top_level_package_exports_the_quickstart_names() -> None:
    assert sorted(repro.__all__) == sorted(
        ["__version__", "JarvisConfig", "Stream", "make_setup", "run_single_source"]
    )


@pytest.mark.parametrize("path", CALLERS)
def test_caller_imports_resolve(path: str) -> None:
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    assert unresolved(repro_imports(tree)) == []


def test_package_docstring_imports_resolve() -> None:
    lines = [
        line
        for line in textwrap.dedent(repro.__doc__ or "").splitlines()
        if line.strip().startswith(("from repro", "import repro"))
    ]
    assert lines, "the package docstring shows no import"
    tree = ast.parse("\n".join(line.strip() for line in lines))
    assert unresolved(repro_imports(tree)) == []
