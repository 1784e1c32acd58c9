"""The layers import downward only.

The translator and the program generator sit below the analysis layer:
no module under relicforge/transpile/, and not relicforge/datagen.py,
imports relicforge.analysis. The COBOL front end is the bottom layer,
since every other layer reads the tree's shape from `cobol.nodes`: no
module under relicforge/cobol/ imports from relicforge outside
relicforge.cobol and relicforge.errors. Each module's imports are read
with `ast`, so the check sees what the module names, not what it happens
to load."""

import ast
import pathlib

import pytest

import relicforge

SRC = pathlib.Path(relicforge.__file__).parent
MODULES = [*sorted((SRC / "transpile").glob("*.py")), SRC / "datagen.py"]
COBOL_MODULES = sorted((SRC / "cobol").glob("*.py"))


def imported_names(path: pathlib.Path) -> set[str]:
    """Every module, and every name taken from a module, that `path` imports,
    relative imports resolved against its package."""
    package = ".".join(path.relative_to(SRC.parent).with_suffix("").parts[:-1])
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_does_not_import_analysis(path):
    analysis = {
        name for name in imported_names(path)
        if name == "relicforge.analysis" or name.startswith("relicforge.analysis.")
    }
    assert not analysis, f"{path.name} imports {sorted(analysis)}"


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


@pytest.mark.parametrize("path", COBOL_MODULES, ids=lambda p: p.name)
def test_cobol_module_imports_only_cobol_and_errors(path):
    outside = {
        name for name in imported_names(path)
        if _within(name, "relicforge")
        and not _within(name, "relicforge.cobol")
        and not _within(name, "relicforge.errors")
    }
    assert not outside, f"{path.name} imports {sorted(outside)}"

