"""The public names of the package resolve.

Tools that walk ``__all__`` (such as a tracer wrapping every public
function) break on a name left behind by a removal, so each listed name
must exist, every name the package root re-exports must be a public name
of its module, and no module imports a name it neither reads nor lists.
"""

import ast
import importlib
from pathlib import Path

import pytest

import refsat

MODULES = ("bases", "assembly", "coefficients", "patches", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"refsat.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_every_module_level_import_is_used_or_listed(name):
    """A name imported at module level is read in the module or listed in
    its ``__all__``, so that no import outlives a removal."""
    module = importlib.import_module(f"refsat.{name}")
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - read - set(module.__all__)


def test_package_exports_are_public_names_of_their_modules():
    tree = ast.parse(Path(refsat.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(refsat, alias.name) is getattr(module, alias.name)


def test_cli_imports_only_public_names_of_the_upper_layers():
    """The command line is a client of the public ``coefficients`` and
    ``patches`` names: it imports no underscore name, and nothing from the
    layers beneath them, in any spelling of the import."""
    path = Path(refsat.__file__).with_name("cli.py")
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            parts = (node.module or "").split(".") + names
            assert not any(name.startswith("_") for name in names), names
        elif isinstance(node, ast.Import):
            parts = [part for alias in node.names for part in alias.name.split(".")]
        else:
            continue
        assert not {"assembly", "bases"} & set(parts), ast.unparse(node)


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_the_sparse_solvers(name):
    """The eigensolves run on numpy and ``scipy.linalg`` alone: no import,
    at any level of a module, names ``scipy.sparse``."""
    module = importlib.import_module(f"refsat.{name}")
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            spellings = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            spellings = [alias.name for alias in node.names]
        else:
            continue
        assert not any(spelling.startswith("scipy.sparse")
                       for spelling in spellings), ast.unparse(node)
