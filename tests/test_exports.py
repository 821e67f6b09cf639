import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dominance_lab

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(dominance_lab.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"dominance_lab.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(dominance_lab.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, "the package imports only from its own modules"
        listed = importlib.import_module(f"dominance_lab.{node.module}").__all__
        unlisted = [alias.name for alias in node.names if alias.name not in listed]
        assert not unlisted, f"{node.module} does not list {unlisted} in __all__"
