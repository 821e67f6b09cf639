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


def test_readme_library_example_runs(capsys):
    readme = Path(__file__).resolve().parents[1].joinpath("README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[1] == "superset"


def test_every_bench_trace_target_exists():
    # bench/layers.py wraps each layer's entry point at the name its caller
    # looks up, and a target that a move or an inline drops silently loses
    # that layer's metrics.  Run from its source, so nothing is written
    # under bench/; a Tracer only resolves its targets until it runs.
    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    layers = {"__name__": "layers"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), layers)
    assert layers["Tracer"]().missing == []
