import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import otflow

MODULES = sorted(
    f"otflow.{p.stem}" for p in Path(otflow.__file__).parent.glob("*.py")
    if not p.stem.startswith("__")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


# public names that no code in src/ calls, each kept for a reason
UNCALLED_PUBLIC = {
    "objective": "the public objective, the functional that acceptance check C03 differentiates",
    "gradient": "the public adjoint gradient, checked by C03 against finite differences",
    "true_velocity_series": "the velocity truth, which scoring the recovered flow will read",
}


def _module_definition(tree: ast.Module, name: str) -> ast.AST | None:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node
    return None


def test_every_public_name_has_a_caller_in_src():
    # a name in __all__ that only tests use is test code living in src/
    trees = {p: ast.parse(p.read_text()) for p in Path(otflow.__file__).parent.glob("*.py")}
    uncalled = set()
    for path, tree in trees.items():
        module = importlib.import_module(f"otflow.{path.stem}")
        for name in getattr(module, "__all__", ()):
            definition = _module_definition(tree, name)
            skip = {id(n) for n in ast.walk(definition)} if definition else set()
            if not any(
                id(node) not in skip
                and name in (getattr(node, "id", None), getattr(node, "attr", None))
                for other in trees.values()
                for node in ast.walk(other)
                if isinstance(node, (ast.Name, ast.Attribute))
            ):
                uncalled.add(name)
    assert uncalled == set(UNCALLED_PUBLIC)


def test_readme_layout_lists_every_module():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    assert sorted(re.findall(r"^\| `(otflow\.\w+)` \|", section, flags=re.M)) == MODULES


def test_readme_layout_names_resolve():
    # every backticked CamelCase name (or Name.attr) in a module's row is
    # defined in that module, so the layout cannot name a deleted class
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    missing, unresolved = object(), []
    for name, contents in re.findall(r"^\| `(otflow\.\w+)` \| (.*) \|$", section, flags=re.M):
        for token in re.findall(r"`([A-Z][a-z]\w*(?:\.\w+)?)`", contents):
            obj = importlib.import_module(name)
            for part in token.split("."):
                obj = getattr(obj, part, missing)
            if obj is missing:
                unresolved.append(f"{name}: {token}")
    assert unresolved == []


def test_cli_import_does_not_load_scipy():
    # scipy is imported where the deposit matrices are built, so `synth`,
    # `fpa` and every `--dry-run` start without paying for it
    src = str(Path(otflow.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import otflow.cli, sys; assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
