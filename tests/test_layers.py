"""Imports inside ``liegen`` point one way: each module imports only the
package root and the modules above it in LAYERS, and only at module level."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "liegen"
LAYERS = ["__init__", "exact", "generators", "closure", "pingpong", "groups", "cli", "__main__"]


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_imports_sit_at_module_level_and_point_up(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(node in tree.body for node in imports), f"{name} imports inside a block"
    for node in imports:
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        # "from . import x" names a submodule x or a name of the package root
        targets = [node.module] if node.module else [
            a.name if a.name in LAYERS else "__init__" for a in node.names]
        for target in targets:
            assert LAYERS.index(target) < LAYERS.index(name), f"{name} imports {target}"


@pytest.mark.parametrize("name", LAYERS)
def test_no_module_imports_dataclasses_or_typing(name):
    """The CLI starts without them; CI checks the loaded modules in a fresh
    interpreter, which in-process tests cannot do."""
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        assert not {m.split(".")[0] for m in modules} & {"dataclasses", "typing"}, name


def test_the_package_root_only_holds_its_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert ast.get_docstring(tree)
    (version,) = tree.body[1:]
    assert isinstance(version, ast.Assign) and version.targets[0].id == "__version__"


def test_no_file_imports_a_library_name_from_the_package_root():
    root = PACKAGE.parents[1]
    for path in [p for d in ("src", "tests", "bench") for p in (root / d).rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "liegen" and not node.level:
                assert {a.name for a in node.names} <= set(LAYERS), path


def test_the_only_float_call_makes_the_approx_fields():
    """No float enters exact arithmetic: the one float(...) call in the package
    is in cli._approx, which makes the auxiliary "approx" fields."""
    def float_calls(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "float"]

    trees = {name: ast.parse((PACKAGE / f"{name}.py").read_text()) for name in LAYERS}
    assert {name: len(float_calls(tree)) for name, tree in trees.items()
            if float_calls(tree)} == {"cli": 1}
    (approx,) = [node for node in trees["cli"].body
                 if isinstance(node, ast.FunctionDef) and node.name == "_approx"]
    assert len(float_calls(approx)) == 1

