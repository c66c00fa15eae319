import ast
import inspect
import re
from pathlib import Path

import pytest

import polysmooth
from polysmooth import errors

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(polysmooth.__file__).parent
README = (ROOT / "README.md").read_text()


def test_every_public_name_resolves():
    missing = [name for name in polysmooth.__all__ if not hasattr(polysmooth, name)]
    assert not missing
    assert len(set(polysmooth.__all__)) == len(polysmooth.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from polysmooth import *", namespace)  # a name in __all__ that the package lacks raises here
    assert set(polysmooth.__all__) <= set(namespace)


def _references(node, outside=None):
    """Names read as an ``ast.Name`` or ``ast.Attribute`` under ``node``, except inside the def or class
    that defines the same name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        outside = node.name
    found = set()
    name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
    if name is not None and name != outside:
        found.add(name)
    for child in ast.iter_child_nodes(node):
        found |= _references(child, outside)
    return found


def _library_references(*skip):
    paths = [path for path in SRC.glob("*.py") if path.name not in skip]
    return set().union(*(_references(ast.parse(path.read_text())) for path in paths))


def test_every_public_name_has_a_user():
    # a user: library code outside __init__.py, the acceptance suite, or the README
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    used = _library_references("__init__.py") | _references(acceptance)
    unused = [name for name in polysmooth.__all__ if name not in used and not re.search(rf"\b{name}\b", README)]
    assert not unused


def test_every_error_class_is_used_outside_its_module():
    classes = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.PolysmoothError)}
    unused = classes - _library_references("errors.py", "__init__.py")
    assert not unused


PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_readme_python_runs(block):
    exec(compile(block, "README.md", "exec"), {})
