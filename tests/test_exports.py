"""The public surface holds only what the pipeline uses.

A name in `hocdvs.__all__` must be loaded or imported by a package module
other than `__init__.py`, outside its own definition, or by the
acceptance checks. A helper that only unit tests call is not exported.
Each name is declared once, in the `__all__` of the module that defines
it, and the package re-exports those lists.
"""

import ast
from pathlib import Path

import hocdvs

PACKAGE_DIR = Path(hocdvs.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"


def _used_names(node: ast.AST) -> set[str]:
    """Names loaded, attributes read and names imported anywhere in node."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def _pipeline_names() -> set[str]:
    """Names the package modules use, each top-level def or class not
    counting a use of its own name."""
    used = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)
            used |= _used_names(stmt) - {own}
    return used


def test_every_export_is_used_by_the_pipeline_or_an_acceptance_check():
    acceptance = _used_names(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    unused = sorted(set(hocdvs.__all__) - _pipeline_names() - acceptance)
    assert unused == []


def test_all_has_no_duplicates():
    assert len(hocdvs.__all__) == len(set(hocdvs.__all__))


def test_every_export_resolves_on_the_package():
    missing = [name for name in hocdvs.__all__ if not hasattr(hocdvs, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from hocdvs import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(hocdvs.__all__)


def test_each_export_is_declared_in_its_defining_module():
    """Each name sits in the `__all__` of exactly one layer module, and that
    module holds the object the package exports (functions and classes are
    also defined there)."""
    for name in hocdvs.__all__:
        owners = [module for module in (hocdvs.detect, hocdvs.io_formats, hocdvs.stats,
                                        hocdvs.synth) if name in module.__all__]
        assert len(owners) == 1, name
        obj = getattr(hocdvs, name)
        assert getattr(owners[0], name) is obj
        assert getattr(obj, "__module__", owners[0].__name__) == owners[0].__name__, name
