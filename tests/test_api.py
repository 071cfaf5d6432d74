"""Public names: every exported name resolves, and the package re-exports the
defining modules' own objects."""

import importlib
import pkgutil
import sys

import pytest

import caustics

SUBMODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(caustics.__path__) if not name.startswith("_")
)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"caustics.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_are_the_submodules_objects():
    for attr in caustics.__all__:
        assert hasattr(caustics, attr), attr
        if attr == "__version__":
            continue
        obj = getattr(caustics, attr)
        owner = sys.modules[obj.__module__]
        assert owner.__name__.startswith("caustics."), attr
        assert getattr(owner, attr) is obj, attr
        assert attr in getattr(owner, "__all__", (attr,)), f"{owner.__name__}.__all__: {attr}"
