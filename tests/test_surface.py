"""The public surface: every name a module lists in ``__all__`` exists, and
the package re-exports only names its modules export."""

import importlib
import pkgutil

import pytest

import kitwpa

MODULES = sorted(f"kitwpa.{m.name}"
                 for m in pkgutil.iter_modules(kitwpa.__path__))


def _star_names(module) -> list:
    """What ``from module import *`` binds: __all__, or the public names."""
    return getattr(module, "__all__",
                   [n for n in vars(module) if not n.startswith("_")])


@pytest.mark.parametrize("name", ["kitwpa", *MODULES])
def test_all_resolves_and_star_import_works(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)


def test_package_exports_only_listed_names():
    unlisted = []
    for attr, value in vars(kitwpa).items():
        home = getattr(value, "__module__", None)
        if attr.startswith("_") or home is None or home == "kitwpa":
            continue
        if attr not in _star_names(importlib.import_module(home)):
            unlisted.append(f"{home}.{attr}")
    assert not unlisted, f"kitwpa re-exports unexported names {unlisted}"
