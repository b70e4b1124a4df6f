"""Every public name a module declares in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import pseudoexp

MODULES = ["pseudoexp"] + [f"pseudoexp.{m.name}" for m in pkgutil.iter_modules(pseudoexp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
