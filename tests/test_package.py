import importlib
import pkgutil

import pytest

import ssgauss

MODULES = ["ssgauss"] + [f"ssgauss.{m.name}" for m in pkgutil.iter_modules(ssgauss.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
