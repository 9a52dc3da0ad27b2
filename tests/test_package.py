import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ssgauss

MODULES = ["ssgauss"] + [f"ssgauss.{m.name}" for m in pkgutil.iter_modules(ssgauss.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_readme_python_api_names_every_public_name():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("## Python API")
    section = readme[start:readme.find("\n## ", start + 1)]
    public = [*ssgauss.__all__, *importlib.import_module("ssgauss.analysis").__all__]
    missing = [name for name in public
               if name != "__version__" and not re.search(rf"\b{name}\b", section)]
    assert missing == []
