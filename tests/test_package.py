import importlib
import pkgutil

import pytest

import rfilab

MODULES = [rfilab.__name__] + [f"{rfilab.__name__}.{m.name}" for m in pkgutil.iter_modules(rfilab.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
