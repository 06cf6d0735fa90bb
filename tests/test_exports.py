import importlib
import pkgutil

import pytest

import stochbisect

MODULES = sorted(info.name for info in pkgutil.iter_modules(stochbisect.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist(name):
    module = importlib.import_module(f"stochbisect.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_exist():
    assert [attr for attr in stochbisect.__all__ if not hasattr(stochbisect, attr)] == []
