import importlib
import math
import pkgutil
import re
from pathlib import Path

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


def test_readme_library_example_runs(capsys):
    # The README's python example documents the RunTrace API; run it as written.
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    namespace = {}
    exec(example, namespace)
    first, second = capsys.readouterr().out.splitlines()
    iterations, terminated_by, width = first.split()
    trace = namespace["trace"]
    assert (int(iterations), terminated_by) == (len(trace), "tolerance")
    assert float(width) < 1e-10
    assert trace.records[-1].a <= math.pi / 2 <= trace.records[-1].b
    assert second == "expected per-step contraction: 0.6"
