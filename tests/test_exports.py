import importlib
import math
import os
import pkgutil
import re
import subprocess
import sys
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


# Imports every stochbisect module in a fresh interpreter and prints the
# top-level names it added outside the standard library. The diff against the
# start-up modules leaves out what site hooks preload.
_THIRD_PARTY_PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import stochbisect
for info in pkgutil.iter_modules(stochbisect.__path__):
    importlib.import_module(f"stochbisect.{info.name}")
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(added - set(sys.stdlib_module_names))))
"""


def test_runtime_needs_numpy_alone():
    # pyproject.toml declares numpy as the one runtime dependency.
    src = Path(__file__).parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", _THIRD_PARTY_PROBE], check=True,
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert set(result.stdout.split()) == {"numpy", "stochbisect"}


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
