"""What a call of the package runs off its calling thread.

A public function of the package may be wrapped by a span tracer whose state
is not thread-safe, and a law's `quadrature` memo changes on a miss, so a
worker thread that the package starts may run numpy and private helpers only.
"""

import importlib
import inspect
import pkgutil
import threading

import stochbisect


def public_code() -> set:
    """Code of every public function and public class method in the package."""
    codes = set()
    for info in pkgutil.iter_modules(stochbisect.__path__):
        module = importlib.import_module(f"stochbisect.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            members = [value]
            if inspect.isclass(value):
                members = [m for n, m in vars(value).items() if not n.startswith("_")]
            for member in members:
                member = getattr(member, "fget", getattr(member, "__func__", member))
                if inspect.isfunction(member):
                    codes.add(member.__code__)
    return codes


def codes_called_off_thread(call, *args) -> list:
    """The code objects that `call(*args)` calls on threads other than the caller's."""
    caller = threading.get_ident()
    seen = []

    def profile(frame, event, arg):
        if event == "call" and threading.get_ident() != caller:
            seen.append(frame.f_code)

    threading.setprofile(profile)
    try:
        call(*args)
    finally:
        threading.setprofile(None)
    return seen
