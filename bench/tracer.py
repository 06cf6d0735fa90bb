"""Binding-aware span tracer for the traced benchmark run.

The package imports several functions by name (`experiments` binds
`bisection_run`, `population_step`, `hn_mean_var`, ...; the package root
re-exports them), so wrapping only the defining module would miss most
calls. `Tracer.install` wraps every public function of each module and
replaces every module-level binding that refers to it, and wraps each
`Distribution` subclass's own public methods, so the lookup each caller
actually performs reaches the wrapper. `uninstall` restores the originals.

Spans are aggregated in memory by name (`<module>.<function>`; the
`Distribution` methods aggregate over subclasses as `distributions.<m>`):
call count, inclusive time and self time, where self time is the span's
duration minus that of its traced children. Work counts are recorded at the
same boundaries, and an exception leaving a module's public function for a
caller outside that module counts once in `<module>.errors`.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter_ns

PACKAGE = "stochbisect"
MODULES = ("distributions", "engine", "theory", "markov", "stats",
           "experiments", "cli", "seeding")

# Private helper traced for its cut accounting: vectorized steppers draw
# their cuts through it.
_EXTRA = {"engine": ("_draw_cuts",)}

_CUT_SAMPLERS = ("engine.draw_cut", "engine._draw_cuts")
_STEPPERS = ("engine.bisection_run", "engine.multisection_step",
             "engine.population_step", "engine.multisection_population_step")


def _size(size) -> int:
    if size is None:
        return 1
    if isinstance(size, int):
        return size
    n = 1
    for dim in size:
        n *= int(dim)
    return n


class Tracer:
    """Aggregated spans and work counts for the `stochbisect` modules."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.inclusive_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: list[list] = []  # [child_ns, name, module] per open span
        self._patches: list[tuple[object, str, object]] = []
        self._counters = self._work_counters()

    def reset(self) -> None:
        for counter in (self.calls, self.inclusive_ns, self.self_ns,
                        self.counts, self.errors):
            counter.clear()

    # -- work counts -----------------------------------------------------

    def _work_counters(self) -> dict:
        counts = self.counts

        def sample(args, kwargs, result, parent):
            draws = _size(args[2] if len(args) > 2 else kwargs.get("size"))
            counts["distributions.sample.draws"] += draws
            if parent in _CUT_SAMPLERS:
                counts["engine.cuts_sampled"] += draws

        def pdf(args, kwargs, result, parent):
            counts["distributions.pdf.points"] += int(getattr(args[1], "size", 1))

        def quadrature(args, kwargs, result, parent):
            counts["distributions.quadrature.nodes"] += int(result[0].size)

        def bisection_run(args, kwargs, result, parent):
            counts["engine.steps"] += len(result)

        def multisection_step(args, kwargs, result, parent):
            counts["engine.steps"] += 1

        def population(args, kwargs, result, parent):
            counts["engine.steps"] += int(result[0].size)

        def draw_cut(args, kwargs, result, parent):
            counts["engine.cuts_accepted"] += 1

        def draw_cuts(args, kwargs, result, parent):
            counts["engine.cuts_accepted"] += int(result.size)

        def report(args, kwargs, result, parent):
            counts["experiments.report_bytes"] += len(result)

        return {
            "distributions.sample": sample,
            "distributions.pdf": pdf,
            "distributions.quadrature": quadrature,
            "engine.bisection_run": bisection_run,
            "engine.multisection_step": multisection_step,
            "engine.population_step": population,
            "engine.multisection_population_step": population,
            "engine.draw_cut": draw_cut,
            "engine._draw_cuts": draw_cuts,
            "experiments.report_to_csv": report,
            "experiments.report_to_json": report,
        }

    def _bootstrap_counter(self, fn):
        signature = inspect.signature(fn)
        counts = self.counts

        def resampled(args, kwargs, result, parent):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            n = len(bound.arguments["samples"])
            counts["stats.bootstrap_mean_ci.resampled"] += n * bound.arguments["resamples"]

        return resampled

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, module: str, fn):
        tracer = self
        stack = self._stack
        counter = self._counters.get(name)
        if name == "stats.bootstrap_mean_ci":
            counter = self._bootstrap_counter(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0, name, module]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[2] != module:
                    tracer.errors[module] += 1
                raise
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                tracer.calls[name] += 1
                tracer.inclusive_ns[name] += elapsed
                tracer.self_ns[name] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
            if counter is not None:
                counter(args, kwargs, result, parent[1] if parent else None)
            return result

        return traced

    def _module(self, short: str):
        return sys.modules[f"{PACKAGE}.{short}"]

    def _targets(self) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, wrapper) for every traced function."""
        targets = {}
        for short in MODULES:
            mod = self._module(short)
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")]
            for attr in (*names, *_EXTRA.get(short, ())):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[id(fn)] = (fn, self._wrap(f"{short}.{attr}", short, fn))
        return targets

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    self._patch(mod, attr, targets[id(value)][1])
        base = self._module("distributions").Distribution
        classes = [base]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        for cls in classes:
            for attr, value in list(vars(cls).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or getattr(value, "__isabstractmethod__", False)):
                    continue
                self._patch(cls, attr,
                            self._wrap(f"distributions.{attr}", "distributions", value))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def module_self_seconds(self, module: str) -> float:
        prefix = module + "."
        return sum(ns for name, ns in self.self_ns.items()
                   if name.startswith(prefix)) / 1e9

    def stepper_seconds(self) -> float:
        """Inclusive time of the step rules, for the per-step cost."""
        return sum(self.inclusive_ns[name] for name in _STEPPERS) / 1e9
