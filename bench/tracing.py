"""Observation for traced benchmark runs, from outside the library.

Two sources, both reached without editing the package:

* :class:`Tracer` wraps the public functions of each ``digraphsub``
  module (and a few named methods) and rebinds every module attribute
  that refers to them, so calls made by the benchmark and calls one
  module makes into another are both timed.  Each wrapped call is a
  span; a module's self time is the duration of its spans minus the
  part covered by nested spans.
* :class:`Probe` hands each op the public observation parameters:
  ``budget=`` (a per-phase counting ``SearchBudget`` when traced),
  ``log=`` and ``trace=``.  Untraced runs get plain budgets and no
  sinks, so the end-to-end numbers carry no instrumentation cost.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

from digraphsub.oracle import SearchBudget

PACKAGE = "digraphsub"
# Host builders run only in set-up, and the CLI is timed as a whole.
UNTRACED_MODULES = {"cli", "constructions", "synthetic"}
TRACED_METHODS = (("gadgets", "Chain", "vertex_set"),)


class Tracer:
    """Call counts, inclusive times and per-module self times."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.found: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list[list[float]] = []
        self._depth: Counter = Counter()

    def reset(self) -> None:
        """Forget everything recorded so far (set-up and warm-up calls)."""
        self.calls.clear()
        self.found.clear()
        self.inclusive.clear()
        self.self_s.clear()

    def install(self) -> None:
        """Wrap every traced function and rebind all references to it."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name.startswith(PACKAGE + ".")
        }
        wrappers = {}
        for name, mod in modules.items():
            layer = name.rpartition(".")[2]
            if layer in UNTRACED_MODULES:
                continue
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == name:
                    wrappers[fn] = self._wrap(layer, attr, fn)
        for mod in [sys.modules[PACKAGE], *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
        for layer, cls_name, method in TRACED_METHODS:
            cls = getattr(modules[f"{PACKAGE}.{layer}"], cls_name)
            setattr(cls, method, self._wrap(layer, f"{cls_name}.{method}", getattr(cls, method)))

    def _enter(self, key: str) -> list[float]:
        self._depth[key] += 1
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, key: str, layer: str, frame: list[float]) -> None:
        elapsed = time.perf_counter() - frame[0]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += elapsed
        self.self_s[layer] += elapsed - frame[1]
        self._depth[key] -= 1
        if not self._depth[key]:
            self.inclusive[key] += elapsed

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        calls, found = self.calls, self.found
        enter, leave = self._enter, self._exit

        if inspect.isgeneratorfunction(fn):
            # a generator's work happens inside next(), one span per item
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                calls[key] += 1
                inner = fn(*args, **kwargs)
                while True:
                    frame = enter(key)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave(key, layer, frame)
                    yield item

            return traced_generator

        # menger answers carry ``found``; count them for the found ratio
        track_found = layer == "menger"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            frame = enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(key, layer, frame)
            if track_found and getattr(result, "found", False):
                found[key] += 1
            return result

        return traced


class CountingBudget(SearchBudget):
    """``SearchBudget`` that also tallies every charge by layer and phase."""

    def __init__(self, max_nodes: int, layer: str, tally: Counter):
        super().__init__(max_nodes=max_nodes)
        self._layer = layer
        self._tally = tally

    def charge(self, amount: int = 1, **context) -> None:
        self._tally[self._layer, context.get("phase", "unphased")] += amount
        super().charge(amount, **context)


class Probe:
    """Hands out budgets and sinks for one run and totals what they saw."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.phases: Counter = Counter()
        self.events: Counter = Counter()
        self.k3e_steps = 0
        self._budgets: list[SearchBudget] = []

    def budget(self, layer: str, max_nodes: int) -> SearchBudget:
        if self.traced:
            made = CountingBudget(max_nodes, layer, self.phases)
        else:
            made = SearchBudget(max_nodes=max_nodes)
        self._budgets.append(made)
        return made

    def sink(self) -> list | None:
        """A list for ``log=`` or ``trace=`` when traced, else no sink."""
        return [] if self.traced else None

    def take_nodes(self) -> int:
        """Nodes consumed by the budgets handed out since the last call."""
        total = sum(b.consumed for b in self._budgets)
        self._budgets.clear()
        return total

    def count_closures(self, log: list | None) -> None:
        for event in log or ():
            if event.get("event") == "close":
                self.events["cab.close_via." + event["via"]] += 1

    def count_k3e_steps(self, trace: list | None) -> None:
        self.k3e_steps += len(trace or ())

    def reset(self) -> None:
        self.phases.clear()
        self.events.clear()
        self.k3e_steps = 0
        self._budgets.clear()
