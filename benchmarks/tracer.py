"""Per-layer tracing from outside the package.

Wraps every public function defined in each gillum module and rebinds every
name that refers to it: the defining module's global, every
``from .x import y`` alias in the other gillum modules, and function values
held in module-level dicts (dispatch tables such as the CLI's renderers).
A missed alias would still run the untraced function, so the traced run
compares its emitted bytes with an untraced run of the same scenario.

Each wrapper counts calls and raised exceptions and accumulates self time:
its span minus the spans of the traced calls it made.  Spans are folded into
per-function totals as they close; nothing is kept per call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("states", "channels", "observables", "receivers", "chernoff",
          "figures", "emit", "cli")

_EDGE = 1e-5  # a Chernoff s* this close to 0 or 1 sits on the search edge


class Tracer:
    """Installable per-function call counters and self-time accumulators.

    ``calls``, ``self_s`` and ``errors`` map "layer.function" to totals since
    construction.  ``edge_hits`` counts qcb results at the s-range edge and
    ``emitted_bytes`` the UTF-8 size of every rendered figure.
    """

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.errors = {}
        self.edge_hits = 0
        self.emitted_bytes = 0
        self._stack = [0.0]
        self._wrappers = {}
        self._patches = []
        observers = {"chernoff.qcb": self._observe_qcb,
                     "emit.to_csv": self._observe_render,
                     "emit.to_json": self._observe_render,
                     "emit.to_svg": self._observe_render}
        for layer in LAYERS:
            module = importlib.import_module(f"gillum.{layer}")
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    key = f"{layer}.{name}"
                    self._wrappers[obj] = self._wrap(key, obj, observers.get(key))

    def _observe_qcb(self, result) -> None:
        if result.s_star < _EDGE or result.s_star > 1.0 - _EDGE:
            self.edge_hits += 1

    def _observe_render(self, text) -> None:
        self.emitted_bytes += len(text.encode("utf-8"))

    def _wrap(self, key, fn, observe):
        self.calls[key] = 0
        self.self_s[key] = 0.0
        self.errors[key] = 0
        calls, self_s, errors, stack = self.calls, self.self_s, self.errors, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[key] += 1
                raise
            finally:
                span = clock() - start
                children = stack.pop()
                stack[-1] += span
                calls[key] += 1
                self_s[key] += span - children
            if observe is not None:
                observe(result)
            return result

        return traced

    def __enter__(self):
        wrappers = self._wrappers
        for name, module in list(sys.modules.items()):
            if name != "gillum" and not name.startswith("gillum."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if key.startswith("__"):
                    continue
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((namespace, key, value))
                    namespace[key] = wrappers[value]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and v in wrappers:
                            self._patches.append((value, k, v))
                            value[k] = wrappers[v]
        return self

    def __exit__(self, *exc):
        while self._patches:
            container, key, original = self._patches.pop()
            container[key] = original
        return False

    def layer_totals(self, layer: str):
        """(calls, self seconds, errors) summed over the layer's functions."""
        prefix = layer + "."
        keys = [k for k in self.calls if k.startswith(prefix)]
        return (sum(self.calls[k] for k in keys), sum(self.self_s[k] for k in keys),
                sum(self.errors[k] for k in keys))
