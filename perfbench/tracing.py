"""Spans around calls into goodsign's modules, recorded from outside the package.

While a :class:`Tracer` is installed, every public function of every goodsign
module (and the ``__post_init__`` validators of its value classes) is replaced
by a wrapper in each namespace that holds it, including the names that one
module imported from another, such as ``goodsign.cli.min_rho``. Private
functions are wrapped only where another module imported them, such as
``goodsign.search._spectral_radius_inplace``, so the search loop's kernel
calls count as spectra. A call that
crosses into a layer records a span: id, parent span, op id, layer (the
defining module), name, start and end. Calls inside the layer the innermost
span is already in, such as ``round12`` recursing, pass straight through.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` puts the original
objects back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "conference",
    "graphs",
    "constructions",
    "partition",
    "spectra",
    "search",
    "fileio",
    "refdata",
    "reproduce",
    "cli",
)
VALUE_CLASSES = {"graphs": ("Graph", "SignedGraph"), "conference": ("ConferenceMatrix",), "partition": ("Partition",)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, op, layer, name, start, end]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op = -1

    def _wrap(self, fn, layer: str, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][3] == layer:
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1] if stack else -1, self.op, layer, name, 0.0, 0.0]
            spans.append(span)
            stack.append(span[0])
            span[5] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[6] = perf_counter()
                stack.pop()

        return traced

    def install(self, package) -> None:
        modules = [package] + [sys.modules[f"{package.__name__}.{m}"] for m in LAYERS]
        wrappers: dict[int, object] = {}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if layer not in LAYERS:
                    continue
                # A private function is a layer entry only where another module
                # imported it, as search imports spectra._spectral_radius_inplace.
                if name.startswith("_") and obj.__module__ == module.__name__:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, layer, obj.__name__)
                self._set(module, name, wrappers[id(obj)])
        for layer, classes in VALUE_CLASSES.items():
            module = sys.modules[f"{package.__name__}.{layer}"]
            for cls_name in classes:
                cls = getattr(module, cls_name)
                if "__post_init__" in vars(cls):
                    hook = vars(cls)["__post_init__"]
                    self._set(cls, "__post_init__", self._wrap(hook, layer, f"{cls_name}.__post_init__"))

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, dict]:
        """Per-layer self time and call count, and per-function (self, total, calls)."""
        child = defaultdict(float)
        for span in self.spans:
            if span[1] >= 0:
                child[span[1]] += span[6] - span[5]
        layer_self: dict[str, float] = defaultdict(float)
        layer_calls: dict[str, int] = defaultdict(int)
        functions: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for span in self.spans:
            total = span[6] - span[5]
            own = total - child[span[0]]
            layer_self[span[3]] += own
            layer_calls[span[3]] += 1
            entry = functions[f"{span[3]}.{span[4]}"]
            entry[0] += own
            entry[1] += total
            entry[2] += 1
        return dict(layer_self), dict(layer_calls), dict(functions)

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "layer", "name", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
