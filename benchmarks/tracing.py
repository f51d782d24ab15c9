"""Outside-in span tracer for the twopath layers.

The tracer patches the package from outside; no program file changes.
Targets are found by module, not by a list of names, so a function that
a later change adds or deletes is picked up or dropped without editing
this file:

- every module-level function whose ``__module__`` is a layer module;
- every method (plus ``__init__``) of every class defined in a layer
  module, except enums, named tuples and exceptions.  This covers the
  qalgebra value-type constructors and the ``RandomStream`` methods.

Each target is patched in its defining namespace, and every other
``twopath`` module that bound the same object by ``from .x import f`` is
patched as well, so both call styles are traced.  Spans live in compact
in-memory arrays until the caller saves them.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

#: The package modules that do work, in the order results are reported.
#: ``tolerances`` only holds constants and is not a layer.
LAYERS = (
    "cli",
    "verify",
    "measurement",
    "rng",
    "uncertainty",
    "interferometer",
    "complementarity",
    "qalgebra",
)


def _is_value_type(cls: type) -> bool:
    return not issubclass(cls, (enum.Enum, tuple, BaseException))


def _shots_position(fn) -> int | None:
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index("shots") if "shots" in params else None


class Tracer:
    """Records one span per call into a traced layer function.

    A span holds the function id, the parent span, start and end in ns,
    and a work count: draws for ``rng`` methods (how far the stream's
    counter advanced) and the ``shots`` argument for functions that take
    one.  Work is counted only where a call enters a layer from another
    layer, so nested calls inside a layer are not counted twice.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[int] = []
        self._fid = array("q")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._work = array("q")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer target and rebind it wherever it is imported."""
        wrapped: dict[int, object] = {}
        for layer_index, layer in enumerate(LAYERS):
            module = importlib.import_module(f"twopath.{layer}")
            for obj in list(vars(module).values()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, layer_index)
                elif inspect.isclass(obj) and _is_value_type(obj):
                    self._wrap_class(obj, layer_index, counts_draws=layer == "rng")
        for name, module in list(sys.modules.items()):
            if name != "twopath" and not name.startswith("twopath."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(module, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_class(self, cls: type, layer_index: int, counts_draws: bool) -> None:
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr.startswith("__") and attr != "__init__":
                continue
            self._patch(cls, attr, self._wrap(obj, layer_index, cls.__qualname__, counts_draws))

    def _wrap(self, fn, layer_index: int, owner: str = "", counts_draws: bool = False):
        fid = len(self.names)
        module = fn.__module__.rpartition(".")[2]
        self.names.append(f"{module}.{owner + '.' if owner else ''}{fn.__name__}")
        self.layers.append(layer_index)
        fids, parents, starts = self._fid, self._parent, self._start
        ends, works, stack = self._end, self._work, self._stack
        clock = time.perf_counter_ns
        shots_at = None if counts_draws else _shots_position(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0)
            works.append(0)
            stack.append(i)
            before = getattr(args[0], "counter", None) if counts_draws else None
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                if before is not None:
                    works[i] = args[0].counter - before
                elif shots_at is not None:
                    shots = args[shots_at] if len(args) > shots_at else kwargs.get("shots", 0)
                    works[i] = int(shots)

        return traced

    # -- results ----------------------------------------------------------

    def clear(self) -> None:
        """Drop recorded spans; the patches stay in place."""
        for buf in (self._fid, self._parent, self._start, self._end, self._work):
            del buf[:]

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as int64 arrays (copies)."""
        return {
            "fid": np.array(self._fid, dtype=np.int64),
            "parent": np.array(self._parent, dtype=np.int64),
            "start_ns": np.array(self._start, dtype=np.int64),
            "end_ns": np.array(self._end, dtype=np.int64),
            "work": np.array(self._work, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array([LAYERS[i] for i in self.layers]),
            **self.spans(),
        )

    def totals(self) -> "Totals":
        """Per-function and per-layer totals of the recorded spans."""
        s = self.spans()
        n_funcs = len(self.names)
        fid, parent = s["fid"], s["parent"]
        dur = (s["end_ns"] - s["start_ns"]).astype(np.float64)
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(fid))
        self_ns = dur - child_ns
        layer_of = np.asarray(self.layers, dtype=np.int64)[fid]
        parent_layer = np.where(has_parent, layer_of[np.where(has_parent, parent, 0)], -1)
        entry = parent_layer != layer_of
        n_layers = len(LAYERS)
        return Totals(
            func_calls=np.bincount(fid, minlength=n_funcs),
            func_self_ns=np.bincount(fid, weights=self_ns, minlength=n_funcs),
            layer_calls=np.bincount(layer_of, minlength=n_layers),
            layer_self_ns=np.bincount(layer_of, weights=self_ns, minlength=n_layers),
            layer_entries=np.bincount(layer_of[entry], minlength=n_layers),
            layer_work=np.bincount(layer_of[entry], weights=s["work"][entry], minlength=n_layers),
        )


@dataclasses.dataclass(frozen=True)
class Totals:
    """Sums over a set of spans, per function id and per layer index;
    ``+`` pools two sets.  Times are in ns."""

    func_calls: np.ndarray
    func_self_ns: np.ndarray
    layer_calls: np.ndarray
    layer_self_ns: np.ndarray
    layer_entries: np.ndarray
    layer_work: np.ndarray

    def __add__(self, other: "Totals") -> "Totals":
        names = [f.name for f in dataclasses.fields(self)]
        return Totals(**{n: getattr(self, n) + getattr(other, n) for n in names})
