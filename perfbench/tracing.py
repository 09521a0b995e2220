"""Span tracing from outside the program.

The benchmark never edits ``src/``: it times a layer by replacing the
layer's entry point (a module function or a class method) with a thin
wrapper for the length of one traced run, then puts the original back.
Spans are kept in memory as parallel lists and written out at the end.

A span's *self time* is its duration minus the durations of the spans
directly beneath it.  Every wrapped entry point is synchronous except
the outermost coroutine of the net workload, and the event loop runs
one callback at a time, so spans nest strictly and the self times of
all spans of one run add up to the root span's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = ["Tracer", "LayerSpec", "Installed", "install", "summarize", "write_spans"]


class Tracer:
    """In-memory span store: (name, start, end, parent, run id, window)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self.window: list[int] = []
        #: Work units per span name (jobs, bytes, frames, ...), summed.
        self.units: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []
        self.run_id = 0
        self.current_window = -1

    def _intern(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name: str, window: int | None = None) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.window.append(self.current_window if window is None else int(window))
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(
                f"span {self.names[self.name_id[idx]]!r} closed out of order"
            )

    def add_units(self, name: str, values: dict[str, float]) -> None:
        acc = self.units.setdefault(name, {})
        for k, v in values.items():
            acc[k] = acc.get(k, 0.0) + float(v)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "run": np.asarray(self.run, dtype=np.int32),
            "window": np.asarray(self.window, dtype=np.int64),
        }


@dataclass(frozen=True)
class LayerSpec:
    """One entry point to wrap.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``.
    ``units(args, kwargs, result)`` returns work counts to add to the
    span name; ``window(args)`` names the control window a call serves.
    ``sets_window`` makes each call advance the tracer's window counter,
    so spans beneath it are tagged with it.
    """

    target: str
    span: str
    units: Callable | None = None
    window: Callable | None = None
    sets_window: bool = False


def _wrap(tracer: Tracer, spec: LayerSpec, fn):
    name = spec.span

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def awrapper(*args, **kwargs):
            i = tracer.begin(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.finish(i)

        return awrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if spec.sets_window:
            tracer.current_window += 1
        i = tracer.begin(name, spec.window(args) if spec.window else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(i)
        if spec.units is not None:
            tracer.add_units(name, spec.units(args, kwargs, result))
        return result

    return wrapper


class Installed:
    """The wrappers of one traced run; :meth:`restore` undoes them all."""

    def __init__(self) -> None:
        #: (owner, attribute, original, owned) — ``owned`` is False when
        #: the attribute was inherited and must be deleted, not reset.
        self.patches: list[tuple[object, str, object, bool]] = []

    def restore(self) -> None:
        for owner, attr, original, owned in reversed(self.patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self.patches.clear()


def _resolve(target: str):
    module_name, _, qual = target.partition(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def install(tracer: Tracer, specs) -> Installed:
    """Wrap every entry point in *specs*; returns the handle to undo it.

    A module function is replaced in every loaded ``repro`` module that
    holds it (``from x import f`` copies the binding), so callers see
    the wrapper whichever name they call it by.
    """
    installed = Installed()
    try:
        for spec in specs:
            _, owner, attr = _resolve(spec.target)
            if inspect.isclass(owner):
                owned = attr in vars(owner)
                original = vars(owner)[attr] if owned else getattr(owner, attr)
                if isinstance(original, (staticmethod, classmethod)):
                    raise TypeError(f"{spec.target}: only plain methods are wrapped")
                setattr(owner, attr, _wrap(tracer, spec, original))
                installed.patches.append((owner, attr, original, owned))
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(tracer, spec, original)
            holders = [
                m for name, m in list(sys.modules.items())
                if m is not None and (name == "repro" or name.startswith("repro."))
            ]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        installed.patches.append((holder, name, original, True))
    except BaseException:
        installed.restore()
        raise
    return installed


@dataclass
class SpanSummary:
    """Per-span-name totals of one traced run."""

    names: list[str]
    self_s: dict[str, float]
    total_s: dict[str, float]
    calls: dict[str, int]
    durations: dict[str, np.ndarray]
    runs: dict[str, np.ndarray]
    units: dict[str, dict[str, float]]
    min_self_s: float

    def self_of(self, *names: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def calls_of(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def unit(self, name: str, key: str) -> float:
        return self.units.get(name, {}).get(key, 0.0)

    def durations_in(self, name: str, run: int) -> np.ndarray:
        """Durations of the *name* spans recorded under run id *run*."""
        if name not in self.durations:
            return np.empty(0)
        return self.durations[name][self.runs[name] == run]


def summarize(tracer: Tracer) -> SpanSummary:
    """Self time, total time and call count per span name."""
    a = tracer.arrays()
    if np.isnan(a["end"]).any():
        raise RuntimeError("a span was never closed")
    dur = a["end"] - a["start"]
    n = dur.size
    child = a["parent"] >= 0
    child_sum = np.bincount(a["parent"][child], weights=dur[child], minlength=n)
    own = dur - child_sum
    k = len(tracer.names)
    self_tot = np.bincount(a["name_id"], weights=own, minlength=k)
    total = np.bincount(a["name_id"], weights=dur, minlength=k)
    calls = np.bincount(a["name_id"], minlength=k)
    return SpanSummary(
        names=list(tracer.names),
        self_s={nm: float(self_tot[i]) for i, nm in enumerate(tracer.names)},
        total_s={nm: float(total[i]) for i, nm in enumerate(tracer.names)},
        calls={nm: int(calls[i]) for i, nm in enumerate(tracer.names)},
        durations={
            nm: dur[a["name_id"] == i] for i, nm in enumerate(tracer.names)
        },
        runs={
            nm: a["run"][a["name_id"] == i] for i, nm in enumerate(tracer.names)
        },
        units={k2: dict(v) for k2, v in tracer.units.items()},
        min_self_s=float(own.min()) if n else 0.0,
    )


def write_spans(tracer: Tracer, path: Path) -> None:
    """Spans as ``<path>.npz`` arrays plus ``<path>.json`` span names."""
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path.with_suffix(".npz"), **tracer.arrays())
    path.with_suffix(".json").write_text(
        json.dumps({"names": tracer.names, "units": tracer.units}, indent=1)
    )
