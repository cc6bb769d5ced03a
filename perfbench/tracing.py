"""Spans around the calls between h3mkit's modules, recorded from outside.

`Instrument` wraps every function that one h3mkit layer exposes to another
module of the package (the public names re-exported by ``h3mkit`` and the
private helpers one module imports from another), and rebinds the wrapper in
every ``h3mkit`` module that holds the function. Calls inside a module go
through its own globals, so they are caught too. Names are found at install
time, so a function that a later refactor removes is simply absent.

With ``timed=False`` only the functions named in ``keep`` are wrapped, and
only their return values are kept: untraced jobs use that to read result
objects that a top-level call builds but does not return.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("gaussians", "hmm", "h3m", "reduction", "hierarchy", "pipeline", "serialize")
ROOT_SPAN = "bench.job"
# Result objects the checks and counters read: EM traces and reseeds, VHEM
# bound histories, rescues and assignments.
KEEP = ("h3m.h3m_em", "reduction.vhem_reduce")


class Instrument:
    """Context manager that wraps h3mkit's cross-module functions.

    Spans are tuples (name, start, end, parent index), in call order; the
    parent of a top-level span is -1. Return values of the functions named in
    ``keep`` (as "layer.function") are appended to ``results[name]``.
    """

    def __init__(self, timed: bool, keep: tuple[str, ...] = ()):
        self.timed = timed
        self.keep = set(keep)
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.results: dict[str, list] = {name: [] for name in self.keep}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span by hand (used for the job's root span); a no-op
        when not timed."""
        if not self.timed:
            yield
            return
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start, parent)

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, name: str, start: float, parent: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        results = self.results.get(name)
        if not self.timed:
            def kept(*args, **kwargs):
                out = fn(*args, **kwargs)
                results.append(out)
                return out
            return kept

        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start, parent)
            if results is not None:
                results.append(out)
            return out

        return traced

    # -- install / uninstall -----------------------------------------------

    def __enter__(self) -> "Instrument":
        package = [m for n, m in list(sys.modules.items()) if n == "h3mkit" or n.startswith("h3mkit.")]
        for layer in LAYERS:
            module = sys.modules.get(f"h3mkit.{layer}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if not self.timed and name not in self.keep:
                    continue
                holders = [
                    (m, key)
                    for m in package
                    for key, value in list(vars(m).items())
                    if value is fn
                ]
                if not any(m is not module for m, _ in holders):
                    continue  # not exposed to another module
                wrapper = self._wrap(name, fn)
                for m, key in holders:
                    setattr(m, key, wrapper)
                    self._undo.append((m, key, fn))
        return self

    def __exit__(self, *exc) -> None:
        for m, key, fn in reversed(self._undo):
            setattr(m, key, fn)
        self._undo.clear()

    # -- reports --------------------------------------------------------------

    def finished_spans(self) -> list[tuple[str, float, float, int]]:
        if self._stack:
            raise RuntimeError("spans still open")
        return list(self.spans)  # type: ignore[arg-type]


def write_spans(path: Path, spans: list[tuple[str, float, float, int]]) -> None:
    """Write spans as CSV: index, name, start, end, parent."""
    with path.open("w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["index", "name", "start_s", "end_s", "parent"])
        for idx, (name, start, end, parent) in enumerate(spans):
            out.writerow([idx, name, repr(start), repr(end), parent])


def self_times(spans: list[tuple[str, float, float, int]]) -> tuple[dict, dict]:
    """Per-function call counts and self time, in seconds.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child[idx]
    return dict(calls), dict(self_s)


def layer_self_times(self_s: dict[str, float]) -> dict[str, float]:
    """Sum function self times into their layer ("layer.function" -> layer)."""
    out: dict[str, float] = defaultdict(float)
    for name, value in self_s.items():
        out[name.split(".", 1)[0]] += value
    return dict(out)


def count_under(spans: list[tuple[str, float, float, int]], names: set[str], ancestor: str) -> int:
    """Number of spans named in ``names`` that have a span ``ancestor`` above them."""
    count = 0
    for name, _, _, parent in spans:
        if name not in names:
            continue
        while parent >= 0:
            if spans[parent][0] == ancestor:
                count += 1
                break
            parent = spans[parent][3]
    return count
