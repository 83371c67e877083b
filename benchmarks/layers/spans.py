"""Boundary spans recorded from outside the program.

The recorder wraps public callables of ``repro`` at run time (class
attributes and module-level functions), times every call with
``perf_counter`` and restores the originals afterwards. Nothing in
``src/`` knows about it; the library's own ``Tracer`` stays off.

A span is one record ``[name, op, parent, start, end, busy, calls]``:

- ``op`` is the id of the benchmark operation that caused it, so the
  spans of one request share an identifier;
- ``parent`` is the index of the enclosing span (``-1`` for an op's
  root);
- ``busy`` is the time the span was running. For an ordinary span that
  is ``end - start``. *Leaf* spans (hot callables such as the
  GeoSPARQL extension functions, called thousands of times per op) are
  folded into one record per (parent, name) with ``calls`` counting
  them and ``busy`` summing them, so a traced run stays small enough to
  keep in memory.

Self time of a span is ``busy`` minus the ``busy`` of its children.
Because spans nest strictly, self times telescope to the root span.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Tuple

NAME, OP, PARENT, START, END, BUSY, CALLS = range(7)


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.op = -1
        self._stack: List[int] = []
        self._leaves: Dict[Tuple[int, str], int] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.op, parent, self.clock(), 0.0, 0.0, 1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = self.clock()
        span[BUSY] = span[END] - span[START]
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {span[NAME]!r} closed out of order (open: "
                f"{self.spans[popped][NAME]!r})")

    def root(self, op: int, name: str) -> "_Root":
        """Context manager: the root span of benchmark operation *op*."""
        return _Root(self, op, name)

    def _leaf(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        key = (parent, name)
        index = self._leaves.get(key)
        if index is None:
            self._leaves[key] = len(self.spans)
            self.spans.append(
                [name, self.op, parent, start, end, end - start, 1])
            return
        span = self.spans[index]
        span[END] = end
        span[BUSY] += end - start
        span[CALLS] += 1

    # -- wrapping ----------------------------------------------------------
    def wrap(self, name: str, fn: Callable, leaf: bool = False,
             after: Callable = None) -> Callable:
        """*fn* timed as span *name*.

        A generator function (or a call that returns a generator) is
        timed per resume, not at creation: creating a generator does no
        work, the work happens while the consumer pulls. ``after`` is
        called as ``after(result, args)`` inside the span; counters
        taken at the boundary (rows out, candidates, bytes saved) and
        the wrapper around an admitted slot's ``release`` hang there.
        """
        if leaf:
            clock = self.clock
            record = self._leaf

            def leaf_wrapper(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record(name, start, clock())

            leaf_wrapper.__wrapped__ = fn
            return leaf_wrapper

        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
            finally:
                self.close(index)
            if inspect.isgenerator(result):
                return self._resumes(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _resumes(self, name: str, generator):
        while True:
            index = self.open(name)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self.close(index)
            yield item

    def patch(self, owner: object, attr: str, name: str,
              leaf: bool = False, after: Callable = None) -> None:
        """Replace ``owner.attr`` by its timed wrapper (until restore)."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__,
                                            leaf=leaf, after=after))
        else:
            wrapped = self.wrap(name, original, leaf=leaf, after=after)
        setattr(owner, attr, wrapped)

    def patch_function(self, module_name: str, attr: str, name: str,
                       after: Callable = None) -> None:
        """Patch a module-level function wherever ``repro`` bound it.

        ``from .parser import parse_query`` copies the reference into
        the importing module, so patching the defining module alone
        would miss those call sites.
        """
        original = getattr(sys.modules[module_name], attr)
        wrapped = self.wrap(name, original, after=after)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            if module.__dict__.get(attr) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapped)

    def patch_item(self, table: dict, key: str, name: str,
                   leaf: bool = False) -> None:
        """Replace one entry of a function table (e.g. the GeoSPARQL
        extension registry) by its timed wrapper."""
        original = table[key]
        self._patches.append((table, key, original))
        table[key] = self.wrap(name, original, leaf=leaf)

    def restore(self) -> None:
        """Put every patched attribute back (identity-restoring)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> List[float]:
        """Self time of every span: busy minus its children's busy."""
        selfs = [span[BUSY] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                selfs[span[PARENT]] -= span[BUSY]
        return selfs

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: summed self time, busy time and call count."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "busy_s": 0.0, "calls": 0})
        for span, self_s in zip(self.spans, self.self_times()):
            row = out[span[NAME]]
            row["self_s"] += self_s
            row["busy_s"] += span[BUSY]
            row["calls"] += span[CALLS]
        return dict(out)

    def write(self, path) -> None:
        """One JSON object per span, in recording order."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span[NAME], "op": span[OP],
                    "parent": span[PARENT], "start": span[START],
                    "end": span[END], "busy": span[BUSY],
                    "calls": span[CALLS]}) + "\n")


class _Root:
    def __init__(self, recorder: Recorder, op: int, name: str):
        self.recorder = recorder
        self.op = op
        self.name = name

    def __enter__(self) -> "_Root":
        recorder = self.recorder
        recorder.op = self.op
        recorder._leaves.clear()
        self.index = recorder.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.recorder.close(self.index)
        self.recorder.op = -1


def layer_shares(totals: Dict[str, Dict[str, float]],
                 layers: Iterable[str]) -> Dict[str, float]:
    """Each layer's share of all recorded self time."""
    by_layer: Dict[str, float] = defaultdict(float)
    for name, row in totals.items():
        by_layer[name.split(".", 1)[0]] += row["self_s"]
    whole = sum(by_layer.values())
    return {layer: (by_layer.get(layer, 0.0) / whole if whole else 0.0)
            for layer in layers}
