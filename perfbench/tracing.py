"""In-memory span tracer that wraps the program's functions from outside.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (or -1) and ``op`` the benchmark operation that caused it.
Spans are kept in a list and written out when the run ends.  A span's self
time is its duration minus the durations of its direct children; calls on
one thread nest strictly, so children never overlap.

Wrapping happens where names are looked up.  ``from openkpz.shesolver import
simulate_she`` copies the function into the importing module's namespace,
and ``cli.COMMANDS`` holds its functions in a dict, so replacing only the
defining module's attribute would silently miss those calls.  ``install``
therefore rebinds every module global and every module-level dict value of
the ``openkpz`` package that refers to a wrapped function.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Probe = Callable[[Callable[[str, float], None], Dict, object], None]


class Tracer:
    """Collects spans and counts while ``enabled``; a pass-through otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self.op = 0
        self.spans: List[list] = []
        self.counts: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: List[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.op][name] += amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        probe: Optional[Probe] = None,
        namer: Optional[Callable[[tuple, dict], str]] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span; ``probe`` adds counts from the call."""
        signature = inspect.signature(fn) if probe is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_name = namer(args, kwargs) if namer is not None else name
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            record = [span_name, time.perf_counter(), None, parent, self.op]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                probe(self.count, bound.arguments, result)
            return result

        return wrapper


class Installation:
    """Wrappers bound into the program; ``remove`` restores every original."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Callable[[object], None], object]] = []

    def _set(self, setter: Callable[[object], None], original: object, wrapper: object) -> None:
        setter(wrapper)
        self._undo.append((setter, original))

    def remove(self) -> None:
        while self._undo:
            setter, original = self._undo.pop()
            setter(original)


def install(
    tracer: Tracer,
    functions: Dict[str, Tuple[Callable, Optional[Probe], Optional[Callable]]],
    methods: Dict[str, Tuple[type, str, Optional[Probe]]],
) -> Installation:
    """Wrap ``functions`` (span name -> (function, probe, namer)) and ``methods``.

    Methods are replaced on their class, which every caller shares.  Functions
    are replaced in every namespace of the ``openkpz`` package that binds them.
    """
    inst = Installation()
    by_id: Dict[int, Tuple[Callable, Callable]] = {}
    for name, (fn, probe, namer) in functions.items():
        by_id[id(fn)] = (fn, tracer.wrap(name, fn, probe, namer))
    for name, (cls, attr, probe) in methods.items():
        original = cls.__dict__[attr]
        inst._set(functools.partial(setattr, cls, attr), original,
                  tracer.wrap(name, original, probe))

    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "openkpz" or key.startswith("openkpz."))]
    for module in modules:
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if attr.startswith("__"):
                continue
            if id(value) in by_id and by_id[id(value)][0] is value:
                inst._set(functools.partial(setattr, module, attr), value, by_id[id(value)][1])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in by_id and by_id[id(item)][0] is item:
                        inst._set(functools.partial(value.__setitem__, key), item,
                                  by_id[id(item)][1])
    return inst


def span_totals(spans: List[list]) -> Dict[int, Dict[str, Dict[str, float]]]:
    """Per op and span name: total seconds, self seconds and call count."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[int, Dict[str, Dict[str, float]]] = defaultdict(
        lambda: defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    )
    for index, (name, start, end, parent, op) in enumerate(spans):
        entry = out[op][name]
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[index]
        entry["calls"] += 1
    return out
