"""Span tracer that wraps library functions from outside the library.

Each target is patched under the name its caller looks up (for example
``seqrisk.estimators.trajectory_stream``, the binding ``estimate`` calls),
and the original is restored on exit, so no library file carries a hook.
A target that does not exist at some commit is skipped; its layer then
reports zero calls instead of failing the run.

Spans live in memory as parallel arrays (layer, parent, start, end, work
amount, raised) and are written out once, after the run.  A span's self
time is its duration minus the part of that interval its child spans
cover.  Spans opened in a forked pool worker are shipped back inside the
pickled result of the pool's entry function and merged into the parent's
record, with the span that submitted the work as their parent.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

_COLUMNS = (("layer", "H"), ("parent", "q"), ("start", "d"), ("end", "d"),
            ("amount", "q"), ("raised", "b"))

#: the tracer whose patches are installed; pool results merge into it
_ACTIVE: "Tracer | None" = None


@dataclass(frozen=True)
class Target:
    """One patch point.

    ``amount`` turns ``(args, kwargs, result)`` into a work count stored
    with the span.  ``ships`` marks a process-pool entry function: when it
    runs in a worker, the worker's spans travel back with its result.
    """

    layer: str
    path: str
    amount: Callable | None = None
    ships: bool = False


def resolve(path: str):
    """``(owner, attribute)`` for a dotted path, or None when it is missing."""
    parts = path.split(".")
    for i in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for name in parts[i:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        return (owner, parts[-1]) if hasattr(owner, parts[-1]) else None
    return None


class _Shipped:
    """A worker's result plus its spans; unpickles to the bare result."""

    def __init__(self, result, payload):
        self.result = result
        self.payload = payload

    def __reduce__(self):
        return _receive, (self.result, self.payload)


def _receive(result, payload):
    # runs in the parent while the pool result is unpickled; list.append is
    # atomic, and the merge itself waits for Tracer.__exit__
    if _ACTIVE is not None:
        _ACTIVE._shipped.append(payload)
    return result


class Tracer:
    """Context manager that installs wrappers for ``targets`` and records spans."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.layers = tuple(sorted({t.layer for t in self.targets}))
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        self._cols = {name: array(code) for name, code in _COLUMNS}
        self._pid = os.getpid()
        self._proc = None
        self._stack: list[int] = []
        self._shipped: list = []
        self._patches: list = []
        self.installed: tuple = ()

    # -- patching -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("another tracer is active")
        installed = []
        for target in self.targets:
            found = resolve(target.path)
            if found is None:
                continue
            owner, attr = found
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, self._wrap(target, original))
            installed.append(target.path)
        self.installed = tuple(installed)
        _ACTIVE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()
        _ACTIVE = None
        self._merge_shipped()

    def _wrap(self, target: Target, original):
        layer_id = self._layer_id[target.layer]
        amount = target.amount

        def traced(*args, **kwargs):
            idx = self._open(layer_id)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self._close(idx, 0, 1)
                raise
            self._close(idx, amount(args, kwargs, result) if amount else 0, 0)
            return result

        if target.ships:
            def entry(*args, **kwargs):
                if os.getpid() == self._pid:
                    return traced(*args, **kwargs)
                mark = len(self._cols["layer"])
                result = traced(*args, **kwargs)
                payload = (os.getpid(), mark, {k: c[mark:] for k, c in self._cols.items()})
                for c in self._cols.values():
                    del c[mark:]
                return _Shipped(result, payload)
            wrapper = entry
        else:
            wrapper = traced
        # same name and module as the original, so pickling by reference
        # (a pool submitting the patched function) finds the wrapper
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            if hasattr(original, attr):
                setattr(wrapper, attr, getattr(original, attr))
        wrapper.__wrapped__ = original
        return wrapper

    # -- recording ----------------------------------------------------------

    def _open(self, layer_id: int) -> int:
        c = self._cols
        idx = len(c["layer"])
        c["layer"].append(layer_id)
        c["parent"].append(self._stack[-1] if self._stack else -1)
        c["end"].append(0.0)
        c["amount"].append(0)
        c["raised"].append(0)
        self._stack.append(idx)
        c["start"].append(time.perf_counter())
        return idx

    def _close(self, idx: int, amount: int, raised: int) -> None:
        c = self._cols
        c["end"][idx] = time.perf_counter()
        c["amount"][idx] = amount
        c["raised"][idx] = raised
        self._stack.pop()

    def _merge_shipped(self) -> None:
        proc = array("q", [self._pid]) * len(self._cols["layer"])
        for pid, mark, cols in self._shipped:
            base = len(self._cols["layer"])
            # parents at or past ``mark`` are the worker's own spans
            parent = np.frombuffer(cols["parent"], dtype=np.int64).copy()
            own = parent >= mark
            parent[own] += base - mark
            cols["parent"] = array("q", parent.tobytes())
            for k, c in self._cols.items():
                c.extend(cols[k])
            proc.extend(array("q", [pid]) * len(cols["layer"]))
        self._shipped.clear()
        self._proc = proc

    # -- results ------------------------------------------------------------

    def spans(self) -> dict:
        """Column arrays of every recorded span (call after exit)."""
        out = {k: np.frombuffer(c, dtype=np.dtype(c.typecode)).copy()
               for k, c in self._cols.items()}
        out["proc"] = np.frombuffer(self._proc, dtype=np.int64).copy()
        return out

    def summary(self) -> dict:
        """Per layer: ``calls``, ``self_s``, ``amount`` and ``raised``.

        Children in the parent's own process run one after another, so
        their durations add up; children in pool workers run side by side,
        so only the union of their intervals counts against the parent.
        """
        s = self.spans()
        n = s["layer"].size
        dur = s["end"] - s["start"]
        parent = s["parent"]
        has_parent = parent >= 0
        cross = np.zeros(n, dtype=bool)
        cross[has_parent] = s["proc"][has_parent] != s["proc"][parent[has_parent]]
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        for p in np.unique(parent[cross]):
            kids = np.nonzero(parent == p)[0]
            lo = np.maximum(s["start"][kids], s["start"][p])
            hi = np.minimum(s["end"][kids], s["end"][p])
            covered[p] = _union_length(lo, hi)
        self_time = dur - covered
        k = len(self.layers)
        calls = np.bincount(s["layer"], minlength=k)
        self_s = np.bincount(s["layer"], weights=self_time, minlength=k)
        amount = np.bincount(s["layer"], weights=s["amount"], minlength=k)
        raised = np.bincount(s["layer"], weights=s["raised"], minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                   "amount": int(amount[i]), "raised": int(raised[i])}
            for i, name in enumerate(self.layers)
        }


def _union_length(lo, hi) -> float:
    total, reach = 0.0, -math.inf
    # sorted by start, the earlier intervals cover [start, reach] at most
    for a, b in sorted(zip(lo.tolist(), hi.tolist())):
        total += max(0.0, b - max(a, reach))
        reach = max(reach, b)
    return total
