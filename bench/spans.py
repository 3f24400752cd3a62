"""Span tracing of bcbounds from outside the package.

``Tracer.install`` wraps every public function of each bcbounds module
(the names in its ``__all__`` that it defines) plus the two
``InfoFunctional`` evaluation methods, and puts each wrapper at every
place the name is looked up: the defining module, every bcbounds module
that imported it by name, and the package namespace. ``uninstall`` puts
the originals back.

Spans are held in memory as parallel arrays (name id, start, end, parent
span, task id) and written out once at the end. A span's self time is its
duration minus the time its child spans cover.

``maximize`` and ``ascend`` additionally wrap the objective they are given
in an ``objective.call`` span, so calls made by the search are counted
where they happen.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("kernel", "objectives", "channel", "search", "marton", "regions", "counterexample")
METHODS = (("objectives", "InfoFunctional", "value"), ("objectives", "InfoFunctional", "value_and_grad"))
OBJECTIVE = "objective.call"
SEARCHES = ("search.maximize", "search.ascend")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.task_id = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        # per maximize/ascend call: its span, the first span after it, caller, restarts
        self.searches: list[dict] = []
        # per golden_section_min call: (evaluations, final bracket width)
        self.golden: list[tuple[int, float]] = []
        self._labels: list[str] = []

    # ------------------------------------------------------------ spans
    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.task_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        if name in SEARCHES:
            return self._wrap_search(name, fn)
        nid = self._id(name)
        tracer = self
        if name == "search.golden_section_min":
            @functools.wraps(fn)
            def golden(*args, **kwargs):
                i = tracer._open(nid)
                try:
                    res = fn(*args, **kwargs)
                finally:
                    tracer._close(i)
                tracer.golden.append((res.evaluations, res.bracket_width))
                return res
            return golden
        if name == "regions.region_support":
            @functools.wraps(fn)
            def labelled(*args, **kwargs):
                kind = args[1] if len(args) > 1 else kwargs.get("kind")
                tracer._labels.append(f"region_support[{kind}]")
                i = tracer._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(i)
                    tracer._labels.pop()
            return labelled

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)
        return wrapper

    def _wrap_search(self, name: str, fn):
        nid = self._id(name)
        obj_id = self._id(OBJECTIVE)
        tracer = self

        @functools.wraps(fn)
        def search(fun, *args, **kwargs):
            def objective(x):
                j = tracer._open(obj_id)
                try:
                    return fun(x)
                finally:
                    tracer._close(j)

            caller = tracer._caller()
            i = tracer._open(nid)
            try:
                res = fn(objective, *args, **kwargs)
            finally:
                tracer._close(i)
            restarts = len(res.restart_values) if name == "search.maximize" else 1
            tracer.searches.append(
                {"span": i, "span_end": len(tracer.start), "caller": caller, "restarts": restarts}
            )
            return res
        return search

    def _caller(self) -> str:
        if self._labels:
            return self._labels[-1]
        if self._stack:
            return self.names[self.name[self._stack[-1]]]
        return "<task>"

    # ------------------------------------------------------- install
    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = {n: m for n, m in sys.modules.items() if n == "bcbounds" or n.startswith("bcbounds.")}
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = modules[f"bcbounds.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[f"bcbounds.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            self._installed.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{layer}.{meth}", fn))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------- analysis
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "task": np.frombuffer(self.task, dtype=np.int32).copy(),
        }

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        incl = np.bincount(a["name"], weights=dur, minlength=n)
        own = np.bincount(a["name"], weights=self_s, minlength=n)
        return {
            name: {"calls": int(calls[k]), "s": float(incl[k]), "self_s": float(own[k])}
            for k, name in enumerate(self.names)
        }

    def search_breakdown(self) -> dict[str, dict]:
        """value_and_grad calls per objective call, grouped by the caller
        of maximize/ascend (region kind for region_support)."""
        names = np.frombuffer(self.name, dtype=np.int32)
        obj = self._ids.get(OBJECTIVE, -1)
        vg = self._ids.get("objectives.value_and_grad", -1)
        out: dict[str, dict] = {}
        for s in self.searches:
            window = names[s["span"] + 1 : s["span_end"]]
            row = out.setdefault(s["caller"], {"searches": 0, "restarts": 0, "objective_calls": 0, "value_and_grad": 0})
            row["searches"] += 1
            row["restarts"] += s["restarts"]
            row["objective_calls"] += int((window == obj).sum())
            row["value_and_grad"] += int((window == vg).sum())
        for row in out.values():
            row["grads_per_eval"] = row["value_and_grad"] / max(row["objective_calls"], 1)
        return out

    def value_and_grad_in_searches(self) -> tuple[int, int]:
        """(value_and_grad calls inside search objective calls, objective calls)."""
        rows = self.search_breakdown().values()
        return sum(r["value_and_grad"] for r in rows), sum(r["objective_calls"] for r in rows)
