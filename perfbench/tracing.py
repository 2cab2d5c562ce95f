"""Span tracer that times relaycap's layers from outside the library.

``Tracer.install`` wraps every public function of the layer modules (the
names in each module's ``__all__`` that the module itself defines) at every
name it is bound under in the package: ``relaycap.solver.link_capacities``
and ``relaycap.models.link_capacities`` get the same wrapper, as do
``relaycap.sweep``, ``relaycap.rates.sweep`` and ``relaycap.cli.sweep``. The
``RateCurve`` writers are wrapped on the class. No library source changes;
``uninstall`` puts every original binding back.

Each wrapped call is a span with a name, start, end, parent span and the id
of the benchmark operation it ran under. Aggregates (calls, total time, self
time) count every call; span records are kept in memory up to
``SPAN_CAP`` per name, because the entropy helpers run hundreds of thousands
of times per pass, and are written out when the run ends. Self time is the
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "rates", "info", "models", "solver")

# Counts the public API does not expose today; the trace lists them so that a
# reader does not mistake their absence for zero.
UNAVAILABLE = {
    "solver.objective_evals_per_restart": (
        "solve_capacity reports no evaluation count; waits on solve reports "
        "that explain themselves"
    ),
    "models.blahut_arimoto_iters_per_link": (
        "channel_capacity returns no iteration count; waits on solve reports "
        "that explain themselves"
    ),
}

SPAN_CAP = 2000


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.ops: list[dict] = []
        # (name, op group) -> [calls, total_s, self_s]
        self.stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self._kept: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._next_span = 0
        self._op_id = 0
        self._group = ""
        self._patches: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- operations -------------------------------------------------------

    @contextlib.contextmanager
    def op(self, label: str, group: str):
        """Mark the benchmark operation every span opened inside belongs to."""
        self._op_id += 1
        self._group = group
        start = perf_counter()
        try:
            yield
        finally:
            self.ops.append(
                {"op": self._op_id, "label": label, "group": group,
                 "start": start, "end": perf_counter()}
            )
            self._group = ""

    # -- wrapping ---------------------------------------------------------

    def _close(self, name: str, frame: list, parent, start: float, end: float) -> None:
        dur = end - start
        if parent is not None:
            parent[1] += dur
        st = self.stats[(name, self._group)]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]
        if self._kept[name] < SPAN_CAP:
            self._kept[name] += 1
            self.spans.append(
                (frame[0], parent[0] if parent is not None else None,
                 self._op_id, name, start, end)
            )

    def _wrap(self, name: str, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._next_span += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_span, 0.0]  # span id, time covered by children
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(name, frame, parent, start, end)
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the public functions of every layer of ``package``."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    hook = self._sweep_points if name == "rates.sweep" else None
                    wrappers[fn] = self._wrap(name, fn, hook)
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        curve_cls = modules["rates"].RateCurve
        for meth in ("to_csv", "to_json"):
            wrapped = self._wrap(f"rates.RateCurve.{meth}", getattr(curve_cls, meth),
                                 self._written_bytes)
            self._patch(curve_cls, meth, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _sweep_points(self, args, curve) -> None:
        n = len(curve.param_values) * len(curve.points)
        self.counters["rates.sweep.points"] += n

    def _written_bytes(self, args, _result) -> None:
        self.counters["rates.write.bytes"] += os.path.getsize(args[1])

    # -- read-out ---------------------------------------------------------

    def total(self, name: str, field: int, groups: tuple[str, ...] | None = None) -> float:
        """Sum of one stats field (0 calls, 1 total s, 2 self s) over op groups."""
        return sum(v[field] for (n, g), v in self.stats.items()
                   if n == name and (groups is None or g in groups))

    def write(self, path: str, header: dict) -> None:
        """Write the header, the operations, the spans and the aggregates as JSONL."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "header", **header,
                                 "unavailable": UNAVAILABLE,
                                 "span_cap_per_name": SPAN_CAP}) + "\n")
            for op in self.ops:
                fh.write(json.dumps({"kind": "op", **op}) + "\n")
            for span_id, parent, op_id, name, start, end in self.spans:
                fh.write(json.dumps({"kind": "span", "id": span_id, "parent": parent,
                                     "op": op_id, "name": name,
                                     "start": start, "end": end}) + "\n")
            for (name, group), (calls, total, self_s) in sorted(self.stats.items()):
                fh.write(json.dumps({"kind": "aggregate", "name": name, "group": group,
                                     "calls": calls, "total_s": total,
                                     "self_s": self_s}) + "\n")
