"""Spans around the public functions of each gammapower layer.

`Tracer.install` wraps every public function of specfun, families,
critical, certify and cli, and rebinds the wrapper in every gammapower
module that holds the function by name (families and critical use
`from .specfun import ...`).  `Tracer.restore` puts every original back.
Nothing under src/ is edited; the wrapping lives only in this process.

A span is (name, start, end, parent, op id, raised) in parallel arrays,
kept in memory until the run ends.  A span's self time is its duration minus
the time its children cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from types import ModuleType

import numpy as np

LAYERS = ("specfun", "families", "critical", "certify", "cli")

# polygamma orders >= 8 take the direct-series path in specfun.
HIGH_ORDER = 8


def public_functions(layer: str) -> dict[str, object]:
    """Functions a layer module exports (its __all__) and defines itself."""
    mod = importlib.import_module(f"gammapower.{layer}")
    return {
        n: getattr(mod, n) for n in mod.__all__
        if inspect.isfunction(getattr(mod, n)) and getattr(mod, n).__module__ == mod.__name__
    }


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.stack: list[int] = []
        self.op_id = -1
        self._bound: list[tuple[ModuleType, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def reset(self) -> None:
        """Drop recorded spans; the wrappers stay installed."""
        for col in (self.name, self.start, self.end, self.parent, self.op, self.raised):
            del col[:]

    def _wrap(self, fn, span_name: str):
        nid = self._name_id(span_name)
        hid = self._name_id(span_name + "#high") if span_name == "specfun.polygamma" else nid
        names, starts, ends, parents, ops, raised = (
            self.name, self.start, self.end, self.parent, self.op, self.raised)
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(hid if hid != nid and args[0] >= HIGH_ORDER else nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            raised.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "gammapower" or k.startswith("gammapower."))]
        for layer in LAYERS:
            for name, fn in public_functions(layer).items():
                wrapper = self._wrap(fn, f"{layer}.{name}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._bound.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        while self._bound:
            mod, attr, fn = self._bound.pop()
            setattr(mod, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # --- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int16).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }


def span_stats(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-layer counts and self times from one traced pass over an op list."""
    name, parent = spans["name"], spans["parent"]
    dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_ns = dur - child[: len(dur)]

    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names])
    func_of = [n.split(".")[1].split("#")[0] for n in names]
    layer = layer_of[name]
    parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
    lid = {n: i for i, n in enumerate(LAYERS)}

    def is_fn(fn: str) -> np.ndarray:
        ids = [i for i, f in enumerate(func_of) if f == fn]
        return np.isin(name, ids)

    out: dict[str, float] = {}
    for lname in LAYERS:
        mask = layer == lid[lname]
        out[f"{lname}.calls"] = int(mask.sum())
        out[f"{lname}.self_s"] = float(self_ns[mask].sum() / 1e9)

    out["specfun.ns_per_call"] = (
        out["specfun.self_s"] * 1e9 / out["specfun.calls"] if out["specfun.calls"] else 0.0)
    for fn in ("log_gamma", "digamma", "polygamma"):
        out[f"specfun.{fn}.calls"] = int(is_fn(fn).sum())
    high = [i for i, n in enumerate(names) if n.endswith("#high")]
    out["specfun.polygamma.high_order_calls"] = int(np.isin(name, high).sum())

    fam = layer == lid["families"]
    delta = is_fn("delta_n")
    out["families.delta_n.calls"] = int(delta.sum())
    out["families.delta_n.self_s"] = float(self_ns[delta].sum() / 1e9)
    from_fam = int(((layer == lid["specfun"]) & (parent_layer == lid["families"])).sum())
    out["families.specfun_calls_per_call"] = from_fam / fam.sum() if fam.sum() else 0.0

    crit = layer == lid["critical"]
    entry = crit & (parent_layer != lid["critical"])
    out["critical.solves"] = int(entry.sum())
    out["critical.failed"] = int((entry & (spans["raised"] == 1)).sum())
    out["critical.f_evals"] = int((fam & (parent_layer == lid["critical"])).sum())
    out["critical.f_evals_per_solve"] = (
        out["critical.f_evals"] / out["critical.solves"] if out["critical.solves"] else 0.0)

    cert = layer == lid["certify"]
    out["certify.evals"] = int(
        ((fam | (layer == lid["specfun"])) & (parent_layer == lid["certify"])).sum())
    # critical spans with a certify span anywhere above them
    under_cert = 0
    for i in np.flatnonzero(crit):
        p = parent[i]
        while p >= 0 and not cert[p]:
            p = parent[p]
        under_cert += p >= 0
    out["certify.critical_calls"] = int(under_cert)
    return out
