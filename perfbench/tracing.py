"""Spans around cogrelay's public functions, recorded from outside the package.

:class:`Tracer` replaces each public function of a layer module with a
wrapper in every ``cogrelay`` namespace that holds it, which is where its
callers look it up (``cli`` imports ``replicate`` and ``solve_stationary`` by
name, ``optimizer`` imports ``delay_primary`` by name, and analytics calls
its own functions through its module globals). Each call records a span:
name, start, end, parent span and run id. Spans stay in compact arrays in
memory and are written out once, when the traced process ends.

:func:`load_spans` and :func:`self_times` are used by the harness to read
them back; a span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

#: Layer modules and the names wrapped in each (``None``: its ``__all__``).
LAYERS = {
    "cli": ("main",),
    "config": None,
    "analytics": None,
    "optimizer": None,
    "simulator": None,
    "oracle": None,
}


def _replicate_attrs(args, kwargs, stats) -> dict:
    sc = args[0]
    replications = args[1] if len(args) > 1 else kwargs.get("replications", 1)
    return {
        "kind": sc.policy_kind,
        "slots": sc.slots * replications,
        "seed": sc.seed,
        "run_slots": sc.slots,
        "replications": replications,
        "packets": stats.arrivals_p + stats.arrivals_s,
        "wasted": stats.wasted_slots,
        "observed": stats.observed_slots,
    }


def _build_attrs(args, kwargs, kernel) -> dict:
    return {
        "pair": args[0].pair,
        "nnz": int(kernel.nnz),
        "states": int(kernel.shape[0]),
        "csr_bytes": int(kernel.data.nbytes + kernel.indices.nbytes + kernel.indptr.nbytes),
    }


def _solve_attrs(args, kwargs, sol) -> dict:
    return {
        "pair": args[0].pair,
        "iterations": int(sol.iterations),
        "residual": float(sol.residual),
        "boundary_mass": float(sol.mass_at_boundary),
    }


#: Extra per-call facts read from arguments and results, for the few calls
#: whose cost depends on them.
ANNOTATE = {
    "simulator.replicate": _replicate_attrs,
    "oracle.build_transitions": _build_attrs,
    "oracle.solve_stationary": _solve_attrs,
}


class Tracer:
    """Records a span for every call of a wrapped function while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.runs = array("l")
        self.attrs: dict[int, dict] = {}
        self.run_id = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"cogrelay.{layer}"]
            for attr in names or module.__all__:
                func = getattr(module, attr)
                if callable(func) and not isinstance(func, type):
                    self._wrappers[id(func)] = self._wrapper(f"{layer}.{attr}", func)

    def _wrapper(self, name: str, func):
        name_id = len(self.names)
        self.names.append(name)
        annotate = ANNOTATE.get(name)
        stack = self._stack
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, runs, attrs = self.parents, self.runs, self.attrs

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            runs.append(self.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if annotate is not None:
                attrs[index] = annotate(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function in every cogrelay namespace."""
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == "cogrelay" or name.startswith("cogrelay.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        """Write all spans to one ``.npz`` file."""
        import numpy as np

        np.savez(
            path,
            name_ids=np.frombuffer(self.name_ids, dtype=np.uint16),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            runs=np.frombuffer(self.runs, dtype=np.int64),
            header=np.array(json.dumps(
                {"names": self.names, "attrs": {str(k): v for k, v in self.attrs.items()}}
            )),
        )


def load_spans(path: Path) -> dict:
    """Read spans written by :meth:`Tracer.dump`."""
    import numpy as np

    with np.load(path) as data:
        spans = {key: data[key] for key in ("name_ids", "starts", "ends", "parents", "runs")}
        header = json.loads(str(data["header"]))
    spans["names"] = header["names"]
    spans["attrs"] = {int(k): v for k, v in header["attrs"].items()}
    return spans


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    import numpy as np

    duration = spans["ends"] - spans["starts"]
    parents = spans["parents"]
    nested = parents >= 0
    children = np.bincount(parents[nested], weights=duration[nested], minlength=len(duration))
    return duration - children
