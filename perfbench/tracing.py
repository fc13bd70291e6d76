"""Span tracer that times shieldlab's layers from outside the library.

``install`` wraps every public function of the library's modules, plus the
three hot methods ``HamiltonianTerms.to_dense``, ``DualChain.to_dense`` and
``PauliString.apply``, and rebinds each wrapper under every name that held
the original: a module's own attribute, each ``from .x import f`` copy in
another module, the package namespace and the ``RUNNERS`` dict. A call made
through any of those names therefore opens a span. No library file changes.

Spans stay in memory as ``[name, start, end, cpu_start, cpu_end, parent,
error, attrs]`` and are written once, by :meth:`Tracer.write`. Work the
tracer itself does inside the child (hashing matrices, reading cache flags,
sizing output files) runs in ``trace.probe`` spans, so it is subtracted from
the caller's self time and reported on its own.

The aggregation helpers at the bottom are pure functions of the span list;
the benchmark's parent process uses them without importing the library.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("cli", "experiments", "lattice", "hamiltonian", "thermal",
          "closedform", "dynamics", "pauli", "tables")

# Span name (the metric group) for a module's public functions ...
MODULE_GROUP = {
    "cli": "cli",
    "experiments": "experiments",
    "lattice": "lattice",
    "hamiltonian": "hamiltonian.terms",
    "thermal": "thermal.report",
    "closedform": "closedform.series",
    "dynamics": "dynamics.evolve",
    "pauli": "pauli",
    "tables": "tables.emit",
}
# ... unless the function is named here.
FUNCTION_GROUP = {
    "thermal.eig_hermitian": "thermal.eig",
    "thermal.gibbs": "thermal.state",
    "thermal.ground_state_density": "thermal.state",
    "thermal.thermal_state": "thermal.state",
    "thermal.partial_trace": "thermal.partial_trace",
    "thermal.trace_distance": "thermal.trace_distance",
    "thermal.expectation": "thermal.expectation",
}
METHOD_GROUP = {
    ("hamiltonian", "HamiltonianTerms", "to_dense"): "hamiltonian.to_dense",
    ("hamiltonian", "DualChain", "to_dense"): "hamiltonian.dual",
    ("pauli", "PauliString", "apply"): "pauli.apply",
}
PROBE = "trace.probe"

NAME, START, END, CPU0, CPU1, PARENT, ERROR, ATTRS = range(8)


class Tracer:
    """In-memory span stack for one child process (single-threaded)."""

    def __init__(self, run_id: int) -> None:
        self.run_id = int(run_id)
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, time.process_time(),
                           0.0, parent, False, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, error: bool = False) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[CPU1] = time.process_time()
        span[ERROR] = error
        self._stack.pop()

    def probe(self, fn, *args):
        """Run tracer bookkeeping in its own span, outside the traced call."""
        index = self.open(PROBE)
        try:
            return fn(*args)
        finally:
            self.close(index)

    def records(self) -> list[dict]:
        return [
            {"name": s[NAME], "start": s[START], "end": s[END],
             "cpu_start": s[CPU0], "cpu_end": s[CPU1], "parent": s[PARENT],
             "error": s[ERROR], "attrs": s[ATTRS], "run_id": self.run_id}
            for s in self.spans
        ]

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(self.records()), encoding="utf-8")


def _digest(matrix) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{matrix.dtype.str}{matrix.shape}".encode())
    h.update(matrix.tobytes())
    return h.hexdigest()


def _eig_before(args, kwargs) -> dict:
    import numpy as np

    m = np.asarray(args[0] if args else kwargs["matrix"])
    # eig_hermitian drops an all-zero imaginary part before calling LAPACK,
    # so only a nonzero one takes the complex path.
    is_complex = bool(np.iscomplexobj(m) and np.any(m.imag))
    return {"dim": int(m.shape[0]), "complex": is_complex, "hash": _digest(m)}


def _to_dense_before(args, kwargs) -> dict:
    return {"fresh": args[0]._dense is None}


def _to_dense_after(result, attrs: dict) -> dict:
    attrs["bytes"] = int(result.nbytes) if attrs["fresh"] else 0
    attrs["hash"] = _digest(result)
    return attrs


def _emit_after(result, attrs: dict) -> dict:
    path = Path(result)
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    return {"bytes": path.stat().st_size + sidecar.stat().st_size}


# Bookkeeping before and after particular calls, keyed by qualified name.
PROBES = {
    "eig_hermitian": (_eig_before, None),
    "HamiltonianTerms.to_dense": (_to_dense_before, _to_dense_after),
    "emit": (None, _emit_after),
}


def _wrap(tracer: Tracer, group: str, fn):
    before, after = PROBES.get(fn.__qualname__, (None, None))

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = tracer.probe(before, args, kwargs) if before else None
        index = tracer.open(group)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index, error=True)
            raise
        tracer.close(index)
        if after:
            attrs = tracer.probe(after, result, attrs)
        tracer.spans[index][ATTRS] = attrs
        return result

    return traced


def install(run_id: int) -> Tracer:
    """Wrap and rebind the library's public functions; return the tracer."""
    tracer = Tracer(run_id)
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"shieldlab.{layer}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                group = FUNCTION_GROUP.get(f"{layer}.{attr}", MODULE_GROUP[layer])
                wrappers[obj] = _wrap(tracer, group, obj)
    for name, module in list(sys.modules.items()):
        if name != "shieldlab" and not name.startswith("shieldlab."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        obj[key] = wrappers[value]
    for (layer, cls_name, method), group in METHOD_GROUP.items():
        cls = getattr(sys.modules[f"shieldlab.{layer}"], cls_name)
        setattr(cls, method, _wrap(tracer, group, getattr(cls, method)))
    return tracer


# ---------------------------------------------------------------------------
# Aggregation (pure; used by the parent process and the tests)
# ---------------------------------------------------------------------------

def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one child process nest strictly (one thread), so the children
    of a span cover disjoint parts of its interval.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _layer(group: str) -> str:
    return group.split(".", 1)[0]


# Per-layer metrics: name -> (unit, better). Every traced run reports all of
# them; a count or time that a workload never touches reads 0, and so does a
# ratio whose denominator is 0.
GROUP_METRICS = (
    "thermal.eig", "thermal.state", "thermal.partial_trace",
    "thermal.trace_distance", "thermal.expectation", "thermal.report",
    "hamiltonian.to_dense", "hamiltonian.dual", "hamiltonian.terms",
    "closedform.series", "dynamics.evolve", "pauli.apply", "experiments",
    "lattice", "tables.emit", "cli",
)
LAYER_METRICS: dict[str, tuple[str, str]] = {}
for _group in GROUP_METRICS:
    LAYER_METRICS[f"{_group}.calls"] = ("count", "lower")
    LAYER_METRICS[f"{_group}.self_s"] = ("s", "lower")
LAYER_METRICS.update({
    "thermal.eig.unique_frac": ("ratio", "higher"),
    "thermal.eig.calls_complex": ("count", "lower"),
    "thermal.eig.cpu_s": ("s", "lower"),
    "thermal.eig.max_dim": ("count", "lower"),
    "thermal.eig.gflop_computed": ("GFLOP", "lower"),
    "hamiltonian.to_dense.builds": ("count", "lower"),
    "hamiltonian.to_dense.mb_computed": ("MB", "lower"),
    "hamiltonian.to_dense.unique_frac": ("ratio", "higher"),
    "tables.emit.bytes": ("bytes", "lower"),
})
for _layer_name in LAYERS:
    LAYER_METRICS[f"{_layer_name}.errors"] = ("count", "lower")
LAYER_METRICS["trace.probe_s"] = ("s", "lower")
del _group, _layer_name


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and times of one child process's spans.

    ``calls`` counts entries into a group: spans whose parent belongs to
    another group, so ``thermal_state`` calling ``gibbs`` is one call.
    ``errors`` counts exceptions that left a layer the same way.
    """
    out = {name: 0.0 for name in LAYER_METRICS}
    selfs = self_times(spans)
    hashes: dict[str, set] = {"thermal.eig": set(), "hamiltonian.to_dense": set()}
    for i, s in enumerate(spans):
        group = s["name"]
        parent = spans[s["parent"]]["name"] if s["parent"] >= 0 else None
        if group == PROBE:
            out["trace.probe_s"] += s["end"] - s["start"]
            continue
        if group in GROUP_METRICS:
            out[f"{group}.self_s"] += selfs[i]
            if parent != group:
                out[f"{group}.calls"] += 1
        if s["error"] and (parent is None or _layer(parent) != _layer(group)):
            out[f"{_layer(group)}.errors"] += 1
        attrs = s["attrs"] or {}
        if group in hashes and "hash" in attrs:
            hashes[group].add(attrs["hash"])
        if group == "thermal.eig" and attrs:
            dim = attrs["dim"]
            out["thermal.eig.cpu_s"] += s["cpu_end"] - s["cpu_start"]
            out["thermal.eig.calls_complex"] += attrs["complex"]
            out["thermal.eig.max_dim"] = max(out["thermal.eig.max_dim"], dim)
            out["thermal.eig.gflop_computed"] += (
                9.0 * dim**3 * (4 if attrs["complex"] else 1) / 1e9
            )
        elif group == "hamiltonian.to_dense" and attrs:
            out["hamiltonian.to_dense.builds"] += attrs["fresh"]
            out["hamiltonian.to_dense.mb_computed"] += attrs["bytes"] / 1e6
        elif group == "tables.emit" and attrs:
            out["tables.emit.bytes"] += attrs["bytes"]
    for group, seen in hashes.items():
        calls = out[f"{group}.calls"]
        out[f"{group}.unique_frac"] = len(seen) / calls if calls else 0.0
    return out
