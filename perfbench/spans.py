"""In-memory span tracing of sirvar's modules, installed from outside the package.

``Tracer.install`` wraps every public function defined in each layer module
(``cli``, ``core``, ``sd``, ``montecarlo``, ``network``, ``abm``, ``stats``,
``io``) plus the ``EnsembleResult.matrix`` property, and rebinds every name
under ``sirvar`` that refers to the original, so calls made through
``from .x import y`` bindings are traced too.  ``uninstall`` restores the
originals, so untraced samples run the program exactly as shipped.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
enclosing span or -1.  A span's self time is its duration minus the
durations of its direct children.  Spans recorded inside pool workers stay
in the worker and are lost; the bytes the parent pickles for the pool are
counted instead.
"""

from __future__ import annotations

import inspect
import os
import sys
from multiprocessing.reduction import ForkingPickler
from time import perf_counter

import numpy as np

LAYERS = ("cli", "core", "sd", "montecarlo", "network", "abm", "stats", "io")

# A weekly series whose peak reaches this many infectious agents counts as
# an outbreak that took off.
OUTBREAK_PEAK = 100


def _note_steps(args, kwargs, result):
    return len(result) - 1


def _note_topology(args, kwargs, result):
    return result


def _note_abm(args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    return params.population, result.infected


# Cheap per-call notes, turned into counts after the sample so that the
# counting itself never lands inside a traced span.
_NOTES = {
    "sd.integrate": _note_steps,
    "network.build_small_world": _note_topology,
    "abm.run_abm": _note_abm,
}


class Tracer:
    """Records spans and pool traffic while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.notes: dict[str, list] = {}
        self.pool_bytes = 0
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    def _wrap(self, name, fn):
        note = _NOTES.get(name)

        def traced(*args, **kwargs):
            spans, stack = self.spans, self._open
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if note is not None:
                self.notes.setdefault(name, []).append(note(args, kwargs, result))
            return result

        return traced

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layer modules' public functions; requires sirvar imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules.get(f"sirvar.{layer}")
            for attr, obj in vars(module).items() if module else ():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if name != "sirvar" and not name.startswith("sirvar."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, attr, hit[1])

        ensemble_cls = sys.modules["sirvar.core"].EnsembleResult
        matrix = ensemble_cls.__dict__.get("matrix")
        if isinstance(matrix, property):
            self._set(ensemble_cls, "matrix",
                      property(self._wrap("core.EnsembleResult.matrix", matrix.fget)))

        original_dumps = ForkingPickler.__dict__["dumps"].__func__

        def dumps(cls, obj, protocol=None):
            buf = original_dumps(cls, obj, protocol)
            if os.getpid() == self._pid:
                self.pool_bytes += len(buf)
            return buf

        self._set(ForkingPickler, "dumps", classmethod(dumps))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    own = np.array([end - start for _, start, end, _ in spans], dtype=float)
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def nesting_errors(spans, t0: float, t1: float) -> list[str]:
    """Structural faults: children outside parents, overlapping siblings,
    roots outside the sample's ``[t0, t1]`` window."""
    errors = []
    last_end = {}
    for index, (name, start, end, parent) in enumerate(spans):
        lo, hi = (t0, t1) if parent < 0 else (spans[parent][1], spans[parent][2])
        if not (0 <= parent + 1 <= index and lo <= start <= end <= hi):
            errors.append(f"span {index} {name} lies outside its parent")
        if start < last_end.get(parent, -np.inf):
            errors.append(f"span {index} {name} overlaps an earlier sibling")
        last_end[parent] = end
    return errors


def _rewired_edges(topo) -> int:
    """Edges of the graph that are not edges of the ring lattice it started as."""
    edges = topo.edges()
    half_k = topo.edge_count // topo.n  # the build keeps n * k / 2 edges
    gap = edges[:, 1] - edges[:, 0]
    ring = np.minimum(gap, topo.n - gap)
    return int(np.count_nonzero(ring > half_k))


def layer_metrics(tracer: Tracer, wall: float, replicates: int, threads: int,
                  serial: Tracer | None = None) -> dict[str, float]:
    """Per-layer metrics of one traced sample of wall time ``wall``.

    With a process pool the ``run_abm`` spans happen in the workers, so the
    metrics of those spans come from ``serial``, a traced serial run of the
    same command.
    """
    spans = tracer.spans
    own = self_times(spans)
    names = [s[0] for s in spans]
    dur = np.array([end - start for _, start, end, _ in spans], dtype=float)

    def calls(name):
        return sum(1 for n in names if n == name)

    def total(name, values=dur):
        return float(sum(v for n, v in zip(names, values) if n == name))

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(sum(v for n, v in zip(names, own)
                                         if n.split(".", 1)[0] == layer))
    m["core.EnsembleResult.matrix.calls"] = calls("core.EnsembleResult.matrix")

    steps = sum(tracer.notes.get("sd.integrate", []))
    m["sd.integrate.calls"] = calls("sd.integrate")
    m["sd.integrate.s"] = total("sd.integrate")
    m["sd.integrate.steps"] = steps
    m["sd.integrate.ns_per_step"] = m["sd.integrate.s"] / steps * 1e9 if steps else 0.0
    m["sd.weekly_sample.s"] = total("sd.weekly_sample")

    m["montecarlo.run_sd_ensemble.self_s"] = total("montecarlo.run_sd_ensemble", own)
    m["montecarlo.count_clamped.s"] = total("montecarlo.count_clamped")

    builds = calls("network.build_small_world")
    m["network.build_small_world.calls"] = builds
    m["network.build_small_world.s"] = total("network.build_small_world")
    m["network.build_small_world.ms_per_call"] = (
        m["network.build_small_world.s"] / builds * 1e3 if builds else 0.0)
    m["network.rewired_edges"] = sum(
        _rewired_edges(t) for t in tracer.notes.get("network.build_small_world", []))

    m.update(abm_metrics(serial or tracer))
    ensemble_s = total("abm.run_abm_ensemble")
    m["abm.run_abm_ensemble.self_s"] = total("abm.run_abm_ensemble", own)
    m["abm.pool.job_bytes"] = tracer.pool_bytes / replicates if ensemble_s else 0.0
    m["abm.pool.efficiency"] = (m["abm.run_abm.s"] / (threads * ensemble_s)
                                if ensemble_s else 0.0)

    for name in ("weekly_summary", "median_series", "wilcoxon_signed_rank"):
        m[f"stats.{name}.s"] = total(f"stats.{name}")
    m["io.save_ensemble.s"] = total("io.save_ensemble")
    m["io.load_run.s"] = total("io.load_run")

    m["trace.spans"] = len(spans)
    m["trace.self_cover"] = float(own.sum()) / wall
    return m


def abm_metrics(tracer: Tracer) -> dict[str, float]:
    """Metrics of the ``run_abm`` spans, the ones pool workers hide."""
    durations = [end - start for name, start, end, _ in tracer.spans if name == "abm.run_abm"]
    notes = tracer.notes.get("abm.run_abm", [])
    ms = np.array(durations) * 1e3
    return {
        "abm.run_abm.calls": len(durations),
        "abm.run_abm.s": float(sum(durations)),
        "abm.run_abm.ms_p50": float(np.percentile(ms, 50)) if ms.size else 0.0,
        "abm.run_abm.ms_p90": float(np.percentile(ms, 90)) if ms.size else 0.0,
        "abm.agent_days": sum(n * 7 * weekly.size for n, weekly in notes),
        "abm.infectious_weeks": float(sum(weekly.sum() for _, weekly in notes)),
        "abm.outbreak_share": (sum(weekly.max() >= OUTBREAK_PEAK for _, weekly in notes)
                               / len(notes) if notes else 0.0),
    }
