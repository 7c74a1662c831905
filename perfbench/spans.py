"""Host-clock spans recorded around the program's public layer functions.

The program carries no host-clock instrumentation of its own, so the
traced run wraps each layer's public entry point from here.  A wrapper
replaces the function (or method) in *every* loaded ``repro`` module
that binds it, so call sites that imported the name directly are
covered as well as attribute lookups.  Processes forked after
:func:`install` (the pool's lane workers) inherit the wrappers.

Spans stay in memory as tuples ``(name, start, end, span_id,
parent_id, tid, attrs)``; the parent is the innermost open span of the
same thread.  Each process writes its spans once, at exit, to
``spans-<pid>.json`` under the directory given to :func:`install`.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

#: Layer name -> (module, attribute path) of the public entry point.
#: Container layers (whose self time is unattributed) are listed in
#: ``CONTAINERS``.
LAYERS = {
    "md.water.build": ("repro.md.water", "build_water_system"),
    "md.minimize": ("repro.md.minimize", "minimize"),
    "md.pairlist.build": ("repro.md.pairlist", "build_pair_list"),
    "core.short_range": ("repro.core.vectorized", "compute_short_range_impl"),
    "core.kernels.run_kernel": ("repro.core.kernels", "run_kernel"),
    "core.stepcache.short_range": ("repro.core.stepcache", "StepCache.short_range"),
    "md.integrator.step": ("repro.md.integrator", "LeapfrogIntegrator.step"),
    "engine.run": ("repro.core.engine", "SWGromacsEngine.run"),
    "scenarios.concretize": ("repro.scenarios.spec", "concretize_text"),
    "serve.admit": ("repro.serve.queue", "JobQueue.admit"),
    "serve.batch_collect": ("repro.serve.batcher", "Batcher.collect"),
    "serve.execute": ("repro.serve.service", "SimulationService._execute_blocking"),
    "serve.execute_batch": ("repro.serve.residency", "execute_batch_with"),
    "serve.payload_encode": ("repro.serve.jobs", "JobResult.to_dict"),
    "parallel.pool.run_on": ("repro.parallel.pool", "PoolBackend.run_on"),
    "parallel.pool.lane_task": ("repro.serve.residency", "execute_batch_resident"),
}

#: Layers that only group others: their self time is the unattributed
#: remainder, not the cost of a layer.
CONTAINERS = ("engine.run", "serve.execute", "parallel.pool.lane_task", "bench.setup")

#: Modules imported before wrapping, so every module-level binding of a
#: layer function exists when the bindings are rewritten.
_PRELOAD = (
    "repro.cli",
    "repro.core.engine",
    "repro.md",
    "repro.serve",
    "repro.serve.service",
    "repro.serve.residency",
    "repro.scenarios",
    "repro.scenarios.registry",
)


class _State:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.ids = itertools.count(1)
        self.local = threading.local()
        self.out_dir: str | None = None
        self.enabled = False
        self.pid = os.getpid()


_STATE = _State()
_UNSET = object()


def _stack() -> list:
    stack = getattr(_STATE.local, "stack", None)
    if stack is None:
        stack = _STATE.local.stack = []
    return stack


def _adopt_forked_process() -> None:
    """First span in a forked child: drop the parent's buffered spans
    and write this process's own at its exit.  Pool workers leave
    through ``multiprocessing``'s exit path, which skips ``atexit`` but
    runs ``multiprocessing.util.Finalize`` callbacks."""
    import multiprocessing.util

    _STATE.pid = os.getpid()
    _STATE.spans = []
    _STATE.local = threading.local()
    multiprocessing.util.Finalize(None, flush, exitpriority=10)


def _attrs_for(name: str, target, result, before) -> dict | None:
    """Counters read at the boundary where the work happens."""
    if name == "core.stepcache.short_range":
        return {"eval": target.stats.sr_evals != before}
    if name == "scenarios.concretize":
        return {"miss": target.cache_info().misses != before}
    if name == "serve.batch_collect":
        return {"jobs": result.n_jobs, "units": result.n_units}
    if name == "serve.execute_batch":
        arena = inline = 0
        for payload in result.payloads:
            if payload is None:
                continue
            arena += "forces_ref" in payload
            inline += "forces" in payload
        return {"arena": arena, "inline": inline}
    return None


def _counter_before(name: str, target):
    if name == "core.stepcache.short_range":
        return target.stats.sr_evals
    if name == "scenarios.concretize":
        return target.cache_info().misses
    return None


def _wrap(name: str, fn, counter_target=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not _STATE.enabled:
            return fn(*args, **kwargs)
        if os.getpid() != _STATE.pid:
            _adopt_forked_process()
        stack = _stack()
        parent = stack[-1] if stack else 0
        sid = next(_STATE.ids)
        stack.append(sid)
        target = counter_target if counter_target is not None else (
            args[0] if args else None
        )
        before = _counter_before(name, target)
        result = _UNSET
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            attrs = (
                None if result is _UNSET
                else _attrs_for(name, target, result, before)
            )
            _STATE.spans.append(
                (name, t0, t1, sid, parent, threading.get_ident(), attrs)
            )

    wrapper.__perfbench_original__ = fn
    return wrapper


class span:
    """Context manager recording one span from the benchmark's own code
    (used for the set-up container of the MD workload)."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self):
        if _STATE.enabled:
            stack = _stack()
            self.parent = stack[-1] if stack else 0
            self.sid = next(_STATE.ids)
            stack.append(self.sid)
            self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if _STATE.enabled:
            t1 = time.perf_counter()
            _stack().pop()
            _STATE.spans.append(
                (self.name, self.t0, t1, self.sid, self.parent,
                 threading.get_ident(), None)
            )


def install(out_dir: str) -> None:
    """Wrap every layer in :data:`LAYERS` and start recording.  Spans
    are written to ``out_dir`` when each process exits."""
    for module in _PRELOAD:
        importlib.import_module(module)
    for name, (module_name, path) in LAYERS.items():
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, _wrap(name, cls.__dict__[meth]))
            continue
        original = getattr(module, path)
        counter_target = original if name == "scenarios.concretize" else None
        wrapped = _wrap(name, original, counter_target)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro"):
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapped)
    _STATE.out_dir = out_dir
    _STATE.pid = os.getpid()
    _STATE.enabled = True
    atexit.register(flush)


def set_enabled(on: bool) -> None:
    """Pause or resume recording in this process (checks run after the
    timed phase are not part of any layer's cost)."""
    _STATE.enabled = on


def flush() -> None:
    """Write this process's spans (once) to ``spans-<pid>.json``."""
    if _STATE.out_dir is None or not _STATE.spans:
        return
    path = os.path.join(_STATE.out_dir, f"spans-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump({"pid": os.getpid(), "spans": _STATE.spans}, fh)
    _STATE.spans = []


def load(out_dir: str) -> dict[int, list[tuple]]:
    """pid -> spans, from every file :func:`flush` wrote in ``out_dir``."""
    out: dict[int, list[tuple]] = {}
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(out_dir, entry)) as fh:
                doc = json.load(fh)
            out[int(doc["pid"])] = [tuple(s) for s in doc["spans"]]
    return out
