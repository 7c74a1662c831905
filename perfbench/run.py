"""Repository benchmark: ``md_run``, ``serve_cold``, ``serve_burst`` and
``serve_warm``.

One workload, as the ``BENCHMARK.json`` command runs it::

    python3 perfbench/run.py --workload md_run --seed 1 --seconds 20 --trace 0

prints progress on stderr, a stamp line (``# host {...}``) and, last, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with no
instrumentation; with ``--trace 1`` they are the per-layer ones, from an
untraced phase followed by a traced phase of the same inputs.

Every workload, both ways, with tables::

    python3 perfbench/run.py --workload all

exits 1 when any output check fails.  Run from the repository root;
the program is imported from ``src/``.  See ``perfbench/README.md``
for the design.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import layers  # noqa: E402
import procs  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("md_run", "serve_cold", "serve_burst", "serve_warm")

#: End-to-end metric -> unit (every workload reports every one).
E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}

#: Server start-ups per untraced run of a served workload; ``setup_s``
#: is their median.  The MD set-up (15-27 s of minimisation on a 2-CPU
#: host) runs once per run: a second one would not fit the time budget
#: of a full set of benchmark runs.
SETUPS = 3
#: Fewest MD steps of each phase of a traced run: enough for the median
#: rebuild and steady step, while both phases fit one run's time limit.
#: It must reach the MD child's fingerprint step (40), which every phase
#: checks at the default seed.
TRACED_MIN_STEPS = 40
#: Environment knobs the program reads; unset so every workload runs
#: the program's defaults.
KNOBS = ("REPRO_KERNEL", "REPRO_BACKEND", "REPRO_WORKERS")
MD_CHILD_TIMEOUT_S = 170.0
#: Completions per throughput window of a served workload: a burst
#: workload's window is two bursts, whose results come back in clumps.
RATE_WINDOW = {"serve_cold": 10, "serve_burst": 32, "serve_warm": 32}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def clean_env(run_dir: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in KNOBS}
    env["PYTHONPATH"] = SRC
    # The service keeps per-job scratch files under TMPDIR; keep them
    # inside the checkout.
    env["TMPDIR"] = run_dir
    return env


def host_stamp() -> dict:
    digest = hashlib.blake2b(digest_size=8)
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except OSError:
            commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "src_digest": digest.hexdigest(),
    }


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median_rate(t0: float, stamps, per: int) -> float:
    """Completions per second: the median over consecutive windows of
    ``per`` completions (``stamps`` sorted, the first window opening at
    ``t0``).  A median keeps a few seconds of host stall out of it."""
    edges = [t0, *stamps][:: per]
    return float(np.median(per / np.diff(edges)))


class Outcome:
    """One workload run: metrics plus the operation/failure tally."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops = 0

    def fail(self, messages: list[str], ops: int | None = None) -> None:
        for msg in messages:
            log(f"check failed: {msg}")
        self.failures += messages
        self.failed_ops += len(messages) if ops is None else ops


# ---------------------------------------------------------------------------
# md_run
# ---------------------------------------------------------------------------


def _md_child(seed, seconds, env, min_steps=None, trace_dir=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "md_workload.py"),
           "--seed", str(seed), "--seconds", str(seconds)]
    if min_steps is not None:
        cmd += ["--min-steps", str(min_steps)]
    if trace_dir is not None:
        cmd += ["--trace-dir", trace_dir]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=MD_CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        procs.kill_tree(proc, procs.tree(proc.pid))
        raise RuntimeError("md workload child timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"md workload child exited with {proc.returncode}")
    doc = json.loads(out.strip().splitlines()[-1])
    doc["pid"] = proc.pid
    return doc


def _md_steps(doc) -> tuple[np.ndarray, np.ndarray]:
    """Per-step wall times, split into rebuild steps (the first of each
    nstlist period) and steady steps."""
    steps = np.diff([doc["t0"], *doc["stamps"]])
    period = np.s_[:: doc["nstlist"]]
    return steps[period], np.delete(steps, period)


def md_run(seed, seconds, trace, run_dir, env) -> Outcome:
    result = Outcome()
    if not trace:
        doc = _md_child(seed, seconds, env)
        rebuild, steady = _md_steps(doc)
        result.attempted = len(rebuild) + len(steady)
        result.fail(doc["failures"])
        # Step latency percentiles are over steady steps: with one
        # rebuild in every nstlist steps, a p90 over all steps would sit
        # on the boundary between the two kinds.  Rebuild cost shows in
        # the throughput, whose windows are whole periods.
        result.metrics = {
            "setup_s": doc["setup_s"],
            "throughput_per_s": median_rate(doc["t0"], doc["stamps"], doc["nstlist"]),
            "latency_p50_ms": pct(steady, 50) * 1e3,
            "latency_p90_ms": pct(steady, 90) * 1e3,
        }
        return result

    # Both phases of a traced run fit one run's time limit: each runs
    # half the seconds and at least TRACED_MIN_STEPS steps.
    doc = _md_child(seed, seconds / 2, env, TRACED_MIN_STEPS)
    rebuild, steady = _md_steps(doc)
    result.attempted = len(rebuild) + len(steady)
    result.fail(doc["failures"])
    trace_dir = os.path.join(run_dir, "spans-md")
    os.makedirs(trace_dir)
    traced = _md_child(seed, seconds / 2, env, TRACED_MIN_STEPS, trace_dir)
    result.fail(traced["failures"])
    t_rebuild, t_steady = _md_steps(traced)
    result.attempted += len(t_rebuild) + len(t_steady)
    ix = layers.SpanIndex(spans.load(trace_dir), traced["pid"])
    m = layers.traced_metrics(ix, len(t_rebuild))
    m["peak_rss_mb"] = doc["peak_rss_mb"]
    m["engine.rebuild_step_ms"] = float(np.median(rebuild)) * 1e3
    m["engine.steady_step_ms"] = float(np.median(steady)) * 1e3
    m.update(serve_only_zeros())
    m["trace_overhead_frac"] = float(np.median(t_steady) / np.median(steady)) - 1.0
    result.metrics = m
    return result


def serve_only_zeros() -> dict[str, float]:
    """Serve-tier metrics of a workload that has no server."""
    return {
        "serve.queue_wait_ms": 0.0,
        "serve.execute_ms": 0.0,
        "serve.wire_ms": 0.0,
        **layers.stats_metrics({}),
    }


# ---------------------------------------------------------------------------
# serve_cold / serve_burst / serve_warm
# ---------------------------------------------------------------------------


def serve(workload, seed, seconds, trace, run_dir, env) -> Outcome:
    import serve_workload as sw

    result = Outcome()
    phase = sw.run_phase(
        workload, seed, seconds, run_dir, env, 1 if trace else SETUPS
    )
    _tally(result, phase, seed)
    records = phase.load.records
    if not records or phase.load.errors or phase.problems:
        return result
    latency = [(r.t_done - r.t_submit) * 1e3 for r in records]
    if not trace:
        done = sorted(r.t_done for r in records)
        result.metrics = {
            "setup_s": statistics.median(phase.setup_s),
            "throughput_per_s": median_rate(phase.load.t_start, done, RATE_WINDOW[workload]),
            "latency_p50_ms": pct(latency, 50),
            "latency_p90_ms": pct(latency, 90),
        }
        return result

    m: dict[str, float] = {"peak_rss_mb": phase.peak_rss_mb}
    queue = [r.result["queue_seconds"] for r in records]
    execute = [r.result["execute_seconds"] for r in records]
    wire = [
        (r.t_done - r.t_submit) - q - e for r, q, e in zip(records, queue, execute)
    ]
    m["serve.queue_wait_ms"] = float(np.mean(queue)) * 1e3
    m["serve.execute_ms"] = float(np.mean(execute)) * 1e3
    m["serve.wire_ms"] = float(np.mean(wire)) * 1e3

    trace_dir = os.path.join(run_dir, f"spans-{workload}")
    os.makedirs(trace_dir)
    traced = sw.run_phase(workload, seed, seconds, run_dir, env, 1, trace_dir)
    _tally(result, traced, seed)
    if not traced.load.records or traced.load.errors or traced.problems:
        return result
    t_latency = [(r.t_done - r.t_submit) * 1e3 for r in traced.load.records]
    ix = layers.SpanIndex(spans.load(trace_dir), traced.server_pid)
    m.update(layers.traced_metrics(ix))
    m.update(layers.stats_metrics(traced.stats))
    m["engine.rebuild_step_ms"] = 0.0
    m["engine.steady_step_ms"] = 0.0
    m["trace_overhead_frac"] = float(np.median(t_latency) / np.median(latency)) - 1.0
    result.metrics = m
    return result


def _tally(result: Outcome, phase, seed) -> None:
    import serve_workload as sw

    result.attempted += len(phase.load.records) + len(phase.load.errors)
    result.fail(phase.load.errors)
    result.fail(phase.problems)
    if phase.load.records:
        failures, bad = sw.check_outputs(phase, seed)
        result.fail(failures, bad)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace) -> Outcome:
    run_dir = os.path.join(".perfbench", f"run-{os.getpid()}-{workload}-{trace}")
    os.makedirs(run_dir)
    env = clean_env(os.path.abspath(run_dir))
    try:
        if workload == "md_run":
            result = md_run(seed, seconds, trace, run_dir, env)
        else:
            result = serve(workload, seed, seconds, trace, run_dir, env)
    except Exception as exc:  # a broken run is a failed run, not a crash
        result = Outcome()
        result.attempted = 1
        result.fail([f"{type(exc).__name__}: {exc}"])
    if trace:
        total = max(result.attempted, 1)
        result.metrics["failed_frac"] = result.failed_ops / total
    if not result.failures:
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        log(f"run directory kept for inspection: {run_dir}")
    return result


def result_line(result: Outcome, trace: int) -> dict:
    units = layers.UNITS if trace else E2E_UNITS
    attempted = max(result.attempted, 1)
    return {
        "correct": not result.failures,
        "attempted": attempted,
        "failed": min(max(result.failed_ops, 1 if result.failures else 0), attempted),
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in result.metrics
        },
    }


def _table(title: str, rows: dict[str, dict], units: dict) -> str:
    names = list(rows)
    lines = [title, f"{'metric':34s} {'unit':8s} " + " ".join(f"{n:>14s}" for n in names)]
    for metric, unit in units.items():
        cells = []
        for n in names:
            val = rows[n].get(metric)
            cells.append(f"{val:14.4g}" if val is not None else f"{'-':>14s}")
        lines.append(f"{metric:34s} {unit:8s} " + " ".join(cells))
    return "\n".join(lines)


def run_all(seed: int, seconds: float) -> int:
    e2e, per_layer, ok = {}, {}, True
    for workload in WORKLOADS:
        for trace in (0, 1):
            log(f"{workload} trace={trace}")
            res = run_workload(workload, seed, seconds, trace)
            line = result_line(res, trace)
            ok = ok and line["correct"]
            print(f"# {workload} trace={trace} " + json.dumps(line), flush=True)
            (per_layer if trace else e2e)[workload] = res.metrics
    print(_table("end to end (untraced)", e2e, E2E_UNITS))
    print()
    print(_table("per layer (traced run)", per_layer, layers.UNITS))
    print(json.dumps({"host": host_stamp(), "correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Repository benchmark.")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"no program to measure: {SRC}/repro is missing "
            "(run from a full checkout of the repository)")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    for knob in KNOBS:
        os.environ.pop(knob, None)
    procs.become_subreaper()

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    t0 = time.perf_counter()
    res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    log(f"{args.workload} done in {time.perf_counter() - t0:.1f} s")
    print("# host " + json.dumps(host_stamp()))
    print(json.dumps(result_line(res, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
