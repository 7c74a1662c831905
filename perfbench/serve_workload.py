"""The served workloads: ``serve_cold``, ``serve_burst`` and ``serve_warm``.

Each phase starts the ``repro serve`` CLI as a child process on a Unix
socket, waits until it answers, drives it closed-loop from one or two
client threads through ``ServeClient``, reads the ``stats`` op, drains it, and
then kills and reaps whatever is left of its process tree.  Served
payloads are checked afterwards against the in-process direct path
(``repro.serve.jobs.execute_request``).
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import procs

N_PARTICLES = 900
R_CUT = 0.9
#: The kernel strategies a legacy request may name.
SPECS = ("CACHE", "GLD", "MARK", "ORI", "PKG", "RCA", "RMA", "USTC", "VEC")
#: Scenario rungs (each maps onto one strategy).
RUNGS = ("ori", "pkg", "cache", "vec", "fused")
#: Client threads per workload.  ``serve_burst`` has one: its jobs take
#: a few milliseconds each, so a second client thread made its rate
#: depend on how the host schedules three busy threads on two CPUs,
#: and its runs spread past their bound on a loaded host.
CLIENTS = {"serve_cold": 2, "serve_burst": 1, "serve_warm": 2}
#: Jobs each burst client submits before waiting for them.
BURST = 16
#: Scenario-spec jobs in a burst; the rest use the legacy fields.
SCENARIO_JOBS = BURST // 4
#: Systems the ``serve_warm`` jobs draw from: fixed, not drawn from
#: the workload seed.  Which pool lane owns a system is a hash of its
#: key, and whether a lane's keys fit its resident capacity swings
#: throughput several-fold, so per-seed systems would measure hash
#: placement instead of the program.  The seed varies the job mix.
WARM_SYSTEMS = tuple(2019 + i for i in range(4))
#: Systems per ``serve_burst`` run, drawn from the seed.  The serial
#: backend keeps one resident cache (capacity 4 by default); a legacy
#: and a scenario job on one system hold two keys of it, so two systems
#: keep every key resident.
BURST_SYSTEMS = 2
#: Fewest jobs a phase completes, so p90 has ten samples beyond it.
#: Peak RSS is read when this many jobs are done: the service keeps
#: every result, so its memory grows with the job count, and a faster
#: program must not read as a fatter one.
MIN_JOBS = {"serve_cold": 100, "serve_burst": 2000, "serve_warm": 100}
#: Bound on one client round trip; a timeout fails the run.
REQUEST_TIMEOUT_S = 30.0
#: Readiness probe interval (fixed, so set-up time is not quantised).
PROBE_INTERVAL_S = 0.002
PROBE_LIMIT_S = 60.0
#: Distinct requests re-executed in-process after each phase.
CHECK_SAMPLE = 6

SERVER_FLAGS = {
    "serve_cold": [],
    "serve_burst": [],
    "serve_warm": ["--backend", "pool", "--workers", "2"],
}


@dataclass
class Record:
    request: dict
    t_submit: float
    t_done: float
    result: dict


@dataclass
class Load:
    """What one phase's clients observed."""

    min_jobs: int = 0
    t_start: float = 0.0
    records: list[Record] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)
    abort: threading.Event = field(default_factory=threading.Event)

    def add(self, rec: Record) -> None:
        with self.lock:
            self.records.append(rec)

    def fail(self, message: str) -> None:
        with self.lock:
            self.errors.append(message)
        self.abort.set()

    def done_count(self) -> int:
        with self.lock:
            return len(self.records)


# ---------------------------------------------------------------------------
# request streams (a pure function of the workload seed)
# ---------------------------------------------------------------------------


def cold_request(seed: int, k: int) -> dict:
    """The k-th ``serve_cold`` job: a system no other job shares."""
    return {
        "kind": "kernel",
        "n_particles": N_PARTICLES,
        "r_cut": R_CUT,
        "seed": seed * 100_000 + k,
        "spec": SPECS[k % len(SPECS)],
    }


def burst_systems(workload: str, seed: int) -> tuple[int, ...]:
    """The system seeds a burst workload's jobs share."""
    if workload == "serve_warm":
        return WARM_SYSTEMS
    return tuple(seed * 100 + i for i in range(BURST_SYSTEMS))


def burst_jobs(systems, seed: int, client: int, burst: int) -> list[dict]:
    """One burst over the shared ``systems``: 12 legacy-field jobs (3 of
    them returning forces) and 4 scenario-spec jobs (two in each
    spelling), every system used equally often.  The seed picks
    strategies, rungs and order; fixed shares keep the mix, and so the
    work per job, the same on every seed."""
    rng = np.random.default_rng([seed, client, burst])
    n_sys = len(systems)
    legacy_seeds = rng.permutation(
        np.repeat(systems, (BURST - SCENARIO_JOBS) // n_sys)
    )
    forces = rng.permutation(np.arange(len(legacy_seeds)) < len(legacy_seeds) // 4)
    specs = rng.choice(SPECS, size=len(legacy_seeds))
    jobs = [
        {
            "kind": "kernel",
            "n_particles": N_PARTICLES,
            "r_cut": R_CUT,
            "seed": int(sys_seed),
            "spec": str(spec),
            "return_forces": bool(rf),
        }
        for sys_seed, spec, rf in zip(legacy_seeds, specs, forces)
    ]
    prefixes = ("water", "water@spc elec=rf")
    scenario_seeds = np.repeat(rng.permutation(systems), SCENARIO_JOBS // n_sys)
    for i, sys_seed in enumerate(scenario_seeds):
        rung = RUNGS[int(rng.integers(len(RUNGS)))]
        jobs.append({
            "kind": "kernel",
            "scenario": f"{prefixes[i % 2]} n={N_PARTICLES} seed={sys_seed} rung={rung}",
        })
    return [jobs[i] for i in rng.permutation(len(jobs))]


# ---------------------------------------------------------------------------
# clients
# ---------------------------------------------------------------------------


def _client(sock_path: str):
    from repro.serve.client import ServeClient

    return ServeClient(socket_path=sock_path, timeout=REQUEST_TIMEOUT_S)


def _cold_client(sock_path, seed, deadline, load: Load, counter, cid):
    client = _client(sock_path)
    while not load.abort.is_set():
        if time.perf_counter() >= deadline and load.done_count() >= load.min_jobs:
            return
        with load.lock:
            k = next(counter)
        req = cold_request(seed, k)
        t0 = time.perf_counter()
        try:
            res = client.submit(req, wait=True)
        except Exception as exc:  # every failure ends the run
            load.fail(f"client {cid} job {k}: {type(exc).__name__}: {exc}")
            return
        load.add(Record(req, t0, time.perf_counter(), res.to_dict()))


def _burst_client(sock_path, seed, deadline, load: Load, systems, cid):
    client = _client(sock_path)
    burst = 0
    while not load.abort.is_set():
        if time.perf_counter() >= deadline and load.done_count() >= load.min_jobs:
            return
        pending = []
        try:
            for req in burst_jobs(systems, seed, cid, burst):
                t0 = time.perf_counter()
                pending.append((req, t0, client.submit(req, wait=False)))
            for req, t0, job_id in pending:
                res = client.wait(job_id)
                load.add(Record(req, t0, time.perf_counter(), res.to_dict()))
        except Exception as exc:  # every failure ends the run
            load.fail(f"client {cid} burst {burst}: {type(exc).__name__}: {exc}")
            return
        burst += 1


# ---------------------------------------------------------------------------
# server lifecycle
# ---------------------------------------------------------------------------


def _spawn(workload: str, run_dir: str, tag: str, env: dict, trace_dir):
    sock_path = os.path.join(run_dir, f"{tag}.sock")
    flags = SERVER_FLAGS[workload]
    if trace_dir is None:
        cmd = [sys.executable, "-m", "repro", *flags, "serve"]
    else:
        here = os.path.dirname(os.path.abspath(__file__))
        cmd = [sys.executable, os.path.join(here, "serve_child.py"),
               trace_dir, *flags, "serve"]
    cmd += ["--socket", sock_path]
    log = open(os.path.join(run_dir, f"{tag}.log"), "w")
    try:
        proc = subprocess.Popen(
            cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
    finally:
        log.close()
    return proc, sock_path


def _ready(proc, sock_path: str, t_spawn: float) -> float:
    """Seconds from spawn until the socket answers a ping; polls at a
    fixed fine interval."""
    request = json.dumps({"op": "ping"}).encode() + b"\n"
    while True:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with {proc.returncode} before answering")
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(REQUEST_TIMEOUT_S)
                sock.connect(sock_path)
                sock.sendall(request)
                if json.loads(sock.makefile("rb").readline()).get("ok"):
                    return time.perf_counter() - t_spawn
        except (FileNotFoundError, ConnectionRefusedError):
            pass
        if time.perf_counter() - t_spawn > PROBE_LIMIT_S:
            raise RuntimeError("server did not answer within the probe limit")
        time.sleep(PROBE_INTERVAL_S)


def _shutdown(proc, sock_path: str, graceful: bool, tree: set[int]) -> list[str]:
    """Drain (when ``graceful``), then kill and reap the whole server
    tree (``tree``: its members while the server was up); returns
    problems found (a failed drain, stray segments)."""
    problems = []
    if graceful:
        try:
            _client(sock_path).drain()
            proc.wait(timeout=REQUEST_TIMEOUT_S)
        except Exception as exc:
            problems.append(f"drain failed: {type(exc).__name__}: {exc}")
    procs.kill_tree(proc, tree)
    if graceful and proc.returncode != 0 and not problems:
        problems.append(f"server exited with {proc.returncode}")
    stray = procs.stray_segments(tree)
    if stray and graceful:
        problems.append(f"{len(stray)} shared-memory segment(s) left: {stray}")
    procs.unlink_segments(stray)
    return problems


@dataclass
class Phase:
    setup_s: list[float]
    load: Load
    stats: dict
    peak_rss_mb: float
    problems: list[str]
    server_pid: int = 0


def run_phase(workload, seed, seconds, run_dir, env, setups, trace_dir=None) -> Phase:
    """``setups`` server start-ups (the last one carries the load)."""
    setup_s: list[float] = []
    problems: list[str] = []
    for i in range(setups):
        tag = f"{workload}-{'traced' if trace_dir else 'plain'}-{i}"
        t_spawn = time.perf_counter()
        proc, sock_path = _spawn(workload, run_dir, tag, env, trace_dir)
        try:
            setup_s.append(_ready(proc, sock_path, t_spawn))
        except Exception as exc:
            problems.append(f"start-up: {exc}")
            _shutdown(proc, sock_path, False, procs.tree(proc.pid))
            return Phase(setup_s, Load(), {}, float("nan"), problems, proc.pid)
        if i < setups - 1:
            problems += _shutdown(proc, sock_path, True, procs.tree(proc.pid))
    load = Load(MIN_JOBS[workload])
    if workload == "serve_cold":
        target, shared = _cold_client, iter(range(1 << 62))
    else:
        target, shared = _burst_client, burst_systems(workload, seed)
    load.t_start = time.perf_counter()
    deadline = load.t_start + seconds
    threads = [
        threading.Thread(
            target=target,
            args=(sock_path, seed, deadline, load, shared, cid),
            daemon=True,
        )
        for cid in range(CLIENTS[workload])
    ]
    for t in threads:
        t.start()
    tree: set[int] = set()
    rss = None
    while any(t.is_alive() for t in threads):
        if rss is None and load.done_count() >= load.min_jobs:
            rss = procs.tree_peak_rss_mb(proc.pid)
        if load.abort.is_set() and not tree:
            # A hung or failed server: stop it so the other client's
            # round trip ends now instead of at its own timeout.
            tree = procs.tree(proc.pid)
            procs.kill_tree(proc, tree)
        for t in threads:
            t.join(timeout=0.05)
    stats: dict = {}
    graceful = not load.abort.is_set()
    if graceful:
        tree = procs.tree(proc.pid)
        if rss is None:
            rss = procs.tree_peak_rss_mb(proc.pid)
        try:
            stats = _client(sock_path).stats()["stats"]
        except Exception as exc:
            problems.append(f"stats op: {type(exc).__name__}: {exc}")
    problems += _shutdown(proc, sock_path, graceful, tree)
    return Phase(setup_s, load, stats, float("nan") if rss is None else rss,
                 problems, proc.pid)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

_COMPARED = ("energy", "forces_fp", "modelled_seconds")


def check_outputs(phase: Phase, seed: int) -> tuple[list[str], int]:
    """Failed checks, and how many jobs they cover.

    Every job must succeed; every job of one fingerprint must carry one
    payload; a sample of the distinct requests, re-executed in-process,
    must match the served payload bit for bit."""
    from repro.serve.jobs import JobRequest, execute_request

    failures: list[str] = []
    bad_jobs = 0
    by_fp: dict[str, tuple[dict, dict]] = {}
    for rec in phase.load.records:
        res = rec.result
        if not res["ok"]:
            failures.append(f"job {res['job_id']} failed: {res['error']}")
            bad_jobs += 1
            continue
        first = by_fp.setdefault(res["fingerprint"], (rec.request, res["payload"]))
        if any(first[1].get(k) != res["payload"].get(k) for k in _COMPARED):
            failures.append(f"fingerprint {res['fingerprint']} served two payloads")
            bad_jobs += 1
    rng = np.random.default_rng(seed)
    fps = sorted(by_fp)
    for fp in rng.permutation(fps)[:CHECK_SAMPLE]:
        request, served = by_fp[fp]
        direct = execute_request(JobRequest.from_dict(request))
        wrong = [k for k in _COMPARED if direct[k] != served.get(k)]
        if "forces" in direct:
            got = np.asarray(served.get("forces"), dtype=direct["forces"].dtype)
            if got.shape != direct["forces"].shape or not np.array_equal(
                got, direct["forces"]
            ):
                wrong.append("forces")
        if wrong:
            failures.append(f"request {request} differs from the direct path in {wrong}")
            bad_jobs += sum(
                1 for r in phase.load.records if r.result["fingerprint"] == fp
            )
    return failures, bad_jobs
