"""The ``md_run`` workload: what ``repro run`` does, timed per step.

Runs in its own process (started by ``run.py``) so its peak RSS and, in
the traced phase, its layer wrappers belong to this workload alone.
Builds a 1500-particle water box (rcut 0.9), minimizes it for 60 steps,
thermalizes it and constructs ``SWGromacsEngine`` at level 3 with the
default config, exactly as ``repro run`` does.  The engine then runs
whole nstlist periods until ``--seconds`` have passed and at least
``MIN_STEPS`` steps are done, stamping every step through the engine's
``progress`` observer.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spans  # noqa: E402

N_PARTICLES = 1500
R_CUT = 0.9
MINIMIZE_STEPS = 60
#: Fewest steps a run makes, so the p90 of the steady (non-rebuild)
#: step times has ten samples beyond it.
MIN_STEPS = 120
#: Step after which the trajectory fingerprint is taken.
FP_STEP = 40
#: The seed whose trajectory fingerprint is pinned.
DEFAULT_SEED = 2019
#: ``positions_fp`` after ``FP_STEP`` steps at ``DEFAULT_SEED``.
EXPECTED_FP = "566533b479628699138e244671b6a9d5"
#: Largest relative deviation of a constrained distance.
CONSTRAINT_TOL = 1e-4


class _Stop(Exception):
    """Raised by the observer to end the run at a period boundary."""


class StepStamps:
    """``progress`` observer: a wall stamp per step, and the end of the
    run once the time budget is spent at a whole nstlist period."""

    def __init__(self, system, nstlist, seconds, min_steps):
        from repro.core.stepcache import position_fingerprint

        self._fingerprint = position_fingerprint
        self.system = system
        self.nstlist = nstlist
        self.seconds = seconds
        self.min_steps = min_steps
        self.stamps: list[float] = []
        self.thermo: list[tuple[float, float]] = []
        self.fp_at_check: str | None = None
        self.t0 = 0.0

    def update(self, done: int, total: int) -> None:
        now = time.perf_counter()
        self.stamps.append(now)
        if done == FP_STEP:
            self.fp_at_check = self._fingerprint(self.system.positions).hex()
        if done % self.nstlist == 0:
            self.thermo.append(
                (self.system.kinetic_energy(), self.system.temperature())
            )
            if now - self.t0 >= self.seconds and done >= self.min_steps:
                raise _Stop


def _set_up(seed: int):
    from repro.core.engine import EngineConfig, SWGromacsEngine
    from repro.md.mdloop import MdConfig
    from repro.md.minimize import minimize
    from repro.md.nonbonded import NonbondedParams
    from repro.md.water import build_water_system

    nb = NonbondedParams(r_cut=R_CUT, r_list=R_CUT + 0.1, coulomb_mode="rf")
    with spans.span("bench.setup"):
        system = build_water_system(N_PARTICLES, seed=seed)
        minimize(system, MdConfig(nonbonded=nb), n_steps=MINIMIZE_STEPS)
        system.thermalize(300.0, np.random.default_rng(seed + 1))
        engine = SWGromacsEngine(
            system, EngineConfig(nonbonded=nb, optimization_level=3)
        )
    return engine, nb


def _checks(engine, nb, observer: StepStamps, seed: int) -> list[str]:
    """Output checks; each returned string is one failed check."""
    from repro.core.stepcache import StepCache
    from repro.md.pairlist import build_pair_list

    system = engine.system
    failures = []
    if not (
        np.isfinite(system.positions).all()
        and np.isfinite(system.velocities).all()
    ):
        failures.append("non-finite positions or velocities")
    for kinetic, temperature in observer.thermo:
        if not (math.isfinite(kinetic) and math.isfinite(temperature)):
            failures.append(f"non-finite thermo: KE={kinetic} T={temperature}")
            break
    sr = StepCache().short_range(
        system, build_pair_list(system, nb.r_list), nb, dtype=np.float32
    )
    if not math.isfinite(float(sr.energy)):
        failures.append(f"non-finite potential energy {sr.energy}")
    cons = system.topology.constraints
    if cons:
        i = np.array([c.i for c in cons])
        j = np.array([c.j for c in cons])
        d0 = np.array([c.distance for c in cons])
        d = system.box.distance(system.positions[i], system.positions[j])
        worst = float(np.max(np.abs(d - d0) / d0))
        if not worst < CONSTRAINT_TOL:
            failures.append(f"constraint residual {worst:.3g} >= {CONSTRAINT_TOL}")
    if seed == DEFAULT_SEED and observer.fp_at_check != EXPECTED_FP:
        failures.append(
            f"positions_fp after {FP_STEP} steps {observer.fp_at_check} "
            f"!= {EXPECTED_FP}"
        )
    return failures


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-steps", type=int, default=MIN_STEPS)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    if args.trace_dir:
        spans.install(args.trace_dir)

    t0 = time.perf_counter()
    engine, nb = _set_up(args.seed)
    setup_s = time.perf_counter() - t0

    observer = StepStamps(engine.system, nb.nstlist, args.seconds, args.min_steps)
    observer.t0 = time.perf_counter()
    try:
        engine.run(1 << 30, progress=observer)
    except _Stop:
        pass
    spans.set_enabled(False)

    failures = _checks(engine, nb, observer, args.seed)
    print(json.dumps({
        "setup_s": setup_s,
        "t0": observer.t0,
        "stamps": observer.stamps,
        "nstlist": nb.nstlist,
        "peak_rss_mb": _peak_rss_mb(),
        "failures": failures,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
