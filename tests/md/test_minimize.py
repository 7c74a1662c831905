"""Steepest descent builds one pair list per force evaluation.

A rejected trial restores the previous positions without rebuilding:
the next trial rebuilds before anything reads the list.  The final
state is pinned to values recorded while the rejected-trial rebuild
still ran, so dropping it changed no output.
"""

import numpy as np

from repro.core.stepcache import position_fingerprint
from repro.md import mdloop
from repro.md.mdloop import MdConfig, MdLoop
from repro.md.minimize import minimize
from repro.md.nonbonded import NonbondedParams
from repro.md.water import build_water_system

#: 30 steps on a 600-atom SPC box (seed 3, rf, rcut 0.8).
FINAL_POSITIONS_FP = "5737e490acbb7b59596fadbd2d19f098"
FINAL_ENERGY = -5553.776232683623


def test_one_build_per_force_evaluation(monkeypatch):
    builds = []
    energies = []
    build = mdloop.build_pair_list
    forces = MdLoop.compute_forces

    def counting_build(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    def recording_forces(self, *args, **kwargs):
        out = forces(self, *args, **kwargs)
        energies.append(out[1])
        return out

    monkeypatch.setattr(mdloop, "build_pair_list", counting_build)
    monkeypatch.setattr(MdLoop, "compute_forces", recording_forces)
    system = build_water_system(600, seed=3)
    nb = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
    result = minimize(system, MdConfig(nonbonded=nb), n_steps=30)

    trials = len(energies) - 1
    # Trials that did not lower the energy were rejected; the run must
    # contain some for the count to say anything about that branch.
    best = np.minimum.accumulate(energies)
    assert (np.asarray(energies[1:]) >= best[:-1]).any()
    assert len(builds) == 1 + trials
    assert position_fingerprint(system.positions).hex() == FINAL_POSITIONS_FP
    assert result.final_energy == FINAL_ENERGY
