"""Water, ionic-solution, embedded-solute, and LJ-mixture builders:
pinned output, charge neutrality, composition, constraint wiring, and
energy sanity."""

import numpy as np
import pytest

from repro.md.constants import CL_ION, LJ_FLUID_B, NA_ION, SOLUTE_LJ
from repro.md.mdloop import MdConfig, MdLoop
from repro.md.minimize import minimize
from repro.md.forces import compute_short_range
from repro.md.nonbonded import NonbondedParams
from repro.md.pairlist import build_pair_list
from repro.core.stepcache import position_fingerprint
from repro.md.water import (
    build_embedded_solute,
    build_ionic_solution,
    build_lj_mixture,
    build_water_system,
)

NB = NonbondedParams(r_cut=0.45, r_list=0.55, coulomb_mode="rf")


def _energy(system):
    plist = build_pair_list(system, NB.r_list)
    return compute_short_range(system, plist, NB).energy


class TestPinnedBuilds:
    """Positions and velocities (which also pin where the generator
    stream stood after the rotations) recorded before the rotations
    were drawn in one batch."""

    @pytest.mark.parametrize(
        "builder, positions_fp, velocities_fp",
        [
            (
                build_water_system,
                "0b6ab54da354b03679b3000968dc1c9c",
                "2d099a58827ca981d5618f267d15bbc2",
            ),
            (
                build_ionic_solution,
                "1fd8b4d737202a380b618bceea636321",
                "1e7297d567a8cd1ce2280eb0a1c93c58",
            ),
            (
                build_embedded_solute,
                "e523132ccf37ef00ed52709ada9d03d6",
                "1b022eceb713d72214d6ed4f1a790d18",
            ),
        ],
    )
    def test_fingerprints(self, builder, positions_fp, velocities_fp):
        system = builder(900, seed=2019)
        assert position_fingerprint(system.positions).hex() == positions_fp
        assert position_fingerprint(system.velocities).hex() == velocities_fp


class TestIonicSolution:
    def test_charge_neutrality(self):
        system = build_ionic_solution(300)
        assert float(np.sum(system.charges)) == pytest.approx(0.0,
                                                              abs=1e-12)

    def test_composition(self):
        system = build_ionic_solution(300, ion_frac=0.1)
        names = [system.topology.atom_types[t].name
                 for t in system.topology.type_ids]
        n_na, n_cl = names.count("NA"), names.count("CL")
        assert n_na == n_cl > 0
        assert names.count("OW") == names.count("HW") // 2

    def test_ion_frac_scales_ion_count(self):
        lo = build_ionic_solution(600, ion_frac=0.02)
        hi = build_ionic_solution(600, ion_frac=0.2)

        def ions(system):
            names = [system.topology.atom_types[t].name
                     for t in system.topology.type_ids]
            return names.count("NA")

        assert ions(hi) > ions(lo) > 0

    def test_water_constraints_only(self):
        # Ions are monatomic: every constraint belongs to a water
        # molecule (3 per molecule), none touches an ion site.
        system = build_ionic_solution(300)
        names = [system.topology.atom_types[t].name
                 for t in system.topology.type_ids]
        n_waters = names.count("OW")
        assert len(system.topology.constraints) == 3 * n_waters
        ion_indices = {i for i, name in enumerate(names)
                       if name in ("NA", "CL")}
        for c in system.topology.constraints:
            assert c.i not in ion_indices and c.j not in ion_indices

    def test_deterministic_and_seed_sensitive(self):
        a = build_ionic_solution(300, seed=11)
        b = build_ionic_solution(300, seed=11)
        c = build_ionic_solution(300, seed=12)
        np.testing.assert_array_equal(a.positions, b.positions)
        assert not np.array_equal(a.charges, c.charges) or not (
            np.array_equal(a.positions, c.positions)
        )

    def test_energy_sane_and_relaxes(self):
        system = build_ionic_solution(300)
        e0 = _energy(system)
        assert np.isfinite(e0)
        minimize(system, MdConfig(nonbonded=NB), n_steps=40)
        assert _energy(system) < e0

    def test_md_step_stable(self):
        system = build_ionic_solution(300)
        minimize(system, MdConfig(nonbonded=NB), n_steps=40)
        system.thermalize(300.0, np.random.default_rng(3))
        loop = MdLoop(system, MdConfig(nonbonded=NB))
        result = loop.run(3)
        assert np.isfinite(result.reporter.frames[-1].total)


class TestEmbeddedSolute:
    def test_single_solute_at_center(self):
        system = build_embedded_solute(300)
        names = [system.topology.atom_types[t].name
                 for t in system.topology.type_ids]
        assert names.count("SOL") == 1
        solute_idx = names.index("SOL")
        np.testing.assert_allclose(
            system.positions[solute_idx],
            np.asarray(system.box.lengths) / 2,
        )
        assert system.charges[solute_idx] == 0.0

    def test_solvent_carved_around_solute(self):
        system = build_embedded_solute(300)
        names = [system.topology.atom_types[t].name
                 for t in system.topology.type_ids]
        solute_idx = names.index("SOL")
        solute_pos = system.positions[solute_idx]
        box = np.asarray(system.box.lengths)
        ow = np.asarray([i for i, n in enumerate(names) if n == "OW"])
        delta = system.positions[ow] - solute_pos
        delta -= box * np.round(delta / box)  # minimum image
        min_dist = float(np.min(np.linalg.norm(delta, axis=1)))
        assert min_dist > 0.35  # exclusion shell held
        assert len(ow) > 0

    def test_neutral_and_finite(self):
        system = build_embedded_solute(300)
        assert float(np.sum(system.charges)) == pytest.approx(0.0,
                                                              abs=1e-12)
        assert np.isfinite(_energy(system))

    def test_solute_type_registered(self):
        def sigma(atom_type):
            return (atom_type.c12 / atom_type.c6) ** (1.0 / 6.0)

        assert sigma(SOLUTE_LJ) > sigma(NA_ION)
        assert sigma(SOLUTE_LJ) > sigma(CL_ION)


class TestLjMixture:
    def test_two_species(self):
        system = build_lj_mixture(300)
        names = [system.topology.atom_types[t].name
                 for t in system.topology.type_ids]
        assert set(names) == {"AR", "KR"}
        frac_b = names.count("KR") / len(names)
        assert 0.3 < frac_b < 0.7

    def test_fraction_b_respected(self):
        system = build_lj_mixture(300, fraction_b=0.25)
        names = [system.topology.atom_types[t].name
                 for t in system.topology.type_ids]
        assert names.count("KR") / len(names) == pytest.approx(0.25,
                                                               abs=0.05)

    def test_uncharged_unconstrained(self):
        system = build_lj_mixture(200)
        assert not np.any(system.charges)
        assert len(system.topology.constraints) == 0

    def test_kr_heavier_than_ar(self):
        assert LJ_FLUID_B.mass > 39.9

    def test_energy_finite(self):
        nb = NonbondedParams(r_cut=0.45, r_list=0.55, coulomb_mode="none")
        system = build_lj_mixture(300)
        plist = build_pair_list(system, nb.r_list)
        assert np.isfinite(compute_short_range(system, plist, nb).energy)
