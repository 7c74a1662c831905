"""System builders: SPC water boxes, an LJ test fluid, and the scenario
families layered on them (ionic solution, binary LJ mixture, embedded
LJ solute).

These stand in for the paper's ``water_GMX50_bare`` benchmark inputs: the
builder produces a box with the requested particle count at bulk water
density, molecules on a jittered lattice with random orientations (enough
to start a stable constrained simulation without an external equilibration
tool).  The scenario builders compose the same lattice/rotation/topology
machinery so the `repro.scenarios` registry can treat "add a workload"
as data rather than new physics.
"""

from __future__ import annotations

import numpy as np

from repro.md.box import Box
from repro.md.constants import (
    CL_ION,
    ION_CHARGE_CL,
    ION_CHARGE_NA,
    LJ_FLUID,
    LJ_FLUID_B,
    LJ_FLUID_DENSITY,
    NA_ION,
    SOLUTE_LJ,
    SPC,
    WATER_MODELS,
    WATER_MOLECULES_PER_NM3,
    WaterGeometry,
    WaterModel,
)
from repro.md.system import ParticleSystem
from repro.md.topology import Constraint, Topology


def _random_rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform random rotation matrices (QR of Gaussian matrices).

    One ``rng.normal`` call and one stacked QR/det: the draws and every
    matrix are byte-identical to ``n`` sequential single-matrix calls,
    and the generator ends in the same state.
    """
    m = rng.normal(size=(n, 3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    flip = np.linalg.det(q) < 0
    q[flip, :, 0] = -q[flip, :, 0]
    return q


def _lattice_sites(n_sites: int, box_edge: float) -> np.ndarray:
    """First ``n_sites`` points of a cubic lattice filling the box."""
    per_dim = int(np.ceil(n_sites ** (1.0 / 3.0)))
    spacing = box_edge / per_dim
    grid = (np.arange(per_dim) + 0.5) * spacing
    pts = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1)
    return pts.reshape(-1, 3)[:n_sites]


def build_water_system(
    n_particles: int,
    temperature: float = 300.0,
    density: float = WATER_MOLECULES_PER_NM3,
    seed: int = 2019,
    jitter: float = 0.02,
    model: WaterModel | str = SPC,
) -> ParticleSystem:
    """Build a rigid 3-site water box with ~``n_particles`` atoms.

    ``model`` selects the parameter set ("spc", "spce", "tip3p" or a
    `WaterModel`).  Molecules sit on a jittered cubic lattice with random
    orientations; the box edge follows from the molecule count and
    ``density``.  Velocities are Maxwell-Boltzmann at ``temperature``.
    """
    if isinstance(model, str):
        try:
            model = WATER_MODELS[model.lower()]
        except KeyError:
            raise ValueError(
                f"unknown water model {model!r}; known: {sorted(WATER_MODELS)}"
            ) from None
    if n_particles < 3:
        raise ValueError(f"need at least one molecule (3 particles): {n_particles}")
    n_mol = max(1, n_particles // 3)
    edge = (n_mol / density) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)

    topo = Topology([model.oxygen_type(), model.hydrogen_type()])
    geometry = WaterGeometry(r_oh=model.r_oh, angle_deg=model.angle_deg)
    offsets = geometry.site_offsets()
    sites = _lattice_sites(n_mol, edge)
    spacing = edge / int(np.ceil(n_mol ** (1.0 / 3.0)))
    sites = sites + rng.uniform(-jitter, jitter, size=sites.shape) * spacing

    positions = np.empty((n_mol * 3, 3))
    rotations = _random_rotations(rng, n_mol)
    for m, rot in enumerate(rotations):
        ids = topo.add_particles(
            ["OW", "HW", "HW"],
            [model.q_oxygen, model.q_hydrogen, model.q_hydrogen],
            mol_id=m,
        )
        positions[ids] = sites[m] + offsets @ rot.T
        o, h1, h2 = (int(i) for i in ids)
        topo.constraints.append(Constraint(o, h1, model.r_oh))
        topo.constraints.append(Constraint(o, h2, model.r_oh))
        topo.constraints.append(Constraint(h1, h2, model.r_hh))

    system = ParticleSystem(positions, Box.cubic(edge), topo)
    system.thermalize(temperature, rng)
    return system


def _resolve_water_model(model: WaterModel | str) -> WaterModel:
    if isinstance(model, str):
        try:
            return WATER_MODELS[model.lower()]
        except KeyError:
            raise ValueError(
                f"unknown water model {model!r}; known: {sorted(WATER_MODELS)}"
            ) from None
    return model


def _add_water_molecule(
    topo: Topology,
    positions: np.ndarray,
    site: np.ndarray,
    rot: np.ndarray,
    offsets: np.ndarray,
    model: WaterModel,
    mol_id: int,
) -> None:
    """Append one rigid 3-site water at ``site`` with orientation ``rot``."""
    ids = topo.add_particles(
        ["OW", "HW", "HW"],
        [model.q_oxygen, model.q_hydrogen, model.q_hydrogen],
        mol_id=mol_id,
    )
    positions[ids] = site + offsets @ rot.T
    o, h1, h2 = (int(i) for i in ids)
    topo.constraints.append(Constraint(o, h1, model.r_oh))
    topo.constraints.append(Constraint(o, h2, model.r_oh))
    topo.constraints.append(Constraint(h1, h2, model.r_hh))


def build_ionic_solution(
    n_particles: int,
    temperature: float = 300.0,
    ion_frac: float = 0.05,
    density: float = WATER_MOLECULES_PER_NM3,
    seed: int = 2019,
    jitter: float = 0.02,
    model: WaterModel | str = SPC,
) -> ParticleSystem:
    """Build SPC water with dissolved Na+/Cl- pairs (~``n_particles`` atoms).

    ``ion_frac`` is the fraction of lattice sites carrying an ion instead
    of a water molecule; pairs are always balanced (net charge exactly
    zero).  Ions are LJ+point-charge sites sharing the water lattice, so
    the system reuses the water box machinery unchanged: jittered cubic
    lattice, random orientations for the waters, Maxwell-Boltzmann
    velocities.  Water molecules keep their rigid constraints; the ions
    are unconstrained — SETTLE is therefore *not* applicable (the
    scenario layer declares that conflict).
    """
    if n_particles < 5:
        raise ValueError(
            f"need at least one water + one ion pair (5 atoms): {n_particles}"
        )
    if not 0.0 < ion_frac <= 0.5:
        raise ValueError(f"ion_frac must be in (0, 0.5]: {ion_frac}")
    model = _resolve_water_model(model)
    n_sites = max(3, n_particles // 3)
    n_pairs = max(1, int(round(ion_frac * n_sites / 2.0)))
    if n_sites - 2 * n_pairs < 1:
        raise ValueError(
            f"ion_frac {ion_frac} leaves no water on a {n_sites}-site lattice"
        )
    edge = (n_sites / density) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)

    topo = Topology(
        [model.oxygen_type(), model.hydrogen_type(), NA_ION, CL_ION]
    )
    geometry = WaterGeometry(r_oh=model.r_oh, angle_deg=model.angle_deg)
    offsets = geometry.site_offsets()
    sites = _lattice_sites(n_sites, edge)
    spacing = edge / int(np.ceil(n_sites ** (1.0 / 3.0)))
    sites = sites + rng.uniform(-jitter, jitter, size=sites.shape) * spacing

    # Deterministic, seeded ion placement: which lattice sites hold ions.
    ion_sites = rng.choice(n_sites, size=2 * n_pairs, replace=False)
    na_sites = set(int(s) for s in ion_sites[:n_pairs])
    cl_sites = set(int(s) for s in ion_sites[n_pairs:])

    n_atoms = 3 * (n_sites - 2 * n_pairs) + 2 * n_pairs
    positions = np.empty((n_atoms, 3))
    # Waters draw their rotations back to back (ions draw nothing), so
    # one batched draw yields the same stream.
    rotations = iter(_random_rotations(rng, n_sites - 2 * n_pairs))
    for s in range(n_sites):
        if s in na_sites:
            ids = topo.add_particles(["NA"], [ION_CHARGE_NA], mol_id=s)
            positions[ids] = sites[s]
        elif s in cl_sites:
            ids = topo.add_particles(["CL"], [ION_CHARGE_CL], mol_id=s)
            positions[ids] = sites[s]
        else:
            _add_water_molecule(
                topo, positions, sites[s], next(rotations), offsets, model,
                mol_id=s,
            )

    system = ParticleSystem(positions, Box.cubic(edge), topo)
    system.thermalize(temperature, rng)
    return system


def build_embedded_solute(
    n_particles: int,
    temperature: float = 300.0,
    density: float = WATER_MOLECULES_PER_NM3,
    seed: int = 2019,
    jitter: float = 0.02,
    model: WaterModel | str = SPC,
) -> ParticleSystem:
    """Build SPC water around one large uncharged LJ solute bead.

    The solute sits at the box centre; lattice sites inside its exclusion
    radius are carved out so the surrounding waters start overlap-free.
    The solute is heavy (:data:`~repro.md.constants.SOLUTE_LJ`) and
    unconstrained, so the topology is *not* pure 3-site water — the
    scenario layer uses that to reject ``constraints=settle``.
    """
    if n_particles < 7:
        raise ValueError(
            f"need the solute + at least two waters (7 atoms): {n_particles}"
        )
    model = _resolve_water_model(model)
    n_sites = max(2, (n_particles - 1) // 3)
    edge = (n_sites / density) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)

    topo = Topology([model.oxygen_type(), model.hydrogen_type(), SOLUTE_LJ])
    geometry = WaterGeometry(r_oh=model.r_oh, angle_deg=model.angle_deg)
    offsets = geometry.site_offsets()
    sites = _lattice_sites(n_sites, edge)
    spacing = edge / int(np.ceil(n_sites ** (1.0 / 3.0)))
    sites = sites + rng.uniform(-jitter, jitter, size=sites.shape) * spacing

    # Carve out lattice sites the solute would overlap (minimum-image).
    center = np.full(3, edge / 2.0)
    delta = sites - center
    delta -= edge * np.round(delta / edge)
    r_excl = 0.55 * 0.60 + 0.10  # just over (sigma_sol + sigma_ow) / 2
    keep = np.flatnonzero(np.linalg.norm(delta, axis=1) > r_excl)
    if len(keep) < 2:
        raise ValueError(
            f"solute exclusion leaves {len(keep)} waters; raise n_particles"
        )

    n_atoms = 1 + 3 * len(keep)
    positions = np.empty((n_atoms, 3))
    ids = topo.add_particles(["SOL"], [0.0], mol_id=0)
    positions[ids] = center
    rotations = _random_rotations(rng, len(keep))
    for m, (s, rot) in enumerate(zip(keep, rotations), start=1):
        _add_water_molecule(
            topo, positions, sites[s], rot, offsets, model, mol_id=m
        )

    system = ParticleSystem(positions, Box.cubic(edge), topo)
    system.thermalize(temperature, rng)
    return system


def build_lj_mixture(
    n_particles: int,
    temperature: float = 120.0,
    density: float = LJ_FLUID_DENSITY,
    seed: int = 2019,
    jitter: float = 0.05,
    fraction_b: float = 0.5,
) -> ParticleSystem:
    """Build a binary LJ mixture (argon/krypton-like, uncharged).

    Species assignment is deterministic by lattice index (every
    ``1/fraction_b``-th site is species B), so the composition is exact
    and seed-independent; positions and velocities follow the same
    jittered-lattice + Maxwell-Boltzmann recipe as :func:`build_lj_fluid`.
    """
    if n_particles < 2:
        raise ValueError(f"need at least two particles: {n_particles}")
    if not 0.0 < fraction_b < 1.0:
        raise ValueError(f"fraction_b must be in (0, 1): {fraction_b}")
    edge = (n_particles / density) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)

    topo = Topology([LJ_FLUID, LJ_FLUID_B])
    positions = _lattice_sites(n_particles, edge)
    spacing = edge / int(np.ceil(n_particles ** (1.0 / 3.0)))
    positions = positions + rng.uniform(-jitter, jitter, size=positions.shape) * spacing
    stride = max(2, int(round(1.0 / fraction_b)))
    for p in range(n_particles):
        name = "KR" if p % stride == stride - 1 else "AR"
        topo.add_particles([name], [0.0], mol_id=p)

    system = ParticleSystem(positions, Box.cubic(edge), topo)
    system.thermalize(temperature, rng)
    return system


def build_lj_fluid(
    n_particles: int,
    temperature: float = 120.0,
    density: float = LJ_FLUID_DENSITY,
    seed: int = 2019,
    jitter: float = 0.05,
) -> ParticleSystem:
    """Build a one-site LJ fluid (argon-like) — the fast test workload."""
    if n_particles < 2:
        raise ValueError(f"need at least two particles: {n_particles}")
    edge = (n_particles / density) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)

    topo = Topology([LJ_FLUID])
    positions = _lattice_sites(n_particles, edge)
    spacing = edge / int(np.ceil(n_particles ** (1.0 / 3.0)))
    positions = positions + rng.uniform(-jitter, jitter, size=positions.shape) * spacing
    for p in range(n_particles):
        topo.add_particles(["AR"], [0.0], mol_id=p)

    system = ParticleSystem(positions, Box.cubic(edge), topo)
    system.thermalize(temperature, rng)
    return system
