"""GROMACS-like molecular dynamics engine (the paper's application).

Public surface:

* builders — :func:`build_water_system`, :func:`build_lj_fluid`;
* state — :class:`ParticleSystem`, :class:`Box`, :class:`Topology`;
* neighbour search — :func:`build_pair_list`, :class:`ClusterPairList`;
* forces — :func:`compute_short_range` (reference), :class:`PmeSolver`,
  :func:`compute_bonded`, :class:`NonbondedParams`;
* dynamics — :class:`LeapfrogIntegrator`, :class:`ShakeSolver`,
  :class:`MdLoop` / :class:`MdConfig` (the Fig. 1 workflow).
"""

from repro.md.box import Box
from repro.md.bonded import compute_bonded
from repro.md.constraints import (
    ConstraintError,
    ShakeSolver,
    build_constraint_solver,
)
from repro.md.ewald import DirectEwaldSolver, EwaldParams
from repro.md.forces import (
    ShortRangeResult,
    brute_force_short_range,
    compute_short_range,
)
from repro.md.gromacs_files import (
    PAPER_TABLE3_MDP,
    benchmark_case,
    mdp_to_configs,
    parse_mdp,
    read_gro,
    system_from_gro,
    write_gro,
)
from repro.md.integrator import IntegratorConfig, LeapfrogIntegrator
from repro.md.lincs import LincsConfig, LincsSolver
from repro.md.mdloop import MdConfig, MdLoop, MdResult
from repro.md.nonbonded import NonbondedParams, pair_force_energy
from repro.md.pairlist import (
    CLUSTER_SIZE,
    ClusterPairList,
    build_pair_list,
    brute_force_pairs,
    pair_list_covers,
)
from repro.md.minimize import MinimizeResult, minimize
from repro.md.pme import PmeParams, PmeSolver
from repro.md.pressure import compute_pressure, ideal_gas_pressure
from repro.md.reporter import EnergyReporter
from repro.md.settle import SettleParameters, SettleSolver
from repro.md.system import ParticleSystem
from repro.md.topology import Angle, Bond, Constraint, Dihedral, Topology
from repro.md.water import (
    build_embedded_solute,
    build_ionic_solution,
    build_lj_fluid,
    build_lj_mixture,
    build_water_system,
)

__all__ = [
    "Angle",
    "DirectEwaldSolver",
    "EwaldParams",
    "LincsConfig",
    "LincsSolver",
    "MinimizeResult",
    "PAPER_TABLE3_MDP",
    "SettleParameters",
    "SettleSolver",
    "benchmark_case",
    "build_constraint_solver",
    "compute_pressure",
    "ideal_gas_pressure",
    "mdp_to_configs",
    "minimize",
    "parse_mdp",
    "read_gro",
    "system_from_gro",
    "write_gro",
    "Bond",
    "Box",
    "CLUSTER_SIZE",
    "ClusterPairList",
    "Constraint",
    "ConstraintError",
    "Dihedral",
    "EnergyReporter",
    "IntegratorConfig",
    "LeapfrogIntegrator",
    "MdConfig",
    "MdLoop",
    "MdResult",
    "NonbondedParams",
    "ParticleSystem",
    "PmeParams",
    "PmeSolver",
    "ShakeSolver",
    "ShortRangeResult",
    "Topology",
    "brute_force_pairs",
    "brute_force_short_range",
    "build_embedded_solute",
    "build_ionic_solution",
    "build_lj_fluid",
    "build_lj_mixture",
    "build_pair_list",
    "build_water_system",
    "compute_bonded",
    "compute_short_range",
    "pair_force_energy",
    "pair_list_covers",
]
