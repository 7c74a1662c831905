"""Route the production kernels through their scalar references.

The production short-range evaluation
(`repro.core.vectorized.compute_short_range_impl`) and fidelity walk
(`repro.core.vectorized.walk_fidelity_partition_vectorized`) must match
`repro.md.forces.compute_short_range` and
`repro.core.kernels._walk_fidelity_partition` bit for bit.  Unit tests
call the references directly; whole-pipeline tests run once as shipped
and once inside :func:`reference_kernels`, which patches the references
in at the module every call site imports them from.

Pool workers only see the patch if they are forked inside the context,
so reference runs use the serial backend or a pool created there.

:func:`reference_panels` is the oracle for the compact lane panels the
production path anchors once per rebuild.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core import vectorized
from repro.core.kernels import _walk_fidelity_partition
from repro.core.vectorized import PRUNE_MARGIN
from repro.md.forces import compute_short_range, tile_indices, tile_validity


@contextlib.contextmanager
def reference_kernels():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vectorized, "compute_short_range_impl", compute_short_range)
        mp.setattr(
            vectorized,
            "walk_fidelity_partition_vectorized",
            _walk_fidelity_partition,
        )
        yield


def reference_panels(system, plist, params, dtype=np.float64) -> dict:
    """The compact-panel oracle: what the anchor must select and store.

    Builds the panels the way the pre-recycling code did: full
    ``(M, 4, 4)`` tile indices and `tile_validity`, flattened to the
    valid lanes, a PBC fold and r2 over those lanes, then the lanes
    within ``r_cut + PRUNE_MARGIN``.  Returns ``lane_sel``, ``idx_i``,
    ``idx_j``, ``qq``, ``c6``, ``c12``, ``shifts`` (a ``(3, k)`` array,
    or None when static shifts are off) and ``static_shift``.
    """
    dt = np.dtype(dtype).type
    ci = plist.pair_ci.astype(np.int64)
    cj = plist.pair_cj.astype(np.int64)
    slot_i, slot_j = tile_indices(ci, cj)
    q = plist.gather(system.charges).astype(dtype)
    types = plist.gather(system.topology.type_ids, fill=0).astype(np.int64)
    mol = plist.gather(system.topology.mol_ids, fill=-1).astype(np.int64)
    valid = tile_validity(plist, ci, cj, slot_i, slot_j, mol)
    lane_pos = np.flatnonzero(valid.reshape(-1))
    vi = slot_i.reshape(-1)[lane_pos]
    vj = slot_j.reshape(-1)[lane_pos]
    pos = plist.current_positions(system).astype(dtype)
    box = plist.box.array.astype(dtype)
    dr = pos[vi] - pos[vj]
    shift = box * np.round(dr / box)
    dr -= shift
    r2 = np.sum(dr * dr, axis=-1)
    r_keep = params.r_cut + PRUNE_MARGIN
    sel = np.flatnonzero(r2 < dt(r_keep) ** 2)
    ti, tj = types[vi[sel]], types[vj[sel]]
    static_shift = 2.0 * r_keep - params.r_cut < 0.5 * float(box.min()) - 1e-9
    return {
        "lane_sel": lane_pos[sel],
        "idx_i": vi[sel],
        "idx_j": vj[sel],
        "qq": (q[vi] * q[vj])[sel],
        "c6": system.topology.c6_table.astype(dtype)[ti, tj],
        "c12": system.topology.c12_table.astype(dtype)[ti, tj],
        "shifts": np.ascontiguousarray(shift[sel].T) if static_shift else None,
        "static_shift": static_shift,
    }
