"""Batched (vectorised) fidelity-walk and per-step force kernels.

The sequential fidelity walk (`repro.core.kernels._walk_fidelity_partition`)
executes one Python iteration per cluster pair — faithful to the CPE
program, but the iteration overhead caps the whole simulator at a few
steps per second.  This module provides the production implementation:
the same physics over all cluster pairs of a CPE partition in a handful
of numpy calls, with the DeferredUpdateCache / Bit-Map / SIMD-shuffle
*counters* replayed analytically so every observable output — forces,
energy partials, write-cache counters, shuffle counts, trace events —
is identical to the scalar walk (test-enforced, see
``tests/core/test_vectorized.py``).

Bit-identity rests on a small set of float32 accumulation identities
(DESIGN.md §13):

* ``np.add.at`` applies updates sequentially in operand order, so a
  grouped scatter-add reproduces a left-to-right ``+=`` loop exactly;
* a batched ``(M, 4, 4, 3).sum(axis=2)`` equals the per-pair
  ``(4, 4, 3).sum(axis=1)`` slice by slice (same pairwise reduction
  tree over the same elements);
* ``np.cumsum`` is a strict sequential accumulation, matching a scalar
  ``energy +=`` loop term for term;
* one ``np.bincount`` over concatenated i/j indices equals two
  sequential ``np.add.at`` calls (per-bin scan order is preserved).

These are the only production paths: :func:`compute_short_range_impl`
serves every per-step evaluation and
:func:`walk_fidelity_partition_vectorized` every fidelity walk.  The
scalar functions (`repro.md.forces.compute_short_range`,
`repro.core.kernels._walk_fidelity_partition`) remain as the references
the tests compare against.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

from repro.core.deferred import replay_write_trace
from repro.core.packing import package_views
from repro.core.shuffle import transpose_4x3
from repro.hw.simd import FloatV4, LANES, OpCounter
from repro.md.forces import ShortRangeResult, compute_short_range
from repro.md.nonbonded import (
    COULOMB_CONSTANT,
    NonbondedParams,
    pair_force_energy,
)
from repro.md.pairlist import (
    CLUSTER_SIZE,
    ClusterPairList,
    lane_tables,
    take_lanes,
)
from repro.md.system import ParticleSystem
from repro.parallel.pool import as_input
from repro.trace.events import CAT_COMPUTE, TraceEvent

#: Key under which a list's `PanelCache` memoises on the pair list;
#: ``ClusterPairList.invalidate`` pops it and releases its buffers.
PANEL_CACHE_ATTR = "_panel_cache"


def _simd_shuffles_per_pair() -> int:
    """Shuffles the Fig. 7 post-treatment issues per cluster pair.

    Derived by probing one transpose rather than hard-coding 6, so the
    replayed counter tracks the shuffle implementation by construction.
    """
    probe = OpCounter()
    zero = np.zeros(LANES, dtype=np.float32)
    transpose_4x3(
        FloatV4(zero, probe), FloatV4(zero, probe), FloatV4(zero, probe), probe
    )
    return probe.shuffle


def walk_fidelity_partition_vectorized(task):
    """Batched equivalent of ``_walk_fidelity_partition``.

    Processes every cluster pair of the partition at once: struct-of-
    arrays package views feed one ``(n_pairs, 4, 4)`` interaction batch,
    forces scatter-add grouped by i-cluster and j-cluster, and the
    DeferredUpdateCache / bitmap / shuffle counters are replayed from
    the write trace (`repro.core.deferred.replay_write_trace`).  Returns
    the same ``_FidelityResult`` the scalar walk does, bit for bit.
    """
    from repro.core.kernels import _compute_cycles, _FidelityResult

    spec, params, nb_params = task.spec, task.params, task.nb_params
    pos = as_input(task.positions)
    q = as_input(task.charges)
    types = as_input(task.types)
    mols = as_input(task.mols)
    real = as_input(task.real)
    c6_tab = as_input(task.c6_table)
    c12_tab = as_input(task.c12_table)
    box_arr = task.box

    n_local = task.hi - task.lo
    counts = np.diff(np.asarray(task.i_starts, dtype=np.int64))
    cj = np.asarray(task.pair_cj, dtype=np.int64)
    m = int(cj.size)
    # Absolute i-cluster of each pair (pairs of one cluster are contiguous).
    ci_abs = task.lo + np.repeat(np.arange(n_local, dtype=np.int64), counts)
    pair_k = ci_abs - task.lo

    pos_cl, q_cl, t_cl, mol_cl, real_cl = package_views(
        pos, q, types, mols, real
    )

    # ---- one batched 4x4 tile evaluation over all pairs --------------------
    dr = pos_cl[ci_abs][:, :, None, :] - pos_cl[cj][:, None, :, :]
    dr = dr - box_arr * np.round(dr / box_arr)
    r2 = np.sum(dr * dr, axis=-1)
    valid = (
        real_cl[ci_abs][:, :, None]
        & real_cl[cj][:, None, :]
        & (mol_cl[ci_abs][:, :, None] != mol_cl[cj][:, None, :])
    )
    diag = ci_abs == cj
    if diag.any():
        lane = np.arange(CLUSTER_SIZE)
        if task.half:
            valid[diag] &= lane[:, None] < lane[None, :]
        else:
            valid[diag] &= lane[:, None] != lane[None, :]
    qq = q_cl[ci_abs][:, :, None] * q_cl[cj][:, None, :]
    ti = t_cl[ci_abs]
    tj = t_cl[cj]
    c6 = c6_tab[ti[:, :, None], tj[:, None, :]]
    c12 = c12_tab[ti[:, :, None], tj[:, None, :]]
    f_scalar, e = pair_force_energy(r2, qq, c6, c12, nb_params, mask=valid)

    # Energy: strict sequential accumulation in pair order (cumsum), each
    # term the same float64 tile sum the scalar walk adds.
    pair_e = e.sum(axis=(1, 2), dtype=np.float64)
    energy = float(np.cumsum(pair_e)[-1]) if pair_e.size else 0.0

    fvec = f_scalar[..., None] * dr
    # i-side per-pair package sums; the Fig. 7 transpose is a value
    # identity, so the SIMD and scalar variants accumulate the same f32.
    fsum_i = fvec.sum(axis=2)
    fi_acc = np.zeros((n_local, CLUSTER_SIZE, 3), dtype=np.float32)
    np.add.at(fi_acc, pair_k, fsum_i)
    shuffles = _simd_shuffles_per_pair() * m if spec.simd else 0

    # ---- write-trace replay ------------------------------------------------
    # The scalar walk accumulates, per i-cluster: each j package, then the
    # i package (always, even with zero pairs).  Rebuild that exact trace
    # and contribution sequence, then replay it through the cache model.
    i_vals = np.arange(task.lo, task.hi, dtype=np.int64)
    if task.half:
        insert_at = np.cumsum(counts)
        trace = np.insert(cj, insert_at, i_vals)
        contribs = np.insert(-fvec.sum(axis=1), insert_at, fi_acc, axis=0)
    else:
        trace = i_vals
        contribs = fi_acc
    copy = np.zeros((task.padded_slots, 3), dtype=np.float32)
    mark, wstats = replay_write_trace(
        trace, contribs, copy, params, use_mark=spec.mark
    )

    events: list[TraceEvent] = []
    if task.traced:
        n_pairs = int(task.i_starts[-1])
        events.append(
            TraceEvent(
                "fidelity_walk",
                CAT_COMPUTE,
                task.cpe,
                0.0,
                _compute_cycles(spec, n_pairs, params),
                {"cluster_pairs": n_pairs},
            )
        )
    return _FidelityResult(
        cpe=task.cpe,
        copy=copy,
        mark=mark if spec.mark else None,
        energy=energy,
        write_misses=wstats.misses,
        write_puts=wstats.puts,
        write_gets=wstats.gets,
        write_first_touches=wstats.first_touches,
        shuffles=shuffles,
        events=events,
    )


# ---------------------------------------------------------------------------
# Per-step short-range evaluation with cached lane panels.
# ---------------------------------------------------------------------------


#: Prune radius margin (nm) beyond ``r_cut`` for the compacted lane
#: set.  Wider keeps more lanes (slower steps, fewer refreshes);
#: narrower keeps fewer lanes but trips the drift guard sooner.  At
#: water-at-300K drift rates (~0.01 nm/step worst particle) 0.20 nm
#: lets one panel survive a whole ``nstlist`` cycle, which profiles
#: faster end to end than a tighter set re-anchored every few steps.
#: The keep radius may exceed ``r_list``: correctness only needs the
#: kept set to be a superset of every lane that can come inside
#: ``r_cut`` before the guard re-anchors.
PRUNE_MARGIN = 0.20


@dataclass
class CompactPanels:
    """Flattened, pruned lane data for the per-step fast path.

    Anchored once per pair-list rebuild (and again after a drift-guard
    refresh): lanes are the tile entries that are topology-valid *and*
    within ``r_keep = r_cut + PRUNE_MARGIN`` of each other at
    ``anchor_pos``.  A pruned lane can only contribute an exact zero in
    the reference evaluation, so dropping it never changes a sum (the
    one invisible exception: a slot whose every contribution is a
    signed zero may flip zero sign, which ``==``/``np.array_equal``
    cannot observe and the integrator cannot propagate).

    ``shifts`` hold ``box * round(dr/box)`` per kept lane when the
    static-shift precondition holds (``2*r_keep - r_cut`` under half
    the smallest box edge): while the drift guard passes, no kept
    lane's minimum image can reach half a box edge, so the rounding in
    the reference PBC fold is reproduced exactly by the stored shift.
    """

    #: Capacity-padded buffer set (see :func:`_fit_bufs`): every array
    #: is consumed as a ``[:n]`` view, so a drift-guard re-anchor and
    #: the next list's anchor (via :data:`PANEL_POOL`) refill in place
    #: instead of reallocating ~30 multi-MB arrays — large numpy frees
    #: go straight back to the OS, so reallocation costs a page-fault
    #: storm every rebuild.
    bufs: dict = field(repr=False)
    n_kept: int
    n_lanes: int
    n_slots: int
    r_keep: float
    half: bool
    static_shift: bool
    has_shift_e: bool

    # Named views for inspection and tests; the hot path slices ``bufs``
    # directly.
    @property
    def lane_sel(self) -> np.ndarray:
        return self.bufs["lane_sel"][: self.n_kept]

    @property
    def idx_i(self) -> np.ndarray:
        return self.bufs["sidx"][: self.n_kept]

    @property
    def idx_j(self) -> np.ndarray:
        return self.bufs["sidx"][self.n_kept : 2 * self.n_kept]

    @property
    def scatter_idx(self) -> np.ndarray:
        n = 2 * self.n_kept if self.half else self.n_kept
        return self.bufs["sidx"][:n]

    @property
    def qq(self) -> np.ndarray:
        return self.bufs["qq"][: self.n_kept]

    @property
    def c6(self) -> np.ndarray:
        return self.bufs["c6"][: self.n_kept]

    @property
    def c12(self) -> np.ndarray:
        return self.bufs["c12"][: self.n_kept]

    @property
    def shift_e(self) -> np.ndarray | None:
        return self.bufs["se"][: self.n_kept] if self.has_shift_e else None

    @property
    def shifts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        if not self.static_shift:
            return None
        return tuple(self.bufs[s][: self.n_kept] for s in ("sx", "sy", "sz"))

    @property
    def e_full(self) -> np.ndarray:
        return self.bufs["e_full"][: self.n_lanes]

    @property
    def w_full(self) -> np.ndarray:
        return self.bufs["w_full"][: self.n_lanes]

    @property
    def f_sorted(self) -> np.ndarray:
        return self.bufs["f_sorted"][: self.n_slots]

    @property
    def anchor_pos(self) -> np.ndarray:
        return self.bufs["anchor"][: self.n_slots]


_COMPACT_DTYPE_BUFS = (
    "qq",
    "c6",
    "c12",
    "fqq",
    "c6_6",
    "c12_12",
    "se",
    "sx",
    "sy",
    "sz",
    "dx",
    "dy",
    "dz",
    "dtmp",
    "r2b",
    "ftmp",
)


def _kept_bufs(half: bool, dtype, cap: int) -> dict:
    """Per-kept-lane arrays: panels, pair-kernel scratch, scatter weights."""
    nw = 2 * cap if half else cap
    bufs = {
        "sidx": np.empty(2 * cap, dtype=np.int64),
        "lane_sel": np.empty(cap, dtype=np.int64),
        "ib": [np.empty(cap, dtype=np.int64) for _ in range(2)],
        "wtmp": np.empty(cap, dtype=np.float64),
        "wb": [np.empty(nw, dtype=np.float64) for _ in range(3)],
        "tb": [np.empty(cap, dtype=dtype) for _ in range(10)],
        "mb": [np.empty(cap, dtype=bool) for _ in range(2)],
    }
    for name in _COMPACT_DTYPE_BUFS:
        bufs[name] = np.empty(cap, dtype=dtype)
    return bufs


def _lane_bufs(half: bool, dtype, cap: int) -> dict:
    """Per-tile-lane arrays: the anchor scan and the reduction panels."""
    return {
        "e_full": np.empty(cap, dtype=dtype),
        "w_full": np.empty(cap, dtype=np.float64),
        "ld": [np.empty(cap, dtype=dtype) for _ in range(3)],
        "lsh": [np.empty(cap, dtype=dtype) for _ in range(3)],
        "lr2": np.empty(cap, dtype=dtype),
        "lmol": [np.empty(cap, dtype=np.int32) for _ in range(2)],
        "valid": np.empty(cap, dtype=bool),
        "keep": np.empty(cap, dtype=bool),
    }


def _slot_bufs(half: bool, dtype, cap: int) -> dict:
    """Per-slot arrays: the force accumulator and the anchor positions."""
    return {
        "f_sorted": np.empty((cap, 3), dtype=np.float64),
        "anchor": np.empty((cap, 3), dtype=dtype),
    }


_BUF_GROUPS = {"kept": _kept_bufs, "lanes": _lane_bufs, "slots": _slot_bufs}


def _fit_bufs(bufs: dict, half: bool, dtype, **need: int) -> None:
    """Grow the named buffer groups of ``bufs`` to hold ``need`` entries.

    Each group carries its capacity under ``bufs["caps"]``; a group that
    is too small is reallocated with some slack, so lists that grow a
    little between rebuilds keep reusing the same buffers.
    """
    caps = bufs.setdefault("caps", {})
    for group, n in need.items():
        if caps.get(group, -1) < n:
            cap = n + (n >> 4) + 1024
            bufs.update(_BUF_GROUPS[group](half, dtype, cap))
            caps[group] = cap


class PanelPool:
    """Released panel buffers, at most one set per ``(dtype, half)``.

    Ownership invariant: a buffer set is either here or owned by exactly
    one `CompactPanels`.  Only an explicit invalidation
    (`PanelCache.release`) returns a set, never garbage collection, so
    buffers of lists that are still live — the serve tier keeps several
    resident — are never handed to another list.  Nothing returned to
    callers is a view of these buffers.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: dict[tuple, dict] = {}

    def take(self, key: tuple) -> dict:
        with self._lock:
            return self._free.pop(key, None) or {}

    def release(self, key: tuple, bufs: dict) -> None:
        """Keep the larger of ``bufs`` and the set already held."""
        size = lambda b: sum(b.get("caps", {}).values())
        with self._lock:
            held = self._free.get(key)
            if held is None or size(bufs) >= size(held):
                self._free[key] = bufs

    def clear(self) -> None:
        with self._lock:
            self._free.clear()


#: Process-wide recycling pool shared by every pair list.
PANEL_POOL = PanelPool()


class PanelCache:
    """One pair list's compact panels, keyed by ``(dtype, params)``.

    Every evaluation of the list runs under :attr:`lock`; `release`
    (what ``ClusterPairList.invalidate`` calls) takes it too, so a list
    is never released mid-evaluation, and then hands each panel set's
    buffers to :data:`PANEL_POOL`.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.panels: dict[tuple, CompactPanels] = {}

    def fetch(
        self,
        system: ParticleSystem,
        plist: ClusterPairList,
        params: NonbondedParams,
        dtype: type,
        pos: np.ndarray,
    ) -> tuple[CompactPanels, bool]:
        """Panels valid at ``pos`` and whether they were anchored now.

        Anchors on a miss (buffers from :data:`PANEL_POOL`) and
        re-anchors on the same buffers when a particle has moved far
        enough that a pruned lane could re-enter the cutoff (or a
        static shift could flip), so results stay exact for arbitrary
        motion.  The caller holds :attr:`lock`.
        """
        key = (np.dtype(dtype).str, params)
        cp = self.panels.get(key)
        if cp is not None:
            box_arr = plist.box.array.astype(dtype)
            margin = cp.r_keep - params.r_cut
            drift2 = _drift2_max(pos, cp.anchor_pos, box_arr)
            if not 4.0 * drift2 > margin * margin:
                return cp, False
        refresh = cp is not None
        bufs = cp.bufs if refresh else PANEL_POOL.take((key[0], plist.half))
        cp = _anchor(
            bufs, system, plist, params, dtype, pos, reuse=True, refresh=refresh
        )
        self.panels[key] = cp
        return cp, True

    def release(self) -> None:
        with self.lock:
            for (dtype_str, _), cp in self.panels.items():
                PANEL_POOL.release((dtype_str, cp.half), cp.bufs)
            self.panels.clear()


def _panel_cache(plist: ClusterPairList) -> PanelCache:
    cache = plist.__dict__.get(PANEL_CACHE_ATTR)
    if cache is None:
        cache = plist.__dict__.setdefault(PANEL_CACHE_ATTR, PanelCache())
    return cache


def _anchor(
    bufs: dict,
    system: ParticleSystem,
    plist: ClusterPairList,
    params: NonbondedParams,
    dtype: type,
    pos: np.ndarray,
    reuse: bool,
    refresh: bool = False,
) -> CompactPanels:
    """Anchor compact panels at ``pos`` (the list's current positions).

    One pass over the tiles, each an ``(M, 16)`` row of lanes
    ``4a + b`` filled by row takes from per-cluster lane tables
    (`repro.md.pairlist.lane_tables`):
    validity (real slots, molecule exclusion, the diagonal triangle —
    `repro.md.forces.tile_validity`'s rules), the PBC-folded dx/dy/dz
    and r2, then the kept lanes straight from that scan.  The
    elementwise operations and their association match the reference
    fold, and the kept lanes' d/r2 are left in the step buffers, so the
    first evaluation at the anchor skips its own gather-and-fold.
    ``bufs`` is refilled in place (grown where too small); a drift-guard
    ``refresh`` re-anchors the same list on its own buffers, whose
    validity mask is still current.
    """
    dt = np.dtype(dtype).type
    half = plist.half
    ci = plist.pair_ci.astype(np.int64)
    cj = plist.pair_cj.astype(np.int64)
    n_lanes = len(ci) * CLUSTER_SIZE * CLUSTER_SIZE
    n_slots = plist.n_slots
    _fit_bufs(bufs, half, dtype, lanes=n_lanes, slots=n_slots)
    if reuse:
        q = plist.gather_cached(system.charges, dtype=dtype)
        types = plist.gather_cached(
            system.topology.type_ids, fill=0, dtype=np.int64
        )
        mol = plist.gather_cached(
            system.topology.mol_ids, fill=-1, dtype=np.int64
        )
    else:
        q = plist.gather(system.charges).astype(dtype)
        types = plist.gather(system.topology.type_ids, fill=0).astype(np.int64)
        mol = plist.gather(system.topology.mol_ids, fill=-1).astype(np.int64)

    def rows(arr):
        return arr[:n_lanes].reshape(-1, CLUSTER_SIZE * CLUSTER_SIZE)

    def take_tile(per_cluster, out_i, out_j):
        rep, til = lane_tables(per_cluster.reshape(-1, CLUSTER_SIZE))
        take_lanes(rep, ci, out_i)
        take_lanes(til, cj, out_j)

    valid, keep, tmp, r2 = (rows(bufs[k]) for k in ("valid", "keep", "e_full", "lr2"))
    if not refresh:
        take_tile(plist.real, valid, keep)
        valid &= keep
        mol_i, mol_j = (rows(a) for a in bufs["lmol"])
        take_tile(mol.astype(np.int32), mol_i, mol_j)
        np.not_equal(mol_i, mol_j, out=keep)
        valid &= keep
        diag = np.flatnonzero(ci == cj)
        if len(diag):
            a, b = np.divmod(np.arange(CLUSTER_SIZE * CLUSTER_SIZE), CLUSTER_SIZE)
            valid[diag] &= a < b if half else a != b

    box_arr = plist.box.array.astype(dtype)
    cols = np.ascontiguousarray(pos.T)
    d = [rows(a) for a in bufs["ld"]]
    sh = [rows(a) for a in bufs["lsh"]]
    for c in range(3):
        take_tile(cols[c], d[c], tmp)
        d[c] -= tmp
        np.divide(d[c], box_arr[c], out=tmp)
        np.round(tmp, out=sh[c])
        sh[c] *= box_arr[c]
        d[c] -= sh[c]
    np.multiply(d[0], d[0], out=r2)
    np.multiply(d[1], d[1], out=tmp)
    r2 += tmp
    np.multiply(d[2], d[2], out=tmp)
    r2 += tmp

    r_keep = params.r_cut + PRUNE_MARGIN
    np.less(r2, dt(r_keep) ** 2, out=keep)
    keep &= valid
    sel = np.flatnonzero(keep)
    k = len(sel)
    _fit_bufs(bufs, half, dtype, kept=k)
    b = bufs

    # Static PBC shifts are only safe when the worst-case kept-lane
    # separation (anchor distance < r_keep plus guarded drift
    # < r_keep - r_cut) stays under half the smallest box edge.
    static_shift = 2.0 * r_keep - params.r_cut < 0.5 * float(box_arr.min()) - 1e-9
    cp = CompactPanels(
        bufs=b,
        n_kept=k,
        n_lanes=n_lanes,
        n_slots=n_slots,
        r_keep=r_keep,
        half=half,
        static_shift=static_shift,
        has_shift_e=params.shift_lj,
    )
    cp.e_full.fill(0.0)
    cp.w_full.fill(0.0)
    np.copyto(cp.anchor_pos, pos)

    def take(src, idx, out):
        np.take(src, idx, out=out, mode="clip")

    # Lane 4a + b of tile m is flat index 16m + 4a + b: its slots are
    # 4*ci[m] + a and 4*cj[m] + b.
    lane_sel = b["lane_sel"][:k]
    np.copyto(lane_sel, sel)
    idx_i, idx_j = b["sidx"][:k], b["sidx"][k : 2 * k]
    it, jt = (a[:k] for a in b["ib"])
    np.right_shift(lane_sel, 4, out=it)
    take(ci, it, idx_i)
    take(cj, it, idx_j)
    idx_i <<= 2
    idx_j <<= 2
    np.right_shift(lane_sel, 2, out=it)
    it &= 3
    idx_i += it
    np.bitwise_and(lane_sel, 3, out=it)
    idx_j += it

    qq, c6, c12, t = b["qq"][:k], b["c6"][:k], b["c12"][:k], b["tb"][0][:k]
    take(q, idx_i, qq)
    take(q, idx_j, t)
    qq *= t
    n_types = system.topology.c6_table.shape[1]
    take(types, idx_i, it)
    it *= n_types
    take(types, idx_j, jt)
    it += jt
    take(system.topology.c6_table.astype(dtype).reshape(-1), it, c6)
    take(system.topology.c12_table.astype(dtype).reshape(-1), it, c12)
    # Step-invariant products hoisted out of the pair kernel (products
    # commute bit for bit with the reference's in-kernel order):
    # ``felec*qq``, ``6*c6``, ``12*c12`` and the LJ shift constant.
    np.multiply(qq, dt(COULOMB_CONSTANT), out=b["fqq"][:k])
    np.multiply(c6, dt(6.0), out=b["c6_6"][:k])
    np.multiply(c12, dt(12.0), out=b["c12_12"][:k])
    if params.shift_lj:
        # lj_shift_energy, in place: ((c12*inv6)*inv6) - (c6*inv6).
        inv6 = (1.0 / params.r_cut) ** 6
        se = b["se"][:k]
        np.multiply(c12, inv6, out=se)
        se *= inv6
        np.multiply(c6, inv6, out=t)
        se -= t
    for c, name in enumerate(("dx", "dy", "dz")):
        take(d[c].reshape(-1), lane_sel, b[name][:k])
    take(r2.reshape(-1), lane_sel, b["r2b"][:k])
    if static_shift:
        for c, name in enumerate(("sx", "sy", "sz")):
            take(sh[c].reshape(-1), lane_sel, b[name][:k])
    return cp


def compact_panels(
    system: ParticleSystem,
    plist: ClusterPairList,
    params: NonbondedParams,
    dtype: type = np.float64,
    reuse: bool = True,
) -> CompactPanels:
    """Pruned lane panels for ``plist`` at its current positions.

    With ``reuse`` the panels memoise on the list (a `PanelCache`,
    released by ``invalidate``) under ``(dtype, params)`` — different
    cutoffs never share a lane set — and a fresh anchor draws its
    buffers from :data:`PANEL_POOL`; memoised panels are re-anchored
    when the drift guard trips.  Without ``reuse`` every call anchors
    into freshly allocated buffers that nothing recycles.
    """
    pos = plist.current_positions(system).astype(dtype)
    if not reuse:
        return _anchor({}, system, plist, params, dtype, pos, reuse=False)
    cache = _panel_cache(plist)
    with cache.lock:
        return cache.fetch(system, plist, params, dtype, pos)[0]


def _pair_terms_compact(
    r2: np.ndarray, cp: CompactPanels, params: NonbondedParams
) -> tuple[np.ndarray, np.ndarray]:
    """`pair_force_energy` over pruned lanes, fused in place.

    Performs the same floating-point operations in the same association
    order as :func:`repro.md.nonbonded.pair_force_energy` with an
    all-true mask (compact lanes are topology-valid by construction),
    with the step-invariant factors (``felec*qq``, ``6*c6``, ``12*c12``,
    the LJ shift) taken pre-multiplied from the panels — products that
    commute bit-for-bit.  Outputs are bitwise equal to the reference
    lane for lane (test-enforced on random inputs for every coulomb
    mode).
    """
    dt = r2.dtype.type
    k = cp.n_kept
    b = cp.bufs
    mask, nmask = (m[:k] for m in b["mb"])
    safe_r2, inv_r2, inv_r6, e_lj, f_lj, t6, t7, t8, t9, t10 = (
        a[:k] for a in b["tb"]
    )
    c6, c12 = b["c6"][:k], b["c12"][:k]
    fqq, c6_6, c12_12 = b["fqq"][:k], b["c6_6"][:k], b["c12_12"][:k]

    np.less(r2, dt(params.r_cut) ** 2, out=mask)
    np.greater(r2, dt(0.0), out=nmask)
    mask &= nmask
    np.logical_not(mask, out=nmask)
    np.copyto(safe_r2, r2)
    safe_r2[nmask] = dt(1.0)
    np.divide(dt(1.0), safe_r2, out=inv_r2)
    np.multiply(inv_r2, inv_r2, out=inv_r6)
    inv_r6 *= inv_r2

    np.multiply(c12, inv_r6, out=e_lj)
    e_lj *= inv_r6
    np.multiply(c6, inv_r6, out=t6)
    e_lj -= t6
    if cp.has_shift_e:
        e_lj -= b["se"][:k]
    np.multiply(c12_12, inv_r6, out=f_lj)
    f_lj *= inv_r6
    np.multiply(c6_6, inv_r6, out=t6)
    f_lj -= t6
    f_lj *= inv_r2

    if params.coulomb_mode == "none":
        # The reference adds all-zero coulomb arrays; ``x + 0.0`` is the
        # same elementwise operation.
        e_lj += dt(0.0)
        f_lj += dt(0.0)
    else:
        inv_r = t6
        np.sqrt(inv_r2, out=inv_r)
        if params.coulomb_mode == "cut":
            np.multiply(fqq, inv_r, out=t7)  # e_coul
            np.multiply(t7, inv_r2, out=t8)  # f_coul
        elif params.coulomb_mode == "rf":
            krf = dt(params.krf)
            np.multiply(krf, safe_r2, out=t7)
            np.add(inv_r, t7, out=t7)
            t7 -= dt(params.crf)
            np.multiply(fqq, t7, out=t7)  # e_coul
            np.multiply(inv_r, inv_r2, out=t8)
            t8 -= dt(2.0) * krf
            np.multiply(fqq, t8, out=t8)  # f_coul
        else:  # ewald real space
            r = t8
            np.sqrt(safe_r2, out=r)
            r *= dt(params.ewald_beta)
            erfc_br = erfc(r, out=t9)
            np.multiply(r, r, out=t10)
            np.negative(t10, out=t10)
            gauss = np.exp(t10, out=t10)
            np.multiply(fqq, erfc_br, out=t7)
            t7 *= inv_r  # e_coul
            np.multiply(erfc_br, inv_r, out=t8)  # r is dead; reuse t8
            gauss *= dt(2.0 * params.ewald_beta / np.sqrt(np.pi))
            t8 += gauss
            np.multiply(fqq, t8, out=t8)
            t8 *= inv_r2  # f_coul
        f_lj += t8
        e_lj += t7
    f_lj[nmask] = dt(0.0)
    e_lj[nmask] = dt(0.0)
    return f_lj, e_lj


def _drift2_max(
    pos: np.ndarray, anchor: np.ndarray, box_arr: np.ndarray
) -> float:
    """Largest squared particle displacement since the panel anchor.

    Displacements are minimum-imaged so a particle wrapping across the
    periodic boundary does not read as a box-length jump.
    """
    if not len(pos):
        return 0.0
    delta = pos - anchor
    delta -= box_arr * np.round(delta / box_arr)
    return float(np.einsum("ij,ij->i", delta, delta).max())


def compute_short_range_impl(
    system: ParticleSystem,
    plist: ClusterPairList,
    params: NonbondedParams,
    dtype: type = np.float64,
    chunk_pairs: int = 65536,
    reuse_gathers: bool = True,
) -> ShortRangeResult:
    """Pruned-lane `compute_short_range` over memoised compact panels.

    Once per rebuild the 4x4 tiles are flattened to the lanes that are
    topology-valid and within ``r_keep`` (:func:`_anchor`); per step
    only gathers, one PBC fold, ``r2``, the pair kernel and the force
    scatter run — roughly ``0.4x`` the lanes and a third of the numpy
    passes of the full tile batch.  A drift guard re-anchors the panels
    whenever a particle has moved far enough that a pruned lane could
    re-enter the cutoff (`PanelCache.fetch`).

    The force scatter uses one ``np.bincount`` per component over the
    concatenated i/j slot indices, which reproduces the reference's two
    sequential ``np.add.at`` passes bit for bit (per-slot accumulation
    order is preserved: surviving i contributions precede surviving j
    contributions; dropped lanes contributed exact zeros).  Energy and
    virial terms are scattered back into full-lane-shape zero panels
    before the float64 sums so the pairwise reduction tree matches the
    reference's exactly.

    Lists larger than one chunk fall back to the chunked reference —
    chunk boundaries interleave the accumulation grouping, and no bench
    system comes close to ``chunk_pairs`` pairs.
    """
    if plist.n_cluster_pairs > chunk_pairs:
        return compute_short_range(
            system,
            plist,
            params,
            dtype=dtype,
            chunk_pairs=chunk_pairs,
            reuse_gathers=reuse_gathers,
        )
    pos = plist.current_positions(system).astype(dtype)
    if not reuse_gathers:
        cp = _anchor({}, system, plist, params, dtype, pos, reuse=False)
        return _evaluate(system, plist, params, cp, pos, anchored=True)
    cache = _panel_cache(plist)
    with cache.lock:
        cp, anchored = cache.fetch(system, plist, params, dtype, pos)
        return _evaluate(system, plist, params, cp, pos, anchored)


def _evaluate(
    system: ParticleSystem,
    plist: ClusterPairList,
    params: NonbondedParams,
    cp: CompactPanels,
    pos: np.ndarray,
    anchored: bool,
) -> ShortRangeResult:
    """One evaluation over anchored panels at ``pos``.

    ``anchored`` means the panels were anchored at ``pos`` this call, so
    the kept lanes' d/r2 are already in the step buffers.
    """
    k = cp.n_kept
    b = cp.bufs
    lane_sel = b["lane_sel"][:k]
    dtmp = b["dtmp"][:k]
    d = (b["dx"][:k], b["dy"][:k], b["dz"][:k])
    r2 = b["r2b"][:k]
    if not anchored:
        box_arr = plist.box.array.astype(pos.dtype)
        idx_i = b["sidx"][:k]
        idx_j = b["sidx"][k : 2 * k]
        pcols = np.ascontiguousarray(pos.T)
        shifts = (b["sx"][:k], b["sy"][:k], b["sz"][:k])
        for c in range(3):
            dc = d[c]
            np.take(pcols[c], idx_i, out=dc, mode="clip")
            np.take(pcols[c], idx_j, out=dtmp, mode="clip")
            dc -= dtmp
            if cp.static_shift:
                dc -= shifts[c]
            else:
                np.divide(dc, box_arr[c], out=dtmp)
                np.round(dtmp, out=dtmp)
                dtmp *= box_arr[c]
                dc -= dtmp
        np.multiply(d[0], d[0], out=r2)
        np.multiply(d[1], d[1], out=dtmp)
        r2 += dtmp
        np.multiply(d[2], d[2], out=dtmp)
        r2 += dtmp

    f_scalar, e = _pair_terms_compact(r2, cp, params)
    n_in_cutoff = int(np.count_nonzero(f_scalar))
    e_full, w_full = cp.e_full, cp.w_full
    e_full[lane_sel] = e
    energy = 0.0 + float(e_full.sum(dtype=np.float64))
    w = b["wtmp"][:k]
    w[...] = f_scalar
    w *= r2
    w_full[lane_sel] = w
    virial = 0.0 + float(w_full.sum())

    n_weights = 2 * k if plist.half else k
    scatter_idx = b["sidx"][:n_weights]
    ftmp = b["ftmp"][:k]
    f_sorted = cp.f_sorted
    for c in range(3):
        wb = b["wb"][c][:n_weights]
        np.multiply(f_scalar, d[c], out=ftmp)
        wb[:k] = ftmp
        if plist.half:
            np.negative(wb[:k], out=wb[k:])
        f_sorted[:, c] = np.bincount(
            scatter_idx, weights=wb, minlength=plist.n_slots
        )

    forces = np.zeros((system.n_particles, 3), dtype=np.float64)
    plist.scatter_add(forces, f_sorted)
    if not plist.half:
        energy *= 0.5
        virial *= 0.5
    return ShortRangeResult(
        forces=forces,
        energy=energy,
        n_pairs_in_cutoff=n_in_cutoff,
        virial=virial,
    )
