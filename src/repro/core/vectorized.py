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

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

from repro.core.deferred import replay_write_trace
from repro.core.packing import package_views
from repro.core.shuffle import transpose_4x3
from repro.hw.simd import FloatV4, LANES, OpCounter
from repro.md.forces import (
    ShortRangeResult,
    compute_short_range,
    tile_indices,
    tile_validity,
)
from repro.md.nonbonded import (
    COULOMB_CONSTANT,
    NonbondedParams,
    pair_force_energy,
)
from repro.md.pairlist import CLUSTER_SIZE, ClusterPairList
from repro.md.system import ParticleSystem
from repro.parallel.pool import as_input
from repro.trace.events import CAT_COMPUTE, TraceEvent

#: Key under which per-list lane panels memoise on the pair list; popped
#: by ``ClusterPairList.invalidate`` alongside the gather memo.
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
class LaneStatics:
    """Topology-only flat lane view of one pair list (cached).

    One entry per *topology-valid* tile lane, flattened: slot indices,
    pair constants and the lane's position inside the full ``(M, 4, 4)``
    tile block (for scattering back into full-lane-shape accumulators).
    Nothing here depends on positions, so the drift-guard refresh reuses
    it wholesale and only redoes the positional scan.  The trailing
    arrays are refresh scratch, sized to the valid-lane count so a
    re-anchor allocates nothing large.
    """

    lane_pos: np.ndarray  # (V,) flat full-lane index of each valid lane
    vi: np.ndarray  # (V,) i-slot of each valid lane
    vj: np.ndarray  # (V,) j-slot
    qq: np.ndarray  # (V,) charge products, short-range dtype
    c6: np.ndarray
    c12: np.ndarray
    n_lanes: int  # full lane count, M * 16
    gx: np.ndarray = field(repr=False, default=None)
    gy: np.ndarray = field(repr=False, default=None)
    gz: np.ndarray = field(repr=False, default=None)
    gt: np.ndarray = field(repr=False, default=None)
    sx: np.ndarray = field(repr=False, default=None)
    sy: np.ndarray = field(repr=False, default=None)
    sz: np.ndarray = field(repr=False, default=None)
    r2: np.ndarray = field(repr=False, default=None)


def lane_statics(
    system: ParticleSystem,
    plist: ClusterPairList,
    dtype: type = np.float64,
    reuse: bool = True,
) -> LaneStatics:
    """Build (or fetch memoised) the flat valid-lane topology view.

    The pair constants are the exact values `compute_short_range`
    gathers per tile — gathering to valid lanes before the product is
    elementwise, so operands are bit-identical either way.
    """
    key = ("lanestatic", np.dtype(dtype).str)
    cache = plist.__dict__.setdefault(PANEL_CACHE_ATTR, {}) if reuse else None
    if cache is not None and key in cache:
        return cache[key]
    ci = plist.pair_ci.astype(np.int64)
    cj = plist.pair_cj.astype(np.int64)
    slot_i, slot_j = tile_indices(ci, cj)
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
    valid = tile_validity(plist, ci, cj, slot_i, slot_j, mol)
    lane_pos = np.flatnonzero(valid.reshape(-1))
    vi = np.ascontiguousarray(slot_i.reshape(-1)[lane_pos])
    vj = np.ascontiguousarray(slot_j.reshape(-1)[lane_pos])
    ti, tj = types[vi], types[vj]
    c6_tab = system.topology.c6_table.astype(dtype)
    c12_tab = system.topology.c12_table.astype(dtype)
    n_valid = len(lane_pos)
    ls = LaneStatics(
        lane_pos=lane_pos,
        vi=vi,
        vj=vj,
        qq=q[vi] * q[vj],
        c6=c6_tab[ti, tj],
        c12=c12_tab[ti, tj],
        n_lanes=valid.size,
        gx=np.empty(n_valid, dtype=dtype),
        gy=np.empty(n_valid, dtype=dtype),
        gz=np.empty(n_valid, dtype=dtype),
        gt=np.empty(n_valid, dtype=dtype),
        sx=np.empty(n_valid, dtype=dtype),
        sy=np.empty(n_valid, dtype=dtype),
        sz=np.empty(n_valid, dtype=dtype),
        r2=np.empty(n_valid, dtype=dtype),
    )
    if cache is not None:
        cache[key] = ls
    return ls


@dataclass
class CompactPanels:
    """Flattened, pruned lane data for the per-step fast path.

    Built once per pair-list rebuild (or after a drift-guard refresh):
    lanes are the tile entries that are topology-valid *and* within
    ``r_keep = r_cut + PRUNE_MARGIN`` of each other at
    ``anchor_pos``.  A pruned lane can only contribute an exact zero in
    the reference evaluation, so dropping it never changes a sum (the
    one invisible exception: a slot whose every contribution is a
    signed zero may flip zero sign, which ``==``/``np.array_equal``
    cannot observe and the integrator cannot propagate).

    ``shift_x/y/z`` hold ``box * round(dr/box)`` per kept lane when the
    static-shift precondition holds (``2*r_keep - r_cut`` under half
    the smallest box edge): while the drift guard passes, no kept
    lane's minimum image can reach half a box edge, so the rounding in
    the reference PBC fold is reproduced exactly by the stored shift.
    """

    #: Capacity-padded buffer pool: every kept-lane array lives in
    #: ``bufs`` at capacity ``cap`` and is consumed as a ``[:n_kept]``
    #: view, so a drift-guard re-anchor refills in place (a few
    #: ``np.take`` passes) instead of reallocating ~25 multi-MB arrays —
    #: large numpy frees go straight back to the OS, so reallocation
    #: costs a page-fault storm every refresh.
    bufs: dict = field(repr=False)
    cap: int
    n_kept: int
    e_full: np.ndarray = field(repr=False)
    w_full: np.ndarray = field(repr=False)
    f_sorted: np.ndarray = field(repr=False)
    anchor_pos: np.ndarray = field(repr=False)
    r_keep: float
    n_lanes: int
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


def _alloc_compact_bufs(half: bool, dtype, cap: int) -> dict:
    nw = 2 * cap if half else cap
    bufs = {
        "sidx": np.empty(2 * cap, dtype=np.int64),
        "lane_sel": np.empty(cap, dtype=np.int64),
        "wtmp": np.empty(cap, dtype=np.float64),
        "wb": [np.empty(nw, dtype=np.float64) for _ in range(3)],
        "tb": [np.empty(cap, dtype=dtype) for _ in range(10)],
        "mb": [np.empty(cap, dtype=bool) for _ in range(2)],
    }
    for name in _COMPACT_DTYPE_BUFS:
        bufs[name] = np.empty(cap, dtype=dtype)
    return bufs


def _refill_compact(
    prev: CompactPanels | None,
    system: ParticleSystem,
    plist: ClusterPairList,
    params: NonbondedParams,
    dtype: type,
    reuse: bool,
) -> CompactPanels:
    """Anchor (or re-anchor) compact panels at the current positions.

    When ``prev`` has enough capacity its buffers are refilled in place
    and the same object is returned; otherwise a fresh panel set is
    allocated with some slack for future refreshes.
    """
    dt = np.dtype(dtype).type
    ls = lane_statics(system, plist, dtype=dtype, reuse=reuse)
    pos = plist.current_positions(system).astype(dtype)
    pcols = np.ascontiguousarray(pos.T)
    box_arr = plist.box.array.astype(dtype)

    # Columnwise anchor scan: dr components, PBC shifts and r2 for every
    # valid lane, written into the cached scratch (same elementwise ops
    # as the reference fold, associated identically).
    for c, (gc, sc) in enumerate(
        zip((ls.gx, ls.gy, ls.gz), (ls.sx, ls.sy, ls.sz))
    ):
        np.take(pcols[c], ls.vi, out=gc, mode="clip")
        np.take(pcols[c], ls.vj, out=ls.gt, mode="clip")
        gc -= ls.gt
        np.divide(gc, box_arr[c], out=ls.gt)
        np.round(ls.gt, out=sc)
        sc *= box_arr[c]
        gc -= sc
    r2 = ls.r2
    np.multiply(ls.gx, ls.gx, out=r2)
    np.multiply(ls.gy, ls.gy, out=ls.gt)
    r2 += ls.gt
    np.multiply(ls.gz, ls.gz, out=ls.gt)
    r2 += ls.gt

    r_keep = params.r_cut + PRUNE_MARGIN
    sel = np.flatnonzero(r2 < dt(r_keep) ** 2)
    k = len(sel)

    # Static PBC shifts are only safe when the worst-case kept-lane
    # separation (anchor distance < r_keep plus guarded drift
    # < r_keep - r_cut) stays under half the smallest box edge.
    min_box = float(box_arr.min())
    static_shift = 2.0 * r_keep - params.r_cut < 0.5 * min_box - 1e-9

    if prev is not None and prev.cap >= k and prev.n_lanes == ls.n_lanes:
        cp = prev
        cp.n_kept = k
        cp.r_keep = r_keep
        cp.e_full.fill(0.0)
        cp.w_full.fill(0.0)
        np.copyto(cp.anchor_pos, pos)
    else:
        cap = k + (k >> 4) + 1024
        cp = CompactPanels(
            bufs=_alloc_compact_bufs(plist.half, dtype, cap),
            cap=cap,
            n_kept=k,
            e_full=np.zeros(ls.n_lanes, dtype=dtype),
            w_full=np.zeros(ls.n_lanes, dtype=np.float64),
            f_sorted=np.empty((plist.n_slots, 3), dtype=np.float64),
            anchor_pos=pos.copy(),
            r_keep=r_keep,
            n_lanes=ls.n_lanes,
            half=plist.half,
            static_shift=static_shift,
            has_shift_e=params.shift_lj,
        )
    cp.static_shift = static_shift
    cp.has_shift_e = params.shift_lj
    b = cp.bufs

    np.take(ls.lane_pos, sel, out=b["lane_sel"][:k])
    np.take(ls.vi, sel, out=b["sidx"][:k])
    np.take(ls.vj, sel, out=b["sidx"][k : 2 * k])
    np.take(ls.qq, sel, out=b["qq"][:k])
    np.take(ls.c6, sel, out=b["c6"][:k])
    np.take(ls.c12, sel, out=b["c12"][:k])
    qq, c6, c12 = b["qq"][:k], b["c6"][:k], b["c12"][:k]
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
        t = b["tb"][0][:k]
        np.multiply(c6, inv6, out=t)
        se -= t
    if static_shift:
        np.take(ls.sx, sel, out=b["sx"][:k])
        np.take(ls.sy, sel, out=b["sy"][:k])
        np.take(ls.sz, sel, out=b["sz"][:k])
    return cp


def compact_panels(
    system: ParticleSystem,
    plist: ClusterPairList,
    params: NonbondedParams,
    dtype: type = np.float64,
    reuse: bool = True,
) -> CompactPanels:
    """Build (or fetch memoised) pruned lane panels for ``plist``.

    The memo lives next to the lane statics on the pair list (popped by
    ``invalidate``); the key includes dtype and the nonbonded
    parameters, so different cutoffs never share a lane set.  The
    positional scan runs columnwise over the cached valid-lane view —
    no ``(M, 4, 4, 3)`` broadcast — so a drift-guard re-anchor costs a
    few streaming passes, not a full tile rebuild.
    """
    key = ("compact", np.dtype(dtype).str, params)
    cache = plist.__dict__.setdefault(PANEL_CACHE_ATTR, {}) if reuse else None
    if cache is not None and key in cache:
        return cache[key]
    cp = _refill_compact(None, system, plist, params, dtype, reuse)
    if cache is not None:
        cache[key] = cp
    return cp


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
    """Pruned-lane `compute_short_range` with memoised compact panels.

    Once per rebuild the 4x4 tiles are flattened to the lanes that are
    topology-valid and within ``r_keep`` (:func:`compact_panels`); per
    step only gathers, one PBC fold, ``r2``, the pair kernel and the
    force scatter run — roughly ``0.4x`` the lanes and a third of the
    numpy passes of the full tile batch.  A drift guard re-anchors the
    panels whenever a particle has moved far enough that a pruned lane
    could re-enter the cutoff (or a static shift could flip), so results
    stay exact for arbitrary motion, not just small MD steps.

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
    m_total = plist.n_cluster_pairs
    if m_total > chunk_pairs:
        return compute_short_range(
            system,
            plist,
            params,
            dtype=dtype,
            chunk_pairs=chunk_pairs,
            reuse_gathers=reuse_gathers,
        )
    cp = compact_panels(system, plist, params, dtype=dtype, reuse=reuse_gathers)
    pos = plist.current_positions(system).astype(dtype)
    box_arr = plist.box.array.astype(dtype)

    margin = cp.r_keep - params.r_cut
    if 4.0 * _drift2_max(pos, cp.anchor_pos, box_arr) > margin * margin:
        # A pruned lane may have drifted inside the cutoff (or a static
        # shift may no longer round the same way): re-anchor the panels
        # at the current positions.
        # Refill in place: the capacity-padded buffers absorb the new
        # lane set without reallocating (page-fault storms otherwise
        # dominate the refresh cost).
        cp = _refill_compact(cp, system, plist, params, dtype, reuse_gathers)
        if reuse_gathers:
            plist.__dict__.setdefault(PANEL_CACHE_ATTR, {})[
                ("compact", np.dtype(dtype).str, params)
            ] = cp

    k = cp.n_kept
    b = cp.bufs
    idx_i = b["sidx"][:k]
    idx_j = b["sidx"][k : 2 * k]
    lane_sel = b["lane_sel"][:k]
    dtmp = b["dtmp"][:k]
    pcols = np.ascontiguousarray(pos.T)
    d = (b["dx"][:k], b["dy"][:k], b["dz"][:k])
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
    r2 = b["r2b"][:k]
    np.multiply(d[0], d[0], out=r2)
    np.multiply(d[1], d[1], out=dtmp)
    r2 += dtmp
    np.multiply(d[2], d[2], out=dtmp)
    r2 += dtmp

    f_scalar, e = _pair_terms_compact(r2, cp, params)
    n_in_cutoff = int(np.count_nonzero(f_scalar))
    cp.e_full[lane_sel] = e
    energy = 0.0 + float(cp.e_full.sum(dtype=np.float64))
    w = b["wtmp"][:k]
    w[...] = f_scalar
    w *= r2
    cp.w_full[lane_sel] = w
    virial = 0.0 + float(cp.w_full.sum())

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
