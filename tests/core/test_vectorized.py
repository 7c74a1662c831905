"""Bit-identity of the production kernels against the scalar references.

The vectorized module replaces iteration structure, never arithmetic:
every cell of the backend × half/full × mark matrix must produce the
same forces, energy, write-cache counters, shuffle counts, and trace
events as the scalar fidelity walk (`_walk_fidelity_partition`) — to
the bit, not to a tolerance.  The per-step pruned-lane path is pinned
the same way against `compute_short_range` across coulomb modes,
dtypes, and drift-guard refreshes.
"""

import warnings

import numpy as np
import pytest

from repro.core.kernels import ALL_SPECS, run_kernel, run_kernel_sequential
from repro.core.stepcache import partition_clusters
from repro.core.vectorized import (
    PANEL_CACHE_ATTR,
    _pair_terms_compact,
    compact_panels,
    compute_short_range_impl,
)
from repro.md.forces import compute_short_range
from repro.md.nonbonded import NonbondedParams, pair_force_energy
from repro.md.pairlist import build_pair_list
from repro.md.water import build_water_system
from repro.trace.events import Tracer
from tests.reference import reference_kernels

COULOMB_MODES = ("rf", "cut", "none", "ewald")


@pytest.fixture(scope="module")
def water():
    return build_water_system(600, seed=2019)


@pytest.fixture(scope="module")
def nb():
    return NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")


def _same_result(a, b):
    assert np.array_equal(a.forces, b.forces)
    assert a.energy == b.energy


def _same_counters(a, b):
    for key in (
        "write_misses",
        "write_puts",
        "write_gets",
        "write_first_touches",
        "simd_shuffles",
    ):
        assert a.stats[key] == b.stats[key], key


def _reference_sequential(system, plist, nb, spec, **kwargs):
    """`run_kernel_sequential` with every partition walked by the scalar
    `_walk_fidelity_partition` (serial, so no worker misses the patch)."""
    with reference_kernels():
        return run_kernel_sequential(
            system, plist, nb, spec, backend="serial", **kwargs
        )


class TestWalkMatrix:
    """Fidelity-walk matrix: production vs scalar reference, every
    observable."""

    @pytest.fixture(scope="class")
    def scalar_ref(self, water, nb):
        refs = {}
        for half in (True, False):
            plist = build_pair_list(water, nb.r_list, half=half)
            for spec_name in ("MARK", "CACHE"):  # mark on / mark off
                tracer = Tracer()
                res = _reference_sequential(
                    water, plist, nb, ALL_SPECS[spec_name],
                    n_cpes=8, tracer=tracer,
                )
                refs[half, spec_name] = (res, tracer.events, plist)
        return refs

    @pytest.mark.parametrize("backend", ["serial", "pool"])
    @pytest.mark.parametrize("spec_name", ["MARK", "CACHE"])
    @pytest.mark.parametrize("half", [True, False])
    def test_bit_identity(self, scalar_ref, water, nb, half, spec_name, backend):
        ref, ref_events, plist = scalar_ref[half, spec_name]
        tracer = Tracer()
        res = run_kernel_sequential(
            water, plist, nb, ALL_SPECS[spec_name],
            n_cpes=8, backend=backend, tracer=tracer,
        )
        _same_result(ref, res)
        _same_counters(ref, res)
        assert tracer.events == ref_events

    def test_simd_shuffles_replayed(self, scalar_ref):
        res, _, _ = scalar_ref[True, "MARK"]
        assert res.stats["simd_shuffles"] > 0


class TestTraceNoDuplicates:
    """Regression: `run_kernel_sequential` borrows the fast path's
    timing without re-emitting its kernel spans into the live tracer, so
    a Chrome trace shows each kernel once (ISSUE 8)."""

    def test_fast_path_spans_not_reemitted(self, water, nb):
        plist = build_pair_list(water, nb.r_list)
        fast_tracer = Tracer()
        run_kernel(
            water, plist, nb, ALL_SPECS["MARK"], tracer=fast_tracer
        )
        fast_names = {e.name for e in fast_tracer.events}
        assert fast_names  # the fast path does instrument its own runs

        seq_tracer = Tracer()
        run_kernel_sequential(
            water, plist, nb, ALL_SPECS["MARK"], n_cpes=8, tracer=seq_tracer
        )
        seq_names = {e.name for e in seq_tracer.events}
        assert seq_names == {"fidelity_walk"}
        assert not (fast_names & seq_names)

    def test_no_identical_event_pairs(self, water, nb):
        plist = build_pair_list(water, nb.r_list)
        tracer = Tracer()
        run_kernel_sequential(
            water, plist, nb, ALL_SPECS["MARK"], n_cpes=8, tracer=tracer
        )
        seen = set()
        for e in tracer.events:
            key = (e.name, e.category, e.cpe_id, e.start_cycle)
            assert key not in seen, f"duplicate trace event: {key}"
            seen.add(key)


class TestEmptyPartitions:
    """`n_clusters < n_cpes` leaves empty tail partitions; both walks
    must return clean zero contributions for them."""

    @pytest.fixture(scope="class")
    def tiny(self):
        system = build_water_system(150, seed=2019)
        nb = NonbondedParams(r_cut=0.45, r_list=0.55, coulomb_mode="rf")
        return system, nb, build_pair_list(system, nb.r_list)

    def test_partitions_are_actually_empty(self, tiny):
        _, _, plist = tiny
        parts = partition_clusters(plist, 64)
        assert plist.n_clusters < 64
        assert sum(1 for lo, hi in parts if lo == hi) > 0
        assert parts[-1][1] == plist.n_clusters

    @pytest.mark.parametrize("walk", ["scalar", "vectorized"])
    def test_walks_match_reference(self, tiny, walk):
        system, nb, plist = tiny
        ref = compute_short_range(system, plist, nb, dtype=np.float32)
        sequential = (
            _reference_sequential if walk == "scalar" else run_kernel_sequential
        )
        res = sequential(system, plist, nb, ALL_SPECS["MARK"], n_cpes=64)
        np.testing.assert_allclose(res.forces, ref.forces, atol=5e-4)
        assert np.isfinite(res.energy)

    def test_impls_bit_identical(self, tiny):
        system, nb, plist = tiny
        a = _reference_sequential(system, plist, nb, ALL_SPECS["MARK"], n_cpes=64)
        b = run_kernel_sequential(system, plist, nb, ALL_SPECS["MARK"], n_cpes=64)
        _same_result(a, b)
        _same_counters(a, b)


class TestPerStepPath:
    """`compute_short_range_impl` vs the chunked reference."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("half", [True, False])
    @pytest.mark.parametrize("mode", COULOMB_MODES)
    def test_bit_identity_with_drift(self, mode, half, dtype):
        rng = np.random.default_rng(7)
        system = build_water_system(600, seed=2019)
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode=mode)
        plist = build_pair_list(system, params.r_list, half=half)
        for it in range(4):
            ref = compute_short_range(system, plist, params, dtype=dtype)
            res = compute_short_range_impl(system, plist, params, dtype=dtype)
            assert np.array_equal(ref.forces, res.forces), (mode, half, it)
            assert ref.energy == res.energy
            assert ref.virial == res.virial
            assert ref.n_pairs_in_cutoff == res.n_pairs_in_cutoff
            # Small drift on most iterations; a large kick on the third
            # forces the drift guard to re-anchor the compact panels.
            scale = 0.06 if it == 2 else 0.004
            system.positions += rng.normal(0, scale, system.positions.shape)

    def test_dispatcher_routes_both_impls(self, water, nb):
        # Lists above ``chunk_pairs`` take the chunked reference, the
        # rest the pruned-lane path; both match the reference bitwise.
        for chunk_pairs in (65536, 64):
            plist = build_pair_list(water, nb.r_list)
            ref = compute_short_range(
                water, plist, nb, dtype=np.float32, chunk_pairs=chunk_pairs
            )
            res = compute_short_range_impl(
                water, plist, nb, dtype=np.float32, chunk_pairs=chunk_pairs
            )
            pruned = PANEL_CACHE_ATTR in plist.__dict__
            assert pruned == (plist.n_cluster_pairs <= chunk_pairs)
            assert np.array_equal(ref.forces, res.forces)
            assert ref.energy == res.energy


class TestPairTermsCompact:
    """The fused in-place pair kernel vs `pair_force_energy`, lane for
    lane on the real compact panels plus randomised r2."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", COULOMB_MODES)
    def test_bitwise_equal(self, water, mode, dtype):
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode=mode)
        plist = build_pair_list(water, params.r_list)
        cp = compact_panels(water, plist, params, dtype=dtype)
        k = cp.n_kept
        rng = np.random.default_rng(11)
        # Random r2 spanning in-cutoff, out-of-cutoff and exact-zero
        # (overlapping padding) lanes.
        r2 = (rng.uniform(0.0, 1.3 * params.r_cut**2, k)).astype(dtype)
        r2[:: max(k // 17, 1)] = dtype(0.0)
        ref_f, ref_e = pair_force_energy(
            r2, cp.qq.copy(), cp.c6.copy(), cp.c12.copy(), params
        )
        buf = cp.bufs["r2b"][:k]
        buf[...] = r2
        f, e = _pair_terms_compact(buf, cp, params)
        assert np.array_equal(f, ref_f)
        assert np.array_equal(e, ref_e)

    def test_masked_lanes_warning_free(self, water):
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
        plist = build_pair_list(water, params.r_list)
        cp = compact_panels(water, plist, params, dtype=np.float32)
        k = cp.n_kept
        buf = cp.bufs["r2b"][:k]
        buf.fill(0.0)  # every lane an overlapping self-pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, e = _pair_terms_compact(buf, cp, params)
        assert not f.any()
        assert not e.any()


class TestMaskedLaneWarnings:
    """Regression: masked lanes (r2 == 0 self-pairs, out-of-cutoff) are
    clamped before the division, so the hot path emits no
    RuntimeWarnings — enforced suite-wide by the pytest
    ``error::RuntimeWarning`` filter."""

    @pytest.mark.parametrize("mode", COULOMB_MODES)
    def test_pair_force_energy_zero_r2(self, mode):
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode=mode)
        r2 = np.array([0.0, 0.04, 1.0], dtype=np.float32)
        ones = np.ones(3, dtype=np.float32)
        mask = np.array([False, True, True])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, e = pair_force_energy(
                r2, ones, 1e-3 * ones, 1e-6 * ones, params, mask=mask
            )
        assert f[0] == 0.0 and e[0] == 0.0
        assert np.isfinite(f).all() and np.isfinite(e).all()

    def test_unmasked_self_pair_guarded(self):
        # Without an explicit mask the r2 > 0 guard must still hold.
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
        r2 = np.zeros(4, dtype=np.float32)
        ones = np.ones(4, dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, e = pair_force_energy(r2, ones, ones, ones, params)
        assert not f.any() and not e.any()


class TestEngineParity:
    """Whole-trajectory parity: the engine as shipped vs the engine with
    the reference evaluation patched in."""

    @staticmethod
    def _run():
        from repro.core.engine import EngineConfig, SWGromacsEngine

        nb = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
        system = build_water_system(600, seed=2019)
        engine = SWGromacsEngine(
            system,
            EngineConfig(nonbonded=nb, step_reuse=True, report_interval=3),
        )
        res = engine.run(12)
        return system.positions.copy(), res.reporter.frames

    def test_positions_and_frames_identical(self):
        with reference_kernels():
            pos_s, frames_s = self._run()
        pos_v, frames_v = self._run()
        assert np.array_equal(pos_s, pos_v)
        assert frames_s == frames_v
