"""Compact lane panels: the one-pass anchor and buffer recycling.

The anchor must select and store exactly what the panel oracle
(`tests.reference.reference_panels`) does, for every dtype, list kind
and coulomb mode, also after a drift-guard refresh.  Recycling must be
invisible: a run whose anchors draw released buffers from
`PANEL_POOL` is bitwise equal to one that allocates every anchor
fresh, live lists never share memory, and an engine rebuild reuses the
buffers its previous list released.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.engine import EngineConfig, SWGromacsEngine
from repro.core.vectorized import (
    PANEL_CACHE_ATTR,
    PANEL_POOL,
    compact_panels,
    compute_short_range_impl,
)
from repro.md.forces import compute_short_range
from repro.md.mdloop import MdConfig
from repro.md.minimize import minimize
from repro.md.nonbonded import NonbondedParams
from repro.md.pairlist import build_pair_list
from repro.md.water import build_water_system
from tests.reference import reference_panels

COULOMB_MODES = ("rf", "cut", "none", "ewald")


@pytest.fixture(autouse=True)
def empty_pool():
    PANEL_POOL.clear()
    yield
    PANEL_POOL.clear()


def _arrays(bufs: dict) -> list[np.ndarray]:
    out = []
    for value in bufs.values():
        if isinstance(value, np.ndarray):
            out.append(value)
        elif isinstance(value, list):
            out.extend(value)
    return out


def _panels_of(plist) -> list:
    return list(plist.__dict__[PANEL_CACHE_ATTR].panels.values())


def _assert_matches_oracle(system, plist, params, dtype):
    cp = compact_panels(system, plist, params, dtype=dtype)
    ref = reference_panels(system, plist, params, dtype)
    for name in ("lane_sel", "idx_i", "idx_j", "qq", "c6", "c12"):
        got = getattr(cp, name)
        assert got.dtype == ref[name].dtype, name
        assert np.array_equal(got, ref[name]), name
    assert cp.static_shift == ref["static_shift"]
    if ref["static_shift"]:
        assert np.array_equal(np.stack(cp.shifts), ref["shifts"])
    assert np.array_equal(
        cp.anchor_pos, plist.current_positions(system).astype(dtype)
    )


class TestAnchorMatchesOracle:
    # r_cut 0.45 turns static shifts on for the 600-atom box, 0.8 off.
    @pytest.mark.parametrize("r_cut", [0.45, 0.8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("half", [True, False])
    @pytest.mark.parametrize("mode", COULOMB_MODES)
    def test_panels_equal(self, mode, half, dtype, r_cut):
        system = build_water_system(600, seed=2019)
        params = NonbondedParams(
            r_cut=r_cut, r_list=r_cut + 0.1, coulomb_mode=mode
        )
        plist = build_pair_list(system, params.r_list, half=half)
        _assert_matches_oracle(system, plist, params, dtype)
        # A kick large enough to trip the drift guard: the evaluation
        # re-anchors in place, and the refreshed panels match the oracle
        # at the new positions.
        anchored = _panels_of(plist)[0]
        anchor_before = anchored.anchor_pos.copy()
        rng = np.random.default_rng(3)
        system.positions += rng.normal(0, 0.08, system.positions.shape)
        compute_short_range_impl(system, plist, params, dtype=dtype)
        refreshed = _panels_of(plist)[0]
        assert refreshed.bufs is anchored.bufs
        assert not np.array_equal(refreshed.anchor_pos, anchor_before)
        _assert_matches_oracle(system, plist, params, dtype)

    def test_unreused_panels_match_oracle(self):
        system = build_water_system(600, seed=7)
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
        plist = build_pair_list(system, params.r_list)
        cp = compact_panels(system, plist, params, dtype=np.float32, reuse=False)
        ref = reference_panels(system, plist, params, np.float32)
        assert np.array_equal(cp.lane_sel, ref["lane_sel"])
        assert np.array_equal(cp.qq, ref["qq"])
        assert PANEL_CACHE_ATTR not in plist.__dict__


def _fresh_every_anchor(monkeypatch):
    """Make every anchor allocate, as if the pool were emptied first."""
    monkeypatch.setattr(PANEL_POOL, "take", lambda key: {})


def _list_sequence():
    """Lists that grow and shrink (different box sizes), each evaluated
    twice with a drift in between, then invalidated as an engine
    rebuild would."""
    params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
    rng = np.random.default_rng(5)
    out = []
    taken = []
    for n in (600, 900, 750, 1200, 600):
        system = build_water_system(n, seed=n)
        plist = build_pair_list(system, params.r_list)
        for _ in range(2):
            sr = compute_short_range_impl(system, plist, params, np.float32)
            out.append((sr.forces, sr.energy, sr.virial, sr.n_pairs_in_cutoff))
            system.positions += rng.normal(0, 0.02, system.positions.shape)
        taken.append({id(a) for a in _arrays(_panels_of(plist)[0].bufs)})
        plist.invalidate()
    return out, taken


class TestRecyclingIsInvisible:
    def test_growing_and_shrinking_lists(self, monkeypatch):
        recycled, taken = _list_sequence()
        # Recycling really happened: some later list anchored into
        # arrays an earlier one released.
        assert any(taken[i] & taken[i + 1] for i in range(len(taken) - 1))
        with monkeypatch.context() as mp:
            _fresh_every_anchor(mp)
            fresh, _ = _list_sequence()
        for a, b in zip(recycled, fresh):
            assert np.array_equal(a[0], b[0])
            assert a[1:] == b[1:]

    @staticmethod
    def _minimize_then_md():
        nb = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
        system = build_water_system(600, seed=11)
        res = minimize(system, MdConfig(nonbonded=nb), n_steps=12)
        system.thermalize(300.0, np.random.default_rng(12))
        engine = SWGromacsEngine(
            system, EngineConfig(nonbonded=nb, optimization_level=3)
        )
        engine.run(25)
        return res.final_energy, system.positions.copy()

    def test_minimize_and_engine_rebuilds(self, monkeypatch):
        recycled = self._minimize_then_md()
        with monkeypatch.context() as mp:
            _fresh_every_anchor(mp)
            fresh = self._minimize_then_md()
        assert recycled[0] == fresh[0]
        assert np.array_equal(recycled[1], fresh[1])


class TestLiveListsNeverShare:
    def test_alternating_resident_lists(self):
        # The serve_burst shape: live lists evaluated alternately while
        # another is built and released around them; a list anchored
        # after that release takes the released buffers, never a live
        # list's.
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
        systems = [build_water_system(600, seed=s) for s in (1, 2)]
        plists = [build_pair_list(s, params.r_list) for s in systems]
        rng = np.random.default_rng(9)
        for it in range(6):
            if it == 2:
                other = build_water_system(600, seed=3)
                olist = build_pair_list(other, params.r_list)
                compute_short_range_impl(other, olist, params, np.float32)
                released = _panels_of(olist)[0].bufs
                olist.invalidate()
                systems.append(build_water_system(600, seed=4))
                plists.append(build_pair_list(systems[-1], params.r_list))
            for system, plist in zip(systems, plists):
                res = compute_short_range_impl(system, plist, params, np.float32)
                ref = compute_short_range(system, plist, params, np.float32)
                assert np.array_equal(res.forces, ref.forces)
                assert res.energy == ref.energy
                assert res.virial == ref.virial
            if it == 2:
                assert _panels_of(plists[-1])[0].bufs is released
            live = [_arrays(_panels_of(p)[0].bufs) for p in plists]
            for i in range(len(live)):
                for j in range(i + 1, len(live)):
                    for x in live[i]:
                        assert not any(np.shares_memory(x, y) for y in live[j])
            scale = 0.08 if it == 3 else 0.005  # one drift-guard refresh
            for system in systems:
                system.positions += rng.normal(0, scale, system.positions.shape)

    def test_results_are_not_pool_views(self):
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
        system = build_water_system(600, seed=4)
        plist = build_pair_list(system, params.r_list)
        res = compute_short_range_impl(system, plist, params, np.float32)
        bufs = _arrays(_panels_of(plist)[0].bufs)
        assert not any(np.shares_memory(res.forces, x) for x in bufs)

    def test_release_waits_for_evaluation(self):
        # An invalidation from another thread (resident eviction) must
        # not hand buffers to the pool while an evaluation holds them.
        params = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
        system = build_water_system(600, seed=4)
        plist = build_pair_list(system, params.r_list)
        compute_short_range_impl(system, plist, params, np.float32)
        cache = plist.__dict__[PANEL_CACHE_ATTR]
        with cache.lock:  # stands in for an evaluation in flight
            releaser = threading.Thread(target=plist.invalidate)
            releaser.start()
            releaser.join(0.2)
            assert releaser.is_alive()
            assert PANEL_POOL.take((np.dtype(np.float32).str, True)) == {}
        releaser.join(10)
        assert not releaser.is_alive()
        assert PANEL_POOL.take((np.dtype(np.float32).str, True)) != {}


class TestConcurrentRecycling:
    def test_threads_evaluate_and_evict_shared_lists(self):
        # More threads than cores evaluate lists that other threads
        # replace and invalidate (resident eviction under concurrent
        # batches).  Positions never change, so every evaluation must
        # equal its system's reference bit for bit; a buffer handed to
        # the pool while still in use, or shared by two live lists,
        # breaks that.
        params = NonbondedParams(r_cut=0.45, r_list=0.55, coulomb_mode="rf")
        systems = [build_water_system(300, seed=s) for s in range(3)]
        refs = [
            compute_short_range(
                s, build_pair_list(s, params.r_list), params, np.float32
            )
            for s in systems
        ]
        slots = [build_pair_list(s, params.r_list) for s in systems]
        slot_lock = threading.Lock()
        failures = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(25):
                i = int(rng.integers(len(systems)))
                if rng.random() < 0.3:
                    fresh = build_pair_list(systems[i], params.r_list)
                    with slot_lock:
                        old, slots[i] = slots[i], fresh
                    old.invalidate()
                    continue
                with slot_lock:
                    plist = slots[i]
                res = compute_short_range_impl(
                    systems[i], plist, params, np.float32
                )
                if not (
                    np.array_equal(res.forces, refs[i].forces)
                    and res.energy == refs[i].energy
                ):
                    failures.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(k,)) for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


class TestEngineRebuildReusesBuffers:
    def test_released_buffers_are_reused(self):
        nb = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
        system = build_water_system(600, seed=2019)
        engine = SWGromacsEngine(
            system, EngineConfig(nonbonded=nb, optimization_level=3)
        )
        engine.run(5)
        first = engine.pairlist
        before = {
            key: (cp.bufs, dict(cp.bufs["caps"]))
            for key, cp in first.__dict__[PANEL_CACHE_ATTR].panels.items()
        }
        arrays = {
            key: {k: v for k, v in bufs.items() if isinstance(v, np.ndarray)}
            for key, (bufs, _) in before.items()
        }
        engine.run(15)  # rebuilds at step 10
        second = engine.pairlist
        assert second is not first
        after = second.__dict__[PANEL_CACHE_ATTR].panels
        assert after.keys() == before.keys()
        for key, cp in after.items():
            bufs, caps = before[key]
            assert cp.bufs is bufs
            assert cp.bufs["caps"] == caps  # capacity sufficed
            for name, arr in arrays[key].items():
                assert cp.bufs[name] is arr, name
