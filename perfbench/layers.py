"""Per-layer metrics from the spans of a traced phase.

A span's self time is its duration minus its direct children's.  The
self time of a container span (``spans.CONTAINERS``) is work no named
layer covers: ``unattributed_frac`` is its share of all root-span time
in the process that carried the workload.
"""

from __future__ import annotations

from statistics import fmean

from spans import CONTAINERS

#: Per-layer metric -> unit, in the order the table prints them.
UNITS = {
    "md.water.build_ms": "ms",
    "md.minimize_s": "s",
    "md.minimize.force_s": "s",
    "md.minimize.pairlist_s": "s",
    "md.minimize.pairlist_builds": "count",
    "md.pairlist.build_ms": "ms",
    "md.pairlist.builds": "count",
    "md.pairlist.builds_per_period": "ratio",
    "core.short_range.compute_ms": "ms",
    "core.kernels.cost_model_ms": "ms",
    "core.stepcache.short_range_ms": "ms",
    "core.stepcache.sr_evals": "count",
    "core.stepcache.sr_hit_ratio": "ratio",
    "md.integrator.step_ms": "ms",
    "engine.rebuild_step_ms": "ms",
    "engine.steady_step_ms": "ms",
    "scenarios.concretize_ms": "ms",
    "scenarios.concretize_misses": "count",
    "serve.admit_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.execute_ms": "ms",
    "serve.wire_ms": "ms",
    "serve.batch_collect_ms": "ms",
    "serve.jobs_per_batch": "ratio",
    "serve.dedup_ratio": "ratio",
    "serve.resident_hit_ratio": "ratio",
    "serve.resident_builds": "count",
    "parallel.pool.lane_overhead_ms": "ms",
    "parallel.pool.arena_ref_blocks": "count",
    "parallel.pool.inline_force_blocks": "count",
    "serve.payload_encode_ms": "ms",
    "unattributed_frac": "ratio",
    "trace_overhead_frac": "ratio",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}


class SpanIndex:
    """Spans of every process of one traced phase."""

    def __init__(self, by_pid: dict[int, list[tuple]], main_pid: int) -> None:
        self.main_pid = main_pid
        self.spans = []  # (pid, name, start, end, sid, parent, attrs)
        self._by_key = {}
        child_time: dict[tuple, float] = {}
        for pid, rows in by_pid.items():
            for name, t0, t1, sid, parent, _tid, attrs in rows:
                row = (pid, name, t0, t1, sid, parent, attrs or {})
                self.spans.append(row)
                self._by_key[(pid, sid)] = row
                if parent:
                    key = (pid, parent)
                    child_time[key] = child_time.get(key, 0.0) + (t1 - t0)
        self._child_time = child_time

    def named(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[1] == name]

    @staticmethod
    def duration(s) -> float:
        return s[3] - s[2]

    def self_time(self, s) -> float:
        return s[3] - s[2] - self._child_time.get((s[0], s[4]), 0.0)

    def under(self, s, ancestor: str) -> bool:
        parent = s[5]
        while parent:
            up = self._by_key.get((s[0], parent))
            if up is None:
                return False
            if up[1] == ancestor:
                return True
            parent = up[5]
        return False

    def unattributed_frac(self) -> float:
        roots = sum(
            self.duration(s) for s in self.spans
            if s[0] == self.main_pid and not s[5]
        )
        loose = sum(
            self.self_time(s) for s in self.spans if s[1] in CONTAINERS
        )
        return loose / roots if roots else 0.0


def _mean_ms(values) -> float:
    values = list(values)
    return fmean(values) * 1e3 if values else 0.0


def traced_metrics(ix: SpanIndex, nstlist_periods: int = 0) -> dict[str, float]:
    """Every span-derived per-layer metric (0 where a layer never ran)."""
    out: dict[str, float] = {}
    dur = ix.duration

    out["md.water.build_ms"] = _mean_ms(dur(s) for s in ix.named("md.water.build"))

    mins = ix.named("md.minimize")
    n_min = max(len(mins), 1)
    in_min = {
        name: [s for s in ix.named(name) if ix.under(s, "md.minimize")]
        for name in ("core.short_range", "md.pairlist.build")
    }
    out["md.minimize_s"] = sum(dur(s) for s in mins) / n_min
    out["md.minimize.force_s"] = sum(dur(s) for s in in_min["core.short_range"]) / n_min
    out["md.minimize.pairlist_s"] = sum(dur(s) for s in in_min["md.pairlist.build"]) / n_min
    out["md.minimize.pairlist_builds"] = len(in_min["md.pairlist.build"]) / n_min

    builds = [
        s for s in ix.named("md.pairlist.build") if not ix.under(s, "md.minimize")
    ]
    out["md.pairlist.build_ms"] = _mean_ms(dur(s) for s in builds)
    out["md.pairlist.builds"] = float(len(builds))
    out["md.pairlist.builds_per_period"] = (
        len(builds) / nstlist_periods if nstlist_periods else 0.0
    )
    out["core.short_range.compute_ms"] = _mean_ms(
        dur(s) for s in ix.named("core.short_range")
        if not ix.under(s, "md.minimize")
    )
    out["core.kernels.cost_model_ms"] = _mean_ms(
        ix.self_time(s) for s in ix.named("core.kernels.run_kernel")
    )
    sr = ix.named("core.stepcache.short_range")
    evals = sum(1 for s in sr if s[6].get("eval"))
    out["core.stepcache.short_range_ms"] = _mean_ms(dur(s) for s in sr)
    out["core.stepcache.sr_evals"] = float(evals)
    out["core.stepcache.sr_hit_ratio"] = (len(sr) - evals) / len(sr) if sr else 0.0
    out["md.integrator.step_ms"] = _mean_ms(dur(s) for s in ix.named("md.integrator.step"))

    conc = ix.named("scenarios.concretize")
    out["scenarios.concretize_ms"] = _mean_ms(dur(s) for s in conc)
    out["scenarios.concretize_misses"] = float(sum(1 for s in conc if s[6].get("miss")))
    out["serve.admit_ms"] = _mean_ms(dur(s) for s in ix.named("serve.admit"))
    out["serve.batch_collect_ms"] = _mean_ms(
        dur(s) for s in ix.named("serve.batch_collect")
    )
    out["serve.payload_encode_ms"] = _mean_ms(
        dur(s) for s in ix.named("serve.payload_encode")
    )

    run_on = ix.named("parallel.pool.run_on")
    lane = ix.named("parallel.pool.lane_task")
    out["parallel.pool.lane_overhead_ms"] = (
        (sum(map(dur, run_on)) - sum(map(dur, lane))) / len(run_on) * 1e3
        if run_on else 0.0
    )
    batches = ix.named("serve.execute_batch")
    out["parallel.pool.arena_ref_blocks"] = float(sum(s[6].get("arena", 0) for s in batches))
    out["parallel.pool.inline_force_blocks"] = float(
        sum(s[6].get("inline", 0) for s in batches)
    )
    out["unattributed_frac"] = ix.unattributed_frac()
    return out


def stats_metrics(stats: dict) -> dict[str, float]:
    """Ratios and counts from the service's ``stats`` op."""
    lookups = stats.get("resident_hits", 0) + stats.get("resident_misses", 0)
    return {
        "serve.jobs_per_batch": (
            stats["completed"] / stats["batches"] if stats.get("batches") else 0.0
        ),
        "serve.dedup_ratio": (
            stats["dedup_hits"] / stats["accepted"] if stats.get("accepted") else 0.0
        ),
        "serve.resident_hit_ratio": (
            stats["resident_hits"] / lookups if lookups else 0.0
        ),
        "serve.resident_builds": float(stats.get("resident_builds", 0)),
    }
