"""Job model: fingerprints, validation, wire round trips, and the
executor paths the service's bit-identity guarantee is pinned against.

The load-bearing invariants:

* the fingerprint covers exactly the execution-relevant fields —
  scheduling metadata (tenant/priority/timeout) must NOT shift it, or
  dedup would stop coalescing identical work across tenants;
* `execute_batch` is bit-identical to per-request `execute_request`
  while sharing one StepCache across compatible units.
"""

from __future__ import annotations

import pytest

from repro.serve.jobs import (
    BatchOutcome,
    InvalidRequestError,
    JobError,
    JobRequest,
    JobResult,
    execute_batch,
    execute_request,
)

#: Small-but-valid water system: 300 particles supports r_list 0.55.
FAST = dict(n_particles=300, r_cut=0.45)


class TestFingerprint:
    def test_identical_requests_share_fingerprint(self):
        assert JobRequest(**FAST).fingerprint == JobRequest(**FAST).fingerprint

    def test_scheduling_fields_do_not_affect_fingerprint(self):
        base = JobRequest(**FAST)
        for variant in (
            JobRequest(**FAST, tenant="other"),
            JobRequest(**FAST, priority=7),
            JobRequest(**FAST, timeout_s=1.5),
        ):
            assert variant.fingerprint == base.fingerprint

    @pytest.mark.parametrize(
        "change",
        [
            {"spec": "VEC"},
            {"seed": 7},
            {"n_particles": 303},
            {"r_cut": 0.5},
            {"kind": "md"},
        ],
    )
    def test_execution_fields_change_fingerprint(self, change):
        assert (
            JobRequest(**{**FAST, **change}).fingerprint
            != JobRequest(**FAST).fingerprint
        )

    def test_md_only_fields_ignored_for_kernel(self):
        # steps/level only matter for md requests.
        assert (
            JobRequest(**FAST, steps=50).fingerprint
            == JobRequest(**FAST).fingerprint
        )
        assert (
            JobRequest(**FAST, kind="md", steps=50).fingerprint
            != JobRequest(**FAST, kind="md").fingerprint
        )

    def test_system_key_ignores_spec(self):
        a = JobRequest(**FAST, spec="MARK")
        b = JobRequest(**FAST, spec="VEC")
        assert a.system_key == b.system_key
        assert a.fingerprint != b.fingerprint


class TestValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "quantum"},
            {"spec": "NOPE"},
            {"n_particles": 2},
            {"kind": "md", "steps": 0},
            {"kind": "md", "level": 9},
            {"r_cut": 0.0},
            {"timeout_s": -1.0},
            {"r_cut": float("nan")},
            {"r_cut": float("inf")},
            {"r_cut": "0.9"},
            {"timeout_s": float("nan")},
            {"timeout_s": float("inf")},
            {"n_particles": "900"},
            {"n_particles": 900.0},
            {"kind": "md", "steps": 2.5},
            {"kind": "md", "level": 1.5},
            {"seed": "7"},
            {"seed": True},
            {"priority": "high"},
        ],
    )
    def test_invalid_requests_raise(self, bad):
        with pytest.raises(InvalidRequestError):
            JobRequest(**{**FAST, **bad}).validate()

    def test_valid_request_passes(self):
        JobRequest(**FAST).validate()
        JobRequest(**FAST, kind="md", steps=3).validate()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(InvalidRequestError, match="unknown request field"):
            JobRequest.from_dict({"n_particles": 300, "gpu": True})


class TestWireRoundTrip:
    def test_request_round_trip(self):
        req = JobRequest(**FAST, tenant="t1", priority=2, timeout_s=3.0)
        assert JobRequest.from_dict(req.to_dict()) == req

    def test_result_round_trip(self):
        res = JobResult(
            job_id=3,
            fingerprint="ab" * 16,
            kind="kernel",
            ok=False,
            error=JobError("timeout", "too slow"),
            executed=False,
            attempts=2,
            queue_seconds=0.5,
            execute_seconds=1.5,
        )
        back = JobResult.from_dict(res.to_dict())
        assert back == res

    def test_result_dict_is_json_safe(self):
        import json

        res = JobResult(job_id=1, fingerprint="00", kind="md", ok=True,
                        payload={"energy": -1.0})
        assert json.loads(json.dumps(res.to_dict())) == res.to_dict()


class TestExecutors:
    def test_kernel_payload_shape(self):
        payload = execute_request(JobRequest(**FAST))
        assert set(payload) == {
            "energy", "forces_fp", "modelled_seconds", "breakdown"
        }
        assert isinstance(payload["energy"], float)

    def test_kernel_execution_is_deterministic(self):
        req = JobRequest(**FAST)
        assert execute_request(req) == execute_request(req)

    def test_md_execution_is_deterministic(self):
        req = JobRequest(**FAST, kind="md", steps=2)
        a = execute_request(req)
        assert a == execute_request(req)
        assert a["n_steps"] == 2
        assert "positions_fp" in a

    def test_batch_matches_direct_execution(self):
        reqs = tuple(
            JobRequest(**FAST, spec=s) for s in ("MARK", "CACHE", "VEC")
        )
        outcome = execute_batch(reqs)
        assert isinstance(outcome, BatchOutcome)
        for req, payload in zip(reqs, outcome.payloads):
            assert payload == execute_request(req)

    def test_batch_shares_one_stepcache(self):
        # Three specs off one system key: one short-range evaluation,
        # two cache hits (the §8 sweep-style reuse, across requests).
        reqs = tuple(
            JobRequest(**FAST, spec=s) for s in ("MARK", "CACHE", "VEC")
        )
        outcome = execute_batch(reqs)
        assert outcome.cache_stats["sr_evals"] == 1
        assert outcome.cache_stats["sr_hits"] == 2

    def test_batch_mixed_system_keys_stay_isolated(self):
        reqs = (
            JobRequest(**FAST, spec="MARK"),
            JobRequest(n_particles=300, r_cut=0.45, seed=7, spec="MARK"),
        )
        outcome = execute_batch(reqs)
        for req, payload in zip(reqs, outcome.payloads):
            assert payload == execute_request(req)
        assert outcome.payloads[0] != outcome.payloads[1]

    def test_batch_handles_md_alongside_kernels(self):
        reqs = (
            JobRequest(**FAST, spec="MARK"),
            JobRequest(**FAST, kind="md", steps=2),
        )
        outcome = execute_batch(reqs)
        assert outcome.payloads[0] == execute_request(reqs[0])
        assert outcome.payloads[1] == execute_request(reqs[1])
