"""Crash-only recovery: interrupt the service at journaled fault points,
restart from the same state directory, and prove the differential —
every job terminal, every result bit-identical to the cold run."""

import json

import pytest

from repro.resilience import faultinject
from repro.resilience.faultinject import Fault, FaultPlan
from repro.serve.chaos import DEFAULT_SITES, run_interrupt_differential
from repro.serve.jobs import JobSpec
from repro.serve.service import MappingService


def _abandon(service):
    """Drop a wounded service the way a crash would: journal fh closed
    (the OS would do that), nothing else cleaned up, no terminal records."""
    service._journal.close()


@pytest.mark.parametrize("site", DEFAULT_SITES)
def test_crash_at_site_recovers_bit_identical(tmp_path, quick_blif, site):
    report = run_interrupt_differential(
        str(tmp_path), [quick_blif], algorithms=("turbomap",),
        sites=(site,), k=4,
    )
    entry = report["sites"][site]
    assert report["ok"], entry
    assert entry["crashes"] >= 1
    assert entry["mismatches"] == []


def test_turbosyn_survives_a_mid_suite_crash(tmp_path, quick_blif):
    # The two-stage algorithm: the bound probes and the bound itself are
    # journaled, so a crash between the stages resumes without re-running
    # the bound search.
    report = run_interrupt_differential(
        str(tmp_path), [quick_blif], algorithms=("turbosyn",),
        sites=("journal-append",), at=4, k=4,
    )
    entry = report["sites"]["journal-append"]
    assert report["ok"], entry
    assert entry["resumed_with_checkpoints"] >= 1


def test_resumed_job_adopts_journaled_probe_checkpoints(
    tmp_path, quick_blif
):
    state = str(tmp_path / "state")
    service = MappingService(state)
    circuit_id = service.store.put(quick_blif)
    view = service.submit(JobSpec(
        circuit_id=circuit_id, algorithm="turbomap", k=4
    ))
    # Crash on the third journal append — the first probe checkpoint.
    # The fault fires *after* the fsync, so the probe is durable but the
    # search never advances past it.
    faultinject.install(FaultPlan(faults=[
        Fault(site="journal-append", action="interrupt", at=2, fires=1)
    ]))
    try:
        with pytest.raises(KeyboardInterrupt):
            service.run_job_inline(view["id"])
    finally:
        faultinject.clear()
    _abandon(service)

    recovered = MappingService(state)
    try:
        assert recovered.recovered["replayed_pending"] == [view["id"]]
        resumed = recovered.status(view["id"])
        assert resumed["state"] == "queued"
        assert resumed["attempts"] == 1  # the crashed attempt was journaled
        assert resumed["probes_journaled"] >= 1
        done = recovered.run_job_inline(view["id"])
        assert done["state"] == "done"
        assert done["attempts"] == 2
    finally:
        recovered.stop(drain=False, timeout=1.0)


def test_torn_journal_tail_does_not_block_recovery(tmp_path, quick_blif):
    state = str(tmp_path / "state")
    service = MappingService(state)
    circuit_id = service.store.put(quick_blif)
    view = service.submit(JobSpec(
        circuit_id=circuit_id, algorithm="flowsyn-s", k=4
    ))
    _abandon(service)
    journal_path = service._journal.path
    with open(journal_path, "ab") as fh:
        fh.write(b'{"type": "done", "job": "j0')  # crash mid-append

    recovered = MappingService(state)
    try:
        # The torn line was dropped and truncated away on open (the
        # injected fragment is distinctive: real records have no spaces).
        with open(journal_path, "rb") as fh:
            assert b'"job": "j0' not in fh.read()
        # The accepted job survives and runs.
        assert recovered.status(view["id"])["state"] == "queued"
        done = recovered.run_job_inline(view["id"])
        assert done["state"] == "done"
    finally:
        recovered.stop(drain=False, timeout=1.0)


def test_cancel_request_survives_a_crash(tmp_path, quick_blif):
    state = str(tmp_path / "state")
    service = MappingService(state)
    circuit_id = service.store.put(quick_blif)
    view = service.submit(JobSpec(
        circuit_id=circuit_id, algorithm="turbomap", k=4
    ))
    service.cancel(view["id"])
    _abandon(service)

    recovered = MappingService(state)
    try:
        done = recovered.run_job_inline(view["id"])
        assert done["state"] == "cancelled"
    finally:
        recovered.stop(drain=False, timeout=1.0)


def test_finished_jobs_are_not_resurrected(tmp_path, quick_blif):
    state = str(tmp_path / "state")
    service = MappingService(state)
    view = service.submit_circuit(quick_blif, algorithm="flowsyn-s", k=4)
    done = service.run_job_inline(view["id"])
    _abandon(service)

    recovered = MappingService(state)
    try:
        assert recovered.recovered["replayed_pending"] == []
        replayed = recovered.status(view["id"])
        assert replayed["state"] == "done"
        assert replayed["result"]["signature"] == done["result"]["signature"]
    finally:
        recovered.stop(drain=False, timeout=1.0)


def test_compaction_preserves_the_job_table(tmp_path, quick_blif):
    state = str(tmp_path / "state")
    service = MappingService(state)
    view = service.submit_circuit(quick_blif, algorithm="flowsyn-s", k=4)
    done = service.run_job_inline(view["id"])
    pending = service.submit_circuit(quick_blif, algorithm="turbomap", k=4)
    _abandon(service)

    # A tiny threshold forces compaction on the next recovery.
    recovered = MappingService(state, compact_threshold=1)
    try:
        assert recovered.status(view["id"])["result"] == done["result"]
        assert recovered.status(pending["id"])["state"] == "queued"
        after = recovered.run_job_inline(pending["id"])
        assert after["state"] == "done"
    finally:
        recovered.stop(drain=False, timeout=1.0)


def test_pre_upgrade_accept_records_replay_without_label_path_fields(
    tmp_path, quick_blif
):
    # Journals written before the label path stopped being selectable
    # carry engine/flow/kernel in their accept records.  Replay drops
    # them, so the old state dir still starts and its pending jobs
    # finish with the signature of a fresh run.
    fresh = MappingService(str(tmp_path / "fresh"))
    try:
        reference = fresh.run_job_inline(fresh.submit_circuit(
            quick_blif, algorithm="turbomap", k=4
        )["id"])
    finally:
        fresh.stop(drain=False, timeout=1.0)

    state = str(tmp_path / "state")
    service = MappingService(state)
    view = service.submit_circuit(quick_blif, algorithm="turbomap", k=4)
    _abandon(service)
    journal_path = service._journal.path
    with open(journal_path) as fh:
        records = [json.loads(line) for line in fh]
    for record in records:
        if record["type"] == "accept":
            record["spec"].update(
                engine="rounds", flow="ek", kernel="vector"
            )
    with open(journal_path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")

    recovered = MappingService(state)
    try:
        assert recovered.recovered["replayed_pending"] == [view["id"]]
        spec = recovered.status(view["id"])["spec"]
        for retired in ("engine", "flow", "kernel"):
            assert retired not in spec
        done = recovered.run_job_inline(view["id"])
        assert done["state"] == "done"
        assert (
            done["result"]["signature"] == reference["result"]["signature"]
        )
    finally:
        recovered.stop(drain=False, timeout=1.0)
