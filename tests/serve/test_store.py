"""Content-addressed store: dedup, blob reuse, KERN-audited hygiene."""

import os
import threading

import pytest

from repro.netlist.blif import read_blif
from repro.resilience import faultinject
from repro.resilience.faultinject import Fault, FaultPlan, InjectedFault
from repro.serve.store import CircuitStore, StoreError


@pytest.fixture()
def store(tmp_path) -> CircuitStore:
    return CircuitStore(str(tmp_path / "store"))


class TestDedup:
    def test_same_text_same_id(self, store, quick_blif):
        assert store.put(quick_blif) == store.put(quick_blif)
        assert len(store.circuit_ids()) == 1

    def test_formatting_differences_dedup(self, store, quick_blif):
        # The address covers the canonical netlist, not its formatting:
        # extra comments and blank lines hash to the same circuit.
        noisy = "# a comment\n\n" + quick_blif.replace("\n", "\n\n")
        assert store.put(noisy) == store.put(quick_blif)

    def test_different_circuits_get_different_ids(
        self, store, quick_blif, other_blif
    ):
        assert store.put(quick_blif) != store.put(other_blif)

    def test_accepts_parsed_circuits_identically(self, store, quick_blif):
        circuit, _ = read_blif(quick_blif)
        assert store.put(circuit) == store.put(quick_blif)


class TestConcurrentPut:
    def test_two_threads_put_one_new_circuit(self, tmp_path, quick_blif):
        # Two first uploads of one circuit race through the same atomic
        # writes; each writer needs a temp file of its own, or one
        # thread's rename pulls the file out from under the other.
        for trial in range(30):
            store = CircuitStore(str(tmp_path / f"store{trial}"))
            barrier = threading.Barrier(2)
            ids, errors = [], []

            def put():
                barrier.wait()
                try:
                    ids.append(store.put(quick_blif))
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            threads = [threading.Thread(target=put) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == [], f"trial {trial}: {errors!r}"
            assert len(ids) == 2 and ids[0] == ids[1]
            assert sorted(os.listdir(store.root)) == [
                f"{ids[0]}.blif", f"{ids[0]}.csr"
            ]
            assert store.load(ids[0])[1]["blob_reused"]


class TestLoad:
    def test_round_trip_reuses_blob(self, store, quick_blif):
        circuit_id = store.put(quick_blif)
        circuit, meta = store.load(circuit_id)
        assert meta["blob_reused"] is True
        assert meta["recompiled"] is False
        assert circuit.n_gates > 0
        assert store.blob_hits == 1
        assert store.blob_recompiles == 0

    def test_blob_bytes_are_the_compiled_kernel(self, store, quick_blif):
        circuit_id = store.put(quick_blif)
        circuit, _ = store.load(circuit_id)
        assert store.blob(circuit_id) == circuit.compiled().to_bytes()

    def test_unknown_id_raises_store_error(self, store):
        with pytest.raises(StoreError):
            store.load("deadbeef" * 8)
        with pytest.raises(StoreError):
            store.blob("deadbeef" * 8)


class TestHygiene:
    """Satellite: corrupted CSR blobs are rejected on load (KERN pack)
    and the job proceeds on a fresh compile, healing the blob."""

    def test_truncated_blob_recompiles_and_heals(self, store, quick_blif):
        circuit_id = store.put(quick_blif)
        blob_path = store._csr_path(circuit_id)
        good = open(blob_path, "rb").read()
        with open(blob_path, "wb") as fh:
            fh.write(good[: len(good) // 3])
        _, meta = store.load(circuit_id)
        assert meta["recompiled"] is True
        assert meta["blob_error"]
        assert store.blob_recompiles == 1
        # Healed: the rewritten blob passes the audit next time.
        _, meta2 = store.load(circuit_id)
        assert meta2["blob_reused"] is True
        assert open(blob_path, "rb").read() == good

    def test_garbage_blob_recompiles(self, store, quick_blif):
        circuit_id = store.put(quick_blif)
        with open(store._csr_path(circuit_id), "wb") as fh:
            fh.write(b"this is not a CSR kernel")
        _, meta = store.load(circuit_id)
        assert meta["recompiled"] is True

    def test_foreign_blob_fails_the_kern_audit(
        self, store, quick_blif, other_blif
    ):
        # A *valid* kernel for the wrong circuit: only the KERN001-005
        # audit (not deserialization) can catch this corruption class.
        id_a = store.put(quick_blif)
        id_b = store.put(other_blif)
        with open(store._csr_path(id_b), "rb") as fh:
            foreign = fh.read()
        with open(store._csr_path(id_a), "wb") as fh:
            fh.write(foreign)
        _, meta = store.load(id_a)
        assert meta["recompiled"] is True

    def test_missing_blob_recompiles_from_blif(self, store, quick_blif):
        import os

        circuit_id = store.put(quick_blif)
        os.unlink(store._csr_path(circuit_id))
        circuit, meta = store.load(circuit_id)
        assert meta["recompiled"] is True
        assert circuit.compiled() is not None


class TestFaultSite:
    def test_store_put_fires_after_both_artifacts(self, store, quick_blif):
        faultinject.install(
            FaultPlan([Fault("store-put", "raise")])
        )
        with pytest.raises(InjectedFault):
            store.put(quick_blif)
        faultinject.clear()
        # Crash window semantics: the entry is complete (both artifacts
        # durable), only the caller's acknowledgement was lost.
        (circuit_id,) = store.circuit_ids()
        _, meta = store.load(circuit_id)
        assert meta["blob_reused"] is True
        # Re-putting after the crash dedups onto the existing entry.
        assert store.put(quick_blif) == circuit_id
