"""The kill harness treats a response cut off mid-body as "server gone".

A SIGKILL can land while the server is writing a response; the client
then sees ``http.client.IncompleteRead`` rather than a refused
connection.  These tests stub the client and the server process, so
they are deterministic and spawn nothing.
"""

import http.client

from repro.serve import chaos

VIEW = {"id": "j1", "state": "done",
        "spec": {"circuit_id": "c1", "algorithm": "turbomap"}}


class StubProcess:
    def __init__(self, returncode=None):
        self.returncode = returncode

    def poll(self):
        return self.returncode

    def terminate(self):
        self.returncode = -15

    def wait(self, timeout=None):
        return self.returncode


class StubClient:
    """``jobs()`` is cut off once, then answers with one finished job."""

    def __init__(self, *args, **kwargs):
        self.cut_off = 1

    def healthz(self):
        return {"ok": True}

    def jobs(self):
        if self.cut_off:
            self.cut_off -= 1
            raise http.client.IncompleteRead(b'[{"id": "j1"', 64)
        return [VIEW]

    def upload_circuit(self, blif):
        return "c1"

    def submit_with_backoff(self, **fields):
        raise AssertionError("the only job is already known")


def test_incomplete_read_from_a_dead_server_restarts_it(monkeypatch):
    dead = StubProcess(returncode=43)
    started = []

    def start_server(state_dir, port, env_extra=None, max_queue=64):
        process = dead if not started else StubProcess()
        started.append(process)
        return process

    monkeypatch.setattr(chaos, "free_port", lambda: 1)
    monkeypatch.setattr(chaos, "ServeClient", StubClient)
    monkeypatch.setattr(chaos, "start_server", start_server)
    # The first server dies right after answering its health check.
    monkeypatch.setattr(chaos, "wait_ready", lambda client, process: None)

    result = chaos._run_suite_subprocess(
        "unused", ["blif"], ["turbomap"], env_extra={},
        max_restarts=1, timeout=30.0,
    )
    assert result == {"jobs": [VIEW], "restarts": 1}
    assert len(started) == 2


def test_wait_ready_retries_after_incomplete_read(monkeypatch):
    calls = []

    class CutOffOnce(StubClient):
        def healthz(self):
            calls.append(1)
            if len(calls) == 1:
                raise http.client.IncompleteRead(b"{", 16)
            return {"ok": True}

    monkeypatch.setattr(chaos.time, "sleep", lambda seconds: None)
    chaos.wait_ready(CutOffOnce(), StubProcess(), timeout=30.0)
    assert len(calls) == 2
