"""The benchmark's four workloads.

Each workload builds its inputs in :meth:`setup` (BLIF text generated
from the suite entries, edit pools, cold sessions, a service warm-up)
and then runs closed-loop *rounds*: a round is a fixed multiset of jobs
in seeded order, so per-job averages do not depend on how many rounds
fit in a run.  A job is one user-visible map, timed from its input to
its written netlist; its answer is checked afterwards, outside the
latency, by :func:`check_job`.

Program functions are called through their module attribute at call
time (``blif.read_blif``, not a name imported once), so the traced run's
wrappers see the benchmark's own calls too.

A job records the ``perf_counter`` instants it started and ended, and a
round its measured busy and CPU seconds; :mod:`run` scales them to
reference seconds with the host speed sampled meanwhile
(:mod:`hostspeed`).
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import os
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.bench import suite
from repro.incremental.fuzz import mapped_signature, random_edits
from repro.incremental.session import IncrementalSession
from repro.netlist import blif
from repro.retime import pipeline
from repro.serve.client import ServeClient
from repro.serve.server import ServeServer
from repro.serve.service import MappingService

from spans import Tracer

K = 5
_MAPPERS = {
    algo: importlib.import_module(f"repro.core.{algo}")
    for algo in ("turbomap", "turbosyn")
}
_RET_RULES = ("RET002", "RET003")


def run_mapper(algo: str, circuit: Any) -> Any:
    """Cold, uncached, single-process mapping with verification on."""
    return getattr(_MAPPERS[algo], algo)(circuit, K, workers=1, check=True)


@dataclass
class Job:
    """One finished (or failed) job and what its checks need."""

    key: str
    #: ``perf_counter`` at the job's start and end (input to netlist;
    #: serve: submit to result)
    start: float = 0.0
    end: float = 0.0
    #: reference seconds per measured second meanwhile (set by run.py)
    scale: float = 1.0
    algo: str = ""
    circuit: str = ""
    phi: Optional[int] = None
    luts: Optional[int] = None
    certificate: Optional[Dict[str, Any]] = None
    clock_period: Optional[int] = None
    counters: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.failures

    @property
    def latency(self) -> float:
        return self.end - self.start


def int_counters(stats: Any) -> Dict[str, int]:
    """The deterministic (integer) counters of a LabelStats or its dict."""
    items = stats.items() if isinstance(stats, dict) else vars(stats).items()
    return {k: v for k, v in items if isinstance(v, int)}


def check_job(job: Job, expected: Optional[Dict[str, Any]]) -> None:
    """Independent checks of one answer; failures are recorded on the job."""
    if job.error is not None:
        return
    cert = job.certificate or {}
    if not cert.get("verified"):
        job.failures.append("certificate not verified")
    missing = [r for r in _RET_RULES if r not in cert.get("rules", ())]
    if missing:
        job.failures.append(f"certificate lacks {','.join(missing)}")
    if job.phi is None or job.clock_period is None:
        job.failures.append("no phi or retimed clock period")
    elif job.clock_period > job.phi:
        job.failures.append(
            f"retimed clock period {job.clock_period} > phi {job.phi}"
        )
    if expected is not None:
        if job.phi != expected["phi"]:
            job.failures.append(f"phi {job.phi} != expected {expected['phi']}")
        if job.luts != expected["luts"]:
            job.failures.append(
                f"luts {job.luts} != expected {expected['luts']}"
            )


def _blif_texts(names: Iterable[str]) -> Dict[str, str]:
    return {name: blif.write_blif(suite.build(name)) for name in names}


def map_job(algo: str, name: str, text: str) -> Job:
    """read_blif -> mapper -> pipeline_and_retime -> write_blif."""
    job = Job(key=f"{algo}/{name}", algo=algo, circuit=name)
    job.start = time.perf_counter()
    try:
        circuit, _info = blif.read_blif(text)
        result = run_mapper(algo, circuit)
        retimed = pipeline.pipeline_and_retime(result.mapped)
        blif.write_blif(retimed.circuit)
    except Exception as exc:  # noqa: BLE001 — a failed job is counted
        job.error = f"{type(exc).__name__}: {exc}"
        return job
    finally:
        job.end = time.perf_counter()
    job.phi, job.luts = result.phi, result.n_luts
    job.certificate = result.certificate
    job.clock_period = retimed.circuit.clock_period()
    job.counters = int_counters(result.total_stats)
    return job


@dataclass
class Round:
    """The jobs of one round, with its measured busy seconds (serial:
    the summed job latencies; serve: the clients' wall time), its process
    CPU seconds, and the ``perf_counter`` interval they fall in."""

    jobs: List[Job] = field(default_factory=list)
    busy: float = 0.0
    cpu: float = 0.0
    start: float = 0.0
    end: float = 0.0


class Workload:
    """Base: rounds of jobs over a pool, in seeded order."""

    name = ""
    #: rounds in a run of the reference length (20 s on 2 CPUs)
    rounds = 1

    def __init__(self, seed: int, expected: Dict[str, Dict[str, Any]],
                 state_dir: str) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.expected = expected
        self.state_dir = state_dir
        #: program counters (ServiceStats, cache.stats()) of traced rounds
        self.layer_counts: Dict[str, float] = {}

    def setup(self) -> None:
        """Build the inputs; called several times, the last one is used."""
        raise NotImplementedError

    def round(self, tracer: Optional[Tracer]) -> "Round":
        """Run one round of jobs."""
        raise NotImplementedError

    def serial(self, calls: List[Tuple[str, Callable[[], Job]]],
               tracer: Optional[Tracer]) -> "Round":
        """Run ``(span job id, job)`` calls one after another; traced,
        each is one ``job`` span."""
        out = Round(start=time.perf_counter())
        c0 = time.process_time()
        for job_id, call in calls:
            if tracer is None:
                job = call()
            else:
                tracer.set_job(job_id)
                job = tracer.call("job", call)
                tracer.set_job(None)
            out.jobs.append(job)
            out.busy += job.latency
        out.cpu = time.process_time() - c0
        out.end = time.perf_counter()
        return out

    def finish(self, jobs: List[Job]) -> None:
        """Checks that need the whole run, outside the measured rounds."""

    def expected_for(self, job: Job) -> Optional[Dict[str, Any]]:
        return self.expected.get(job.algo, {}).get(job.circuit)

    def bump(self, name: str, value: float) -> None:
        self.layer_counts[name] = self.layer_counts.get(name, 0) + value


class ColdMaps(Workload):
    """Cold mapper runs over a circuit pool, one client, closed loop."""

    algo = ""
    pool: Tuple[str, ...] = ()

    def setup(self) -> None:
        self.texts = _blif_texts(self.pool)
        # Warm-up on the smallest circuit: lazy imports and first-call
        # set-up are paid here, not in the measured rounds.
        map_job(self.algo, "s838", blif.write_blif(suite.build("s838")))

    def round(self, tracer: Optional[Tracer]) -> Round:
        order = list(self.pool)
        self.rng.shuffle(order)
        return self.serial([
            (f"{name}-{i}", functools.partial(
                map_job, self.algo, name, self.texts[name]))
            for i, name in enumerate(order)
        ], tracer)


class FsmTurbosyn(ColdMaps):
    name = "fsm_turbosyn"
    algo = "turbosyn"
    pool = ("bbara", "bbsse", "dk16", "keyb")


class TurbomapMix(ColdMaps):
    name = "turbomap_mix"
    algo = "turbomap"
    rounds = 2
    pool = ("s838", "s953", "s1423", "s5378", "bbsse", "keyb", "cse", "sse")


class _Server:
    """A MappingService behind the HTTP front end on a loopback port,
    its event loop on a thread of its own."""

    def __init__(self, state_dir: str) -> None:
        self.service = MappingService(state_dir, max_active=1)
        self.server = ServeServer(self.service, port=0)
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        if not self._ready.wait(30) or self._error is not None:
            raise RuntimeError(f"service did not start: {self._error}")

    def _main(self) -> None:
        async def serve() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            await self.server.start()
            self._ready.set()
            try:
                await self._stop.wait()
            finally:
                await self.server.stop()

        try:
            asyncio.run(serve())
        except BaseException as exc:  # noqa: BLE001 — reported by start/stop
            self._error = exc
            self._ready.set()

    def client(self) -> ServeClient:
        return ServeClient(port=self.server.port, timeout=120.0)

    def close(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(60)
        if self._thread.is_alive():
            raise RuntimeError("service did not stop within 60 s")


def serve_job(client: ServeClient, algo: str, name: str, text: str,
              tracer: Optional[Tracer]) -> Job:
    """Upload, submit, wait, fetch the result; retime it locally."""
    job = Job(key=f"{algo}/{name}", algo=algo, circuit=name)
    try:
        circuit_id = client.upload_circuit(text)
        job.start = time.perf_counter()
        view = client.submit(circuit_id=circuit_id, algorithm=algo, k=K,
                             workers=1, check=True)
        if tracer is not None:
            tracer.acks[view["id"]] = time.perf_counter()
        final = client.wait(view["id"], timeout=120.0)
        if final.get("state") != "done":
            raise RuntimeError(f"job {view['id']} ended {final.get('state')}")
        artifact = client.result(view["id"])
        job.end = time.perf_counter()
        mapped, _info = blif.read_blif(artifact["mapped_blif"])
        retimed = pipeline.pipeline_and_retime(mapped)
        blif.write_blif(retimed.circuit)
    except Exception as exc:  # noqa: BLE001 — a failed job is counted
        job.error = f"{type(exc).__name__}: {exc}"
        return job
    run = artifact["run"]
    job.phi, job.luts = run["phi"], run["luts"]
    job.certificate = run.get("certificate")
    job.clock_period = retimed.circuit.clock_period()
    job.counters = int_counters(run.get("stats", {}))
    return job


class ServeRepeat(Workload):
    """Two closed-loop clients over loopback HTTP into one service lane.

    An episode starts a fresh service.  In its first phase each client
    sees its own circuits for the first time, TurboMap before TurboSYN
    (as the paper's flow runs them), so the cache holds the same entries
    whatever the seed; after both clients finish it, the second phase
    repeats every (circuit, algorithm) pair twice in seeded order, dealt
    alternately, each a replay from the outcome sidecar.
    """

    name = "serve_repeat"
    clients = 2
    #: first-phase circuits per client, balanced by cold mapping time
    split = (("bbara", "s838"), ("dk16", "s953", "s1423"))
    repeat_rounds = 3

    def setup(self) -> None:
        self.texts = _blif_texts(name for part in self.split for name in part)
        # Start a service, run one small job through it, stop it: lazy
        # imports of the front end, the journal and the store are paid
        # here.  Every measured episode starts a fresh one.
        server = _Server(tempfile.mkdtemp(dir=self.state_dir))
        try:
            serve_job(server.client(), "turbomap", "s838",
                      self.texts["s838"], None)
        finally:
            server.close()
            shutil.rmtree(server.service.state_dir, ignore_errors=True)

    def round(self, tracer: Optional[Tracer]) -> Round:
        first = []
        for part in self.split:
            names = list(part)
            self.rng.shuffle(names)
            first.append([(algo, name) for name in names
                          for algo in ("turbomap", "turbosyn")])
        pairs = [pair for part in first for pair in part]
        repeats: List[Tuple[str, str]] = []
        for _ in range(self.repeat_rounds):
            self.rng.shuffle(pairs)
            repeats.extend(pairs)
        plans = [first[c] + [None] + repeats[c::self.clients]
                 for c in range(self.clients)]
        server = _Server(tempfile.mkdtemp(dir=self.state_dir))
        barrier = threading.Barrier(self.clients, timeout=170)
        jobs: List[List[Job]] = [[] for _ in range(self.clients)]
        try:
            # Store every circuit once before the clients start: two
            # concurrent *first* uploads of one circuit race in
            # CircuitStore.put (both threads write the same temp file)
            # and one fails with HTTP 500.  Later uploads deduplicate.
            prologue = server.client()
            for text in self.texts.values():
                prologue.upload_circuit(text)
            t0 = time.perf_counter()
            c0 = time.process_time()
            threads = [
                threading.Thread(
                    target=self._client_loop,
                    args=(server.client(), plans[c], jobs[c], barrier,
                          tracer, c),
                )
                for c in range(self.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(170)
            t1 = time.perf_counter()
            cpu = time.process_time() - c0
            if any(thread.is_alive() for thread in threads):
                raise RuntimeError("a serve client did not finish in 170 s")
            if tracer is not None:
                self.bump("serve.rejected",
                          server.service.stats.snapshot()["rejected"])
                cache = server.service.cache.stats()
                self.bump("cache.hits", cache["hits"] + cache["final_hits"])
                self.bump("cache.lookups",
                          cache["hits"] + cache["final_hits"]
                          + cache["misses"])
        finally:
            server.close()
            shutil.rmtree(server.service.state_dir, ignore_errors=True)
        done = [job for client_jobs in jobs for job in client_jobs]
        return Round(done, t1 - t0, cpu, t0, t1)

    def _client_loop(self, client: ServeClient,
                     plan: List[Optional[Tuple[str, str]]], out: List[Job],
                     barrier: threading.Barrier, tracer: Optional[Tracer],
                     client_no: int) -> None:
        """One client: its jobs in order; ``None`` marks the wait for the
        other client."""
        for i, step in enumerate(plan):
            if step is None:
                barrier.wait()
                continue
            algo, name = step
            if tracer is None:
                job = serve_job(client, algo, name, self.texts[name], None)
            else:
                tracer.set_job(f"c{client_no}-{i}")
                job = tracer.call("job", serve_job, client, algo, name,
                                  self.texts[name], tracer)
                tracer.set_job(None)
            out.append(job)


Edit = List[Tuple[int, List[Tuple[int, int]]]]


def _edit_pool(circuit: Any, rng: random.Random,
               count: int) -> List[Tuple[Edit, Edit]]:
    """``count`` seeded 1-4 gate edits of ``circuit``, each as an
    (apply, withdraw) pair of (gate, new fanins) lists; generated on
    copies, so ``circuit`` is untouched."""
    def pins(c: Any) -> Dict[int, List[Tuple[int, int]]]:
        return {g: [(p.src, p.weight) for p in c.fanins(g)] for g in c.gates}

    original = pins(circuit)
    pool = []
    for _ in range(count):
        scratch = circuit.copy()
        random_edits(scratch, rng, rng.randint(1, 4))
        edited = pins(scratch)
        changed = [g for g in edited if edited[g] != original[g]]
        pool.append(([(g, edited[g]) for g in changed],
                     [(g, original[g]) for g in changed]))
    return pool


class RemapEdits(Workload):
    """Seeded gate edits on two sessions, each edit remapped, then
    withdrawn and remapped again.

    Withdrawing keeps every edited circuit one 1-4 gate edit away from
    the original, so runs with different seeds map comparable circuits
    instead of drifting apart over a cumulative stream.
    """

    name = "remap_edits"
    pool = ("keyb", "bbsse")
    rounds = 4
    edits = 32

    def setup(self) -> None:
        texts = _blif_texts(self.pool)
        self.sessions: Dict[str, IncrementalSession] = {}
        self.cold: Dict[str, Any] = {}
        self.edit_pools: Dict[str, List[Tuple[Edit, Edit]]] = {}
        for i, name in enumerate(self.pool):
            circuit, _info = blif.read_blif(texts[name])
            session = IncrementalSession(circuit, k=K, algorithm="turbomap",
                                         workers=1, check=True)
            self.cold[name] = session.map()
            self.sessions[name] = session
            self.edit_pools[name] = _edit_pool(
                circuit, random.Random(self.seed * 1009 + i), self.edits
            )
        self.step = 0
        #: per session: a copy of the last edited circuit and its result
        self.last_edited: Dict[str, Tuple[Any, Any]] = {}

    def round(self, tracer: Optional[Tracer]) -> Round:
        if self.step >= self.edits:
            raise RuntimeError(f"edit pool exhausted after {self.edits}")
        order = list(self.pool)
        self.rng.shuffle(order)
        calls = []
        for name in order:
            apply, withdraw = self.edit_pools[name][self.step]
            for phase, edit in (("apply", apply), ("withdraw", withdraw)):
                key = f"seed{self.seed}/{name}/edit{self.step}/{phase}"
                calls.append((key, functools.partial(
                    self._remap, name, key, edit, phase == "apply")))
        self.step += 1
        return self.serial(calls, tracer)

    def _remap(self, name: str, key: str, edit: Edit, keep: bool) -> Job:
        """One edit and its remap job; ``keep`` saves the edited state
        for :meth:`finish`."""
        session = self.sessions[name]
        job = Job(key=key, algo="turbomap", circuit=name)
        for gate, pins in edit:
            session.circuit.set_fanins(gate, pins)
        job.start = time.perf_counter()
        try:
            result = session.remap()
            retimed = pipeline.pipeline_and_retime(result.mapped)
            blif.write_blif(retimed.circuit)
        except Exception as exc:  # noqa: BLE001 — a failed job is counted
            job.error = f"{type(exc).__name__}: {exc}"
            return job
        finally:
            job.end = time.perf_counter()
        if not result.incremental:
            job.failures.append("remap did not run incrementally")
        job.phi, job.luts = result.phi, result.n_luts
        job.certificate = result.certificate
        job.clock_period = retimed.circuit.clock_period()
        job.counters = int_counters(result.total_stats)
        if keep:
            self.last_edited[name] = (session.circuit.copy(), result)
        return job

    def expected_for(self, job: Job) -> Optional[Dict[str, Any]]:
        return None  # edited circuits: checked against cold maps instead

    def finish(self, jobs: List[Job]) -> None:
        """Each session's last edited state must equal a cold map of that
        circuit, and its final (withdrawn) state the set-up's cold map of
        the original; a mismatch fails that session's last job."""
        for name, session in self.sessions.items():
            mine = [job for job in jobs if job.circuit == name]
            if not mine or name not in self.last_edited:
                continue
            edited, result = self.last_edited[name]
            pairs = (("last edited", result, run_mapper("turbomap", edited)),
                     ("final", session.result, self.cold[name]))
            for what, inc, cold in pairs:
                if (inc.phi != cold.phi
                        or list(inc.labels) != list(cold.labels)
                        or mapped_signature(inc.mapped)
                        != mapped_signature(cold.mapped)):
                    mine[-1].failures.append(
                        f"{what} state of {name} differs from a cold map"
                    )


WORKLOADS = {
    cls.name: cls
    for cls in (FsmTurbosyn, TurbomapMix, ServeRepeat, RemapEdits)
}


def state_root(checkout: str) -> str:
    """Scratch space inside the checkout, ignored by git."""
    path = os.path.join(checkout, ".perfbench_state")
    os.makedirs(path, exist_ok=True)
    return path
