"""Span tracing from outside the program: wrap the call-site bindings of
each layer's public functions, record spans in memory, aggregate them.

The program's modules import by name (``from repro.core.driver import
probe_phi``), so a layer is traced by replacing the *binding* its caller
reads at call time: a module attribute, or a method on a class.  Every
call records ``(span id, parent id, name, start, end, job id)``; the
parent is the innermost open span on the same thread, and the job id is
inherited from the thread's current job.  Self time is a span's
duration minus the time its child spans cover.

Wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`; untraced runs execute the program's own
functions.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: A recorded call: (id, parent id, name, start, end, job id).
Span = Tuple[int, Optional[int], str, float, float, Optional[str]]

#: Span names that open a mapper call: queue wait ends at the first one.
MAPPER_SPANS = ("core.turbomap", "core.turbosyn", "core.turbosyn.bound_stage")


def _lut_tree_key(args: tuple, kwargs: dict) -> tuple:
    """(table, arrival relative to the deadline, K) of one
    ``synthesize_lut_tree(f, arrival, k, deadline)`` call."""
    f, arrival, k, deadline = (list(args) + [None] * 4)[:4]
    arrival = kwargs.get("arrival", arrival)
    k = kwargs.get("k", k)
    deadline = kwargs.get("deadline", deadline)
    f = kwargs.get("f", f)
    return (f.n, f.bits, tuple(a - deadline for a in arrival), k)


def _service_mapper_name(default: str) -> Callable[[tuple, dict], str]:
    # The service runs TurboSYN's bound stage itself: a turbomap call
    # with check=False.
    def name_of(args: tuple, kwargs: dict) -> str:
        if kwargs.get("check", True) is False:
            return "core.turbosyn.bound_stage"
        return default

    return name_of


class Tracer:
    """In-memory span recorder plus the table of bindings it wraps."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.resyn_wins = 0
        self.lut_tree_keys: set = set()
        self.label_stats: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []
        #: service job id -> time its submission was acknowledged
        self.acks: Dict[str, float] = {}

    # -- recording ------------------------------------------------------
    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.job = None
        return local

    def set_job(self, job: Optional[str]) -> None:
        """Tag every later span opened on this thread with ``job``."""
        self._state().job = job

    def call(self, name: str, fn: Callable, /, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        local = self._state()
        sid = next(self._ids)
        parent = local.stack[-1] if local.stack else None
        local.stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            local.stack.pop()
            self.spans.append((sid, parent, name, t0, t1, local.job))

    def _wrap(
        self,
        fn: Callable,
        name: str,
        name_of: Optional[Callable[[tuple, dict], str]] = None,
        on_result: Optional[Callable[[tuple, dict, Any], None]] = None,
        job_of: Optional[Callable[[tuple], str]] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = name_of(args, kwargs) if name_of else name
            local = tracer._state()
            outer_job = local.job
            if job_of is not None:
                local.job = job_of(args)
            try:
                result = tracer.call(span, fn, *args, **kwargs)
            finally:
                local.job = outer_job
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    # -- per-layer side counters -----------------------------------------
    def _on_lut_tree(self, args: tuple, kwargs: dict, _result: Any) -> None:
        self.lut_tree_keys.add(_lut_tree_key(args, kwargs))

    def _on_resyn(self, _args: tuple, _kwargs: dict, result: Any) -> None:
        if result is not None:
            self.resyn_wins += 1

    def _on_label_run(self, _args: tuple, _kwargs: dict, outcome: Any) -> None:
        stats = outcome.stats
        for field in ("flow_queries", "arcs_advanced", "updates", "rounds",
                      "cache_hits", "t_flow", "t_expand", "t_pld"):
            self.label_stats[field] += getattr(stats, field)

    # -- patch table ------------------------------------------------------
    def bindings(self) -> List[Tuple[str, str, str, dict]]:
        """(module, attribute, span name, wrapper options) per binding.

        ``attribute`` is ``"Class.method"`` for a method patched on its
        class.
        """
        lut = {"on_result": self._on_lut_tree}
        resyn = {"on_result": self._on_resyn}
        labels = {"on_result": self._on_label_run}
        execute = {"job_of": lambda args: args[1].id}
        return [
            # job-level entry points the benchmark calls by module attribute
            ("repro.netlist.blif", "read_blif", "netlist.parse", {}),
            ("repro.netlist.blif", "write_blif", "netlist.write", {}),
            ("repro.retime.pipeline", "pipeline_and_retime",
             "retime.pipeline", {}),
            ("repro.core.turbomap", "turbomap", "core.turbomap", {}),
            ("repro.core.turbosyn", "turbosyn", "core.turbosyn", {}),
            # mapper internals
            ("repro.core.turbosyn", "turbomap",
             "core.turbosyn.bound_stage", {}),
            ("repro.core.driver", "default_upper_bound",
             "core.driver.upper_bound", {}),
            ("repro.core.driver", "search_min_phi", "core.driver.search", {}),
            ("repro.core.driver", "probe_phi", "core.driver.probe", {}),
            ("repro.core.labels", "LabelSolver.run", "core.labels", labels),
            ("repro.core.driver", "find_seq_resynthesis",
             "core.seqdecomp.resyn", resyn),
            ("repro.core.mapping", "find_seq_resynthesis",
             "core.seqdecomp.resyn", resyn),
            ("repro.core.seqdecomp", "sequential_cone_function",
             "core.expanded.cone_function", {}),
            ("repro.core.seqdecomp", "synthesize_lut_tree",
             "boolfn.decompose.lut_tree", lut),
            ("repro.kernel.csr", "compile_circuit", "kernel.compile", {}),
            ("repro.serve.store", "compile_circuit", "kernel.compile", {}),
            ("repro.incremental.patch", "compile_circuit",
             "kernel.compile", {}),
            ("repro.analysis.increrules", "compile_circuit",
             "kernel.compile", {}),
            ("repro.core.driver", "generate_mapping",
             "core.mapping.generate", {}),
            ("repro.core.driver", "verify_result", "analysis.verify", {}),
            ("repro.analysis", "verify_mapping", "analysis.rules", {}),
            ("repro.analysis.certify", "build_schedule_certificate",
             "analysis.schedule_cert", {}),
            ("repro.analysis.certify", "build_cycle_certificate",
             "analysis.cycle_cert", {}),
            ("repro.cache.store", "write_blif", "netlist.write", {}),
            # persistent cache
            ("repro.cache.store", "OutcomeCache.get_outcome", "cache.get", {}),
            ("repro.cache.store", "OutcomeCache.get_final", "cache.get", {}),
            ("repro.cache.store", "OutcomeCache.nearest_seed", "cache.get", {}),
            ("repro.cache.store", "OutcomeCache.verified_floor",
             "cache.get", {}),
            ("repro.cache.store", "OutcomeCache.put_outcome", "cache.put", {}),
            ("repro.cache.store", "OutcomeCache.put_final", "cache.put", {}),
            # service
            ("repro.serve.client", "ServeClient.upload_circuit",
             "serve.upload", {}),
            ("repro.serve.client", "ServeClient.submit", "serve.submit", {}),
            ("repro.serve.client", "ServeClient.wait", "serve.wait", {}),
            ("repro.serve.client", "ServeClient.result", "serve.result", {}),
            ("repro.serve.service", "MappingService._execute",
             "serve.execute", execute),
            ("repro.serve.service", "turbomap", "core.turbomap",
             {"name_of": _service_mapper_name("core.turbomap")}),
            ("repro.serve.service", "turbosyn", "core.turbosyn", {}),
            ("repro.serve.service", "write_blif", "netlist.write", {}),
            ("repro.serve.store", "read_blif", "netlist.parse", {}),
            ("repro.serve.store", "write_blif", "netlist.write", {}),
            ("repro.serve.store", "CircuitStore.put", "serve.store_put", {}),
            ("repro.serve.journal", "Journal.append",
             "serve.journal_append", {}),
            # incremental remap: the remap span's self time is its audit
            ("repro.incremental.session", "remap", "incremental.audit", {}),
            ("repro.incremental.session", "dirty_region",
             "incremental.dirty_region", {}),
            ("repro.incremental.session", "patch_compiled",
             "incremental.patch", {}),
            ("repro.incremental.session", "turbomap", "core.turbomap", {}),
            ("repro.incremental.session", "turbosyn", "core.turbosyn", {}),
        ]

    def install(self) -> None:
        """Replace every binding in :meth:`bindings` with a traced one."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span, options in self.bindings():
            owner: Any = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, **options))

    def uninstall(self) -> None:
        """Restore the program's own bindings (reverse order)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, parent, _name, t0, t1, _job in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        totals: Dict[str, float] = defaultdict(float)
        for sid, _parent, name, t0, t1, _job in self.spans:
            totals[name] += (t1 - t0) - child_time[sid]
        return totals

    def total_times(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for _sid, _parent, name, t0, t1, _job in self.spans:
            totals[name] += t1 - t0
        return totals

    def span_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[2]] += 1
        return counts

    def unattributed(self) -> Tuple[float, float]:
        """(job time covered by no top-level layer span, job time).

        A job is a ``job`` span; its top-level layers are its direct
        children.
        """
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _sid, parent, _name, t0, t1, _job in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        gap = total = 0.0
        for sid, _parent, name, t0, t1, _job in self.spans:
            if name != "job":
                continue
            total += t1 - t0
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children[sid]):
                c0 = max(c0, end)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            gap += (t1 - t0) - covered
        return gap, total

    def queue_wait(self) -> float:
        """Summed wait from each submit acknowledgement to the start of
        that job's first mapper call (service jobs only)."""
        started: Dict[str, float] = {}
        for _sid, _parent, name, t0, _t1, job in self.spans:
            if job is not None and name in MAPPER_SPANS:
                started[job] = min(started.get(job, t0), t0)
        return sum(
            max(0.0, started[job] - t) for job, t in self.acks.items()
            if job in started
        )

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, job in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start": t0, "end": t1, "job": job}
                ) + "\n")
