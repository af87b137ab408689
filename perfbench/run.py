"""The repository benchmark: four seeded workloads, checked answers,
end-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``).

Run from the root of a checkout::

    python3 perfbench/run.py --workload fsm_turbosyn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit.  Workloads, metrics, the
layer-to-metric mapping and every expected answer with its source are in
``perfbench/spec.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
SETUP_REPEATS = 3
#: run length the workloads' round counts are sized for
REFERENCE_SECONDS = 20.0

E2E_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "phi_geomean": "levels",
    "luts_mean": "LUTs",
}

#: per-layer metric -> unit; times are summed self time of traced rounds
LAYER_UNITS = {
    "boolfn.decompose.lut_tree_s": "s",
    "boolfn.decompose.calls": "count",
    "boolfn.decompose.distinct_share": "share",
    "core.seqdecomp.resyn_s": "s",
    "core.seqdecomp.calls": "count",
    "core.seqdecomp.win_share": "share",
    "core.expanded.cone_function_s": "s",
    "core.expanded.calls": "count",
    "core.turbosyn.bound_stage_s": "s",
    "core.driver.upper_bound_s": "s",
    "core.driver.search_s": "s",
    "core.driver.probe_s": "s",
    "core.driver.probes": "count",
    "core.labels.self_s": "s",
    "core.labels.t_flow_s": "s",
    "core.labels.t_expand_s": "s",
    "core.labels.t_pld_s": "s",
    "core.labels.flow_queries": "count",
    "core.labels.arcs_advanced": "count",
    "core.labels.updates": "count",
    "core.labels.rounds": "count",
    "core.labels.cache_hit_share": "share",
    "kernel.compile_s": "s",
    "kernel.compiles": "count",
    "core.mapping.generate_s": "s",
    "analysis.verify_s": "s",
    "analysis.rules_s": "s",
    "analysis.schedule_cert_s": "s",
    "analysis.cycle_cert_s": "s",
    "retime.pipeline_s": "s",
    "netlist.parse_s": "s",
    "netlist.write_s": "s",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.hit_share": "share",
    "cache.probes_skipped": "count",
    "serve.submit_s": "s",
    "serve.queue_wait_s": "s",
    "serve.journal_append_s": "s",
    "serve.journal_appends": "count",
    "serve.store_put_s": "s",
    "serve.rejected": "count",
    "incremental.dirty_region_s": "s",
    "incremental.patch_s": "s",
    "incremental.audit_s": "s",
    "incremental.dirty_nodes": "count",
    "incremental.labels_reused": "count",
    "incremental.sccs_skipped": "count",
    "trace.unattributed_share": "share",
    "trace.overhead_share": "share",
}

#: per-layer time metrics that are summed span self time, by span name
SELF_TIME_SPANS = {
    "boolfn.decompose.lut_tree_s": "boolfn.decompose.lut_tree",
    "core.seqdecomp.resyn_s": "core.seqdecomp.resyn",
    "core.expanded.cone_function_s": "core.expanded.cone_function",
    "core.driver.upper_bound_s": "core.driver.upper_bound",
    "core.driver.search_s": "core.driver.search",
    "core.driver.probe_s": "core.driver.probe",
    "core.labels.self_s": "core.labels",
    "kernel.compile_s": "kernel.compile",
    "core.mapping.generate_s": "core.mapping.generate",
    "analysis.verify_s": "analysis.verify",
    "analysis.rules_s": "analysis.rules",
    "analysis.schedule_cert_s": "analysis.schedule_cert",
    "analysis.cycle_cert_s": "analysis.cycle_cert",
    "retime.pipeline_s": "retime.pipeline",
    "netlist.parse_s": "netlist.parse",
    "netlist.write_s": "netlist.write",
    "cache.get_s": "cache.get",
    "cache.put_s": "cache.put",
    "serve.submit_s": "serve.submit",
    "serve.journal_append_s": "serve.journal_append",
    "serve.store_put_s": "serve.store_put",
    "incremental.dirty_region_s": "incremental.dirty_region",
    "incremental.patch_s": "incremental.patch",
    "incremental.audit_s": "incremental.audit",
}

#: per-layer counts of span calls
CALL_COUNTS = {
    "boolfn.decompose.calls": "boolfn.decompose.lut_tree",
    "core.seqdecomp.calls": "core.seqdecomp.resyn",
    "core.expanded.calls": "core.expanded.cone_function",
    "core.driver.probes": "core.driver.probe",
    "kernel.compiles": "kernel.compile",
    "serve.journal_appends": "serve.journal_append",
}

#: job-level LabelStats counters summed over traced jobs
JOB_COUNTERS = {
    "cache.probes_skipped": "cache_probes_skipped",
    "incremental.dirty_nodes": "dirty_nodes",
    "incremental.labels_reused": "labels_reused",
    "incremental.sccs_skipped": "sccs_skipped",
}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(latencies: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile
    with at least 10 samples beyond it, but never below p75: with fewer
    than 40 samples that percentile would sit near the median, so p75
    (interpolated) is reported instead."""
    xs = sorted(latencies)
    n = len(xs)
    if n >= 40:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    if n < 2:
        return (xs[0] if xs else 0.0), 100.0, 0
    value = statistics.quantiles(xs, n=4, method="inclusive")[2]
    return value, 75.0, sum(x > value for x in xs)


def source_hash() -> str:
    """Content hash of the program sources: determinism records are
    compared only between runs of identical code."""
    digest = hashlib.sha256()
    root = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def check_determinism(state_dir: str, workload: str, jobs: List[Any],
                      fingerprint) -> List[str]:
    """Compare each job's fingerprint with every earlier job of the same
    key, in this run and in earlier runs of the same code; record them.

    Returns one message per drifting job.
    """
    path = os.path.join(state_dir, "determinism.json")
    code = source_hash()
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = {}
    if record.get("code") != code:
        record = {"code": code, "workloads": {}}
    seen = record["workloads"].setdefault(workload, {})
    drift = []
    for job in jobs:
        if job.error is not None:
            continue
        mine = fingerprint(job)
        known = seen.setdefault(job.key, mine)
        if known != mine:
            drift.append(f"{job.key}: {mine} != earlier {known}")
            job.failures.append("determinism drift")
    tmp = path + f".{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True)
    os.replace(tmp, path)
    return drift


def run_rounds(workload: Any, seconds: float, traced: bool, tracer: Any,
               sampler: Any) -> Tuple[Any, Any]:
    """Closed-loop rounds: a fixed amount of work per run.

    ``seconds`` scales the workload's round count, sized so a run lasts
    about that long on the 2-CPU reference host; the count never depends
    on the clock, so every run of a workload measures the same multiset
    of jobs.  Untraced runs measure every round.  Traced runs alternate
    an untraced and a traced round, half the count each (at least one),
    so the tracing overhead is measured against the same run.

    Returns the (untraced, traced) totals as :class:`workloads.Round`,
    busy and CPU time in reference seconds, each job's ``scale`` set.
    """
    from workloads import Round  # importable once main() set the path

    rounds = max(1, round(workload.rounds * seconds / REFERENCE_SECONDS))
    plan = [False] * rounds
    if traced:
        plan = [False, True] * max(1, rounds // 2)
    plain, with_trace = Round(), Round()
    for traced_round in plan:
        if traced_round:
            tracer.install()
            try:
                done = workload.round(tracer)
            finally:
                tracer.uninstall()
            total = with_trace
        else:
            done = workload.round(None)
            total = plain
        scale = sampler.scale(done.start, done.end)
        total.busy += done.busy * scale
        total.cpu += (done.cpu - sampler.own_cpu(done.start, done.end)) * scale
        for job in done.jobs:
            job.scale = sampler.scale(job.start, job.end)
        total.jobs += done.jobs
    return plain, with_trace


def end_to_end(plain: Any, setup_s: float) -> Dict[str, float]:
    ok = [job for job in plain.jobs if job.ok]
    ran = [job for job in plain.jobs if job.error is None]
    latencies = [job.latency * job.scale for job in ran]
    value, pct, beyond = tail(latencies)
    print(f"# latency_tail_s is p{pct:.1f} of {len(latencies)} samples "
          f"({beyond} beyond it)")
    measured = [job.latency for job in ran]
    print(f"# measured, unscaled: latency_p50_s {median(measured):.6g} s, "
          f"latency_tail_s {tail(measured)[0]:.6g} s; host speed scale "
          f"median {median([job.scale for job in ran]):.4f}")
    phis = [job.phi for job in ok if job.phi]
    jobs = plain.jobs
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(ok) / plain.busy if plain.busy > 0 else 0.0,
        "latency_p50_s": median(latencies),
        "latency_tail_s": value,
        "cpu_s_per_job": plain.cpu / len(jobs) if jobs else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_share": len(ok) / len(jobs) if jobs else 0.0,
        "phi_geomean": math.exp(
            sum(math.log(p) for p in phis) / len(phis)
        ) if phis else 0.0,
        "luts_mean": statistics.fmean(job.luts for job in ok) if ok else 0.0,
    }


def per_layer(tracer: Any, workload: Any, plain: Any,
              traced: Any) -> Dict[str, float]:
    """Per-layer metrics of the traced rounds; times in reference
    seconds (scaled by the traced jobs' median host speed scale)."""
    scale = median([job.scale for job in traced.jobs])
    selft = {span: t * scale for span, t in tracer.self_times().items()}
    counts = tracer.span_counts()
    unlisted = sorted(
        (seconds, span) for span, seconds in selft.items()
        if span != "job" and span not in SELF_TIME_SPANS.values()
    )[::-1]
    print("# self time in spans without a metric: " + ", ".join(
        f"{span} {seconds:.3f} s" for seconds, span in unlisted
    ))
    out: Dict[str, float] = {name: 0.0 for name in LAYER_UNITS}
    for metric, span in SELF_TIME_SPANS.items():
        out[metric] = selft.get(span, 0.0)
    for metric, span in CALL_COUNTS.items():
        out[metric] = counts.get(span, 0)
    lut_calls = counts.get("boolfn.decompose.lut_tree", 0)
    if lut_calls:
        out["boolfn.decompose.distinct_share"] = (
            len(tracer.lut_tree_keys) / lut_calls
        )
    resyn_calls = counts.get("core.seqdecomp.resyn", 0)
    if resyn_calls:
        out["core.seqdecomp.win_share"] = (
            tracer.resyn_wins / resyn_calls
        )
    out["core.turbosyn.bound_stage_s"] = scale * tracer.total_times().get(
        "core.turbosyn.bound_stage", 0.0
    )
    stats = tracer.label_stats
    for field in ("t_flow", "t_expand", "t_pld"):
        out[f"core.labels.{field}_s"] = scale * stats.get(field, 0.0)
    for field in ("flow_queries", "arcs_advanced", "updates", "rounds"):
        out[f"core.labels.{field}"] = stats.get(field, 0)
    answered = stats.get("cache_hits", 0) + stats.get("flow_queries", 0)
    if answered:
        out["core.labels.cache_hit_share"] = stats["cache_hits"] / answered
    for metric, field in JOB_COUNTERS.items():
        out[metric] = sum(job.counters.get(field, 0) for job in traced.jobs)
    layer = workload.layer_counts
    if layer.get("cache.lookups"):
        out["cache.hit_share"] = layer["cache.hits"] / layer["cache.lookups"]
    out["serve.rejected"] = layer.get("serve.rejected", 0)
    out["serve.queue_wait_s"] = scale * tracer.queue_wait()
    gap, job_s = tracer.unattributed()
    out["trace.unattributed_share"] = gap / job_s if job_s else 0.0
    plain_rate = sum(job.ok for job in plain.jobs) / plain.busy
    traced_rate = sum(job.ok for job in traced.jobs) / traced.busy
    out["trace.overhead_share"] = 1.0 - traced_rate / plain_rate
    return out


def selftest(workloads_mod: Any, spec: Dict[str, Any]) -> int:
    """A tampered expected phi must be counted as a failure, and the
    true one must not."""
    from repro.bench import suite
    from repro.netlist import blif

    text = blif.write_blif(suite.build("s838"))
    true = dict(spec["expected"]["turbomap"]["s838"])
    tampered = dict(true, phi=true["phi"] + 1)
    job = workloads_mod.map_job("turbomap", "s838", text)
    workloads_mod.check_job(job, true)
    honest = job.ok
    job.failures.clear()
    workloads_mod.check_job(job, tampered)
    caught = not job.ok and any("phi" in f for f in job.failures)
    print(f"selftest: true expected phi passes: {honest}; "
          f"tampered expected phi counted as failed: {caught}")
    return 0 if honest and caught else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that a tampered expected answer fails")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return fail(f"no program sources at {SRC}/repro: run from the root "
                    "of a full checkout")
    # Every run starts from the same state: no persistent cache, no
    # injected faults, whatever the caller's environment says.
    for var in ("REPRO_CACHE", "REPRO_FAULT_PLAN", "REPRO_SANITIZE"):
        os.environ.pop(var, None)
    sys.path.insert(0, SRC)
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    import hostspeed

    with hostspeed.Sampler() as sampler:
        return measure(args, spec, sampler)


def measure(args: argparse.Namespace, spec: Dict[str, Any],
            sampler: Any) -> int:
    """Set up, run the rounds, check every answer, print the result."""
    # Set-up time in reference seconds: the imports plus the median of
    # the repeated set-ups.
    t0 = time.perf_counter()
    import workloads as workloads_mod  # the program's imports happen here
    from spans import Tracer

    t1 = time.perf_counter()
    import_s = (t1 - t0) * sampler.scale(t0, t1)
    if args.selftest:
        return selftest(workloads_mod, spec)
    if args.workload not in workloads_mod.WORKLOADS:
        return fail(f"--workload must be one of "
                    f"{', '.join(workloads_mod.WORKLOADS)}")

    state_dir = workloads_mod.state_root(CHECKOUT)
    workload = workloads_mod.WORKLOADS[args.workload](
        args.seed, spec["expected"], state_dir
    )
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        t1 = time.perf_counter()
        setups.append((t1 - t0) * sampler.scale(t0, t1))
    setup_s = import_s + median(setups)

    tracer = Tracer()
    plain, traced = run_rounds(workload, args.seconds, bool(args.trace),
                               tracer, sampler)
    jobs = plain.jobs + traced.jobs
    workload.finish(jobs)
    for job in jobs:
        workloads_mod.check_job(job, workload.expected_for(job))

    def fingerprint(job: Any) -> list:
        if args.workload == "serve_repeat":
            # Which of two concurrent clients reaches the cache first is
            # up to the scheduler, so served jobs' counters may differ.
            return [job.phi, job.luts]
        return [job.phi, job.luts, job.counters]

    drift = check_determinism(state_dir, args.workload, jobs, fingerprint)
    for message in drift:
        print(f"error: determinism drift: {message}", file=sys.stderr)
    for job in jobs:
        print(f"# job {job.key} {job.latency:.3f} s")
    for job in jobs:
        if not job.ok:
            print(f"error: job {job.key} failed: "
                  f"{job.error or '; '.join(job.failures)}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(tracer, workload, plain, traced)
        units = LAYER_UNITS
        tracer.write(os.path.join(
            state_dir, f"spans-{args.workload}.jsonl"
        ))
    else:
        metrics = end_to_end(plain, setup_s)
        units = E2E_UNITS
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    failed = sum(not job.ok for job in jobs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
