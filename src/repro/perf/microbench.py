"""Kernel microbenchmarks: flow solve, expansion, and handoff bytes.

Usage::

    python -m repro.perf.microbench --circuits bbara dk16 \
        --out benchmarks/results

Times the hot kernel stages of one label run per circuit, using the
deterministic ``LabelStats`` telemetry the solver already collects.  The
label runs use ``extra_depth=1`` (:data:`EXTRA_DEPTH`): at the
production setting ``extra_depth=0`` every cut query is a leaf count and
no max-flow runs, so only the deeper expansions still exercise it:

* **flow** — aggregate cut-query time (``stats.t_flow``), the query
  count and ``flow_solves``, the queries that ran a max-flow;
* **expansion** — partial-expansion time (``stats.t_expand``) on the
  compiled CSR kernel;
* **handoff** — startup bytes a parallel phi probe ships per worker:
  the pickled stripped circuit, the raw CSR blob, and the pickled
  :class:`~repro.kernel.share.CsrHandle` for each transport.

Every repeat runs the same ``(circuit, k, phi)`` label query (phi fixed
at each circuit's smallest feasible period at this depth), and the
repeats' labels are asserted identical — a run that diverged would make
the timings meaningless.

Results go to stdout as a table and to ``BENCH_microbench.json``
(``bench-table`` schema, like the pytest-benchmark tables in
``benchmarks/results/``).  The CI microbench smoke job runs this on the
quick subset and archives the JSON.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
import time
from typing import Any, Dict, List, Optional

from repro.core.labels import LabelSolver
from repro.perf.report import SCHEMA_VERSION
from repro.resilience.atomic import atomic_write_json

#: Expansion depth of every label run: the shallowest setting whose
#: expansions have candidate copies, i.e. whose cut queries run a flow.
EXTRA_DEPTH = 1

#: Row name of the timed label run in ``BENCH_microbench.json``.
CELL = "labels"


def _solve(circuit, k: int, phi: int):
    """One label run at fixed phi; returns the outcome (timed stats)."""
    return LabelSolver(circuit, k, phi, extra_depth=EXTRA_DEPTH).run()


def _find_phi(circuit, k: int) -> int:
    """The smallest feasible phi, via a linear scan."""
    phi = 1
    while True:
        if _solve(circuit, k, phi).feasible:
            return phi
        phi += 1


def handoff_bytes(circuit) -> Dict[str, int]:
    """Startup bytes per worker for each handoff strategy."""
    from repro.kernel.share import publish_csr

    compiled = circuit.compiled()
    sizes: Dict[str, int] = {
        # What a spawn-start worker receives without the kernel layer:
        # the full (derived-cache-stripped) circuit object graph.
        "pickled_circuit": len(pickle.dumps(circuit)),
        "csr_blob": len(compiled.to_bytes()),
    }
    handle = publish_csr(compiled)
    try:
        sizes[f"handle_{handle.transport}"] = handle.pickled_size()
    finally:
        handle.unlink()
    return sizes


def bench_circuit(
    circuit,
    k: int = 5,
    phi: Optional[int] = None,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Benchmark one circuit's label run.

    Returns the timed sample (the best of ``repeats`` runs —
    microbenchmarks gate on minima, not means, to shed scheduler noise)
    plus the handoff byte counts.
    """
    if phi is None:
        phi = _find_phi(circuit, k)
    reference: Optional[List[int]] = None
    best: Optional[Dict[str, Any]] = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        outcome = _solve(circuit, k, phi)
        wall = time.perf_counter() - t0
        if not outcome.feasible:
            raise RuntimeError(f"{circuit.name}: phi={phi} infeasible")
        if reference is None:
            reference = outcome.labels
        elif outcome.labels != reference:
            raise RuntimeError(
                f"{circuit.name}: labels diverged between repeats — "
                "timings meaningless"
            )
        stats = outcome.stats
        sample = {
            "t_total": wall,
            "t_flow": stats.t_flow,
            "t_expand": stats.t_expand,
            "flow_queries": stats.flow_queries,
            "flow_solves": stats.flow_solves,
        }
        if best is None or sample["t_total"] < best["t_total"]:
            best = sample
    assert best is not None
    best["us_per_query"] = 1e6 * best["t_flow"] / (best["flow_queries"] or 1)
    return {
        "circuit": circuit.name,
        "k": k,
        "phi": phi,
        "extra_depth": EXTRA_DEPTH,
        CELL: best,
        "handoff": handoff_bytes(circuit),
    }


def as_table(results: List[Dict[str, Any]]) -> dict:
    """The ``BENCH_microbench.json`` payload (bench-table schema)."""
    rows: Dict[str, Dict[str, Any]] = {}
    for res in results:
        row = dict(res[CELL])
        row["phi"] = res["phi"]
        row["extra_depth"] = res["extra_depth"]
        rows[f"{res['circuit']}/{CELL}"] = row
        rows[f"{res['circuit']}/handoff"] = dict(res["handoff"])
    return {
        "schema": SCHEMA_VERSION,
        "kind": "bench-table",
        "table": "microbench",
        "rows": rows,
    }


def render(results: List[Dict[str, Any]]) -> str:
    lines = ["== kernel microbench =="]
    header = (
        f"{'circuit':<16s} | {'t_flow':>9s} | {'t_expand':>9s} | "
        f"{'queries':>8s} | {'us/query':>9s} | {'solves':>7s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for res in results:
        s = res[CELL]
        lines.append(
            f"{res['circuit']:<16s} | "
            f"{s['t_flow']:>8.4f}s | {s['t_expand']:>8.4f}s | "
            f"{s['flow_queries']:>8d} | {s['us_per_query']:>9.1f} | "
            f"{s['flow_solves']:>7d}"
        )
        parts = ", ".join(
            f"{name}={size}" for name, size in res["handoff"].items()
        )
        lines.append(f"{res['circuit'] + '/handoff':<16s} | {parts} bytes")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    from repro.bench import suite as bench_suite

    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.microbench",
        description="time the label kernels on suite circuits",
    )
    parser.add_argument(
        "--circuits",
        nargs="+",
        default=None,
        metavar="NAME",
        help="suite circuits to bench (default: the quick subset)",
    )
    parser.add_argument("--k", type=int, default=5, help="LUT input bound")
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="runs per circuit; best-of is reported (default 3)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also write BENCH_microbench.json under this directory",
    )
    args = parser.parse_args(argv)
    names = args.circuits or bench_suite.quick_subset()
    results = []
    for name in names:
        circuit = bench_suite.build(name)
        results.append(bench_circuit(circuit, k=args.k, repeats=args.repeats))
    print(render(results))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "BENCH_microbench.json")
        atomic_write_json(path, as_table(results), indent=2, sort_keys=False)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
