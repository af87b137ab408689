"""Independent schedule and cycle-ratio certificates (RET002 / RET003).

Second-opinion verification of the Tier-1 claim ``phi >= MDR``.  Each
certificate is built once, by an untrusted producer, and re-checked by
a checker that shares no code with it: the checkers here walk the
mapped circuit directly in integer arithmetic.

**Schedule certificate (RET002).**  The retiming graph is a marked
graph (Millo & de Simone, arXiv 1202.4912): edges carry ``w`` tokens
(registers), node ``v`` takes ``d(v)`` time units per firing.  A
*strictly periodic* schedule at period ``phi`` fires ``v`` at times
``s(v) + k*phi``; its activation trace is the balanced binary word
``0^{s(v)} (1 0^{phi-1})^w`` — one firing per period after an initial
delay of ``s(v)`` slots.  Such a schedule exists iff
``phi * w(C) >= d(C)`` on every cycle ``C``, i.e. iff ``phi >= MDR``,
so a valid offset vector is an *executable certificate* of the bound.
:func:`build_schedule_certificate` constructs the offsets with the
per-SCC longest-path relaxation :func:`repro.retime.mdr.rate_potentials`
at rate ``phi/1``; :func:`replay_schedule` then re-checks them two
independent ways — the per-edge start constraint, and an operational
token-game replay of the marked graph over a warm-up prefix plus one
full period with a periodicity check at the end.

**Max-cycle-ratio certificate (RET003).**  The exact MDR ratio
``p/q = max_C d(C)/w(C)`` comes from Howard's policy iteration on the
retiming graph itself (:func:`repro.retime.mdr.max_cycle_ratio`), with
its proof on both sides:

* a critical cycle with ``d(C)/w(C) = p/q`` — so ``MDR >= p/q``;
* integer potentials with ``pi(v) >= pi(u) + q*d(u) - p*w(e)`` on every
  edge — summed around any cycle they give ``p*w(C) >= q*d(C)``, so
  ``MDR <= p/q``.

The potentials are the same relaxation as RET002's offsets, run at the
rational rate ``p/q``: the strictly periodic schedule of the marked
graph at that rate, scaled by ``q``.  :func:`check_cycle_certificate`
re-walks the cycle on the circuit and checks every edge inequality in
``O(E)`` integer arithmetic, without calling the solver.  The rule
finally cross-checks ``max(1, ceil(p/q))`` against the Bellman-Ford
engine's :func:`repro.retime.mdr.min_feasible_period`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.engine import Diagnostic, Severity, rule
from repro.analysis.invariants import MappingContext
from repro.netlist.graph import SeqCircuit
from repro.retime.mdr import max_cycle_ratio, rate_potentials

#: Certificate blob schema version (both certificate kinds).  Schema 2
#: replaced the Karp cycle-mean blob with the max-cycle-ratio blob.
CERT_SCHEMA = 2

#: ``kind`` of a RET003 blob (schema 1 blobs were ``karp-cycle-mean``).
CYCLE_CERT_KIND = "max-cycle-ratio"

#: Replay budget: past this many simulated firing events the token-game
#: replay is skipped (the O(E) constraint check still certifies).
DEFAULT_MAX_EVENTS = 250_000


def _delays(circuit: SeqCircuit) -> List[int]:
    """Per-node delays under the circuit's delay model."""
    return [circuit.node(v).delay for v in circuit.node_ids()]


def _dedup_edges(circuit: SeqCircuit) -> List[Tuple[int, int, int]]:
    """Deduplicated ``(src, dst, weight)`` edges (parallel pins merged)."""
    seen = set()
    out: List[Tuple[int, int, int]] = []
    for edge in circuit.edges():
        if edge not in seen:
            seen.add(edge)
            out.append(edge)
    return out


# ----------------------------------------------------------------------
# Schedule certificates
# ----------------------------------------------------------------------
def balanced_word(offset: int, phi: int, length: int) -> str:
    """Prefix of the balanced binary activation word ``0^s (1 0^{phi-1})^w``.

    Position ``t`` is ``1`` exactly when the node fires at time ``t``
    under the strictly periodic schedule ``s + k*phi``.
    """
    return "".join(
        "1" if t >= offset and (t - offset) % phi == 0 else "0"
        for t in range(length)
    )


def build_schedule_certificate(
    circuit: SeqCircuit, phi: int
) -> Dict[str, Any]:
    """Construct the periodic-schedule certificate blob for ``phi``.

    Solves the difference constraints ``s(v) >= s(u) + d(u) - phi*w``
    by the per-SCC longest-path relaxation of
    :func:`repro.retime.mdr.rate_potentials`; a cycle with
    ``d(C) > phi * w(C)`` (i.e. ``phi < MDR``) makes the blob
    infeasible, with a node of that cycle as the witness.
    """
    offsets, loop = rate_potentials(circuit, phi)
    if offsets is None:
        return {
            "schema": CERT_SCHEMA,
            "kind": "periodic-schedule",
            "phi": phi,
            "feasible": False,
            "witness_node": circuit.name_of(loop[0]) if loop else None,
        }
    return {
        "schema": CERT_SCHEMA,
        "kind": "periodic-schedule",
        "phi": phi,
        "feasible": True,
        "offsets": offsets,
        "hyperperiod": phi,
        "makespan": max(offsets) if offsets else 0,
        "word": {"ones_per_period": 1, "period": phi},
    }


def replay_schedule(
    circuit: SeqCircuit,
    phi: int,
    offsets: Sequence[int],
    max_events: int = DEFAULT_MAX_EVENTS,
) -> List[str]:
    """Re-check a schedule certificate; returns violation messages.

    Two independent passes:

    1. every edge ``u -> v`` with ``w`` registers must satisfy the
       start constraint ``s(v) >= s(u) + d(u) - phi*w``;
    2. an operational token-game replay: edges start with ``w`` tokens,
       the ``k``-th firing of ``v`` (time ``s(v)+k*phi``) consumes one
       token per fanin edge, completions at ``s(u)+k*phi+d(u)`` produce
       one token per fanout edge.  The marking must never go negative
       and must return to itself one period after warm-up (periodicity
       implies the schedule runs forever at throughput ``1/phi``).

    The replay is skipped (never a violation) past ``max_events``; the
    constraint pass alone is already a complete proof.
    """
    problems: List[str] = []
    if phi < 1:
        return [f"period {phi} is not a positive integer"]
    n = len(circuit)
    if len(offsets) != n:
        return [f"offset vector has {len(offsets)} entries for {n} nodes"]
    delays = _delays(circuit)
    edges = _dedup_edges(circuit)
    for src, dst, weight in edges:
        slack = offsets[dst] - offsets[src] - delays[src] + phi * weight
        if slack < 0:
            problems.append(
                f"edge {circuit.name_of(src)!r}->{circuit.name_of(dst)!r}"
                f" (w={weight}) violates the start constraint by {-slack}"
            )
    if problems:
        return problems

    makespan = max(offsets) if offsets else 0
    horizon = makespan + 2 * phi
    n_events = sum((horizon - s) // phi + 1 for s in offsets) * 2
    if n_events > max_events:
        return problems  # replay skipped; constraint pass certified

    fires: List[List[int]] = [[] for _ in range(horizon + 1)]
    completes: List[List[int]] = [[] for _ in range(horizon + 2)]
    for v in range(n):
        for t in range(offsets[v], horizon + 1, phi):
            fires[t].append(v)
            completes[t + delays[v]].append(v)
    fanout_edges: List[List[int]] = [[] for _ in range(n)]
    fanin_edge_ids: List[List[int]] = [[] for _ in range(n)]
    tokens: List[int] = []
    for idx, (src, dst, weight) in enumerate(edges):
        fanout_edges[src].append(idx)
        fanin_edge_ids[dst].append(idx)
        tokens.append(weight)
    snapshot: Optional[List[int]] = None
    for t in range(horizon + 1):
        for u in completes[t]:
            for idx in fanout_edges[u]:
                tokens[idx] += 1
        for v in fires[t]:
            for idx in fanin_edge_ids[v]:
                tokens[idx] -= 1
                if tokens[idx] < 0:
                    src, dst, weight = edges[idx]
                    problems.append(
                        f"replay: edge {circuit.name_of(src)!r}->"
                        f"{circuit.name_of(dst)!r} runs out of tokens at"
                        f" t={t}"
                    )
                    return problems
        if t == makespan + phi:
            snapshot = list(tokens)
        elif t == makespan + 2 * phi and snapshot is not None:
            if tokens != snapshot:
                problems.append(
                    "replay: marking is not periodic one period after"
                    " warm-up"
                )
    return problems


# ----------------------------------------------------------------------
# Max-cycle-ratio certificates
# ----------------------------------------------------------------------
def exact_mdr_period(circuit: SeqCircuit) -> int:
    """``max(1, ceil(MDR))`` of a circuit from its exact cycle ratio.

    This equals :func:`repro.retime.mdr.min_feasible_period` (the
    smallest integer phi with no cycle ``d(C) > phi * w(C)``) but
    replaces that function's ``O(log n)`` Bellman-Ford feasibility
    probes with one :func:`repro.retime.mdr.max_cycle_ratio` solve —
    the solver behind RET003, reused here to obtain the Figure-4
    search's default bound up front.  Raises ``ValueError`` on a
    combinational cycle, matching ``min_feasible_period``.
    """
    return max(1, math.ceil(max_cycle_ratio(circuit).ratio))


def build_cycle_certificate(
    circuit: SeqCircuit, phi: int
) -> Dict[str, Any]:
    """Construct the max-cycle-ratio certificate blob for ``phi``.

    The blob carries the exact MDR ``mcm`` as ``"p/q"``, the implied
    integer period bound, a critical cycle on circuit nodes
    (``circuit_cycle``: ``[[name, weight_to_next], ...]``; empty, with
    ``mcm = "0/1"``, when the circuit has no cycle) and the potentials
    at rate ``p/q``, indexed by node id.  A combinational cycle yields
    an infeasible blob without a ratio.
    """
    base: Dict[str, Any] = {
        "schema": CERT_SCHEMA,
        "kind": CYCLE_CERT_KIND,
        "phi": phi,
    }
    try:
        found = max_cycle_ratio(circuit)
    except ValueError:
        base.update(mcm=None, feasible=False, reason="combinational cycle")
        return base
    mu = found.ratio
    base.update(
        mcm=f"{mu.numerator}/{mu.denominator}",
        bound=max(1, math.ceil(mu)),
        feasible=phi >= mu,
        circuit_cycle=[
            [circuit.name_of(v), w] for v, w in zip(found.cycle, found.weights)
        ],
        potentials=found.potentials,
    )
    return base


def _walk_ratio(
    circuit: SeqCircuit, delays: List[int], walk: Sequence[Any]
) -> Tuple[Optional[Fraction], Optional[str]]:
    """The delay-to-register ratio of a claimed closed walk, or a problem."""
    ids = {circuit.name_of(v): v for v in circuit.node_ids()}
    total_delay = 0
    total_weight = 0
    for i, (name, weight) in enumerate(walk):
        nxt_name = walk[(i + 1) % len(walk)][0]
        if name not in ids or nxt_name not in ids:
            return None, f"witness cycle names unknown node {name!r}"
        src, dst = ids[name], ids[nxt_name]
        if not any(
            pin.src == src and pin.weight == weight
            for pin in circuit.fanins(dst)
        ):
            return None, (
                f"witness cycle claims edge {name!r}->{nxt_name!r}"
                f" (w={weight}) which the circuit does not have"
            )
        total_delay += delays[src]
        total_weight += weight
    if total_weight <= 0:
        return None, "witness cycle carries no registers"
    return Fraction(total_delay, total_weight), None


def check_cycle_certificate(
    circuit: SeqCircuit, phi: int, blob: Dict[str, Any]
) -> List[str]:
    """Re-check a max-cycle-ratio certificate; returns violation messages.

    Never calls the solver; ``O(E)`` integer arithmetic.  The walk
    ``circuit_cycle`` must exist on the circuit with the claimed
    register counts and achieve exactly ``mcm = p/q`` (so
    ``MDR >= p/q``); the potentials must satisfy
    ``pi(v) >= pi(u) + q*d(u) - p*w`` on every edge (so
    ``MDR <= p/q``); ``bound`` must be ``max(1, ceil(p/q))``; and
    ``phi >= p/q``.
    """
    if blob.get("kind") != CYCLE_CERT_KIND or blob.get("schema") != CERT_SCHEMA:
        return [
            f"unsupported cycle certificate {blob.get('kind')!r}"
            f" (schema {blob.get('schema')!r})"
        ]
    mcm_text = blob.get("mcm")
    if mcm_text is None:
        return [
            "cycle certificate reports an unbounded MDR"
            f" ({blob.get('reason', 'no reason')})"
        ]
    try:
        mu = Fraction(str(mcm_text))
    except ValueError:
        return [f"cycle certificate ratio {mcm_text!r} is not a fraction"]
    if mu < 0:
        return [f"cycle certificate ratio {mu} is negative"]
    delays = _delays(circuit)
    walk = blob.get("circuit_cycle") or []
    if walk:
        achieved, problem = _walk_ratio(circuit, delays, walk)
        if problem is not None:
            return [problem]
        if achieved != mu:
            return [
                f"witness cycle achieves ratio {achieved}, certificate"
                f" claims {mu}"
            ]
    elif mu != 0:
        return ["cycle certificate has no witness cycle"]
    potentials = blob.get("potentials")
    n = len(circuit)
    if (
        not isinstance(potentials, list)
        or len(potentials) != n
        or not all(type(x) is int for x in potentials)
    ):
        size = len(potentials) if isinstance(potentials, list) else 0
        return [f"potential vector has {size} integer entries for {n} nodes"]
    p, q = mu.numerator, mu.denominator
    for src, dst, weight in circuit.edges():
        slack = potentials[dst] - potentials[src] - q * delays[src] + p * weight
        if slack < 0:
            return [
                f"edge {circuit.name_of(src)!r}->{circuit.name_of(dst)!r}"
                f" (w={weight}) violates the potential inequality at"
                f" rate {mu} by {-slack}: some cycle may exceed it"
            ]
    problems: List[str] = []
    bound = blob.get("bound")
    if bound != max(1, math.ceil(mu)):
        problems.append(f"bound {bound!r} is not max(1, ceil({mu}))")
    if phi < mu:
        problems.append(
            f"period {phi} is below the certified MDR ratio {mu}"
        )
    return problems


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
@rule(
    "RET002",
    "schedule-certificate",
    Severity.ERROR,
    "mapping",
    "A balanced-binary-word periodic schedule at period phi must exist "
    "and replay cleanly on the mapped circuit's marked graph "
    "(independent proof of phi >= MDR).",
)
def _check_schedule_certificate(ctx: MappingContext) -> Iterator[Diagnostic]:
    blob = ctx.schedule_cert
    if blob is None:
        blob = build_schedule_certificate(ctx.mapped, ctx.phi)
    loc = ctx.loc()
    if not blob.get("feasible"):
        yield Diagnostic(
            "RET002",
            Severity.ERROR,
            "no periodic schedule exists at period "
            f"{ctx.phi} (phi < MDR); infeasibility witnessed at node "
            f"{blob.get('witness_node')!r}",
            loc,
            data={"certificate": blob},
        )
        return
    offsets = blob.get("offsets") or []
    for problem in replay_schedule(ctx.mapped, ctx.phi, offsets):
        yield Diagnostic(
            "RET002",
            Severity.ERROR,
            f"schedule certificate failed replay: {problem}",
            loc,
            data={"phi": ctx.phi},
        )


@rule(
    "RET003",
    "cycle-ratio-crosscheck",
    Severity.ERROR,
    "mapping",
    "The exact maximum cycle ratio must be proven on both sides: the "
    "critical cycle re-walks at ratio mcm, integer potentials satisfy "
    "every edge at rate mcm, phi >= mcm, and ceil(mcm) agrees with the "
    "Bellman-Ford engine's bound.",
)
def _check_cycle_certificate(ctx: MappingContext) -> Iterator[Diagnostic]:
    blob = ctx.cycle_cert
    if blob is None:
        blob = build_cycle_certificate(ctx.mapped, ctx.phi)
    loc = ctx.loc()
    for problem in check_cycle_certificate(ctx.mapped, ctx.phi, blob):
        yield Diagnostic(
            "RET003",
            Severity.ERROR,
            f"cycle-ratio certificate rejected: {problem}",
            loc,
            data={"mcm": blob.get("mcm")},
        )
        return
    from repro.retime.mdr import min_feasible_period

    bound = blob["bound"]
    try:
        engine_bound = min_feasible_period(ctx.mapped, upper_bound=ctx.phi)
    except ValueError as exc:
        yield Diagnostic(
            "RET003",
            Severity.ERROR,
            f"engine cross-check failed: {exc}",
            loc,
        )
        return
    if engine_bound != bound:
        yield Diagnostic(
            "RET003",
            Severity.ERROR,
            "certified cycle-ratio bound disagrees with the engine: "
            f"ceil(mcm) = {bound}, min_feasible_period = {engine_bound}",
            loc,
            data={"mcm": blob.get("mcm"), "engine_bound": engine_bound},
        )
