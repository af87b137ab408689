"""Maximum delay-to-register (MDR) ratio of a sequential circuit.

The paper's Problem 1 minimizes the MDR ratio: the maximum, over all
directed cycles ``C`` of the retiming graph, of ``d(C) / w(C)`` — total
gate delay over total register count.  By the retiming/pipelining theory
of Leiserson-Saxe [16] and Papaefthymiou [22], the clock period of a
circuit under retiming *and* pipelining is limited only by this quantity;
with unit gate delays the minimum achievable integer clock period is the
smallest ``phi`` such that no cycle satisfies ``d(C) > phi * w(C)``.

Two independent engines compute it:

* :func:`max_cycle_ratio` — the exact ratio ``p/q`` by Howard's policy
  iteration on each cyclic SCC, with a critical cycle (``MDR >= p/q``)
  and integer potentials ``pi(v) >= pi(u) + q*d(u) - p*w`` on every
  edge (``MDR <= p/q``).  The potentials come from
  :func:`rate_potentials`, the per-SCC longest-path relaxation that
  also builds the integer-period schedules of RET002.
  :func:`mdr_ratio` and :func:`critical_ratio_cycle` read it.
* :func:`has_positive_cycle` — does any cycle have
  ``q * d(C) - p * w(C) > 0``?  (i.e. is the MDR ratio ``> p/q``?)  A
  vectorized Bellman-Ford longest-path relaxation; a cycle of positive
  gain exists iff values keep relaxing after ``|V|`` rounds.
  :func:`min_feasible_period` binary-searches integer ``phi`` with it;
  RET003 cross-checks the certified bound against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

from repro.compat import HAVE_NUMPY, np
from repro.netlist.graph import SeqCircuit


def _edge_lists(circuit: SeqCircuit) -> Tuple[List[int], List[int], List[int], List[int]]:
    """(src, dst, weight, delay-of-dst) lists over all edges."""
    src: List[int] = []
    dst: List[int] = []
    weight: List[int] = []
    delay: List[int] = []
    for s, d, w in circuit.edges():
        src.append(s)
        dst.append(d)
        weight.append(w)
        delay.append(circuit.node(d).delay)
    return src, dst, weight, delay


def has_positive_cycle(circuit: SeqCircuit, ratio: Fraction) -> bool:
    """True iff some cycle has ``d(C) / w(C) > ratio``.

    Works on exact integers: with ``ratio = p/q`` the test is whether a
    cycle of positive total gain exists for edge gains
    ``q * d(v) - p * w(e)`` (delay attributed to the edge's head).

    Uses the vectorized numpy Bellman-Ford when the ``[vector]`` extra is
    installed and falls back to a pure edge-relaxation loop otherwise;
    the boolean is exact either way (both are longest-path relaxations
    from an implicit all-zero super-source).
    """
    p, q = ratio.numerator, ratio.denominator
    src, dst, weight, delay = _edge_lists(circuit)
    if len(src) == 0:
        return False
    n = len(circuit)
    gains = [q * d - p * w for d, w in zip(delay, weight)]
    if HAVE_NUMPY:
        return _has_positive_cycle_numpy(n, src, dst, gains)
    # Pure fallback: Gauss-Seidel edge relaxation.  Without a positive
    # cycle the all-zero longest paths stabilize within n rounds; a
    # positive-gain cycle keeps improving its nodes forever.
    dist = [0] * n
    edges = list(zip(src, dst, gains))
    for _ in range(n + 1):
        improved = False
        for s, d, g in edges:
            cand = dist[s] + g
            if cand > dist[d]:
                dist[d] = cand
                improved = True
        if not improved:
            return False
    return True


def _has_positive_cycle_numpy(
    n: int, src: List[int], dst: List[int], gains: List[int]
) -> bool:
    """Vectorized (Jacobi) longest-path relaxation over the edge arrays."""
    src_a = np.asarray(src, dtype=np.int64)
    dst_a = np.asarray(dst, dtype=np.int64)
    # Exact arithmetic: accumulated distances reach ~n * max|gain|; switch
    # to Python-int (object) arrays when that nears the int64 range.
    bound = max((abs(g) for g in gains), default=0) * (n + 2)
    if bound < (1 << 62):
        gain = np.asarray(gains, dtype=np.int64)
        dist = np.zeros(n, dtype=np.int64)
    else:
        gain = np.asarray(gains, dtype=object)
        dist = np.zeros(n, dtype=object)
    # Longest-path relaxation from an implicit super-source (dist 0 at all
    # nodes).  Any positive-gain cycle keeps increasing its nodes forever;
    # without one, distances stabilize within n rounds.
    for _ in range(n + 1):
        candidate = dist[src_a] + gain
        new = dist.copy()
        np.maximum.at(new, dst_a, candidate)
        if np.array_equal(new, dist):
            return False
        dist = new
    return True


def min_feasible_period(
    circuit: SeqCircuit, upper_bound: Optional[int] = None
) -> int:
    """Smallest integer ``phi`` with no cycle ``d(C) > phi * w(C)``.

    This is the minimum clock period achievable by LUT-count-preserving
    retiming plus pipelining (unit delay model).  Raises ``ValueError``
    when a zero-weight (combinational) cycle exists.

    ``upper_bound`` is a hint from a caller that already holds a
    (believed) feasible period — e.g. the certificate cross-check of an
    achieved mapping — and narrows the binary search.  It is verified
    before use: a hint that turns out infeasible is ignored rather than
    trusted, so the result is identical with or without it.
    """
    lo, hi = 1, max(1, circuit.n_gates)
    if has_positive_cycle(circuit, Fraction(hi, 1)):
        raise ValueError("combinational cycle: MDR ratio is unbounded")
    if (
        upper_bound is not None
        and 1 <= upper_bound < hi
        and not has_positive_cycle(circuit, Fraction(upper_bound, 1))
    ):
        hi = upper_bound
    while lo < hi:
        mid = (lo + hi) // 2
        if has_positive_cycle(circuit, Fraction(mid, 1)):
            lo = mid + 1
        else:
            hi = mid
    return lo


@dataclass
class CycleRatio:
    """The maximum cycle ratio ``p/q`` of a circuit with its two-sided proof.

    ``cycle`` is a critical cycle (node ids in edge order, ``[]`` when
    the circuit has no cycle) and ``weights[i]`` the register count of
    its edge ``cycle[i] -> cycle[i + 1]`` (wrapping around), so
    ``d(cycle) / sum(weights) == ratio`` proves ``MDR >= ratio``.
    ``potentials`` satisfy ``pi(v) >= pi(u) + q*d(u) - p*w(e)`` on every
    edge ``e = u -> v``, which proves that no cycle exceeds ``ratio``.
    """

    ratio: Fraction
    cycle: List[int]
    weights: List[int]
    potentials: List[int]


def _retiming_graph(
    circuit: SeqCircuit,
) -> Tuple[List[int], List[Tuple[int, int, int]]]:
    """Per-node delays and the deduplicated ``(src, dst, weight)`` edges."""
    delays = [circuit.node(v).delay for v in circuit.node_ids()]
    return delays, list(dict.fromkeys(circuit.edges()))


def _howard(
    members: List[int],
    succ: List[List[Tuple[int, int]]],
    delays: List[int],
) -> Tuple[int, int, List[int], List[int], List[int]]:
    """Maximum cycle ratio of one cyclic SCC by Howard's policy iteration.

    Every node keeps one out-edge (the policy), so the policy graph is
    a set of chains draining into cycles.  Evaluation gives each node
    the ratio ``p/q`` (lowest terms) of the cycle it drains into, and a
    value: ``q`` times its bias over the cycle's handle, an exact
    integer.  Improvement first redirects nodes towards a better cycle;
    only when none exists does it switch to edges that raise a value.
    A switch that closes a new cycle closes one of strictly larger
    ratio, and a cycle that survives keeps its handle (its smallest
    node id), so the iteration terminates.  In a strongly connected graph
    every node ends on one ratio, and the values then satisfy
    ``value(u) >= q*d(u) - p*w + value(v)`` on every edge.

    Returns ``(p, q, cycle, cycle_weights, values)`` with ``values``
    aligned to ``members``.
    """
    index = {v: i for i, v in enumerate(members)}
    adj = [
        [(index[v], w) for v, w in succ[u] if v in index] for u in members
    ]
    cost = [delays[u] for u in members]
    m = len(members)
    # Start from the fewest-register edge out of every node.
    policy = [min(edges, key=lambda e: e[1]) for edges in adj]
    while True:
        value = [0] * m
        drain = [0] * m  # index of the policy cycle each node drains into
        cyc_p: List[int] = []
        cyc_q: List[int] = []
        loops: List[List[int]] = []
        state = [0] * m  # 0 unseen, 1 on the current walk, 2 evaluated
        for start in range(m):
            if state[start]:
                continue
            path: List[int] = []
            u = start
            while state[u] == 0:
                state[u] = 1
                path.append(u)
                u = policy[u][0]
            if state[u] == 1:  # the walk closed a new policy cycle at u
                at = path.index(u)
                loop = path[at:]
                del path[at:]
                total_d = sum(cost[x] for x in loop)
                total_w = sum(policy[x][1] for x in loop)
                g = gcd(total_d, total_w)
                cyc_p.append(total_d // g)
                cyc_q.append(total_w // g)
                h = min(range(len(loop)), key=lambda i: members[loop[i]])
                loop = loop[h:] + loop[:h]
                drain[loop[0]] = len(loops)
                state[loop[0]] = 2  # the handle: value 0
                loops.append(loop)
                path += loop[1:]  # the rest drains into the handle
            for x in reversed(path):
                y, w = policy[x]
                k = drain[y]
                value[x] = cyc_q[k] * cost[x] - cyc_p[k] * w + value[y]
                drain[x] = k
                state[x] = 2
        changed = False
        if len(loops) > 1:
            for u in range(m):
                k = drain[u]
                bp, bq = cyc_p[k], cyc_q[k]
                better = None
                for e in adj[u]:
                    kv = drain[e[0]]
                    if cyc_p[kv] * bq > bp * cyc_q[kv]:
                        bp, bq = cyc_p[kv], cyc_q[kv]
                        better = e
                if better is not None:
                    policy[u] = better
                    changed = True
            if changed:
                continue
        # One ratio everywhere now (no edge leads to a better cycle in a
        # strongly connected graph), so the values are comparable.
        p, q = cyc_p[0], cyc_q[0]
        for u in range(m):
            best = value[u]
            better = None
            base = q * cost[u]
            for e in adj[u]:
                cand = base - p * e[1] + value[e[0]]
                if cand > best:
                    best = cand
                    better = e
            if better is not None:
                policy[u] = better
                changed = True
        if not changed:
            loop = loops[0]
            return (
                p,
                q,
                [members[x] for x in loop],
                [policy[x][1] for x in loop],
                value,
            )


def _pred_cycle(pred: List[int], members: List[int]) -> Optional[List[int]]:
    """A cycle of the predecessor graph among ``members``, in edge order."""
    walked: Dict[int, int] = {}
    for start in members:
        if start in walked:
            continue
        path: List[int] = []
        v = start
        while v != -1 and v not in walked:
            walked[v] = start
            path.append(v)
            v = pred[v]
        if v != -1 and walked[v] == start:
            loop = path[path.index(v):]
            loop.reverse()  # predecessors run against the edges
            return loop
    return None


def _relax(
    n: int,
    delays: List[int],
    edges: List[Tuple[int, int, int]],
    sccs: List[List[int]],
    p: int,
    q: int,
    warm: Optional[List[int]],
) -> Tuple[Optional[List[int]], Optional[List[int]]]:
    """Longest-path relaxation of ``pi(v) >= pi(u) + q*d(u) - p*w``.

    SCC by SCC in topological order of the condensation: edges from
    earlier SCCs are final, so they are applied first; then the SCC's
    internal edges are swept until nothing changes.  An SCC of ``m``
    nodes settles within ``m`` sweeps from any start, so a change in
    sweep ``m + 1`` proves a cycle of positive gain, i.e. a cycle with
    ratio above ``p/q``; it is read off the predecessor graph.

    Without ``warm`` every value starts at 0 and each cross edge lifts
    its own head.  With ``warm`` (values already satisfying the
    internal edges) a whole SCC is lifted by one shift, which keeps its
    internal edges satisfied, so the sweeps only confirm.

    Returns ``(potentials, None)`` with the minimum potential at 0, or
    ``(None, cycle)``.
    """
    fanin: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for src, dst, weight in edges:
        fanin[dst].append((src, q * delays[src] - p * weight))
    pot = [0] * n if warm is None else list(warm)
    pred = [-1] * n
    for members in sccs:
        member_set = set(members)
        internal: List[Tuple[int, int, int]] = []
        lift = 0
        for v in members:
            for src, gain in fanin[v]:
                if src in member_set:
                    internal.append((v, src, gain))
                elif warm is not None:
                    lift = max(lift, pot[src] + gain - pot[v])
                elif pot[src] + gain > pot[v]:
                    pot[v] = pot[src] + gain
        if lift:
            for v in members:
                pot[v] += lift
        if not internal:
            continue
        sweeps = 0
        while True:
            changed = False
            for v, src, gain in internal:
                cand = pot[src] + gain
                if cand > pot[v]:
                    pot[v] = cand
                    pred[v] = src
                    changed = True
            if not changed:
                break
            sweeps += 1
            if sweeps > len(members):
                # Positive gain: the values grow without bound, so a
                # predecessor cycle appears, and every one is positive.
                loop = _pred_cycle(pred, members)
                if loop is not None:
                    return None, loop
    base = min(pot) if pot else 0
    return [x - base for x in pot], None


def rate_potentials(
    circuit: SeqCircuit, p: int, q: int = 1
) -> Tuple[Optional[List[int]], Optional[List[int]]]:
    """Integer potentials proving that no cycle has ratio above ``p/q``.

    Returns ``(pi, None)`` with ``pi(v) >= pi(u) + q*d(u) - p*w(e)`` on
    every edge, or ``(None, cycle)`` with a cycle (node ids in edge
    order) whose ratio exceeds ``p/q``.  At ``q = 1`` the potentials are
    the start offsets of a strictly periodic schedule at integer period
    ``p`` (RET002); at a rational ``p/q`` they are the same schedule
    scaled by ``q`` (RET003, where :func:`max_cycle_ratio` runs the same
    relaxation warm-started from its policy values).
    """
    delays, edges = _retiming_graph(circuit)
    return _relax(len(delays), delays, edges, circuit.sccs(), p, q, None)


def max_cycle_ratio(circuit: SeqCircuit) -> CycleRatio:
    """Exact maximum cycle ratio ``max_C d(C) / w(C)`` with its proof.

    Howard's policy iteration runs on each cyclic SCC of the retiming
    graph; the largest SCC ratio is the answer, and its policy cycle
    the critical cycle.  The SCC values, rescaled to the global ratio,
    warm-start the relaxation of :func:`rate_potentials`, which confirms
    them in exact integer arithmetic.  Should the relaxation find a cycle above the
    ratio, that cycle's ratio is adopted and the relaxation rerun, so
    the returned ratio is always the one the potentials prove.  Raises
    ``ValueError`` on a combinational cycle (the ratio is unbounded).
    """
    circuit.comb_topo_order()  # raises on a combinational cycle
    delays, edges = _retiming_graph(circuit)
    n = len(delays)
    succ: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for src, dst, weight in edges:
        succ[src].append((dst, weight))
    sccs = circuit.sccs()
    p, q = 0, 1
    cycle: List[int] = []
    weights: List[int] = []
    solved: List[Tuple[List[int], int, List[int]]] = []
    for members in sccs:
        if len(members) == 1 and all(v != members[0] for v, _w in succ[members[0]]):
            continue
        sp, sq, loop, loop_w, values = _howard(members, succ, delays)
        solved.append((members, sq, values))
        if not cycle or sp * q > p * sq:
            p, q, cycle, weights = sp, sq, loop, loop_w
    # Each SCC's values (q_s times its biases) satisfy its edges at its
    # own ratio, so also at the global p/q >= it; ceil(-q * value / q_s)
    # is then an integer solution of the same edges.
    warm = [0] * n
    for members, sq, values in solved:
        for v, x in zip(members, values):
            warm[v] = -((q * x) // sq)
    while True:
        potentials, loop = _relax(n, delays, edges, sccs, p, q, warm)
        if potentials is not None:
            return CycleRatio(Fraction(p, q), cycle, weights, potentials)
        cycle = loop
        weights = [
            min(w for x, w in succ[u] if x == v)
            for u, v in zip(loop, loop[1:] + loop[:1])
        ]
        ratio = Fraction(sum(delays[u] for u in loop), sum(weights))
        p, q = ratio.numerator, ratio.denominator


def mdr_ratio(circuit: SeqCircuit) -> Fraction:
    """Exact maximum cycle ratio ``max_C d(C) / w(C)`` (0 when acyclic)."""
    return max_cycle_ratio(circuit).ratio


def critical_ratio_cycle(circuit: SeqCircuit) -> Optional[List[int]]:
    """One cycle achieving the MDR ratio, as a node list (or ``None``)."""
    return max_cycle_ratio(circuit).cycle or None
