"""Karp's maximum cycle mean on the condensed register graph: a test oracle.

The search bound and RET003 once computed the MDR ratio this way; they
now use Howard's policy iteration on the retiming graph itself
(:func:`repro.retime.mdr.max_cycle_ratio`).  Karp's ``O(N*M)`` table on
a graph that grows quadratically with the register count is kept here,
for small circuits only, as an independent oracle for that solver.

Every register instance becomes a node, chained registers are linked by
zero-cost unit edges, and the last register of an edge connects to the
first register of each successor edge with the maximum gate delay
accumulated along the zero-weight combinational paths in between.  A
cycle of the condensed graph traverses exactly ``w(C)`` edges at total
cost ``d(C)``, so its mean is the cycle's delay-to-register ratio, and
Karp's theorem (``mu* = max_v min_k (D_n(v) - D_k(v)) / (n - k)``)
yields the exact MDR.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.netlist.graph import SeqCircuit

_NEG_INF = float("-inf")


@dataclass
class CondensedGraph:
    """The condensed register graph and its back-mapping to the circuit.

    ``edges`` entries are ``(src_reg, dst_reg, cost, path)`` where
    ``path`` is the circuit node-id path (head node of the source
    register's bank through the last combinational node) the cost was
    accumulated over, or ``None`` for the zero-cost links inside a
    register chain.  ``reg_edge[r]`` indexes ``weighted`` (the original
    weighted circuit edges) for register ``r``'s bank.
    """

    labels: List[str]
    edges: List[Tuple[int, int, int, Optional[List[int]]]]
    n_regs: int
    weighted: List[Tuple[int, int, int]]
    reg_edge: List[int]


def condensed_register_graph(circuit: SeqCircuit) -> CondensedGraph:
    """Build the condensed register graph of a circuit.

    Raises ``ValueError`` on a combinational cycle (MDR unbounded).
    """
    delays = [circuit.node(v).delay for v in circuit.node_ids()]
    weighted = [e for e in dict.fromkeys(circuit.edges()) if e[2] >= 1]
    reg_base: List[int] = []
    labels: List[str] = []
    reg_edge: List[int] = []
    n_regs = 0
    first_reg: List[List[int]] = [[] for _ in range(len(circuit))]
    for idx, (src, dst, weight) in enumerate(weighted):
        reg_base.append(n_regs)
        tag = f"{circuit.name_of(src)}->{circuit.name_of(dst)}"
        labels.extend(f"{tag}#{i}" for i in range(weight))
        reg_edge.extend([idx] * weight)
        first_reg[src].append(n_regs)
        n_regs += weight
    edges: List[Tuple[int, int, int, Optional[List[int]]]] = []
    for idx, (_src, _dst, weight) in enumerate(weighted):
        base = reg_base[idx]
        for i in range(weight - 1):
            edges.append((base + i, base + i + 1, 0, None))
    # best[v]: exit register -> (max accumulated delay from v inclusive,
    # next hop on that path, or -1 for a direct weighted out-edge of v).
    best: List[Dict[int, Tuple[int, int]]] = [
        {} for _ in range(len(circuit))
    ]
    order = circuit.comb_topo_order()  # raises on combinational cycles
    for v in reversed(order):
        d_v = delays[v]
        mine = best[v]
        for reg in first_reg[v]:
            mine[reg] = (d_v, -1)
        for dst, weight in circuit.fanouts(v):
            if weight == 0:
                for reg, (cost, _hop) in best[dst].items():
                    cand = d_v + cost
                    if reg not in mine or cand > mine[reg][0]:
                        mine[reg] = (cand, dst)
    for idx, (_src, dst, weight) in enumerate(weighted):
        tail = reg_base[idx] + weight - 1
        for reg, (cost, _hop) in best[dst].items():
            path = [dst]
            hop = best[dst][reg][1]
            node = dst
            while hop != -1:
                path.append(hop)
                node = hop
                hop = best[node][reg][1]
            edges.append((tail, reg, cost, path))
    return CondensedGraph(labels, edges, n_regs, weighted, reg_edge)


def karp_max_cycle_mean(
    n_regs: int, edges: Sequence[Tuple[int, int, int, Optional[List[int]]]]
) -> Optional[Tuple[Fraction, List[int]]]:
    """Karp's maximum cycle mean; ``(mu*, critical cycle)`` or ``None``.

    Runs on the condensed graph plus a super-source with zero-cost
    edges to every register, so every cycle is reachable.  ``None``
    when the graph is acyclic.
    """
    n = n_regs + 1  # + super-source (vertex n_regs)
    source = n_regs
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for src, dst, cost, _path in edges:
        adj[src].append((dst, cost))
    for v in range(n_regs):
        adj[source].append((v, 0))
    dist: List[List[float]] = [[_NEG_INF] * n for _ in range(n + 1)]
    parent: List[List[int]] = [[-1] * n for _ in range(n + 1)]
    dist[0][source] = 0.0
    for k in range(1, n + 1):
        row = dist[k]
        par = parent[k]
        prev = dist[k - 1]
        for u in range(n):
            du = prev[u]
            if du == _NEG_INF:
                continue
            for v, cost in adj[u]:
                cand = du + cost
                if cand > row[v]:
                    row[v] = cand
                    par[v] = u
    mu: Optional[Fraction] = None
    arg: int = -1
    final = dist[n]
    for v in range(n):
        if final[v] == _NEG_INF:
            continue
        worst: Optional[Fraction] = None
        for k in range(n):
            if dist[k][v] == _NEG_INF:
                continue
            ratio = Fraction(int(final[v] - dist[k][v]), n - k)
            if worst is None or ratio < worst:
                worst = ratio
        if worst is not None and (mu is None or worst > mu):
            mu = worst
            arg = v
    if mu is None:
        return None
    # Walk parents from (n, arg); within n+1 visited vertices one must
    # repeat, and the slice between repeats is a critical cycle.
    walk: List[int] = []
    seen: Dict[int, int] = {}
    v, k = arg, n
    while v not in seen:
        seen[v] = len(walk)
        walk.append(v)
        v, k = parent[k][v], k - 1
    cycle = walk[seen[v] :]
    cycle.reverse()  # parent walk runs backwards in time
    return mu, cycle


def karp_mdr(circuit: SeqCircuit) -> Fraction:
    """The MDR ratio by Karp's theorem (0 when the circuit has no cycle)."""
    graph = condensed_register_graph(circuit)
    found = karp_max_cycle_mean(graph.n_regs, graph.edges)
    return found[0] if found is not None else Fraction(0)
