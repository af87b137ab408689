"""Partial expanded circuits and cut queries on packed copies.

TurboMap's efficiency [11] comes from never materializing the expanded
circuit ``E_v`` (:mod:`repro.core.expanded`) fully.  For a height test
at threshold ``L``, copies with height ``l(u) - phi*w + 1 > L`` can
never be LUT inputs, so they are *interior* (collapsed into the sink
and expanded through).  The paper's partial flow network stops right
there: the first copies at or below the threshold become the *leaf*
cut candidates.  This module additionally supports expanding *through*
gate copies below the threshold down to a configurable floor
(``extra_depth`` register wraps below it): those copies are
*candidates* — cuttable, but expanded further — because a candidate
inside the LUT cluster occasionally exposes a reconvergent deeper copy
that cuts cheaper.  ``extra_depth=0`` reproduces the paper's
construction exactly; the ablation benchmark measures what the extra
generality buys.  Because every circuit cycle carries a register and
``phi >= 1``, heights strictly drop along weight-accumulating reverse
paths, so the expansion terminates.

Copies are packed integers ``(w << shift) | u`` (:mod:`repro.kernel.csr`)
instead of ``(u, w)`` tuples, and heights are computed inline from the
label list.

An expansion without candidate copies — every ``extra_depth=0`` query,
and any deeper one that finds none — needs no flow at all.  A leaf
feeds only expanded copies, which are then all interior and collapsed
into the sink, so each leaf is its own unit path from source to sink:
the max flow is the leaf count and the minimal min cut is the whole
leaf set.  :func:`cut_on_packed` answers such a query by counting.

Only expansions with candidates build the node-split flow network,
straight into the Edmonds-Karp :class:`~repro.comb.maxflow.FlowNetwork`.
The cut is the source side of the residual min cut, which is unique for
a given network.  ``tests/kernel/test_expand.py`` checks the tiers and
cuts (leaf counts included) against an independent node-split
reference, and ``tests/comb/test_maxflow_oracle.py`` checks the cuts
against a brute-force minimum vertex cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.comb.maxflow import INF, FlowNetwork
from repro.core.expanded import DEFAULT_MAX_COPIES, ExpansionOverflow
from repro.kernel.csr import KIND_GATE, KIND_PI, CompiledCircuit


@dataclass
class PackedExpansion:
    """The partial expanded circuit of one height query, packed.

    Copies are packed ints under the recorded ``shift``.  ``interior``
    holds the copies that *must* be inside the LUT cluster (height above
    the threshold, root included); ``candidates`` the gate copies that
    may be cut **or** absorbed (height in ``(floor, threshold]``, empty
    when ``extra_depth=0``); ``leaves`` the copies at or below the floor
    (and every PI copy at or below the threshold), fed from the flow
    source and not expanded further.  ``edges`` is a flat list of
    alternating ``child, parent`` packed copies (pairs at even offsets),
    oriented toward the root: for circuit edge ``e(x, u)`` and copy
    ``u^w`` it holds ``x^(w + w(e)), u^w``.  ``blocked`` is set when a
    PI copy sits above the threshold — no cut at this height exists (a
    PI cannot be replicated into the cluster).
    """

    root: int
    shift: int
    interior: List[int] = field(default_factory=list)
    candidates: List[int] = field(default_factory=list)
    leaves: List[int] = field(default_factory=list)
    edges: List[int] = field(default_factory=list)
    blocked: bool = False

    def unpack_copies(self, packed: Sequence[int]) -> List[Tuple[int, int]]:
        """Decode a packed copy list to ``(u, w)`` tuples."""
        mask = (1 << self.shift) - 1
        shift = self.shift
        return [(p & mask, p >> shift) for p in packed]


def expand_partial_packed(
    cc: CompiledCircuit,
    v: int,
    phi: int,
    labels: Sequence[int],
    threshold: int,
    extra_depth: int = 0,
    max_copies: int = DEFAULT_MAX_COPIES,
    name_of: Optional[Callable[[int], str]] = None,
) -> PackedExpansion:
    """Partial expansion of ``E_v`` on the compiled circuit.

    Copy heights are ``labels[u] - phi*w + 1``.  Copies above
    ``threshold`` are interior; gate copies with height in
    ``(threshold - extra_depth*phi, threshold]`` are expandable
    candidates; everything at or below that floor (and every PI copy at
    or below the threshold) is a leaf.  The CSR pin list is
    deduplicated, so the edge list never carries duplicate
    ``(child, parent)`` pairs.  ``name_of`` resolves the root's display name for the
    :class:`~repro.core.expanded.ExpansionOverflow` raised past
    ``max_copies``.
    """
    if cc.kinds[v] != KIND_GATE:
        raise ValueError("expanded circuits are rooted at gates")
    floor = threshold - extra_depth * phi
    shift = cc.shift
    mask = cc.mask
    kinds = cc.kinds
    offsets = cc.offsets
    srcs = cc.srcs
    weights = cc.weights
    root = v  # (v, 0) packs to v itself
    result = PackedExpansion(root=root, shift=shift)
    interior = result.interior
    candidates = result.candidates
    leaves = result.leaves
    edges = result.edges
    seen = {root}
    stack = [root]
    interior.append(root)
    count = 1
    while stack:
        p = stack.pop()
        u = p & mask
        w_base = p >> shift
        for i in range(offsets[u], offsets[u + 1]):
            src = srcs[i]
            w = w_base + weights[i]
            child = (w << shift) | src
            if child not in seen:
                height = labels[src] - phi * w + 1
                kind = kinds[src]
                if height > threshold:
                    if kind == KIND_PI:
                        result.blocked = True
                        return result
                    tier = 0  # interior
                elif kind == KIND_GATE and height > floor:
                    tier = 1  # candidate
                else:
                    tier = 2  # leaf
                count += 1
                if count > max_copies:
                    name = name_of(v) if name_of is not None else str(v)
                    raise ExpansionOverflow(name, max_copies)
                seen.add(child)
                if tier == 0:
                    interior.append(child)
                    stack.append(child)
                elif tier == 1:
                    candidates.append(child)
                    stack.append(child)
                else:
                    leaves.append(child)
            edges.append(child)
            edges.append(p)
    return result


def cut_on_packed(
    expansion: PackedExpansion,
    max_cut: int,
    net: Optional[FlowNetwork] = None,
) -> Optional[List[int]]:
    """Bounded-flow cut query on a packed expansion.

    Returns the packed min-cut copies sorted by ``(u, w)`` — the order
    :func:`repro.core.kcut.cut_on_expansion` hands tuple cuts on in —
    or ``None`` when the expansion is blocked or every cut needs
    more than ``max_cut`` nodes.  Without candidate copies the answer
    is the leaf set itself (see the module docstring) and no network is
    built.  Otherwise the flow runs on ``net``, a caller-owned
    :class:`~repro.comb.maxflow.FlowNetwork` that is reset first, or on
    a fresh one when it is ``None``.
    """
    if expansion.blocked:
        return None
    candidates = expansion.candidates
    leaves = expansion.leaves
    shift = expansion.shift
    mask = (1 << shift) - 1
    if not candidates:
        # Leaf-only expansion: every leaf feeds interior copies only, so
        # each is its own unit path to the sink.  The max flow is the
        # leaf count and the minimal min cut is the whole leaf set.
        if len(leaves) > max_cut:
            return None
        return sorted(leaves, key=lambda p: (p & mask, p >> shift))
    if net is None:
        net = FlowNetwork()
    net.reset()
    index: Dict[int, int] = {}
    source = net.add_node()
    sink = net.add_node()
    # Node-split construction: copy j gets
    # the consecutive pair (inp, out) = (2 + 2j, 3 + 2j); interior
    # copies get an uncuttable INF split edge and collapse into the
    # sink, leaves hang off the source.
    for p in expansion.interior:
        a = net.add_node()
        b = net.add_node()
        index[p] = a
        net.add_edge(a, b, INF)
        net.add_edge(a, sink, INF)
    for p in candidates:
        a = net.add_node()
        b = net.add_node()
        index[p] = a
        net.add_edge(a, b, 1)
    for p in leaves:
        a = net.add_node()
        b = net.add_node()
        index[p] = a
        net.add_edge(a, b, 1)
        net.add_edge(source, a, INF)
    edges = expansion.edges
    for i in range(0, len(edges), 2):
        # out half of the child -> inp half of the parent
        net.add_edge(index[edges[i]] + 1, index[edges[i + 1]], INF)
    if net.max_flow(source, sink, max_cut) > max_cut:
        return None
    reach = net.residual_reachable(source)
    cut = [
        p
        for p in candidates
        if index[p] in reach and index[p] + 1 not in reach
    ]
    cut.extend(
        p for p in leaves if index[p] in reach and index[p] + 1 not in reach
    )
    cut.sort(key=lambda p: (p & mask, p >> shift))
    return cut
