"""Height-constrained K-feasible cuts on expanded circuits.

The TurboMap label update [11] asks: *does ``E_v`` have a K-feasible cut
of height at most ``L``?*  Following the paper, the partial expansion
(copies above the height threshold collapsed into the sink, copies at or
below it as unit-capacity candidates) turns the question into a bounded
max-flow: a cut of at most ``K`` nodes exists iff the max flow is at most
``K``, and the residual min-cut *is* the LUT input set.

The same machinery with the looser bound ``Cmax`` produces the wider
min-cuts that TurboSYN's sequential functional decomposition resynthesizes
(:mod:`repro.core.seqdecomp`).

Every query runs on the compiled kernel (:mod:`repro.kernel.expand`):
the expansion is built on the circuit's CSR arrays with packed copies,
and the cut is decoded back to ``(u, w)`` tuples here, so callers see
one cut type.  At the paper's ``extra_depth=0`` the expansion has no
candidate copies, so every leaf is a disjoint unit path to the sink:
the max flow is the leaf count and the query is answered by counting.
Only ``extra_depth >= 1`` expansions with candidates build a flow
network.

The returned min-cut is the max-volume one (closest to the source), which
makes each LUT swallow as much logic as possible — the low-cost choice
the paper uses for area.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.comb.maxflow import FlowNetwork
from repro.core.expanded import DEFAULT_MAX_COPIES, Copy
from repro.kernel.expand import (
    PackedExpansion,
    cut_on_packed,
    expand_partial_packed,
)
from repro.netlist.graph import SeqCircuit


def find_height_cut(
    circuit: SeqCircuit,
    v: int,
    phi: int,
    labels: Sequence[int],
    threshold: int,
    max_cut: int,
    extra_depth: int = 0,
    max_copies: int = DEFAULT_MAX_COPIES,
) -> Optional[List[Copy]]:
    """A cut of ``E_v`` with height ``<= threshold`` and at most
    ``max_cut`` nodes, or ``None``.

    Copy ``u^w`` has height ``labels[u] - phi*w + 1`` under the current
    label lower bounds.  The expansion itself certifies height
    feasibility (every candidate or leaf copy is at or below the
    threshold); the flow bounds the cut size.  ``extra_depth`` expands
    through candidate copies below the threshold (see
    :mod:`repro.kernel.expand`).  A query that runs a flow allocates
    its own network, so concurrent queries never share scratch state.
    """
    expansion = expand_partial_packed(
        circuit.compiled(),
        v,
        phi,
        labels,
        threshold,
        extra_depth=extra_depth,
        max_copies=max_copies,
        name_of=circuit.name_of,
    )
    return cut_on_expansion(expansion, max_cut)


def cut_on_expansion(
    expansion: PackedExpansion,
    max_cut: int,
    net: Optional[FlowNetwork] = None,
) -> Optional[List[Copy]]:
    """Answer the cut query on a prepared partial expansion.

    Returns the cut as ``(u, w)`` tuples sorted by ``(u, w)``, or
    ``None`` when the expansion is blocked or every cut needs more than
    ``max_cut`` nodes.  ``net`` recycles a caller-owned
    :class:`~repro.comb.maxflow.FlowNetwork` for the queries that run a
    flow (expansions with candidate copies).
    """
    packed = cut_on_packed(expansion, max_cut, net)
    if packed is None:
        return None
    return expansion.unpack_copies(packed)
