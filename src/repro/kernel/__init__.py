"""Flat-array compute kernels for the hot mapping loops.

Every height-cut query — the label solve, the resynthesis min-cut
descent, mapping generation and area recovery — runs two inner
kernels, executed O(n*K) times per feasibility probe: the partial
expanded-circuit construction and the bounded max-flow cut query.  This
package runs both end to end on flat integer arrays:

* :mod:`repro.kernel.csr` — :class:`CompiledCircuit`: the circuit's
  fanin structure compiled once into CSR arrays (offsets, sources,
  weights, node kinds) with a packed-int copy encoding
  ``(u, w) -> (w << shift) | u`` replacing tuple keys, plus a compact
  byte serialization for cheap worker handoff;
* :mod:`repro.kernel.dinic` — :class:`DinicNetwork`: level-graph
  max-flow with the current-arc optimization on preallocated flat
  arrays (``O(E * sqrt(V))`` on the unit-capacity split networks the
  cut queries build, versus Edmonds-Karp's ``O((K+1) * E)``);
* :mod:`repro.kernel.expand` — :func:`expand_partial_packed` /
  :class:`PackedExpansion` / :class:`PackedCutArena`: the height-query
  expansion (interior, candidate and leaf tiers) and the node-split cut
  computation on packed copies;
* :mod:`repro.kernel.share` — :class:`CsrHandle`: zero-copy publication
  of the compiled arrays to probe worker processes (inline bytes or
  ``multiprocessing.shared_memory``) and packed label vectors.

There is one expansion and one cut implementation.  Production label
solving runs it with the Dinic flow; :class:`repro.core.labels.LabelSolver`
(and ``probe_phi`` / ``search_min_phi``) keep ``engine="rounds"`` and
``flow="ek"`` only as test oracles, and ``tests/kernel`` asserts that
all four engine/flow combinations produce bit-identical labels, cuts,
and mappings.
"""

from repro.kernel.csr import (
    KIND_GATE,
    KIND_PI,
    KIND_PO,
    CompiledCircuit,
    compile_circuit,
)
from repro.kernel.dinic import DinicNetwork
from repro.kernel.expand import (
    PackedCutArena,
    PackedExpansion,
    cut_on_packed,
    expand_partial_packed,
)
from repro.kernel.share import (
    CsrHandle,
    pack_labels,
    publish_csr,
    unpack_labels,
)

__all__ = [
    "KIND_GATE",
    "KIND_PI",
    "KIND_PO",
    "CompiledCircuit",
    "compile_circuit",
    "DinicNetwork",
    "PackedCutArena",
    "PackedExpansion",
    "cut_on_packed",
    "expand_partial_packed",
    "CsrHandle",
    "pack_labels",
    "publish_csr",
    "unpack_labels",
]
