"""Flat-array compute kernels for the hot mapping loops.

Every height-cut query — the label solve, the resynthesis min-cut
descent, mapping generation and area recovery — runs two inner
kernels, executed O(n*K) times per feasibility probe: the partial
expanded-circuit construction and the bounded cut query.  This package
runs both end to end on flat integer arrays:

* :mod:`repro.kernel.csr` — :class:`CompiledCircuit`: the circuit's
  fanin structure compiled once into CSR arrays (offsets, sources,
  weights, node kinds) with a packed-int copy encoding
  ``(u, w) -> (w << shift) | u`` replacing tuple keys, plus a compact
  byte serialization for cheap worker handoff;
* :mod:`repro.kernel.expand` — :func:`expand_partial_packed` /
  :class:`PackedExpansion` / :func:`cut_on_packed`: the height-query
  expansion (interior, candidate and leaf tiers) and the cut query on
  packed copies.  A query without candidate copies (every
  ``extra_depth=0`` query) is a leaf count; the rest build a node-split
  network on the Edmonds-Karp :class:`repro.comb.maxflow.FlowNetwork`,
  the one max-flow engine;
* :mod:`repro.kernel.share` — :class:`CsrHandle`: zero-copy publication
  of the compiled arrays to probe worker processes (inline bytes or
  ``multiprocessing.shared_memory``) and packed label vectors.

There is one expansion and one cut implementation.
:class:`repro.core.labels.LabelSolver` (and ``probe_phi`` /
``search_min_phi``) keep the paper's ``engine="rounds"`` sweep as a
test oracle next to the production worklist engine; ``tests/kernel``
compares the two at K=5, where they agree.  They are not identical at
every K: at K=3 some probes differ.
"""

from repro.kernel.csr import (
    KIND_GATE,
    KIND_PI,
    KIND_PO,
    CompiledCircuit,
    compile_circuit,
)
from repro.kernel.expand import (
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
    "PackedExpansion",
    "cut_on_packed",
    "expand_partial_packed",
    "CsrHandle",
    "pack_labels",
    "publish_csr",
    "unpack_labels",
]
