"""Expanded circuits: all LUTs rooted at a node under retiming.

Pan-Liu [19] introduced the *expanded circuit* ``E_v`` to represent every
LUT that can be rooted at node ``v`` once retiming may move registers and
gates may be replicated: ``E_v`` is a DAG over *node copies* ``u^w``
("``u`` delayed by ``w`` registers") rooted at ``v^0``; for every circuit
edge ``e(x, u)`` the copy ``u^w`` has fanin ``x^(w + w(e))``.  Every path
from ``u^w`` to the root crosses exactly ``w`` registers, so a cut
``(X, X-bar)`` of ``E_v`` induces the *sequential* cone function
``f(u1^w1, ..., um^wm)`` of the paper's Figure 2, realizable as one LUT
whose input edges carry the cut weights.

The partial expansion a height query builds — interior, candidate and
leaf tiers — lives in the compiled kernel
(:func:`repro.kernel.expand.expand_partial_packed`); this module keeps
the copy type, the expansion size bound and the exact cone function of
a cut.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.boolfn.truthtable import TruthTable, eval_gate_columns
from repro.netlist.graph import NodeKind, SeqCircuit

#: A copy of circuit node ``u`` delayed by ``w`` registers.
Copy = Tuple[int, int]

#: Default safety bound on the partial-expansion size; override per query
#: (or from :class:`repro.core.labels.LabelSolver` / the CLI
#: ``--max-copies`` flag) for unusually deep circuits.
DEFAULT_MAX_COPIES = 200_000


class ExpansionOverflow(RuntimeError):
    """A partial expansion exceeded its ``max_copies`` safety bound.

    Carries the offending root node's name and the limit that was hit so
    callers (and their error reports) can point at the node instead of a
    bare message.
    """

    def __init__(self, node_name: str, max_copies: int) -> None:
        super().__init__(
            f"expanded circuit for {node_name!r} exceeds {max_copies} "
            "copies; raise max_copies if the circuit is genuinely this deep"
        )
        self.node_name = node_name
        self.max_copies = max_copies


def sequential_cone_function(
    circuit: SeqCircuit,
    root: int,
    cut: Sequence[Copy],
    max_copies: int = DEFAULT_MAX_COPIES,
) -> TruthTable:
    """Exact function of ``root^0`` over the ordered cut copies.

    The cut copies ``u^w`` act as free variables (variable ``i`` is
    ``cut[i]``); copies between the cut and the root are evaluated through
    their gate functions.  Raises when the cut does not cover the
    expansion (a PI or an unbounded regress is reached).

    The cone lies inside the partial expansion that produced ``cut``, so
    its copy count is bounded by the same ``max_copies`` the expansion
    ran under; exceeding it means the cut fails to cover the cone (an
    unbounded regress) and raises :class:`ExpansionOverflow`.
    """
    cut = list(cut)
    m = len(cut)
    if m > 20:
        raise ValueError(f"cut of {m} copies is too wide for dense evaluation")
    values: Dict[Copy, int] = {}
    for i, copy in enumerate(cut):
        values[copy] = TruthTable.var(i, m).bits

    order: List[Copy] = []
    state: Dict[Copy, int] = {}
    stack: List[Tuple[Copy, bool]] = [((root, 0), False)]
    guard = 0
    while stack:
        copy, processed = stack.pop()
        if processed:
            state[copy] = 1
            order.append(copy)
            continue
        if state.get(copy) == 1 or copy in values:
            continue
        state[copy] = 0
        stack.append((copy, True))
        u, w = copy
        if circuit.kind(u) is not NodeKind.GATE:
            raise ValueError(
                f"cut does not cover copy ({circuit.name_of(u)}, {w})"
            )
        guard += 1
        if guard > max_copies:
            raise ExpansionOverflow(circuit.name_of(root), max_copies)
        for pin in circuit.fanins(u):
            child = (pin.src, w + pin.weight)
            if child in values or state.get(child) == 1:
                continue
            stack.append((child, False))

    for copy in order:
        u, w = copy
        node = circuit.node(u)
        cols = [
            values[(pin.src, w + pin.weight)] for pin in node.fanins
        ]
        values[copy] = eval_gate_columns(node.func, cols, m)
    return TruthTable(m, values[(root, 0)])
