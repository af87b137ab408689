"""Gate decomposition: make a circuit K-bounded.

The paper assumes K-bounded input networks and points to balanced tree
decomposition [2], DMIG [4] or DOGMA [9] for wider gates.  This module is
that preprocessing stand-in: every gate with more than ``k`` fanins is
replaced by a tree of at-most-``k``-input gates.

Strategy per wide gate:

1. try the Roth-Karp LUT-tree synthesizer (bound-set grouping keeps trees
   balanced, mirroring the depth-aware intent of DMIG);
2. fall back to Shannon cofactoring (a multiplexer tree), which always
   succeeds and, for ``k = 2``, lowers the mux into AND/OR pairs.

Edge weights on the wide gate's fanins are preserved on the leaves of the
replacement tree, so sequential behaviour is untouched.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.boolfn.decompose import Lut, LutTree, synthesize_lut_tree
from repro.boolfn.truthtable import TruthTable
from repro.netlist.graph import NodeKind, SeqCircuit

#: Deadline passed to the tree synthesizer: effectively unconstrained.
_LOOSE_DEADLINE = 1 << 20

_MUX3 = TruthTable.from_function(3, lambda s, a, b: b if s else a)
_AND_POS = TruthTable.from_function(2, lambda s, b: s and b)
_AND_NEG = TruthTable.from_function(2, lambda s, a: (not s) and a)
_OR2 = TruthTable.from_function(2, lambda a, b: a or b)


def decompose_gate_function(func: TruthTable, k: int) -> LutTree:
    """A LUT tree with fanin bound ``k`` realizing ``func`` (always succeeds)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    tree = synthesize_lut_tree(func, [0] * func.n, k, _LOOSE_DEADLINE)
    if tree is not None:
        return tree
    return _shannon_tree(func, k)


def _shannon_tree(func: TruthTable, k: int) -> LutTree:
    """Multiplexer-tree decomposition by Shannon cofactoring.

    Splits on the highest essential variable until the residual support
    fits ``k``.  For ``k >= 3`` the select structure is a 3-input mux LUT;
    for ``k == 2`` the mux is lowered into three 2-input gates.
    """
    luts: List[Lut] = []

    def emit(f: TruthTable, inputs: Tuple[int, ...]) -> int:
        luts.append(Lut(f, inputs))
        return -len(luts)

    def build(current: TruthTable, leaf_map: List[int]) -> int:
        shrunk, sup = current.shrink_to_support()
        leaves = [leaf_map[i] for i in sup]
        if shrunk.n <= k:
            return emit(shrunk, tuple(leaves))
        split = shrunk.n - 1
        lo = build(shrunk.cofactor(split, 0), leaves[:split])
        hi = build(shrunk.cofactor(split, 1), leaves[:split])
        sel = leaves[split]
        if k >= 3:
            return emit(_MUX3, (sel, lo, hi))
        t1 = emit(_AND_POS, (sel, hi))
        t2 = emit(_AND_NEG, (sel, lo))
        return emit(_OR2, (t1, t2))

    build(func, list(range(func.n)))
    return LutTree(func.n, tuple(luts))


def k_bound_circuit(
    circuit: SeqCircuit, k: int, name: Optional[str] = None
) -> SeqCircuit:
    """Rebuild ``circuit`` with every gate limited to ``k`` fanins.

    Gates already within bound are copied verbatim; wider gates become
    trees of new gates named ``<gate>~d<i>``.  Two-phase construction
    keeps registered feedback intact.
    """
    out = SeqCircuit(name or circuit.name)
    new_id: Dict[int, int] = {}
    trees: Dict[int, Tuple[LutTree, List[int]]] = {}

    # Phase 1: create every node; leave fanins unwired.
    for v in circuit.node_ids():
        node = circuit.node(v)
        if node.kind is NodeKind.PI:
            new_id[v] = out.add_pi(node.name)
        elif node.kind is NodeKind.GATE:
            if len(node.fanins) <= k:
                new_id[v] = out.add_gate_placeholder(node.name, node.func)
            else:
                tree = decompose_gate_function(node.func, k)
                refs = []
                for j, lut in enumerate(tree.luts):
                    is_root = j == len(tree.luts) - 1
                    gate_name = node.name if is_root else f"{node.name}~d{j}"
                    refs.append(out.add_gate_placeholder(gate_name, lut.func))
                trees[v] = (tree, refs)
                new_id[v] = refs[-1]

    # Phase 2: wire fanins.
    for v in circuit.node_ids():
        node = circuit.node(v)
        if node.kind is NodeKind.PI:
            continue
        if node.kind is NodeKind.PO:
            pin = node.fanins[0]
            out.add_po(node.name, new_id[pin.src], pin.weight)
            continue
        if v not in trees:
            out.set_fanins(
                new_id[v], [(new_id[p.src], p.weight) for p in node.fanins]
            )
            continue
        tree, refs = trees[v]
        for j, lut in enumerate(tree.luts):
            pins = []
            for ref in lut.inputs:
                if ref >= 0:
                    pin = node.fanins[ref]
                    pins.append((new_id[pin.src], pin.weight))
                else:
                    pins.append((refs[-1 - ref], 0))
            out.set_fanins(refs[j], pins)
    out.check()
    return out


__all__ = ["decompose_gate_function", "k_bound_circuit"]
