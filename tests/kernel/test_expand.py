"""Packed expansion / packed cut queries against independent references.

The compiled kernel is the only expansion and cut implementation, so
these tests check it against the *object* reference built here: a
tuple-copy expansion that walks ``SeqCircuit.fanins`` (not the CSR
arrays) with the paper's tier rules, and a tuple-keyed node-split
:class:`~repro.comb.maxflow.SplitNetwork` built from the unpacked tiers
— a separate flow-network construction from ``cut_on_packed``'s
flat-array one.  The EK and Dinic arenas are also checked against each
other on every bbara gate.
"""

import pytest

from repro.bench import suite as bench_suite
from repro.comb.maxflow import SplitNetwork
from repro.core.expanded import ExpansionOverflow
from repro.core.labels import LabelSolver
from repro.kernel.csr import KIND_GATE
from repro.kernel.expand import (
    PackedCutArena,
    cut_on_packed,
    expand_partial_packed,
)
from repro.netlist.graph import NodeKind


def _solved(name, k=5):
    """A suite circuit with its labels at the smallest feasible phi."""
    circuit = bench_suite.build(name)
    phi = 1
    while True:
        outcome = LabelSolver(circuit, k, phi, flow="ek").run()
        if outcome.feasible:
            return circuit, phi, outcome.labels
        phi += 1


@pytest.fixture(scope="module")
def solved_bbara():
    return _solved("bbara")


def _reference_expansion(
    circuit, v, phi, labels, threshold, extra_depth=0, max_copies=None
):
    """Tiers and edges of ``E_v`` from the object graph, as tuple sets.

    Returns ``None`` when a PI copy sits above the threshold (blocked);
    raises :class:`ExpansionOverflow` past ``max_copies`` copies.
    """
    floor = threshold - extra_depth * phi
    tiers = {(v, 0): "interior"}
    edges = set()
    stack = [(v, 0)]
    while stack:
        u, w = stack.pop()
        for pin in circuit.fanins(u):
            child = (pin.src, w + pin.weight)
            edges.add((child, (u, w)))
            if child in tiers:
                continue
            height = labels[pin.src] - phi * child[1] + 1
            kind = circuit.kind(pin.src)
            if height > threshold:
                if kind is NodeKind.PI:
                    return None
                tiers[child] = "interior"
                stack.append(child)
            elif kind is NodeKind.GATE and height > floor:
                tiers[child] = "candidate"
                stack.append(child)
            else:
                tiers[child] = "leaf"
            if max_copies is not None and len(tiers) > max_copies:
                raise ExpansionOverflow(circuit.name_of(v), max_copies)
    by_tier = {"interior": set(), "candidate": set(), "leaf": set()}
    for copy, tier in tiers.items():
        by_tier[tier].add(copy)
    return by_tier, edges


def _reference_cut(expansion, max_cut, flow="ek"):
    """Min-cut of a packed expansion on a tuple-keyed SplitNetwork."""
    if expansion.blocked:
        return None
    interior = expansion.unpack_copies(expansion.interior)
    candidates = expansion.unpack_copies(expansion.candidates)
    leaves = expansion.unpack_copies(expansion.leaves)
    pairs = expansion.unpack_copies(expansion.edges)
    if not candidates and not leaves:
        return []
    net = SplitNetwork(flow=flow)
    for copy in interior:
        net.add_dag_node(copy, cuttable=False)
        net.attach_sink(copy)
    for copy in candidates:
        net.add_dag_node(copy, cuttable=True)
    for copy in leaves:
        net.add_dag_node(copy, cuttable=True)
        net.attach_source(copy)
    for i in range(0, len(pairs), 2):
        net.add_dag_edge(pairs[i], pairs[i + 1])
    if net.max_flow(max_cut) > max_cut:
        return None
    return sorted(net.cut_nodes())


def _copy_set(expansion, copies):
    return set(expansion.unpack_copies(copies))


class TestExpansionDifferential:
    @pytest.mark.parametrize("extra_depth", [0, 1])
    def test_tiers_and_edges_match(self, solved_bbara, extra_depth):
        circuit, phi, labels = solved_bbara
        cc = circuit.compiled()
        for v in circuit.gates:
            threshold = labels[v]
            ref = _reference_expansion(
                circuit, v, phi, labels, threshold, extra_depth
            )
            packed = expand_partial_packed(
                cc, v, phi, labels, threshold, extra_depth
            )
            assert packed.blocked == (ref is None)
            if packed.blocked:
                # A blocked query stops at the PI: it never drags the PI
                # (or anything behind it) into the cluster.
                assert all(
                    circuit.kind(u) is not NodeKind.PI
                    for u, _w in packed.unpack_copies(packed.interior)
                )
                continue
            tiers, edges = ref
            assert _copy_set(packed, packed.interior) == tiers["interior"]
            assert _copy_set(packed, packed.candidates) == tiers["candidate"]
            assert _copy_set(packed, packed.leaves) == tiers["leaf"]
            pairs = packed.unpack_copies(packed.edges)
            packed_edges = [
                (pairs[i], pairs[i + 1]) for i in range(0, len(pairs), 2)
            ]
            assert len(packed_edges) == len(set(packed_edges))
            assert set(packed_edges) == edges

    def test_root_must_be_gate(self, solved_bbara):
        circuit, phi, labels = solved_bbara
        cc = circuit.compiled()
        pi = circuit.pis[0]
        with pytest.raises(ValueError, match="rooted at gates"):
            expand_partial_packed(cc, pi, phi, labels, 1)

    def test_overflow_matches_object_engine(self, solved_bbara):
        circuit, phi, labels = solved_bbara
        cc = circuit.compiled()
        for v in circuit.gates:
            threshold = labels[v]
            try:
                _reference_expansion(
                    circuit, v, phi, labels, threshold, max_copies=3
                )
                overflowed = False
            except ExpansionOverflow:
                overflowed = True
            if not overflowed:
                continue
            with pytest.raises(ExpansionOverflow):
                expand_partial_packed(
                    cc, v, phi, labels, threshold, max_copies=3
                )
            return
        pytest.skip("no gate overflows at max_copies=3")


class TestCutDifferential:
    @pytest.mark.parametrize("flow", ["dinic", "ek"])
    def test_cuts_match_object_engine(self, solved_bbara, flow):
        """Packed cuts equal the SplitNetwork reference on every gate."""
        circuit, phi, labels = solved_bbara
        cc = circuit.compiled()
        k = 5
        arena = PackedCutArena(flow=flow)
        compared = 0
        for v in circuit.gates:
            packed = expand_partial_packed(cc, v, phi, labels, labels[v])
            ref_cut = _reference_cut(packed, k)
            packed_cut = cut_on_packed(packed, k, arena=arena)
            if packed_cut is None:
                assert ref_cut is None
            else:
                assert packed.unpack_copies(packed_cut) == ref_cut
                compared += 1
        assert compared > 0

    @pytest.mark.parametrize("extra_depth", [0, 1])
    def test_ek_matches_dinic_on_every_gate(self, solved_bbara, extra_depth):
        """The two flow arenas return the same cut on every bbara gate,
        at the label threshold and one level below it."""
        circuit, phi, labels = solved_bbara
        cc = circuit.compiled()
        ek = PackedCutArena(flow="ek")
        dinic = PackedCutArena(flow="dinic")
        for v in circuit.gates:
            for threshold in (labels[v], labels[v] - 1):
                packed = expand_partial_packed(
                    cc, v, phi, labels, threshold, extra_depth
                )
                for max_cut in (2, 5, 15):
                    assert cut_on_packed(packed, max_cut, ek) == cut_on_packed(
                        packed, max_cut, dinic
                    ), (circuit.name_of(v), threshold, max_cut)

    def test_limit_agreement(self, solved_bbara):
        """Tight max_cut: packed and reference agree on None-vs-cut, and
        the returned cuts are identical."""
        circuit, phi, labels = solved_bbara
        cc = circuit.compiled()
        for max_cut in (1, 2):
            for v in circuit.gates[:40]:
                packed = expand_partial_packed(cc, v, phi, labels, labels[v])
                ref_cut = _reference_cut(packed, max_cut, flow="dinic")
                packed_cut = cut_on_packed(packed, max_cut)
                if ref_cut is None:
                    assert packed_cut is None
                else:
                    assert packed.unpack_copies(packed_cut) == ref_cut

    def test_bad_flow_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown flow engine"):
            PackedCutArena(flow="bogus")

    def test_ek_arena_counters_are_zero(self):
        arena = PackedCutArena(flow="ek")
        assert arena.drain_counters() == (0, 0)

    def test_gate_kind_codes_agree(self, solved_bbara):
        circuit, _, _ = solved_bbara
        cc = circuit.compiled()
        gates = {u for u in range(cc.n) if cc.kinds[u] == KIND_GATE}
        assert gates == set(circuit.gates)
