"""Packed expansion / packed cut queries against independent references.

The compiled kernel is the only expansion and cut implementation, so
these tests check it against the *object* reference built here: a
tuple-copy expansion that walks ``SeqCircuit.fanins`` (not the CSR
arrays) with the paper's tier rules, and a tuple-keyed node-split
:class:`~repro.comb.maxflow.SplitNetwork` built from the unpacked tiers
— a separate flow-network construction from ``cut_on_packed``'s
flat-array one.  The reference runs the flow on every query, so it also
checks ``cut_on_packed``'s leaf-count answer for expansions without
candidate copies.  ``tests/comb/test_maxflow_oracle.py`` checks the
same cuts against a brute-force minimum vertex cut.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import suite as bench_suite
from repro.comb.maxflow import FlowNetwork, SplitNetwork
from repro.core.expanded import ExpansionOverflow
from repro.core.labels import LabelSolver
from repro.kernel.csr import KIND_GATE
from repro.kernel.expand import cut_on_packed, expand_partial_packed
from repro.netlist.graph import NodeKind
from tests.helpers import random_seq_circuit


def _min_phi_labels(circuit, k=5, extra_depth=0):
    """The smallest feasible phi of ``circuit`` and its labels."""
    phi = 1
    while True:
        outcome = LabelSolver(circuit, k, phi, extra_depth=extra_depth).run()
        if outcome.feasible:
            return phi, outcome.labels
        phi += 1


def _solved(name, k=5):
    """A suite circuit with its labels at the smallest feasible phi."""
    circuit = bench_suite.build(name)
    return (circuit, *_min_phi_labels(circuit, k))


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


def _reference_cut(expansion, max_cut):
    """Min-cut of a packed expansion on a tuple-keyed SplitNetwork."""
    if expansion.blocked:
        return None
    interior = expansion.unpack_copies(expansion.interior)
    candidates = expansion.unpack_copies(expansion.candidates)
    leaves = expansion.unpack_copies(expansion.leaves)
    pairs = expansion.unpack_copies(expansion.edges)
    if not candidates and not leaves:
        return []
    net = SplitNetwork()
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
    def test_cuts_match_object_engine(self, solved_bbara):
        """Packed cuts equal the SplitNetwork reference on every gate,
        on a reused caller-owned network."""
        circuit, phi, labels = solved_bbara
        cc = circuit.compiled()
        k = 5
        net = FlowNetwork()
        compared = 0
        for v in circuit.gates:
            packed = expand_partial_packed(cc, v, phi, labels, labels[v], 1)
            ref_cut = _reference_cut(packed, k)
            packed_cut = cut_on_packed(packed, k, net)
            if packed_cut is None:
                assert ref_cut is None
            else:
                assert packed.unpack_copies(packed_cut) == ref_cut
                compared += 1
        assert compared > 0

    def test_limit_agreement(self, solved_bbara):
        """Tight max_cut: packed and reference agree on None-vs-cut, and
        the returned cuts are identical."""
        circuit, phi, labels = solved_bbara
        cc = circuit.compiled()
        for max_cut in (1, 2):
            for v in circuit.gates[:40]:
                packed = expand_partial_packed(cc, v, phi, labels, labels[v])
                ref_cut = _reference_cut(packed, max_cut)
                packed_cut = cut_on_packed(packed, max_cut)
                if ref_cut is None:
                    assert packed_cut is None
                else:
                    assert packed.unpack_copies(packed_cut) == ref_cut

    def test_bad_flow_engine_rejected(self, solved_bbara):
        """One max-flow engine: the kernel has no engine selector left,
        so any flow engine argument is rejected."""
        import repro.kernel

        circuit, phi, labels = solved_bbara
        v = circuit.gates[0]
        packed = expand_partial_packed(
            circuit.compiled(), v, phi, labels, labels[v], 1
        )
        with pytest.raises(TypeError, match="flow"):
            cut_on_packed(packed, 5, flow="ek")
        assert "PackedCutArena" not in repro.kernel.__all__
        assert "DinicNetwork" not in repro.kernel.__all__

    def test_gate_kind_codes_agree(self, solved_bbara):
        circuit, _, _ = solved_bbara
        cc = circuit.compiled()
        gates = {u for u in range(cc.n) if cc.kinds[u] == KIND_GATE}
        assert gates == set(circuit.gates)


def _assert_cuts_match_reference(circuit, phi, labels, extra_depth, max_cuts):
    """``cut_on_packed`` equals the reference on every gate at the
    thresholds ``l(v)`` and ``l(v) - 1``; returns the queries compared
    (leaf-only, with candidates)."""
    cc = circuit.compiled()
    leaf_only = with_candidates = 0
    for v in circuit.gates:
        for threshold in (labels[v], labels[v] - 1):
            packed = expand_partial_packed(
                cc, v, phi, labels, threshold, extra_depth
            )
            if packed.candidates:
                with_candidates += 1
            else:
                leaf_only += 1
            for max_cut in max_cuts:
                ref_cut = _reference_cut(packed, max_cut)
                packed_cut = cut_on_packed(packed, max_cut)
                tag = (circuit.name_of(v), threshold, max_cut)
                if ref_cut is None:
                    assert packed_cut is None, tag
                else:
                    assert packed_cut is not None, tag
                    assert packed.unpack_copies(packed_cut) == ref_cut, tag
    return leaf_only, with_candidates


class TestLeafOnlyShortcut:
    """Expansions without candidate copies are answered by a leaf count;
    the reference still runs a flow on each of them."""

    @pytest.mark.parametrize("extra_depth", [0, 1])
    @pytest.mark.parametrize("name", ["bbara", "keyb", "s838"])
    def test_cuts_match_reference_on_every_gate(self, name, extra_depth):
        circuit, phi, labels = _solved(name)
        leaf_only, with_candidates = _assert_cuts_match_reference(
            circuit, phi, labels, extra_depth, (1, 2, 5, 15)
        )
        assert leaf_only > 0
        if extra_depth == 0:
            assert with_candidates == 0
        else:
            assert with_candidates > 0

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.sampled_from([2, 3, 5]),
        extra_depth=st.sampled_from([0, 1]),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_circuits_match_reference(self, seed, k, extra_depth):
        circuit = random_seq_circuit(3, 12, seed=seed, feedback=3)
        phi, labels = _min_phi_labels(circuit, k, extra_depth)
        _assert_cuts_match_reference(
            circuit, phi, labels, extra_depth, (1, k, k + 1)
        )

    def test_leaf_only_queries_build_no_network(
        self, solved_bbara, monkeypatch
    ):
        circuit, phi, labels = solved_bbara
        cc = circuit.compiled()
        net = FlowNetwork()

        def no_network(*args, **kwargs):
            raise AssertionError("a leaf-only query built a flow network")

        monkeypatch.setattr("repro.kernel.expand.FlowNetwork", no_network)
        answered = 0
        for v in circuit.gates:
            for threshold in (labels[v], labels[v] - 1):
                packed = expand_partial_packed(cc, v, phi, labels, threshold)
                assert not packed.candidates
                for max_cut in (2, 5):
                    cut_on_packed(packed, max_cut)
                    cut_on_packed(packed, max_cut, net)
                    answered += 1
        assert answered > 0
        assert net.num_nodes == 0
