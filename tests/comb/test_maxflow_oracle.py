"""The max-flow engine against a brute-force minimum vertex cut.

A node-split network over a DAG has only two kinds of finite edges: the
unit split edges of cuttable nodes.  So its max flow is the size of the
smallest set of cuttable nodes whose removal disconnects the source
from the sink, and its minimum cuts are exactly those node sets.  The
oracle below finds them by enumerating candidate sets in order of size,
up to ``limit``, with no flow at all: each set grows by one node of a
path the set still leaves open.  Among the minimum sets it picks
the one whose source side is contained in every other's: the source
side of the residual min cut, which :class:`FlowNetwork`,
:class:`SplitNetwork` and :func:`cut_on_packed` all report.

The trials cover tiny random split networks and every bbara expansion
at ``extra_depth`` 0 and 1, plus the bounded ``limit`` contract and
network reuse after :meth:`FlowNetwork.reset`.
"""

import random

import pytest

from repro.bench import suite as bench_suite
from repro.comb.maxflow import FlowNetwork, SplitNetwork
from repro.core.labels import LabelSolver
from repro.kernel.expand import cut_on_packed, expand_partial_packed

BIG = 1 << 20


def _reach(spec, removed):
    """Nodes whose input half the source reaches with ``removed`` cut,
    and whether the sink is reached.

    ``spec`` is ``(succ, sources, sink_side)``: DAG successor lists,
    the source-attached nodes, and the nodes whose input half feeds the
    sink (the :meth:`SplitNetwork.attach_sink` construction).
    """
    succ, sources, sink_side = spec
    seen = set(sources)
    stack = list(sources)
    while stack:
        x = stack.pop()
        if x in removed or x in sink_side:
            continue
        for y in succ.get(x, ()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen, not seen.isdisjoint(sink_side)


def _path(spec, removed):
    """The cuttable-or-not nodes of one source-to-sink path avoiding the
    ``removed`` split edges, or ``None`` when there is none."""
    succ, sources, sink_side = spec
    parent = {x: None for x in sources}
    queue = list(sources)
    for x in queue:
        if x in sink_side:
            path = []
            while x is not None:
                path.append(x)
                x = parent[x]
            return path
        if x in removed:
            continue
        for y in succ.get(x, ()):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    return None


def brute_force_cut(spec, cuttable, limit):
    """``(value, cut)`` of the minimum vertex cut, or ``None`` when every
    cut needs more than ``limit`` nodes.

    Candidate sets grow one node at a time, in order of size: while the
    source still reaches the sink, every cut must remove one of the
    cuttable nodes on the path found, so branching on those nodes
    reaches every cut of at most ``limit`` nodes.  ``cut`` is the
    minimum cut with the smallest source side.
    """
    cuttable = set(cuttable)
    for size in range(limit + 1):
        cuts = set()
        visited = set()
        stack = [frozenset()]
        while stack:
            removed = stack.pop()
            if removed in visited:
                continue
            visited.add(removed)
            path = _path(spec, removed)
            if path is None:
                cuts.add(removed)
            elif len(removed) < size:
                stack.extend(removed | {x} for x in path if x in cuttable)
        if cuts:
            sides = [(_reach(spec, cut)[0], cut) for cut in cuts]
            smallest = [
                cut for side, cut in sides
                if all(side <= other for other, _ in sides)
            ]
            assert len(smallest) == 1, "minimum cuts must form a lattice"
            return size, set(smallest[0])
    return None


def _random_dag(rng):
    """A random node-split DAG spec: (n, edges, sources, sink)."""
    n = rng.randint(4, 12)
    edges = []
    for j in range(1, n):
        preds = rng.sample(range(j), k=min(j, rng.randint(1, 3)))
        edges.extend((i, j) for i in preds)
    sources = [j for j in range(n - 1) if not any(e[1] == j for e in edges)]
    return n, edges, sources or [0], n - 1


def _split_network(dag):
    n, edges, sources, sink = dag
    net = SplitNetwork()
    for x in range(n):
        net.add_dag_node(x, cuttable=(x != sink))
    for x, y in edges:
        net.add_dag_edge(x, y)
    for x in sources:
        net.attach_source(x)
    net.attach_sink(sink)
    return net


def _oracle_spec(dag):
    n, edges, sources, sink = dag
    succ = {}
    for x, y in edges:
        succ.setdefault(x, []).append(y)
    return (succ, sources, {sink}), [x for x in range(n) if x != sink]


class TestRandomSplitNetworks:
    def test_flow_and_cut_match_brute_force(self):
        """~200 random networks: flow value, cut nodes and source side."""
        rng = random.Random(20260806)
        for trial in range(200):
            dag = _random_dag(rng)
            spec, cuttable = _oracle_spec(dag)
            expected = brute_force_cut(spec, cuttable, len(cuttable))
            assert expected is not None, trial
            value, cut = expected
            net = _split_network(dag)
            assert net.max_flow(BIG) == value, trial
            assert set(net.cut_nodes()) == cut, trial
            side, _ = _reach(spec, frozenset(cut))
            assert net.source_side() == side - cut, trial

    def test_limit_cutoff_matches_brute_force(self):
        """Bounded contract: "more than limit" exactly when every cut
        needs more than ``limit`` nodes, the exact value otherwise."""
        rng = random.Random(77)
        for trial in range(100):
            dag = _random_dag(rng)
            spec, cuttable = _oracle_spec(dag)
            limit = rng.randint(0, 4)
            expected = brute_force_cut(spec, cuttable, limit)
            flow = _split_network(dag).max_flow(limit)
            if expected is None:
                assert flow > limit, trial
            else:
                assert flow == expected[0], trial


class TestNetworkReuse:
    def test_reset_reuses_scratch(self):
        net = FlowNetwork()
        for _ in range(3):
            net.reset()
            s, a, t = (net.add_node() for _ in range(3))
            net.add_edge(s, a, 2)
            net.add_edge(a, t, 1)
            assert net.max_flow(s, t, limit=10) == 1
            assert net.num_nodes == 3


def _expansion_spec(expansion):
    """The oracle spec of :func:`cut_on_packed`'s node-split network."""
    succ = {}
    edges = expansion.edges
    for i in range(0, len(edges), 2):
        succ.setdefault(edges[i], []).append(edges[i + 1])
    spec = (succ, list(expansion.leaves), set(expansion.interior))
    return spec, list(expansion.candidates) + list(expansion.leaves)


@pytest.fixture(scope="module")
def solved_bbara():
    circuit = bench_suite.build("bbara")
    phi = 1
    while True:
        outcome = LabelSolver(circuit, 5, phi).run()
        if outcome.feasible:
            return circuit, phi, outcome.labels
        phi += 1


class TestPackedCutOracle:
    @pytest.mark.parametrize("extra_depth", [0, 1])
    def test_bbara_cuts_match_brute_force(self, solved_bbara, extra_depth):
        """Every bbara gate, at the label threshold and one below it:
        ``cut_on_packed`` returns the brute-force minimum vertex cut
        with the smallest source side, or ``None`` past ``max_cut``."""
        circuit, phi, labels = solved_bbara
        cc = circuit.compiled()
        net = FlowNetwork()
        compared = flows = 0
        for v in circuit.gates:
            for threshold in (labels[v], labels[v] - 1):
                packed = expand_partial_packed(
                    cc, v, phi, labels, threshold, extra_depth
                )
                if packed.blocked:
                    assert cut_on_packed(packed, 5, net) is None
                    continue
                spec, cuttable = _expansion_spec(packed)
                for max_cut in (1, 2, 5):
                    tag = (circuit.name_of(v), threshold, max_cut)
                    expected = brute_force_cut(spec, cuttable, max_cut)
                    got = cut_on_packed(packed, max_cut, net)
                    if expected is None:
                        assert got is None, tag
                        continue
                    assert got is not None, tag
                    assert len(got) == expected[0], tag
                    assert set(got) == expected[1], tag
                    compared += 1
                    flows += bool(packed.candidates)
        assert compared > 0
        assert (flows > 0) == (extra_depth == 1)
