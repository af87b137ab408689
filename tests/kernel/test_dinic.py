"""Unit cases first written for the retired level-graph (Dinic) engine.

They pin down the network API every max-flow engine had to honour, so
they stay under their original names and now run on
:class:`~repro.comb.maxflow.FlowNetwork`, the one engine.  The
brute-force cut oracle in ``tests/comb/test_maxflow_oracle.py``
replaces the old engine-vs-engine differential.
"""

from repro.comb.maxflow import FlowNetwork


class TestDinicNetwork:
    def test_simple_max_flow(self):
        net = FlowNetwork()
        s, a, b, t = (net.add_node() for _ in range(4))
        net.add_edge(s, a, 1)
        net.add_edge(s, b, 1)
        net.add_edge(a, t, 1)
        net.add_edge(b, t, 1)
        assert net.max_flow(s, t, limit=10) == 2

    def test_limit_cutoff_reports_more_than_limit(self):
        net = FlowNetwork()
        s, t = net.add_node(), net.add_node()
        for _ in range(5):
            m = net.add_node()
            net.add_edge(s, m, 1)
            net.add_edge(m, t, 1)
        assert net.max_flow(s, t, limit=2) > 2

    def test_zero_flow(self):
        net = FlowNetwork()
        s, t = net.add_node(), net.add_node()
        net.add_node()
        assert net.max_flow(s, t, limit=5) == 0

    def test_residual_reachable_is_source_side(self):
        net = FlowNetwork()
        s, a, t = (net.add_node() for _ in range(3))
        net.add_edge(s, a, 5)
        e = net.add_edge(a, t, 1)
        assert net.max_flow(s, t, limit=10) == 1
        reach = net.residual_reachable(s)
        assert s in reach and a in reach and t not in reach
        assert net.edge_flow(e) == 1
