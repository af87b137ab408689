"""Additional coverage for LUT trees and decomposition bookkeeping."""

import pytest

from repro.boolfn.decompose import Lut, LutTree, disjoint_decompose, synthesize_lut_tree
from repro.boolfn.truthtable import TruthTable


def and_of(n):
    t = TruthTable.const(n, True)
    for i in range(n):
        t = t & TruthTable.var(i, n)
    return t


class TestLutTreeApi:
    def tree_two_level(self):
        """alpha = x0 & x1; root = alpha & x2."""
        and2 = TruthTable.from_function(2, lambda a, b: a and b)
        return LutTree(3, (Lut(and2, (0, 1)), Lut(and2, (-1, 2))))

    def test_ready_times(self):
        tree = self.tree_two_level()
        assert tree.ready_times([0, 0, 0]) == [1, 2]
        assert tree.ready_times([5, 0, 0]) == [6, 7]
        assert tree.ready_times([0, 0, 9]) == [1, 10]

    def test_depth(self):
        assert self.tree_two_level().depth() == 2

    def test_max_fanin(self):
        assert self.tree_two_level().max_fanin() == 2

    def test_root_index(self):
        assert self.tree_two_level().root == 1

    def test_to_truthtable(self):
        assert self.tree_two_level().to_truthtable() == and_of(3)

    def test_arrival_length_checked(self):
        with pytest.raises(ValueError):
            self.tree_two_level().ready_times([0, 0])


class TestDecomposeEdges:
    def test_single_variable_bound_refused(self):
        f = and_of(3)
        assert disjoint_decompose(f, [0]) is None

    def test_bad_bound_indices(self):
        f = and_of(3)
        with pytest.raises(ValueError):
            f.columns([0, 5])

    def test_arrival_mismatch(self):
        with pytest.raises(ValueError):
            synthesize_lut_tree(and_of(3), [0, 0], k=3, deadline=4)

    def test_zero_arity_function(self):
        tree = synthesize_lut_tree(TruthTable.const(0, True), [], k=2, deadline=1)
        assert tree is not None
        assert tree.to_truthtable().bits == 1

    def test_identity_passthrough(self):
        f = TruthTable.var(0, 1)
        tree = synthesize_lut_tree(f, [3], k=2, deadline=4)
        assert tree is not None
        assert tree.root_ready([3]) == 4
