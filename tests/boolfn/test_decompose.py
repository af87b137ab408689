"""Tests for Roth-Karp decomposition and deadline-driven LUT-tree synthesis."""

import dataclasses
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compat import default_rng
from repro.boolfn.decompose import (
    _lut_tree,
    disjoint_decompose,
    synthesize_lut_tree,
)
from repro.boolfn.truthtable import TruthTable

tables = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.builds(
        TruthTable,
        st.just(n),
        st.integers(min_value=0, max_value=(1 << (1 << n)) - 1),
    )
)


def xor_of(n):
    t = TruthTable.const(n, False)
    for i in range(n):
        t = t ^ TruthTable.var(i, n)
    return t


def and_of(n):
    t = TruthTable.const(n, True)
    for i in range(n):
        t = t & TruthTable.var(i, n)
    return t


def gate_tree_of(n, rnd):
    """A decomposable function: a random AND/OR/XOR chain over n vars."""
    f = TruthTable.var(0, n)
    for i in range(1, n):
        v = TruthTable.var(i, n)
        f = {"and": f & v, "or": f | v, "xor": f ^ v}[
            rnd.choice(["and", "or", "xor"])
        ]
    return f


class TestDisjointDecompose:
    def test_and_gate_decomposes(self):
        f = and_of(6)
        step = disjoint_decompose(f, [0, 1, 2])
        assert step is not None
        assert len(step.alphas) == 1  # mu = 2
        assert step.recompose(6) == f

    def test_xor_decomposes(self):
        f = xor_of(5)
        step = disjoint_decompose(f, [0, 1, 2])
        assert step is not None
        assert len(step.alphas) == 1
        assert step.recompose(5) == f

    def test_majority_does_not_gain(self):
        maj = TruthTable.from_function(3, lambda a, b, c: a + b + c >= 2)
        # mu = 3 -> t = 2 = |bound|: no support reduction, so refuse.
        assert disjoint_decompose(maj, [0, 1]) is None

    def test_image_layout(self):
        f = and_of(4)
        step = disjoint_decompose(f, [0, 1])
        assert step is not None
        # alpha = x0 & x1 (or its complement); image has vars
        # [code, x2, x3]
        assert step.image.n == 3
        assert step.recompose(4) == f

    @given(tables, st.data())
    @settings(max_examples=150)
    def test_recompose_exact(self, t, data):
        b = data.draw(st.integers(min_value=2, max_value=t.n - 1)) if t.n > 2 else 2
        bound = sorted(
            data.draw(
                st.sets(
                    st.integers(min_value=0, max_value=t.n - 1),
                    min_size=min(b, t.n),
                    max_size=min(b, t.n),
                )
            )
        )
        step = disjoint_decompose(t, bound)
        if step is not None:
            assert step.recompose(t.n) == t

    def test_mu_one_bound(self):
        # Function ignoring the bound set entirely: mu = 1, one constant alpha.
        f = TruthTable.var(2, 3)
        step = disjoint_decompose(f, [0, 1])
        assert step is not None
        assert step.recompose(3) == f


class TestLutTree:
    def test_single_lut(self):
        f = and_of(3)
        tree = synthesize_lut_tree(f, [0, 0, 0], k=4, deadline=1)
        assert tree is not None
        assert len(tree.luts) == 1
        assert tree.to_truthtable() == f

    def test_deadline_too_tight(self):
        f = and_of(3)
        assert synthesize_lut_tree(f, [5, 0, 0], k=4, deadline=3) is None

    def test_wide_and_needs_two_levels(self):
        f = and_of(6)
        tree = synthesize_lut_tree(f, [0] * 6, k=4, deadline=2)
        assert tree is not None
        assert tree.to_truthtable() == f
        assert tree.max_fanin() <= 4
        assert tree.root_ready([0] * 6) <= 2

    def test_wide_xor(self):
        f = xor_of(8)
        tree = synthesize_lut_tree(f, [0] * 8, k=3, deadline=3)
        assert tree is not None
        assert tree.to_truthtable() == f
        assert tree.max_fanin() <= 3

    def test_respects_late_arrival(self):
        # x5 arrives at time 2; everything else at 0.  Root deadline 3 forces
        # x5 to sit near the root.
        f = and_of(6)
        arrival = [0, 0, 0, 0, 0, 2]
        tree = synthesize_lut_tree(f, arrival, k=4, deadline=3)
        assert tree is not None
        assert tree.root_ready(arrival) <= 3
        assert tree.to_truthtable() == f

    def test_negative_arrivals(self):
        f = and_of(5)
        arrival = [-3, -2, -1, 0, 0]
        tree = synthesize_lut_tree(f, arrival, k=4, deadline=1)
        assert tree is not None
        assert tree.root_ready(arrival) <= 1
        assert tree.to_truthtable() == f

    def test_nondecomposable_fails_gracefully(self):
        rng = default_rng(0)
        # A random function of 6 vars is almost surely not decomposable
        # with small multiplicity; with k=5 and no slack it must fail.
        f = TruthTable.random(6, rng)
        while len(f.support()) < 6:  # pragma: no cover - unlikely
            f = TruthTable.random(6, rng)
        result = synthesize_lut_tree(f, [0] * 6, k=5, deadline=1)
        assert result is None

    def test_constant_function(self):
        f = TruthTable.const(4, True)
        tree = synthesize_lut_tree(f, [0] * 4, k=4, deadline=1)
        assert tree is not None
        assert tree.to_truthtable() == f

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            synthesize_lut_tree(and_of(2), [0, 0], k=1, deadline=5)

    @given(
        st.integers(min_value=3, max_value=9),
        st.integers(min_value=3, max_value=5),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_synthesized_trees_are_exact(self, n, k, rnd):
        f = gate_tree_of(n, rnd)
        tree = synthesize_lut_tree(f, [0] * n, k=k, deadline=8)
        assert tree is not None
        assert tree.to_truthtable() == f
        assert tree.max_fanin() <= k
        ready = tree.root_ready([0] * n)
        assert ready <= 8


@st.composite
def synthesis_cases(draw, max_vars=7):
    """(f, arrival, k, deadline): decomposable or random functions with
    skewed arrivals around a deadline."""
    n = draw(st.integers(min_value=1, max_value=max_vars))
    if draw(st.booleans()):
        f = gate_tree_of(n, draw(st.randoms(use_true_random=False)))
    else:
        f = TruthTable(n, draw(st.integers(0, (1 << (1 << n)) - 1)))
    arrival = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    k = draw(st.integers(min_value=2, max_value=5))
    deadline = draw(st.integers(min_value=-2, max_value=6))
    return f, arrival, k, deadline


uncached = _lut_tree.__wrapped__


class TestDecompositionMemo:
    """The memo keys on arrivals relative to the deadline; these pin the
    shift invariance that makes that exact, and memo-on == memo-off."""

    @given(synthesis_cases(), st.integers(min_value=-6, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_uncached_loop_is_shift_invariant(self, case, c):
        f, arrival, k, deadline = case
        if f.is_const():
            return  # the constant branch compares against 1: not shiftable
        shifted = tuple(a + c for a in arrival)
        assert uncached(f, shifted, k, deadline + c) == uncached(
            f, tuple(arrival), k, deadline
        )

    @pytest.mark.parametrize("value", [False, True])
    def test_constant_function_boundary(self, value):
        f = TruthTable.const(3, value)
        arrival = [4, -2, 0]
        _lut_tree.cache_clear()
        for deadline in (0, 1, 0, -5, 9, 1):
            tree = synthesize_lut_tree(f, arrival, k=4, deadline=deadline)
            if deadline < 1:
                assert tree is None
            else:
                assert tree is not None
                assert tree.to_truthtable() == f
        # The repeated deadlines 0 and 1 were answered from the memo,
        # each with its own answer.
        assert _lut_tree.cache_info().hits == 2

    @given(synthesis_cases(max_vars=12))
    @settings(max_examples=80, deadline=None)
    def test_memo_matches_uncached_function(self, case):
        f, arrival, k, deadline = case
        want = uncached(f, tuple(arrival), k, deadline)
        assert synthesize_lut_tree(f, arrival, k, deadline) == want
        # The second call answers from the memo.
        assert synthesize_lut_tree(f, arrival, k, deadline) == want
        if want is not None:
            assert want.to_truthtable() == f
            assert want.root_ready(arrival) <= deadline

    def test_validation_runs_ahead_of_a_warm_memo(self):
        f = and_of(3)
        assert synthesize_lut_tree(f, [0, 0, 0], k=3, deadline=1) is not None
        with pytest.raises(ValueError, match="k must be"):
            synthesize_lut_tree(f, [0, 0, 0], k=1, deadline=1)
        with pytest.raises(ValueError, match="length mismatch"):
            synthesize_lut_tree(f, [0, 0], k=3, deadline=1)

    def test_threads_sharing_the_memo_get_exact_answers(self):
        # Service lanes call the memo from several threads at once: with
        # a tiny switch interval and more threads than cores, every
        # answer must still equal the uncached loop's.
        rnd = random.Random(7)
        cases = []
        for _ in range(40):
            n = rnd.randint(3, 8)
            f = gate_tree_of(n, rnd)
            arrival = tuple(rnd.randint(-2, 2) for _ in range(n))
            cases.append((f, arrival, rnd.randint(2, 5), rnd.randint(0, 4)))
        want = [uncached(*case) for case in cases]
        errors = []

        def worker(seed):
            order = list(range(len(cases)))
            random.Random(seed).shuffle(order)
            for _ in range(5):
                for i in order:
                    if synthesize_lut_tree(*cases[i]) != want[i]:
                        errors.append(i)

        _lut_tree.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_shared_trees_are_frozen(self):
        tree = synthesize_lut_tree(and_of(6), [0] * 6, k=4, deadline=2)
        assert synthesize_lut_tree(and_of(6), [3] * 6, k=4, deadline=5) is tree
        assert isinstance(tree.luts, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree.luts = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree.luts[0].inputs = ()
