"""Algebraic-law property tests for truth tables (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolfn.bdd import BDD
from repro.boolfn.truthtable import TruthTable

sized_tables = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(min_value=0, max_value=(1 << (1 << n)) - 1),
    )
)


def table(args):
    return TruthTable(*args)


class TestPermutationLaws:
    @given(sized_tables, st.randoms(use_true_random=False))
    def test_permute_inverse(self, args, rnd):
        t = table(args)
        perm = list(range(t.n))
        rnd.shuffle(perm)
        inverse = [0] * t.n
        for j, p in enumerate(perm):
            inverse[p] = j
        assert t.permute(perm).permute(inverse) == t

    @given(sized_tables, st.randoms(use_true_random=False))
    def test_permute_preserves_weight(self, args, rnd):
        t = table(args)
        perm = list(range(t.n))
        rnd.shuffle(perm)
        assert t.permute(perm).count_ones() == t.count_ones()

    @given(sized_tables, st.randoms(use_true_random=False))
    def test_permute_commutes_with_negation(self, args, rnd):
        t = table(args)
        perm = list(range(t.n))
        rnd.shuffle(perm)
        assert (~t).permute(perm) == ~(t.permute(perm))


class TestExtendLaws:
    @given(sized_tables)
    def test_extend_identity(self, args):
        t = table(args)
        assert t.extend(t.n, list(range(t.n))) == t

    @given(sized_tables, st.integers(min_value=0, max_value=3))
    def test_extend_then_shrink(self, args, pad):
        t = table(args)
        n2 = t.n + pad
        extended = t.extend(n2, list(range(t.n)))
        shrunk, sup = extended.shrink_to_support()
        lifted = shrunk.extend(t.n, list(sup)) if sup else shrunk.extend(t.n, [])
        assert lifted == t

    @given(sized_tables)
    def test_extend_support_unchanged(self, args):
        t = table(args)
        extended = t.extend(t.n + 2, list(range(t.n)))
        assert extended.support() == t.support()


class TestCofactorLaws:
    @given(sized_tables, st.data())
    def test_cofactor_idempotent(self, args, data):
        t = table(args)
        i = data.draw(st.integers(min_value=0, max_value=t.n - 1))
        v = data.draw(st.integers(min_value=0, max_value=1))
        once = t.cofactor_keep(i, v)
        assert once.cofactor_keep(i, v) == once
        assert not once.depends_on(i)

    @given(sized_tables, st.data())
    def test_compose_with_var_is_identity(self, args, data):
        t = table(args)
        i = data.draw(st.integers(min_value=0, max_value=t.n - 1))
        assert t.compose(i, TruthTable.var(i, t.n)) == t

    @given(sized_tables, st.data())
    def test_compose_with_const(self, args, data):
        t = table(args)
        i = data.draw(st.integers(min_value=0, max_value=t.n - 1))
        v = data.draw(st.integers(min_value=0, max_value=1))
        composed = t.compose(i, TruthTable.const(t.n, bool(v)))
        assert composed == t.cofactor_keep(i, v)


class TestAgainstBdd:
    @given(sized_tables, sized_tables)
    @settings(max_examples=80, deadline=None)
    def test_binary_ops_agree(self, a_args, b_args):
        n = max(a_args[0], b_args[0])
        a = table(a_args).extend(n, list(range(a_args[0])))
        b = table(b_args).extend(n, list(range(b_args[0])))
        manager = BDD(n)
        fa, fb = manager.from_truthtable(a), manager.from_truthtable(b)
        assert manager.to_truthtable(manager.apply_and(fa, fb), n) == (a & b)
        assert manager.to_truthtable(manager.apply_or(fa, fb), n) == (a | b)
        assert manager.to_truthtable(manager.apply_xor(fa, fb), n) == (a ^ b)

    @given(sized_tables)
    def test_support_agrees(self, args):
        t = table(args)
        manager = BDD(t.n)
        f = manager.from_truthtable(t)
        assert manager.support(f) == set(t.support())

    @given(sized_tables)
    def test_count_agrees(self, args):
        t = table(args)
        manager = BDD(t.n)
        f = manager.from_truthtable(t)
        assert manager.sat_count(f) == t.count_ones()


@st.composite
def planted_support_tables(draw):
    """Tables of 0 to 12 variables that ignore a random subset of them."""
    n = draw(st.integers(min_value=0, max_value=12))
    support = sorted(draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)))
    support = [i for i in support if i < n]
    inner = TruthTable(
        len(support), draw(st.integers(0, (1 << (1 << len(support))) - 1))
    )
    return inner.extend(n, support)


class TestMaskSupport:
    """``depends_on``/``support`` use one mask test per variable; the
    cofactor pair is the oracle."""

    @given(planted_support_tables())
    @settings(max_examples=200, deadline=None)
    def test_depends_on_matches_cofactor_oracle(self, t):
        oracle = [
            t.cofactor_keep(i, 0) != t.cofactor_keep(i, 1) for i in range(t.n)
        ]
        assert [t.depends_on(i) for i in range(t.n)] == oracle
        assert t.support() == tuple(i for i in range(t.n) if oracle[i])

    @pytest.mark.parametrize("n", range(0, 7))
    def test_variable_masks_select_the_x_i_rows(self, n):
        for i in range(n):
            rows = sum(1 << a for a in range(1 << n) if (a >> i) & 1)
            assert TruthTable.var(i, n).bits == rows

    @pytest.mark.parametrize("n", [0, 1, 5, 12])
    def test_out_of_range_index_raises(self, n):
        t = TruthTable.const(n, True)
        for i in (-1, n, n + 3):
            with pytest.raises(ValueError):
                t.depends_on(i)
