import random
from itertools import product

import pytest

from matrixcp.automata import (
    CostMatrices,
    Dfa,
    WeightedDfa,
    build_gcc_weights,
    build_stretch_count,
)
from matrixcp.engine import MEMO, Inconsistent, Store, clear_memo, search
from matrixcp.model import build
from matrixcp.propagators import (
    ConstE,
    GccColumn,
    LexLe,
    LinearEq,
    MaxE,
    Mcr,
    Relation,
    ScaleE,
    StretchLengthWindows,
    SumColumn,
    SumE,
    VarE,
    post_lex_chain,
    regular_dc,
    stretch_edge,
)
from matrixcp.roster import gen_toy_rosters, roster_model


def no_mixing_dfa():
    """Words over (0,1,2) that never contain both a 1 and a 2."""
    trans = {}
    for v in (0, 1, 2):
        trans[(0, v)] = {0: 0, 1: 1, 2: 2}[v]
        trans[(1, v)] = {0: 1, 1: 1, 2: 3}[v]
        trans[(2, v)] = {0: 2, 1: 3, 2: 2}[v]
        trans[(3, v)] = 3
    return Dfa(4, (0, 1, 2), trans, 0, {0, 1, 2})


class TestMcr:
    def test_stretch_count_forces_unique_word(self):
        # two maximal 1-stretches in three cells leaves only 1,0,1
        st = Store()
        xs = [st.new_var({0, 1}) for _ in range(3)]
        z = st.new_interval(2, 2)
        st.register(Mcr(xs, [z], build_stretch_count({1}, (0, 1))))
        assert st.propagate() == "stable"
        assert [set(st.dom(x)) for x in xs] == [{1}, {0}, {1}]

    def test_unreachable_total_fails(self):
        st = Store()
        xs = [st.new_var({0, 1}) for _ in range(3)]
        z = st.new_interval(3, 3)
        st.register(Mcr(xs, [z], build_stretch_count({1}, (0, 1))))
        assert st.propagate() == "failed"

    def test_cost_bounds_tighten_from_cells(self):
        st = Store()
        xs = [st.new_var({1}), st.new_var({0, 1}), st.new_var({1})]
        z = st.new_interval(0, 9)
        st.register(Mcr(xs, [z], build_gcc_weights((0, 1), groups=[{1}])))
        st.propagate()
        assert (st.vmin(z), st.vmax(z)) == (2, 3)

    def test_weighted_pruning_is_sound(self):
        """Every (position, value) pair in a bound-feasible word survives."""
        rng = random.Random(202)
        alphabet = (0, 1)
        for trial in range(80):
            n_states = rng.randint(1, 3)
            trans = {(q, v): rng.randrange(n_states)
                     for q in range(n_states) for v in alphabet}
            acc = {q for q in range(n_states) if rng.random() < 0.6} or {0}
            base = {(0, q, v): rng.randint(0, 2)
                    for q in range(n_states) for v in alphabet}
            wa = WeightedDfa(Dfa(n_states, alphabet, trans, 0, acc),
                             CostMatrices(1, base), [(0, 100)])
            n = rng.randint(1, 4)
            zlo = rng.randint(0, 2)
            zhi = zlo + rng.randint(0, 2)

            feasible = set()
            words = []
            for w in product(alphabet, repeat=n):
                ok, (c,) = wa.run_weighted(w)
                if ok and zlo <= c <= zhi:
                    words.append(w)
                    for i, v in enumerate(w):
                        feasible.add((i, v))

            st = Store()
            xs = [st.new_var(alphabet) for _ in range(n)]
            z = st.new_interval(zlo, zhi)
            try:
                st.register(Mcr(xs, [z], wa))
                status = st.propagate()
            except Inconsistent:
                status = "failed"
            if not words:
                assert status == "failed", f"trial {trial}"
                continue
            assert status == "stable"
            for i, v in feasible:
                assert v in st.dom(xs[i]), f"trial {trial} lost ({i},{v})"

    def test_plain_membership_is_domain_consistent(self):
        rng = random.Random(203)
        alphabet = (0, 1, 2)
        for trial in range(60):
            n_states = rng.randint(1, 4)
            trans = {(q, v): rng.randrange(n_states)
                     for q in range(n_states) for v in alphabet}
            acc = {q for q in range(n_states) if rng.random() < 0.5}
            d = Dfa(n_states, alphabet, trans, 0, acc)
            n = rng.randint(1, 4)
            doms = [set(rng.sample(alphabet, rng.randint(1, 3))) for _ in range(n)]

            support = [set() for _ in range(n)]
            for w in product(alphabet, repeat=n):
                if all(w[i] in doms[i] for i in range(n)) and d.accepts(w):
                    for i, v in enumerate(w):
                        support[i].add(v)

            st = Store()
            xs = [st.new_var(dm) for dm in doms]
            try:
                st.register(regular_dc(xs, d))
                status = st.propagate()
            except Inconsistent:
                status = "failed"
            if not any(support):
                assert status == "failed"
                continue
            assert status == "stable"
            assert [set(st.dom(x)) for x in xs] == support, f"trial {trial}"

    def test_no_mixing_example(self):
        st = Store()
        xs = [st.new_var({1, 2}), st.new_var({1}), st.new_var({0, 1, 2})]
        st.register(regular_dc(xs, no_mixing_dfa()))
        assert st.propagate() == "stable"
        assert [set(st.dom(x)) for x in xs] == [{1}, {1}, {0, 1}]


class TestGccColumn:
    def test_counts_tighten_from_cells(self):
        st = Store()
        xs = [st.new_var(d) for d in ({1}, {0, 1}, {1}, {0})]
        card1 = st.new_interval(0, 4)
        st.register(GccColumn(xs, [card1], [1]))
        st.propagate()
        assert (st.vmin(card1), st.vmax(card1)) == (2, 3)

    # Each case below runs on both forms of the column: counts held in
    # interval variables, and counts checked against constant bounds.
    FORMS = (False, True)

    @staticmethod
    def post(st, doms, values, bounds, constant=False):
        xs = [st.new_var(dm) for dm in doms]
        if constant:
            cards = [tuple(b) for b in bounds]
        else:
            cards = [st.new_interval(lo, hi) for lo, hi in bounds]
        st.register(GccColumn(xs, cards, values))
        return xs, cards

    @staticmethod
    def snapshot(st, xs, cards):
        """Cell domains and count bounds; a constant count is its bounds."""
        return (tuple(tuple(sorted(st.dom(x))) for x in xs),
                tuple(c if type(c) is tuple else (st.vmin(c), st.vmax(c))
                      for c in cards))

    def test_tight_upper_bound_prunes(self):
        for constant in self.FORMS:
            st = Store()
            xs, _ = self.post(st, ({1}, {0, 1}, {1}), [1], [(0, 2)], constant)
            st.propagate()
            # two cells already fixed to 1, so the undecided cell loses it
            assert set(st.dom(xs[1])) == {0}

    def test_tight_lower_bound_forces(self):
        for constant in self.FORMS:
            st = Store()
            xs, _ = self.post(st, ({0, 1}, {0}, {0, 1}), [1], [(2, 2)],
                              constant)
            st.propagate()
            assert set(st.dom(xs[0])) == {1} and set(st.dom(xs[2])) == {1}

    def test_infeasible_count_fails(self):
        for constant in self.FORMS:
            st = Store()
            self.post(st, ({1}, {1}), [1], [(1, 1)], constant)
            assert st.propagate() == "failed"

    def test_fuzz_sound_and_counts_exact(self):
        # Both forms leave the same cells; only the card variables narrow.
        for constant in self.FORMS:
            rng = random.Random(404)
            for trial, want in enumerate(GCC_SEED_RESULTS):
                doms, values, bounds = gcc_case(rng)
                n = len(doms)
                sols = [w for w in product((0, 1, 2), repeat=n)
                        if all(w[i] in doms[i] for i in range(n))
                        and all(lo <= w.count(v) <= hi
                                for v, (lo, hi) in zip(values, bounds))]
                st = Store()
                xs, cards = self.post(st, doms, values, bounds, constant)
                got = None
                if st.propagate() == "stable":
                    got = self.snapshot(st, xs, cards)
                if constant and want is not None:
                    want = (want[0], tuple(bounds))
                where = f"trial {trial}, constant {constant}"
                assert got == want, where
                assert (got is None) == (not sols), where
                if got is None:
                    continue
                for i in range(n):
                    assert {w[i] for w in sols} <= set(got[0][i]), where
                for v, (lo, hi) in zip(values, got[1]):
                    counts = {w.count(v) for w in sols}
                    assert lo <= min(counts) and hi >= max(counts), where

    def test_memo_replays_cold_result(self):
        # A second column with the same input on the same store replays the
        # first one's result, also the changes a failing input makes.  It
        # counts failing inputs that commit changes before failing: to the
        # count bounds in the card form, to the cells in the constant form.
        for constant in self.FORMS:
            part = 0 if constant else 1
            rng = random.Random(404)
            partial_failures = 0
            for trial in range(len(GCC_SEED_RESULTS)):
                doms, values, bounds = gcc_case(rng)
                clear_memo()
                st = Store()
                runs = []
                for _ in range(2):
                    row = self.post(st, doms, values, bounds, constant)
                    posted = self.snapshot(st, *row)
                    runs.append((st.propagate(), self.snapshot(st, *row)))
                where = f"trial {trial}, constant {constant}"
                assert len(MEMO) == 1, f"{where}: memo not reused"
                assert runs[0] == runs[1], where
                if runs[0][0] == "failed" and runs[0][1][part] != posted[part]:
                    partial_failures += 1
            assert partial_failures >= 3

    def test_constant_bounds_leave_the_cells_card_variables_leave(self):
        # Down a random branch of value removals, the constant form leaves
        # the cells the card form leaves and fails where it fails, though
        # the card form starts each step from the count bounds it narrowed
        # at the steps before.
        rng = random.Random(406)
        failures = narrowed = steps = 0
        for trial in range(400):
            doms, values, bounds = gcc_case(rng)
            stores = [Store(), Store()]
            rows = [self.post(st, doms, values, bounds, constant)
                    for st, constant in zip(stores, (False, True))]
            while True:
                status = [st.propagate() for st in stores]
                assert status[0] == status[1], f"trial {trial}"
                if status[0] == "failed":
                    failures += 1
                    break
                cards, constant = [self.snapshot(st, *row)
                                   for st, row in zip(stores, rows)]
                assert cards[0] == constant[0], f"trial {trial}"
                narrowed += cards[1] != constant[1]
                open_cells = [i for i, dm in enumerate(cards[0]) if len(dm) > 1]
                if not open_cells:
                    break
                i = rng.choice(open_cells)
                v = rng.choice(cards[0][i])
                for st, (xs, _) in zip(stores, rows):
                    st.remove_value(xs[i], v)
                steps += 1
        assert failures >= 40 and narrowed >= 600 and steps >= 500

    def test_cards_are_all_variables_or_all_bounds(self):
        st = Store()
        xs = [st.new_var({0, 1}), st.new_var({0, 1})]
        with pytest.raises(ValueError, match="all variables or all"):
            GccColumn(xs, [st.new_interval(0, 2), (0, 2)], (0, 1))
        with pytest.raises(ValueError, match="one cardinality per"):
            GccColumn(xs, [(0, 2)], (0, 1))
        with pytest.raises(Inconsistent):
            GccColumn(xs, [(0, 2), (2, 1)], (0, 1))

    def test_column_total_needs_no_linear_eq(self):
        # A column that counts every value of its cells keeps its counts
        # summing to the number of cells on its own: the sum constraint
        # posted next to it changes nothing.
        rng = random.Random(405)
        checked = 0
        for trial in range(200):
            doms, values, bounds = gcc_case(rng)
            if not all(dm <= set(values) for dm in doms):
                continue
            results = []
            for with_sum in (False, True):
                st = Store()
                xs, cards = self.post(st, doms, values, bounds)
                if with_sum:
                    st.register(LinearEq([1] * len(cards), cards, len(xs)))
                status = st.propagate()
                results.append(status == "stable" and self.snapshot(st, xs, cards))
            assert results[0] == results[1], f"trial {trial}"
            checked += 1
        assert checked >= 100


def gcc_case(rng):
    """(cell domains, 2-3 counted values, their count bounds) of one column:
    bounds around the counts of one word in the domains, and for some cases
    one of them drawn at random."""
    n = rng.randint(1, 5)
    values = sorted(rng.sample((0, 1, 2), rng.randint(2, 3)))
    doms = [set(rng.sample((0, 1, 2), rng.randint(1, 3))) for _ in range(n)]
    word = [rng.choice(sorted(dm)) for dm in doms]
    bounds = [(max(0, word.count(v) - rng.randint(0, 2)),
               min(n, word.count(v) + rng.randint(0, 2))) for v in values]
    if rng.random() < 0.4:
        j = rng.randrange(len(values))
        lo = rng.randint(0, n)
        bounds[j] = (lo, rng.randint(lo, n))
    return doms, values, bounds


# Results of the column propagator before it became a memoised pure filter
# (a store-reading pass repeated to its fixpoint), for
# gcc_case(random.Random(404)) in order: the cell domains and count bounds
# after propagation, None on failure.  Trials 10, 11, 12, 15, 16, 21, 42,
# 48, 56, 61, 62 and 78 were regenerated when the filter took on the rule
# that the counts sum to between the cells inside and the cells meeting the
# counted values; each tightened only count bounds, within the old ones.
GCC_SEED_RESULTS = [
    (((0,),), ((1, 1), (0, 0), (0, 0))),
    (((0, 2), (0, 2)), ((0, 0), (0, 1))),
    (((2,), (2,), (0, 1), (1, 2), (0, 1, 2)), ((0, 3), (2, 3))),
    (((0, 1, 2),), ((0, 1), (0, 1), (0, 1))),
    None,
    (((2,), (0, 1), (1,), (2,)), ((0, 1), (2, 2))),
    (((0, 1, 2), (0, 1, 2), (1,), (0, 1, 2), (0, 1, 2)), ((2, 3), (1, 3))),
    (((0, 2), (0, 2), (1,), (0, 1, 2)), ((0, 3), (0, 3))),
    (((0, 1), (1,), (0, 1, 2)), ((0, 1), (1, 3), (0, 1))),
    (((0, 1), (0, 1)), ((0, 2), (0, 2), (0, 0))),
    (((0, 1, 2), (0, 2), (0, 1, 2)), ((1, 2), (1, 2))),
    (((0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 2)), ((1, 2), (2, 2))),
    (((1, 2), (0, 1, 2), (1,), (2,), (0,)), ((1, 2), (1, 2), (2, 2))),
    None,
    (((1,),), ((0, 0), (1, 1), (0, 0))),
    (((0, 1), (0, 1)), ((1, 1), (1, 1), (0, 0))),
    (((0, 2), (0, 1, 2), (1,), (0,), (0, 1)), ((3, 4), (1, 2), (0, 1))),
    (((1, 2),), ((0, 0), (0, 1), (0, 1))),
    (((0,), (1, 2), (0, 1, 2), (1, 2), (0, 1, 2)), ((2, 4), (0, 2))),
    (((1,), (1, 2)), ((0, 0), (1, 2), (0, 1))),
    (((0,), (0, 2)), ((1, 2), (0, 0))),
    (((0, 1, 2), (0, 1, 2), (0, 2), (0, 1, 2), (0, 1, 2)), ((4, 4), (0, 1))),
    (((2,), (0,), (1,), (0, 2), (0, 1, 2)), ((2, 3), (1, 2))),
    (((2,),), ((0, 0), (0, 0))),
    (((1,), (0, 1), (2,), (2,)), ((0, 1), (2, 2))),
    (((2,), (0,), (0, 2)), ((1, 2), (0, 0), (1, 2))),
    (((1,), (1,), (1,)), ((0, 0), (3, 3))),
    (((0,), (0, 1, 2), (0,), (0, 2), (0, 1, 2)), ((0, 2), (0, 1))),
    (((0,), (1, 2), (0,)), ((2, 2), (0, 1))),
    (((0,),), ((1, 1), (0, 0), (0, 0))),
    (((2,),), ((0, 0), (0, 0), (1, 1))),
    None,
    (((1, 2),), ((0, 0), (0, 1))),
    (((2,), (1,), (2,), (0, 1, 2)), ((0, 1), (1, 2))),
    None,
    (((1,), (1,)), ((0, 0), (2, 2))),
    (((0, 1, 2), (1,), (0, 1, 2)), ((1, 2), (0, 2))),
    None,
    (((1, 2),), ((0, 0), (0, 1), (0, 1))),
    (((0, 1, 2), (0, 1, 2), (1, 2), (0, 1, 2)), ((0, 1), (0, 4))),
    (((2,), (0,)), ((1, 1), (0, 0))),
    None,
    (((0, 2), (0, 1, 2), (1, 2)), ((1, 2), (0, 1), (1, 1))),
    (((0, 1, 2), (1,)), ((0, 1), (1, 2))),
    (((0,), (1,), (0,)), ((1, 1), (0, 0))),
    (((0,),), ((1, 1), (0, 0))),
    (((0, 1), (0,), (2,), (2,), (0, 1)), ((1, 2), (1, 2), (2, 2))),
    (((0, 2), (0, 2), (0, 2)), ((1, 1), (0, 0))),
    (((0, 1, 2), (0, 1, 2), (0, 1, 2)), ((0, 1), (1, 2), (1, 2))),
    (((1, 2), (1, 2), (1,), (0,), (0,)), ((2, 2), (1, 3))),
    (((0, 2), (1,), (2,), (1, 2)), ((1, 2), (1, 2))),
    None,
    (((2,), (2,)), ((0, 0), (0, 0), (2, 2))),
    (((1,), (0,)), ((1, 1), (1, 1), (0, 0))),
    (((0,), (0, 1)), ((0, 1), (0, 0))),
    (((2,), (0, 1, 2), (0, 1, 2), (1, 2)), ((0, 2), (0, 1), (2, 3))),
    (((0, 1, 2), (0, 1), (0, 1), (2,), (2,)), ((2, 2), (0, 1), (2, 3))),
    (((0, 2),), ((0, 1), (0, 0), (0, 1))),
    (((2,),), ((0, 0), (0, 0))),
    (((1,), (0, 1, 2)), ((1, 2), (0, 1))),
    (((1,), (0,)), ((1, 1), (1, 1), (0, 0))),
    (((0, 1, 2), (0,), (0, 1, 2), (0, 1, 2), (0, 2)), ((3, 4), (0, 1), (1, 2))),
    (((0, 1), (1,), (0,), (1,), (0, 1)), ((1, 2), (3, 4), (0, 0))),
    None,
    (((0, 2), (0,)), ((0, 0), (0, 1))),
    (((0, 1), (0, 1, 2), (0,), (0, 2)), ((1, 4), (0, 2), (0, 2))),
    (((0,), (2,), (1,)), ((1, 1), (1, 1), (1, 1))),
    (((0,),), ((0, 0), (0, 0))),
    (((0,),), ((0, 0), (0, 0))),
    (((0, 1, 2), (0, 1, 2), (0, 1), (2,)), ((2, 3), (1, 2))),
    (((0, 1, 2), (0, 1), (0, 1, 2), (0, 1)), ((2, 4), (0, 1), (0, 1))),
    None,
    (((0, 2), (1,)), ((0, 1), (1, 1), (0, 1))),
    (((2,),), ((0, 0), (0, 0), (1, 1))),
    (((0, 2), (0, 1, 2), (2,)), ((0, 1), (1, 3))),
    (((0, 1), (0, 1), (0, 1)), ((2, 3), (0, 1), (0, 0))),
    None,
    (((1, 2), (0, 1, 2), (2,)), ((0, 1), (0, 1), (1, 3))),
    (((0, 1), (0,), (0,), (2,), (0, 1)), ((3, 3), (1, 1), (1, 1))),
    (((2,), (2,), (0,), (2,), (0,)), ((2, 2), (3, 3))),
]


class TestLinearEq:
    def test_forces_remaining_variable(self):
        st = Store()
        a = st.new_interval(2, 2)
        b = st.new_interval(0, 9)
        st.register(LinearEq([1, 1], [a, b], 7))
        st.propagate()
        assert st.value(b) == 5

    def test_negative_coefficients(self):
        st = Store()
        a = st.new_interval(0, 4)
        b = st.new_interval(0, 4)
        # a - b == 2
        st.register(LinearEq([1, -1], [a, b], 2))
        st.propagate()
        assert st.vmin(a) == 2 and st.vmax(b) == 2

    def test_infeasible_sum_fails(self):
        st = Store()
        a = st.new_interval(0, 1)
        b = st.new_interval(0, 1)
        st.register(LinearEq([1, 1], [a, b], 5))
        assert st.propagate() == "failed"


class TestExpressions:
    def test_relation_le_prunes_both_sides(self):
        # max(0, a - 2) <= b with b binary caps a at 3
        st = Store()
        a = st.new_interval(0, 5)
        b = st.new_interval(0, 1)
        st.register(Relation("le",
                             MaxE([ConstE(0), SumE([VarE(a), ConstE(-2)])]),
                             VarE(b)))
        st.propagate()
        assert (st.vmin(a), st.vmax(a)) == (0, 3)

    def test_relation_eq_meets_intervals(self):
        st = Store()
        a = st.new_interval(0, 9)
        b = st.new_interval(4, 19)
        st.register(Relation("eq", VarE(a), VarE(b)))
        st.propagate()
        assert (st.vmin(a), st.vmax(a)) == (4, 9)
        assert (st.vmin(b), st.vmax(b)) == (4, 9)

    def test_relation_failure(self):
        st = Store()
        a = st.new_interval(5, 5)
        b = st.new_interval(0, 1)
        st.register(Relation("le", VarE(a), VarE(b)))
        assert st.propagate() == "failed"

    def test_fuzz_relation_soundness(self):
        """Bounds reasoning never cuts off a satisfying assignment."""
        rng = random.Random(909)
        for _ in range(100):
            st = Store()
            lo1, lo2 = rng.randint(0, 3), rng.randint(0, 3)
            a = st.new_interval(lo1, lo1 + rng.randint(1, 4) - 1)
            b = st.new_interval(lo2, lo2 + rng.randint(1, 4) - 1)
            coef = rng.choice((-2, -1, 1, 2))
            c = rng.randint(-2, 6)
            op = rng.choice(("le", "eq"))
            sols = []
            for va in st.dom(a):
                for vb in st.dom(b):
                    lv = va + coef * vb
                    if (op == "le" and lv <= c) or (op == "eq" and lv == c):
                        sols.append((va, vb))
            lhs = SumE([VarE(a), ScaleE(coef, VarE(b))])
            st.register(Relation(op, lhs, ConstE(c)))
            try:
                status = st.propagate()
            except Inconsistent:
                status = "failed"
            if not sols:
                assert status == "failed"
                continue
            assert status == "stable"
            for va, vb in sols:
                assert st.vmin(a) <= va <= st.vmax(a)
                assert st.vmin(b) <= vb <= st.vmax(b)


class TestLex:
    def enumerate_pairs(self, st, xs, ys):
        got = []
        search(st, xs + ys,
               on_solution=lambda s: (got.append((tuple(s[x] for x in xs),
                                                  tuple(s[y] for y in ys))), False)[1])
        return got

    def test_le_matches_tuple_order(self):
        st = Store()
        xs = [st.new_var({0, 1}) for _ in range(2)]
        ys = [st.new_var({0, 1}) for _ in range(2)]
        st.register(LexLe(xs, ys))
        got = self.enumerate_pairs(st, xs, ys)
        want = [(a, b) for a in product((0, 1), repeat=2)
                for b in product((0, 1), repeat=2) if a <= b]
        assert sorted(got) == sorted(want)

    def test_forced_prefix_propagates(self):
        st = Store()
        xs = [st.new_var({1}), st.new_var({1})]
        ys = [st.new_var({0, 1}), st.new_var({0, 1})]
        st.register(LexLe(xs, ys))
        st.propagate()
        assert set(st.dom(ys[0])) == {1}
        assert set(st.dom(ys[1])) == {1}

    def test_chain_posts_pairwise(self):
        st = Store()
        rows = [[st.new_var({0, 1})] for _ in range(3)]
        props = post_lex_chain(st, rows)
        assert len(props) == 2
        st.assign(rows[0][0], 1)
        st.propagate()
        assert st.value(rows[2][0]) == 1


class TestSumColumn:
    def test_external_value_mapping(self):
        # cells index into (-1, 0, 1); a sum in [2,3] rules the -1 out
        st = Store()
        xs = [st.new_var({0, 1, 2}) for _ in range(3)]
        st.register(SumColumn(xs, (-1, 0, 1), 2, 3))
        assert st.propagate() == "stable"
        assert [set(st.dom(x)) for x in xs] == [{1, 2}] * 3

    def test_impossible_interval_fails(self):
        st = Store()
        xs = [st.new_var({0, 1}) for _ in range(2)]
        st.register(SumColumn(xs, (0, 1), 3, 4))
        assert st.propagate() == "failed"

    def test_fuzz_against_enumeration(self):
        rng = random.Random(55)
        ext = (-1, 0, 2)
        for _ in range(60):
            n = rng.randint(1, 4)
            doms = [set(rng.sample((0, 1, 2), rng.randint(1, 3))) for _ in range(n)]
            lo = rng.randint(-2, 3)
            hi = lo + rng.randint(0, 4)
            sols = [w for w in product((0, 1, 2), repeat=n)
                    if all(w[i] in doms[i] for i in range(n))
                    and lo <= sum(ext[v] for v in w) <= hi]
            st = Store()
            xs = [st.new_var(dm) for dm in doms]
            st.register(SumColumn(xs, ext, lo, hi))
            try:
                status = st.propagate()
            except Inconsistent:
                status = "failed"
            if not sols:
                assert status == "failed"
                continue
            assert status == "stable"
            for i in range(n):
                assert {w[i] for w in sols} <= set(st.dom(xs[i]))


class TestStretchLengthWindows:
    def post(self, card_values, zmin_dom, zmax_dom, n_rows=1):
        st = Store()

        def interval(dm):
            dm = dm if isinstance(dm, (set, range)) else {dm}
            return st.new_interval(min(dm), max(dm))

        cards = [interval(dm) for dm in card_values]
        zmin = interval(zmin_dom)
        zmax = interval(zmax_dom)
        # n_rows rows that share one (shortest, longest) resource pair
        st.register(StretchLengthWindows([VarE(c) for c in cards],
                                         [(zmin, zmax)] * n_rows))
        return st

    def test_overlong_run_fails(self):
        # a single row with four straight counted cells cannot respect max 2
        st = self.post((1, 1, 1, 1), range(0, 6), {2})
        assert st.propagate() == "failed"

    def test_consistent_word_passes(self):
        st = self.post((1, 1, 0, 1), {1}, {2})
        assert st.propagate() == "stable"

    def test_exhaustive_single_row_soundness(self):
        """For every binary word, the true length extremes survive."""
        n = 5
        for w in product((0, 1), repeat=n):
            lengths = []
            run = 0
            for v in w:
                run = run + 1 if v else 0
                if v and (run == 1):
                    lengths.append(0)
                if v:
                    lengths[-1] += 1
            if lengths:
                zmin, zmax = min(lengths), max(lengths)
            else:
                zmin, zmax = n + 1, 0
            st = self.post(tuple(w), {zmin}, {zmax})
            assert st.propagate() == "stable", (w, zmin, zmax)

    def test_each_box_builds_its_windows_once(self, monkeypatch):
        """Moving the (zmin, zmax) box back and forth builds the windows of
        each box once, and each box prunes as a freshly posted propagator."""
        built = []
        build_windows = StretchLengthWindows._build

        def counted(self, a, b):
            built.append((a, b))
            return build_windows(self, a, b)

        monkeypatch.setattr(StretchLengthWindows, "_build", counted)
        cards = (range(0, 3), range(1, 3), range(0, 2), range(0, 3), range(1, 3))
        zmin, zmax = len(cards), len(cards) + 1
        boxes = [(2, 4), (3, 3), (2, 4), (2, 5), (3, 3), (2, 4), (4, 2)]

        def outcome(st):
            return st.propagate(), [st.dom(v) for v in range(len(st.domains))]

        fresh = {(a, b): outcome(self.post(cards, range(a, 7), range(0, b + 1), 2))
                 for a, b in boxes}
        built.clear()
        st = self.post(cards, range(1, 7), range(0, 6), n_rows=2)
        assert st.propagate() == "stable"
        for a, b in boxes:
            st.mark()
            st.set_min(zmin, a)
            st.set_max(zmax, b)
            assert outcome(st) == fresh[(a, b)], (a, b)
            st.undo()
        assert built == [(1, 5), *dict.fromkeys(boxes)]

    def test_box_spans_the_rows_and_leaves_them_alone(self):
        """The box is the least row minimum and the greatest row maximum,
        and the windows narrow the counts only.  The box of either row
        alone, (1, 2) or (2, 3), fails on these counts."""
        cards = (range(0, 1), range(1, 2), range(1, 3), range(2, 3), range(2, 3))
        shared = self.post(cards, range(1, 7), range(0, 4), n_rows=2)
        st = Store()
        counts = [st.new_interval(c[0], c[-1]) for c in cards]
        rows = [(st.new_interval(1, 6), st.new_interval(0, 2)),
                (st.new_interval(2, 6), st.new_interval(1, 3))]
        st.register(StretchLengthWindows([VarE(c) for c in counts], rows))
        assert shared.propagate() == st.propagate() == "stable"
        assert ([st.dom(c) for c in counts]
                == [shared.dom(c) for c in range(len(cards))]
                != list(cards))
        assert [(st.dom(lo), st.dom(hi)) for lo, hi in rows] == [
            (range(1, 7), range(0, 3)), (range(2, 7), range(1, 4))]
        for row in rows:
            assert self.post(cards, range(st.vmin(row[0]), 7),
                             range(0, st.vmax(row[1]) + 1),
                             n_rows=2).propagate() == "failed"

    def test_one_term_windows_are_not_posted(self, monkeypatch):
        """A start or end window of one term is a tautology; without them
        the propagator prunes and fails on random card boxes exactly as the
        full window set (``every_window``, kept here as the reference)."""

        def every_window(self, a, b):
            K = len(self.cards)
            rels = []
            for k in range(K):
                j0 = max(0, k - a + 1)
                if j0 <= k:
                    rels.append(Relation(
                        "le",
                        SumE([stretch_edge(self.cards, j, -1)
                              for j in range(j0, k + 1)]),
                        self.cards[k]))
                j1 = min(K - 1, k + a - 1)
                if j1 >= k:
                    rels.append(Relation(
                        "le",
                        SumE([stretch_edge(self.cards, j, 1)
                              for j in range(k, j1 + 1)]),
                        self.cards[k]))
            if a <= b:
                cap = ConstE((b - a + 1) * len(self.rows))
                for k in range(0, K - b):
                    rels.append(Relation(
                        "le",
                        SumE([stretch_edge(self.cards, k, -1)]
                             + [self.cards[k + j] for j in range(a, b + 1)]),
                        cap))
                for k in range(b, K):
                    rels.append(Relation(
                        "le",
                        SumE([stretch_edge(self.cards, k, 1)]
                             + [self.cards[k - j] for j in range(a, b + 1)]),
                        cap))
            return rels

        posted = {every_window: 0, StretchLengthWindows._build: 0}

        def counted(build_windows):
            def spy(self, a, b):
                rels = build_windows(self, a, b)
                posted[build_windows] += len(rels)
                return rels
            return spy

        rng = random.Random(407)
        pruned = failed = 0
        for trial in range(600):
            n_rows = rng.randint(1, 3)
            cards = []
            for _ in range(rng.randint(1, 7)):
                lo = rng.randint(0, n_rows)
                cards.append(range(lo, rng.randint(lo, n_rows) + 1))
            a = rng.randint(0, len(cards) + 1)
            zmin = range(a, len(cards) + 2)
            zmax = range(0, rng.randint(0, len(cards)) + 1)
            outcomes = []
            for build_windows in posted:
                with monkeypatch.context() as m:
                    m.setattr(StretchLengthWindows, "_build",
                              counted(build_windows))
                    st = self.post(cards, zmin, zmax, n_rows)
                    before = [d.values for d in st.domains]
                    outcomes.append((st.propagate(),
                                     [d.values for d in st.domains]))
            assert outcomes[0] == outcomes[1], f"trial {trial}"
            failed += outcomes[0][0] == "failed"
            pruned += outcomes[0][0] == "stable" and outcomes[0][1] != before
        assert posted[StretchLengthWindows._build] < posted[every_window]
        assert pruned >= 80 and failed >= 200

    def test_prunes_rosters_at_the_fixpoint_of_the_rest(self, monkeypatch):
        """With every stretch at least 1 long (the toy case) no start or end
        window is posted; with WORK and SHIFT 1 stretches at
        least 2 long the windows still prune 8 of the 25 toy rosters under
        cwa after every other propagator has reached its fixpoint."""
        pruned = 0
        for inst, rules in gen_toy_rosters(4242, 25):
            rules.work.stretch_lo = rules.shifts[0].stretch_lo = 2
            windows = []
            with monkeypatch.context() as m:
                m.setattr(StretchLengthWindows, "run",
                          lambda self, store: windows.append(self))
                b = build(roster_model(inst, rules), "cwa")
                if b.root_infeasible or b.store.propagate() == "failed":
                    continue
            st = b.store
            before = [d.values for d in st.domains]
            try:
                for w in dict.fromkeys(windows):
                    w.run(st)
            except Inconsistent:
                pruned += 1
                continue
            pruned += before != [d.values for d in st.domains]
        assert pruned == 8
