import random
from collections import OrderedDict
from itertools import product

import pytest

from matrixcp import automata
from matrixcp.automata import (
    AutomatonError,
    CostMatrices,
    Dfa,
    ProductTooLarge,
    WeightedDfa,
    build_gcc_weights,
    build_sliding_word_counter,
    build_stretch_count,
    build_stretch_length_bounds,
    build_word_occurrence,
    dump_automaton,
    parse_automaton,
    sequence_window_dfa,
    stretch_length_dfa,
    sweep_backward,
    sweep_forward,
    universal_dfa,
)
from matrixcp.model import (
    MatrixModel,
    StretchCountProp,
    _measuring_automaton,
    achievable_totals,
)
from matrixcp.roster import gen_toy_rosters, roster_model

ABC = (0, 1, 2)


def random_positional(rng, n):
    """A random automaton over ABC with 1-2 resources, base costs and
    positional costs at positions 0..n-1."""
    n_res = rng.randint(1, 2)
    n_states = rng.randint(1, 4)
    trans = {(q, v): rng.randrange(n_states) for q in range(n_states) for v in ABC}
    acc = {q for q in range(n_states) if rng.random() < 0.6} or {0}
    base = {}
    positional = {}
    for r in range(n_res):
        for q in range(n_states):
            for v in ABC:
                if rng.random() < 0.5:
                    base[(r, q, v)] = rng.randint(-2, 3)
                for i in range(n):
                    if rng.random() < 0.15:
                        positional[(r, q, v, i)] = rng.randint(-2, 2)
    bounds = [(-rng.randint(0, 9), rng.randint(0, 9)) for _ in range(n_res)]
    return WeightedDfa(Dfa(n_states, ABC, trans, 0, acc),
                       CostMatrices(n_res, base, positional), bounds)


def accepting_runs(wdfa, n):
    """The layered graph of the accepting runs of length n."""
    table = wdfa.arc_table(n)
    arcs, env = sweep_forward(table, wdfa.dfa.start)
    sweep_backward(arcs, env, env[n].keys() & wdfa.dfa.accepting, table.packing)
    return arcs


def brute_stretch_count(word, vhat):
    """Reference count of maximal runs of vhat symbols."""
    runs = 0
    inside = False
    for v in word:
        if v in vhat and not inside:
            runs += 1
        inside = v in vhat
    return runs


def brute_stretch_lengths(word, vhat, n):
    lengths = []
    cur = 0
    for v in word:
        if v in vhat:
            cur += 1
        else:
            if cur:
                lengths.append(cur)
            cur = 0
    if cur:
        lengths.append(cur)
    if not lengths:
        return (n + 1, 0)
    return (min(lengths), max(lengths))


def brute_flags(word, pattern):
    m = len(pattern)
    out = []
    for j in range(len(word) - m + 1):
        out.append(1 if all(word[j + t] in pattern[t] for t in range(m)) else 0)
    return tuple(out)


class TestDfa:
    def test_rejects_missing_transition_row(self):
        with pytest.raises(AutomatonError):
            Dfa(2, (0, 1), {(0, 0): 1}, 0, {1})

    def test_from_partial_adds_sink(self):
        d = Dfa.from_partial(1, (0, 1), {(0, 0): 0}, 0, {0})
        assert d.accepts((0, 0, 0))
        assert not d.accepts((0, 1, 0))

    def test_words_enumerates_language(self):
        # exactly the words with an even number of 1s
        d = Dfa(2, (0, 1), {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, 0, {0})
        got = set(d.words(3))
        want = {w for w in product((0, 1), repeat=3) if sum(w) % 2 == 0}
        assert got == want

    def test_universal_accepts_everything(self):
        d = universal_dfa(ABC)
        for w in [(0,), (2, 1, 0), ()]:
            assert d.accepts(w)


class TestStretchCount:
    CASES = [
        ((1, 1, 0, 1), 2),
        ((0, 0, 0), 0),
        ((1, 1, 1), 1),
        ((0, 1, 0, 1, 0, 1), 3),
        ((2, 1, 2), 1),
        ((0, 2, 0), 0),
    ]

    @pytest.mark.parametrize("word,count", CASES)
    def test_table(self, word, count):
        wa = build_stretch_count({1}, ABC)
        ok, totals = wa.run_weighted(word)
        assert ok and totals == (count,)

    def test_fuzz_against_reference(self):
        rng = random.Random(11)
        wa = build_stretch_count({0, 2}, ABC)
        for _ in range(200):
            w = tuple(rng.choice(ABC) for _ in range(rng.randint(0, 8)))
            ok, totals = wa.run_weighted(w)
            assert ok
            assert totals == (brute_stretch_count(w, {0, 2}),)

    def test_full_alphabet_rejected(self):
        with pytest.raises(AutomatonError):
            build_stretch_count({0, 1, 2}, ABC)


class TestStretchLength:
    # (word, min length, max length) for n=4; min reads 5 when no stretch
    CASES = [
        ((1, 1, 0, 1), 1, 2),
        ((0, 0, 0, 0), 5, 0),
        ((1, 1, 1, 1), 4, 4),
        ((1, 0, 0, 1), 1, 1),
        ((0, 1, 1, 0), 2, 2),
        ((2, 1, 1, 1), 3, 3),
    ]

    @pytest.mark.parametrize("word,zmin,zmax", CASES)
    def test_table(self, word, zmin, zmax):
        wa = build_stretch_length_bounds({1}, ABC, 4)
        ok, totals = wa.run_weighted(word)
        assert ok and totals == (zmin, zmax)

    def test_fuzz_against_reference(self):
        rng = random.Random(23)
        n = 6
        wa = build_stretch_length_bounds({1, 2}, ABC, n)
        for _ in range(300):
            w = tuple(rng.choice(ABC) for _ in range(n))
            ok, totals = wa.run_weighted(w)
            assert ok
            assert totals == brute_stretch_lengths(w, {1, 2}, n)

    def test_bounds_filter_short_runs(self):
        # every stretch at least 2 long
        wa = build_stretch_length_bounds({1}, ABC, 4)
        wa = WeightedDfa(wa.dfa, wa.costs, [(2, 5), (0, 4)])
        assert wa.accepts_within_bounds((0, 1, 1, 0))
        assert wa.accepts_within_bounds((0, 0, 0, 0))
        assert not wa.accepts_within_bounds((0, 1, 0, 0))

    @pytest.mark.parametrize("vhat", [set(), {0, 1, 2}])
    def test_rejects_empty_or_full_set(self, vhat):
        with pytest.raises(AutomatonError, match="proper nonempty subset"):
            build_stretch_length_bounds(vhat, ABC, 4)

    # Sizes measured on the earlier build through counter unfolding; the
    # direct build must give the same automaton.
    @pytest.mark.parametrize("vhat,n_values,n,states", [
        ({0}, 3, 7, 177), ({1}, 3, 7, 177), ({2}, 3, 7, 177),
        ({0}, 4, 14, 1136), ({0, 1}, 4, 14, 1136), ({3}, 4, 14, 1136),
    ])
    def test_state_count(self, vhat, n_values, n, states):
        wa = build_stretch_length_bounds(vhat, range(n_values), n)
        assert wa.dfa.n_states == states

    def test_product_with_toy_roster_rule(self):
        rule = roster_model(*gen_toy_rosters(4242, 1)[0]).row_rule
        sizes = [rule.product(build_stretch_length_bounds({v}, ABC, 7), 7)
                 .dfa.n_states for v in ABC]
        assert sizes == [240, 224, 232]


class TestSlidingWordCounter:
    CASES = [
        ((2, 2, 2, 2), (1, 1, 1, 3)),
        ((2, 2, 0, 2), (1, 0, 0, 1)),
        ((0, 2, 2, 0), (0, 1, 0, 1)),
        ((1, 0, 2, 2), (0, 0, 1, 1)),
        ((0, 1, 0, 1), (0, 0, 0, 0)),
    ]

    @pytest.mark.parametrize("word,totals", CASES)
    def test_flags_and_total(self, word, totals):
        wa = build_sliding_word_counter(({2}, {2}), 4, ABC)
        ok, got = wa.run_weighted(word)
        assert ok and got == totals

    def test_fuzz_flags(self):
        rng = random.Random(31)
        for _ in range(100):
            m = rng.randint(1, 3)
            n = rng.randint(m, 6)
            pattern = [frozenset(rng.sample(ABC, rng.randint(1, 2)))
                       for _ in range(m)]
            wa = build_sliding_word_counter(pattern, n, ABC)
            w = tuple(rng.choice(ABC) for _ in range(n))
            ok, got = wa.run_weighted(w)
            assert ok
            assert got[:-1] == brute_flags(w, pattern)
            assert got[-1] == sum(got[:-1])

    def test_padding_cannot_fake_a_match(self):
        # the history starts padded with symbol 0; a 00 pattern must still
        # report no flag at position 0 unless the word really starts 00
        wa = build_sliding_word_counter(({0}, {0}), 3, ABC)
        ok, got = wa.run_weighted((1, 0, 0))
        assert ok and got[:-1] == (0, 1) and got[-1] == 1


class TestWordOccurrence:
    CASES = [
        ((0, 1, 0, 2), 1),
        ((0, 1, 2, 0), 1),
        ((1, 1, 1, 1), 0),
        ((2, 1, 0, 0), 1),
        ((0, 0, 1, 2), 0),
    ]

    @pytest.mark.parametrize("word,flag", CASES)
    def test_flag_at_fixed_position(self, word, flag):
        wa = build_word_occurrence(({1}, {0, 2}), 1, 4, ABC)
        ok, got = wa.run_weighted(word)
        assert ok and got == (flag,)

    def test_position_out_of_range(self):
        with pytest.raises(AutomatonError):
            build_word_occurrence(({1}, {1}), 3, 4, ABC)

    def test_matches_sliding_counter_everywhere(self):
        rng = random.Random(47)
        n = 5
        pattern = ({1}, {0, 2})
        slide = build_sliding_word_counter(pattern, n, ABC)
        singles = [build_word_occurrence(pattern, k, n, ABC)
                   for k in range(n - 1)]
        for _ in range(150):
            w = tuple(rng.choice(ABC) for _ in range(n))
            _, flags = slide.run_weighted(w)
            for k, wa in enumerate(singles):
                _, got = wa.run_weighted(w)
                assert got == (flags[k],)


class TestGccWeights:
    def test_group_totals(self):
        wa = build_gcc_weights(ABC, groups=[{0}, {1, 2}])
        assert wa.run_weighted((0, 1, 2, 0)) == (True, (2, 2))
        assert wa.run_weighted((1, 1, 1)) == (True, (0, 3))
        assert wa.run_weighted((0, 0)) == (True, (2, 0))

    def test_bounds_reject(self):
        wa = build_gcc_weights((0, 1), bounds=[(1, 2), (0, 1)])
        assert wa.accepts_within_bounds((0, 1, 0))
        assert not wa.accepts_within_bounds((1, 1, 0))
        assert not wa.accepts_within_bounds((1,))


class TestCountGroups:
    def test_counting_resources_found_in_resource_order(self):
        wa = build_gcc_weights(ABC, groups=[{0}, {1, 2}])
        groups = wa.count_groups()
        assert groups == ((frozenset({0}), 0), (frozenset({1, 2}), 1))
        assert wa.count_groups() is groups  # kept on the automaton

    @pytest.mark.parametrize("trans, base", [
        ({(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 0}, {(0, 0, 1): 1}),
        ({(0, 0): 0, (0, 1): 0}, {(0, 0, 1): 2}),
    ], ids=["state-dependent", "cost-2"])
    def test_resource_that_counts_no_group(self, trans, base):
        # Positional costs: test_model's
        # test_positional_cost_on_counted_resource_rejected.
        n_states = 1 + max(q for q, _ in trans)
        dfa = Dfa(n_states, (0, 1), trans, 0, set(range(n_states)))
        wa = WeightedDfa(dfa, CostMatrices(1, base), [(0, 9)])
        assert wa.count_groups() == ()

    def test_empty_group_skipped(self):
        # Resource 0 costs nothing anywhere; resource 1 counts value 1.
        wa = WeightedDfa(universal_dfa((0, 1)),
                         CostMatrices(2, {(1, 0, 1): 1}), [(0, 9), (0, 9)])
        assert wa.count_groups() == ((frozenset({1}), 1),)


class TestProduct:
    def rand_weighted(self, rng, n_res=1):
        n = rng.randint(1, 3)
        trans = {(q, v): rng.randrange(n) for q in range(n) for v in ABC}
        acc = {q for q in range(n) if rng.random() < 0.7} or {0}
        dfa = Dfa(n, ABC, trans, 0, acc)
        base = {}
        for r in range(n_res):
            for q in range(n):
                for v in ABC:
                    if rng.random() < 0.4:
                        base[(r, q, v)] = rng.randint(1, 3)
        bounds = [(0, 10 ** 9)] * n_res
        return WeightedDfa(dfa, CostMatrices(n_res, base), bounds)

    def test_intersection_and_cost_additivity(self):
        """Product acceptance is the conjunction and resources concatenate."""
        rng = random.Random(5)
        for _ in range(120):
            a = self.rand_weighted(rng)
            b = self.rand_weighted(rng)
            p = a.product(b, 5)
            n = rng.randint(0, 5)
            w = tuple(rng.choice(ABC) for _ in range(n))
            oka, ca = a.run_weighted(w)
            okb, cb = b.run_weighted(w)
            okp, cp = p.run_weighted(w)
            assert okp == (oka and okb)
            assert cp == ca + cb

    def test_max_states_stops_build(self):
        def counter(sym, size=300):
            """Counts sym modulo size; accepts at count 0."""
            trans = {(q, v): (q + (v == sym)) % size
                     for q in range(size) for v in (0, 1)}
            return WeightedDfa.plain(Dfa(size, (0, 1), trans, 0, {0}))

        # Within 600 steps the product reaches all its 90,000 states; the
        # build stops at 51.
        with pytest.raises(ProductTooLarge):
            counter(0).product(counter(1), 600, max_states=50)
        # Equal counters cross to the 300-state diagonal, which fits exactly.
        same = counter(0).product(counter(0), 600, max_states=300)
        assert same.dfa.n_states == 300

    def test_horizon_keeps_the_states_of_short_words(self):
        def counter(sym, size=300):
            trans = {(q, v): (q + (v == sym)) % size
                     for q in range(size) for v in (0, 1)}
            return WeightedDfa.plain(Dfa(size, (0, 1), trans, 0, {0}))

        # Within 4 steps the counters reach the 15 pairs (i, j) with
        # i + j <= 4; the 5 reached at step 4 lead to one dead state.
        p = counter(0).product(counter(1), 4, max_states=16)
        assert p.dfa.n_states == 16
        dead = p.dfa.n_states - 1
        assert dead not in p.dfa.accepting
        assert all(p.dfa.step(dead, v) == dead for v in (0, 1))

    def test_horizon_product_runs_as_the_full_one(self):
        """Cut to n, a product numbers its states as the full product, has
        the same graph of accepting length-n runs arc for arc, and runs every
        word of length at most n the same way."""
        rng = random.Random(808)
        for _ in range(150):
            n = rng.randint(0, 6)
            a, b = random_positional(rng, n), random_positional(rng, n)
            full = a.product(b, 10 ** 6)
            cut = a.product(b, n)
            assert cut.dfa.n_states <= full.dfa.n_states + 1
            assert accepting_runs(cut, n) == accepting_runs(full, n)
            for m in range(n + 1):
                for w in product(ABC, repeat=m):
                    assert cut.run_weighted(w) == full.run_weighted(w)


class TestSharedProducts:
    """Products are kept in one process-wide table keyed by content.  Each
    test starts from an empty table, so none depends on test order."""

    @pytest.fixture(autouse=True)
    def empty_table(self, monkeypatch):
        monkeypatch.setattr(automata, "_PRODUCTS", OrderedDict())

    @staticmethod
    def operands(cost=2, accepting=(0,), bound=(0, 9)):
        """Two fresh automata over ABC: a 2-state parity automaton with one
        resource, and a counter of symbol 1."""
        trans = {(q, v): q ^ (v == 2) for q in (0, 1) for v in ABC}
        a = WeightedDfa(Dfa(2, ABC, trans, 0, accepting),
                        CostMatrices(1, {(0, 0, 0): cost, (0, 1, 1): 1},
                                     {(0, 1, 0, 2): 1}),
                        [bound])
        return a, build_gcc_weights(ABC, groups=[{1}], bounds=[(0, 3)])

    @staticmethod
    def same_automaton(p, q, n):
        d, e = p.dfa, q.dfa
        assert (d.alphabet, d._rows, d.start, d.accepting) == \
            (e.alphabet, e._rows, e.start, e.accepting)
        assert p.costs.base == q.costs.base
        assert p.costs.positional == q.costs.positional
        assert p.resource_bounds == q.resource_bounds
        assert p.arc_table(n).layers == q.arc_table(n).layers
        assert p.arc_table(n).packing.width == q.arc_table(n).packing.width

    def test_content_equal_operands_share_one_product(self):
        a, b = self.operands()
        a2, b2 = self.operands()
        assert a is not a2 and b is not b2
        p = a.product(b, 5)
        assert a2.product(b2, 5) is p
        assert a.product(b, 6) is not p

    @pytest.mark.parametrize("change", [
        {"cost": 3}, {"accepting": (0, 1)}, {"bound": (0, 8)},
    ], ids=["cost", "accepting", "bound"])
    def test_changed_operand_gives_new_product(self, change):
        a, b = self.operands()
        c, _ = self.operands(**change)
        p, q = a.product(b, 5), c.product(b, 5)
        assert q is not p
        self.same_automaton(q, c._build_product(b, 5), 5)

    def test_shared_product_equals_a_fresh_build(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(1, 5)
            a, b = random_positional(rng, n), random_positional(rng, n)
            p = a.product(b, n)
            assert a.product(b, n) is p
            self.same_automaton(p, a._build_product(b, n), n)

    def test_hit_below_the_state_count_raises(self):
        a, b = self.operands()
        p = a.product(b, 5)
        assert a.product(b, 5, max_states=p.dfa.n_states) is p
        with pytest.raises(ProductTooLarge):
            a.product(b, 5, max_states=p.dfa.n_states - 1)

    def test_capped_build_that_raised_is_rebuilt(self):
        a, b = self.operands()
        with pytest.raises(ProductTooLarge):
            a.product(b, 5, max_states=1)
        assert not automata._PRODUCTS
        p = a.product(b, 5)
        assert p.dfa.n_states > 1
        self.same_automaton(p, a._build_product(b, 5), 5)

    def test_least_recently_used_product_is_evicted(self, monkeypatch):
        monkeypatch.setattr(automata, "PRODUCT_CAP", 2)
        a, b = self.operands()
        p4, p5 = a.product(b, 4), a.product(b, 5)
        assert a.product(b, 4) is p4  # now p5 is the least recently used
        a.product(b, 6)
        assert a.product(b, 4) is p4
        assert a.product(b, 5) is not p5

    def test_measuring_builders_share_per_argument_tuple(self):
        assert build_stretch_count([1], range(3)) is build_stretch_count({1}, ABC)
        assert (build_stretch_length_bounds({0}, ABC, 7)
                is build_stretch_length_bounds(frozenset({0}), [0, 1, 2], 7))
        assert (build_sliding_word_counter([{2}, {2}], 4, ABC)
                is build_sliding_word_counter(({2}, {2}), 4, ABC))
        assert (build_sliding_word_counter(({2}, {2}), 4, ABC)
                is not build_sliding_word_counter(({2}, {2}), 5, ABC))
        # One stretch counter serves every row length: the count range is
        # derived from the automaton, 0 to ceil(K/2) stretches.
        stretches = build_stretch_count({1}, ABC)
        for K in (4, 7):
            m = MatrixModel(2, K, ABC, universal_dfa(ABC))
            assert _measuring_automaton(StretchCountProp({1}), m) is stretches
        for K in range(1, 9):
            assert achievable_totals(stretches, K) == [(0, (K + 1) // 2)]


class TestSweeps:
    def test_resumed_forward_sweep_equals_a_full_one(self):
        """After a cutting backward sweep, a forward sweep resumed at the
        first cut layer keeps the arcs a full sweep keeps, with the same
        envelopes at their sources and at the last layer."""
        rng = random.Random(5150)
        resumed = 0
        for _ in range(400):
            n = rng.randint(1, 8)
            wdfa = random_positional(rng, n)
            nres = wdfa.n_resources
            table = wdfa.arc_table(n)
            packing = table.packing
            doms = [rng.randint(1, 7) for _ in range(n)]
            arcs, env = sweep_forward(table, wdfa.dfa.start, doms)
            finals = env[n].keys() & wdfa.dfa.accepting
            if not finals:
                continue
            tight = packing.unpack(packing.least(env[n][q] for q in finals))
            lo = [rng.randint(m, -x) for m, x in zip(tight[:nres], tight[nres:])]
            hi = [rng.randint(a, -x) for a, x in zip(lo, tight[nres:])]
            ceiling = packing.ceiling(hi + [-x for x in lo])
            _, first = sweep_backward(arcs, env, finals, packing, ceiling)
            if first is None:
                continue
            resumed += 1
            full_arcs, full_env = sweep_forward(
                table, wdfa.dfa.start, arcs=[list(layer) for layer in arcs])
            got_arcs, got_env = sweep_forward(table, wdfa.dfa.start, arcs=arcs,
                                              env=env, first=first)
            assert got_arcs == full_arcs
            assert got_env[first + 1:] == full_env[first + 1:]
            for i, layer in enumerate(full_arcs):
                for q, *_ in layer:
                    assert got_env[i][q] == full_env[i][q]
        assert resumed > 50


class TestFilters:
    def test_stretch_length_dfa_table(self):
        d = stretch_length_dfa({1}, ABC, 2, 3)
        cases = [
            ((1, 1, 0, 0), True),
            ((1, 0, 0, 0), False),
            ((1, 1, 1, 1), False),
            ((0, 1, 1, 1), True),
            ((2, 2, 2, 2), True),
        ]
        for w, want in cases:
            assert d.accepts(w) is want
        assert sum(1 for w in product(ABC, repeat=4) if d.accepts(w)) == 32

    def test_stretch_length_dfa_unbounded(self):
        d = stretch_length_dfa({1}, (0, 1), 3)
        assert d.accepts((1, 1, 1, 1, 1))
        assert not d.accepts((1, 1, 0, 0, 0))

    def test_sequence_window_counts(self):
        d = sequence_window_dfa({0}, ABC, 2, 1, 2)
        assert sum(1 for w in product(ABC, repeat=3) if d.accepts(w)) == 11
        assert d.accepts((0, 1, 0))
        assert not d.accepts((1, 1, 0))

    def test_window_shorter_words_pass(self):
        d = sequence_window_dfa({0}, ABC, 3, 1, 3)
        assert d.accepts((1, 1))

    def test_window_rejects_repeated_symbols(self):
        with pytest.raises(AutomatonError, match="distinct symbols"):
            sequence_window_dfa({0}, (0, 0, 1), 2, 1, 2)


class TestDumpParse:
    def test_round_trip(self):
        wa = build_stretch_count({1}, ABC)
        text = dump_automaton(wa)
        back = parse_automaton(text)
        for w in product(ABC, repeat=3):
            assert wa.run_weighted(w) == back.run_weighted(w)
        assert dump_automaton(back) == text

    def test_round_trip_positional(self):
        wa = build_sliding_word_counter(({2}, {2}), 4, ABC)
        back = parse_automaton(dump_automaton(wa))
        rng = random.Random(3)
        for _ in range(60):
            w = tuple(rng.choice(ABC) for _ in range(4))
            assert wa.run_weighted(w) == back.run_weighted(w)

    def test_random_positional_round_trip(self):
        rng = random.Random(41)
        for _ in range(100):
            wa = random_positional(rng, rng.randint(1, 5))
            text = dump_automaton(wa)
            back = parse_automaton(text)
            assert back.dfa.transitions() == wa.dfa.transitions()
            assert back.dfa.accepting == wa.dfa.accepting
            assert back.resource_bounds == wa.resource_bounds
            assert back.costs.base == wa.costs.base
            assert back.costs.positional == wa.costs.positional
            assert dump_automaton(back) == text

    @pytest.mark.parametrize("base, positional, named", [
        ({(0, 5, 9): 3}, {(0, 0, 1, -1): 2}, "state 5"),
        ({(0, 0, 9): 3}, {}, "symbol 9"),
        ({}, {(0, 0, 1, -1): 2}, "position -1"),
        ({}, {(0, 0, 7, 2): 2}, "symbol 7"),
    ])
    def test_cost_entries_outside_the_automaton_rejected(self, base, positional,
                                                          named):
        costs = CostMatrices(1, base, positional)
        with pytest.raises(AutomatonError, match=named):
            WeightedDfa(universal_dfa((0, 1)), costs, [(0, 9)])

    def test_parse_rejects_garbage(self):
        with pytest.raises(AutomatonError):
            parse_automaton("dfa 2 bad\n")
