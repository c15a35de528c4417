import random

import pytest

from matrixcp import engine
from matrixcp.engine import Inconsistent, Propagator, SearchStats, Store, search


class TestStore:
    def test_new_var_and_domain_queries(self):
        st = Store()
        x = st.new_var({3, 1, 5})
        assert st.vmin(x) == 1 and st.vmax(x) == 5
        assert not st.is_fixed(x)
        assert set(st.dom(x)) == {1, 3, 5}

    def test_empty_domain_rejected(self):
        st = Store()
        with pytest.raises(Inconsistent):
            st.new_var(set())

    def test_assign_and_value(self):
        st = Store()
        x = st.new_var({0, 1, 2})
        st.assign(x, 1)
        assert st.is_fixed(x) and st.value(x) == 1

    def test_value_of_unfixed_variable_names_it(self):
        st = Store()
        x = st.new_var({0, 2}, name="cell")
        z = st.new_interval(4, 5, name="total")
        for vid, name in ((x, "cell"), (z, "total")):
            with pytest.raises(ValueError, match=f"variable {name} is not fixed"):
                st.value(vid)
        st.assign(x, 2)
        st.set_min(z, 5)
        assert (st.value(x), st.value(z)) == (2, 5)
        big = st.new_var({70})
        assert st.value(big) == 70

    def test_remove_last_value_fails(self):
        st = Store()
        x = st.new_var({4})
        with pytest.raises(Inconsistent):
            st.remove_value(x, 4)

    def test_bound_ops(self):
        st = Store()
        x = st.new_var(range(10))
        st.set_min(x, 3)
        st.set_max(x, 7)
        assert (st.vmin(x), st.vmax(x)) == (3, 7)
        with pytest.raises(Inconsistent):
            st.set_min(x, 8)

    def test_keep_values(self):
        st = Store()
        x = st.new_var({0, 1, 2, 3})
        st.keep_values(x, {1, 3, 9})
        assert set(st.dom(x)) == {1, 3}

    def test_bc_domain_ignores_interior_removal(self):
        # bound-consistent vars only react to updates that move a bound
        st = Store()
        x = st.new_interval(0, 5)
        assert st.remove_value(x, 3) is False
        assert (st.vmin(x), st.vmax(x)) == (0, 5)
        st.remove_value(x, 5)
        assert st.vmax(x) == 4

    def test_interval_keeps_hull_and_undoes(self):
        st = Store()
        x = st.new_interval(0, 9)
        st.mark()
        assert st.keep_values(x, {2, 5, 11}) is True
        assert st.dom(x) == range(2, 6)
        st.assign(x, 3)
        assert st.is_fixed(x) and st.value(x) == 3
        with pytest.raises(Inconsistent):
            st.assign(x, 4)
        st.undo()
        assert st.dom(x) == range(0, 10)
        with pytest.raises(Inconsistent):
            st.new_interval(3, 2)

    def test_mark_undo_restores_domains(self):
        st = Store()
        x = st.new_var({0, 1, 2})
        y = st.new_var({0, 1})
        st.mark()
        st.assign(x, 0)
        st.remove_value(y, 1)
        st.undo()
        assert set(st.dom(x)) == {0, 1, 2}
        assert set(st.dom(y)) == {0, 1}

    def test_nested_marks(self):
        st = Store()
        x = st.new_var(range(5))
        st.mark()
        st.set_min(x, 1)
        st.mark()
        st.set_min(x, 3)
        st.undo()
        assert st.vmin(x) == 1
        st.undo()
        assert st.vmin(x) == 0


    def test_memo_keeps_at_most_cap_entries_oldest_out_first(self, monkeypatch):
        monkeypatch.setattr(engine, "MEMO_CAP", 3)
        memo = engine.MEMO
        filtered = []

        def filter(k):
            filtered.append(k)
            return [], k

        for k in range(6):
            assert engine.memoised(k, filter, k) == ((), k)
            assert len(memo) <= 3
        assert list(memo) == [3, 4, 5]
        # A hit neither filters nor reorders.
        assert engine.memoised(4, filter, 4) == ((), 4)
        assert filtered == [0, 1, 2, 3, 4, 5] and list(memo) == [3, 4, 5]
        # An evicted key is filtered again and evicts the oldest in turn.
        engine.memoised(0, filter, 0)
        assert filtered[-1] == 0 and list(memo) == [4, 5, 0]

    def test_undo_keeps_memo(self):
        st = Store()
        st.mark()
        engine.memoised("k", lambda: ([], False))
        st.undo()
        assert list(engine.MEMO) == ["k"]

    def test_memo_entries_are_compact(self):
        # Changes are kept as a tuple, and every result that changes nothing
        # and holds is the one shared NO_CHANGE entry.
        assert engine.memoised("a", lambda: ([(0, 1)], False)) == (((0, 1),), False)
        assert engine.memoised("b", lambda: ([], False)) is engine.NO_CHANGE
        assert engine.memoised("c", lambda: ([], False)) is engine.NO_CHANGE
        assert engine.memoised("d", lambda: ([], True)) == ((), True)


class ForbidValue(Propagator):
    """Removes one value from one variable, counting its own runs."""

    def __init__(self, vid, value):
        self.vid = vid
        self.value = value
        self.runs = 0

    def variables(self):
        return (self.vid,)

    def run(self, store):
        self.runs += 1
        if self.value in store.dom(self.vid):
            store.remove_value(self.vid, self.value)


class AllDiffPair(Propagator):
    def __init__(self, a, b):
        self.a = a
        self.b = b

    def variables(self):
        return (self.a, self.b)

    def run(self, store):
        for x, y in ((self.a, self.b), (self.b, self.a)):
            if store.is_fixed(x):
                store.remove_value(y, store.value(x))


class TestPropagation:
    def test_propagate_reaches_fixpoint(self):
        st = Store()
        x = st.new_var({0, 1})
        y = st.new_var({0, 1})
        z = st.new_var({0, 1})
        st.register(AllDiffPair(x, y))
        st.register(AllDiffPair(y, z))
        st.assign(x, 0)
        assert st.propagate() == "stable"
        assert st.value(y) == 1 and st.value(z) == 0

    def test_propagate_reports_failure(self):
        st = Store()
        x = st.new_var({0})
        st.register(ForbidValue(x, 0))
        assert st.propagate() == "failed"

    def test_propagator_not_rerun_when_quiet(self):
        st = Store()
        x = st.new_var({0, 1, 2})
        p = ForbidValue(x, 2)
        st.register(p)
        st.propagate()
        runs = p.runs
        st.propagate()
        assert p.runs == runs  # nothing changed, queue stays empty


class Logged(Propagator):
    """Logs its runs; removes ``value`` from its variable, or fails, when
    asked to."""

    def __init__(self, vid, tier, log, value=None, fail=False):
        self.vid = vid
        self.priority = tier
        self.log = log
        self.value = value
        self.fail = fail

    def variables(self):
        return (self.vid,)

    def run(self, store):
        self.log.append(self)
        if self.fail:
            raise Inconsistent("planted")
        if self.value is not None:
            store.remove_value(self.vid, self.value)


class TestTiers:
    def test_lowest_tier_first_fifo_within_a_tier(self):
        st = Store()
        x = st.new_var({0, 1, 2})
        log = []
        props = [Logged(x, tier, log) for tier in (2, 1, 0, 2, 0, 1)]
        for p in props:
            st.register(p)
        assert st.propagate() == "stable"
        assert log == [props[i] for i in (2, 4, 1, 5, 0, 3)]

    def test_a_woken_lower_tier_runs_before_the_queued_later_one(self):
        st = Store()
        x = st.new_var({0, 1, 2})
        log = []
        first = Logged(x, 2, log, value=1)
        later = Logged(x, 2, log)
        cheap = Logged(x, 0, log)
        st.watch(x, cheap)  # woken by first's removal, not queued before
        st.register(first)
        st.register(later)
        assert st.propagate() == "stable"
        assert log == [first, cheap, later]

    def test_failure_empties_every_tier(self):
        st = Store()
        x = st.new_var({0, 1})
        log = []
        props = [Logged(x, 0, log, fail=True)] + [Logged(x, t, log)
                                                   for t in (0, 1, 2)]
        for p in props:
            st.register(p)
        assert st.propagate() == "failed"
        assert log == props[:1]
        assert not any(st._tiers) and not st._queued
        assert st.propagate() == "stable"
        assert log == props[:1]


class TestSearch:
    def build_alldiff(self, n):
        st = Store()
        xs = [st.new_var(range(n)) for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                st.register(AllDiffPair(xs[i], xs[j]))
        return st, xs

    def test_finds_solution(self):
        st, xs = self.build_alldiff(3)
        res = search(st, xs)
        assert res.status == "sat"
        vals = [res.solution[x] for x in xs]
        assert sorted(vals) == [0, 1, 2]

    def test_unsat_pigeonhole(self):
        st = Store()
        xs = [st.new_var({0, 1}) for _ in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                st.register(AllDiffPair(xs[i], xs[j]))
        res = search(st, xs)
        assert res.status == "unsat"
        assert res.solution is None

    def test_enumeration_via_callback(self):
        st, xs = self.build_alldiff(3)
        seen = []
        res = search(st, xs, on_solution=lambda sol: (seen.append(dict(sol)), False)[1])
        assert len(seen) == 6
        assert len({tuple(s[x] for x in xs) for s in seen}) == 6
        assert res.status == "sat"  # a solution was found even though exhausted

    def test_callback_stop(self):
        st, xs = self.build_alldiff(3)
        seen = []
        search(st, xs, on_solution=lambda sol: (seen.append(sol), True)[1])
        assert len(seen) == 1

    def test_store_restored_after_first_solution(self):
        st, xs = self.build_alldiff(3)
        before = [set(st.dom(x)) for x in xs]
        res = search(st, xs, on_solution=lambda sol: True)
        assert res.status == "sat"
        assert [set(st.dom(x)) for x in xs] == before

    def test_counts_deterministic(self):
        def run():
            st, xs = self.build_alldiff(4)
            res = search(st, xs, on_solution=lambda s: False)
            return res.stats.nodes, res.stats.backtracks, res.stats.failures

        assert run() == run() == run()

    def test_stats_as_dict_keys(self):
        stats = SearchStats()
        d = stats.as_dict()
        for key in ("nodes", "backtracks", "failures", "root_failure"):
            assert key in d

    def test_smallest_domain_first(self):
        # y has the tighter domain, so the first decision assigns y
        st = Store()
        x = st.new_var(range(5))
        y = st.new_var({7, 9})
        res = search(st, [x, y], on_solution=lambda s: True)
        assert res.status == "sat"
        assert res.stats.nodes >= 1
        assert res.solution[y] == 7  # increasing value order


class TestSeededFuzz:
    def test_random_binary_tables(self):
        """Search agrees with brute-force enumeration on random constraints."""
        rng = random.Random(97)

        class TablePair(Propagator):
            def __init__(self, a, b, allowed):
                self.a, self.b, self.allowed = a, b, allowed

            def variables(self):
                return (self.a, self.b)

            def run(self, store):
                da = list(store.dom(self.a))
                db = set(store.dom(self.b))
                store.keep_values(
                    self.a, {u for u in da if any((u, w) in self.allowed for w in db)})
                da2 = set(store.dom(self.a))
                store.keep_values(
                    self.b, {w for w in db if any((u, w) in self.allowed for u in da2)})

        for trial in range(60):
            n = rng.randint(2, 4)
            dom = range(rng.randint(2, 3))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.6]
            tables = {p: {(u, w) for u in dom for w in dom if rng.random() < 0.55}
                      for p in pairs}

            def ok(assign):
                return all((assign[i], assign[j]) in tables[(i, j)]
                           for (i, j) in pairs)

            from itertools import product
            want = sorted(a for a in product(dom, repeat=n) if ok(list(a)))

            st = Store()
            xs = [st.new_var(dom) for _ in range(n)]
            try:
                for (i, j) in pairs:
                    st.register(TablePair(xs[i], xs[j], tables[(i, j)]))
            except Inconsistent:
                assert want == []
                continue
            got = []
            search(st, xs, on_solution=lambda s: (got.append(tuple(s[x] for x in xs)), False)[1])
            assert sorted(got) == want, f"trial {trial}"
