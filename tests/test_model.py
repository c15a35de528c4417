import random
import time
import tracemalloc
from collections import OrderedDict

import pytest

import matrixcp.model
from matrixcp import engine
from matrixcp.automata import (
    CostMatrices,
    Dfa,
    WeightedDfa,
    build_gcc_weights,
    build_sliding_word_counter,
    stretch_length_dfa,
    universal_dfa,
)
from matrixcp.engine import Store
from matrixcp.generators import (
    gen_3sat,
    gen_exact_cover,
    gen_hitting_set,
    gen_random,
)
from matrixcp.model import (
    MODES,
    CountGroupEq,
    MatrixModel,
    StretchCountProp,
    StretchLengthProp,
    WordProp,
    achievable_totals,
    build,
    check_property,
    default_properties,
    root_prune,
    solve,
)
from matrixcp.oracle import brute_solutions, brute_solve, check_solution
from matrixcp.propagators import GccColumn, Mcr, MemoFilter, Relation, SumE, VarE
from matrixcp.roster import (
    NspInstance,
    default_toy_case,
    gen_toy_rosters,
    roster_model,
)

from test_planted import planted_models


def count_group_eqs(built):
    """The number of count-group equalities posted in a build."""
    return len({id(p) for ws in built.store._watchers for p in ws
                if isinstance(p, CountGroupEq)})


def permutation_model(n):
    """Each row places exactly one 1; each column receives exactly one."""
    rule = build_gcc_weights((0, 1), groups=[{1}], bounds=[(1, 1)])
    return MatrixModel(n, n, (0, 1), rule,
                       col_gcc=[{1: (1, 1)} for _ in range(n)])


class TestMatrixModel:
    def test_values_must_ascend(self):
        rule = universal_dfa((0, 1))
        with pytest.raises(ValueError):
            MatrixModel(1, 1, (2, 1), rule)

    def test_rule_alphabet_must_match_indices(self):
        with pytest.raises(ValueError):
            MatrixModel(1, 1, (0, 1), universal_dfa((0, 5)))

    def test_cell_domain_defaults_to_all_values(self):
        m = MatrixModel(2, 2, (3, 7), universal_dfa((0, 1)))
        assert m.cell_domain(0, 0) == frozenset({0, 1})

    def test_cell_domains_grid_normalized(self):
        m = MatrixModel(1, 2, (0, 1), universal_dfa((0, 1)),
                        cell_domains=[[{1}, {0, 1}]])
        assert m.cell_domain(0, 0) == frozenset({1})

    def test_card_bounds_clamped_to_row_count(self):
        m = MatrixModel(2, 1, (0, 1), universal_dfa((0, 1)),
                        col_gcc=[{1: (-3, 99)}])
        assert m.card_bounds(0, 1) == (0, 2)
        assert m.card_bounds(0, 0) == (0, 2)  # unconstrained value

    @pytest.mark.parametrize("kwargs", [
        {"col_gcc": [{}, {}, {}]},
        {"col_sums": [(0, 1)]},
        {"cell_domains": [[{0}, {1}]]},
        {"cell_domains": [[{0}], [{0}]]},
        {"cell_domains": [[{0}, {2}], [{0}, {1}]]},
        {"col_gcc": [{2: (0, 1)}, {}]},
    ], ids=["col_gcc-columns", "col_sums-columns", "cell_domains-rows",
            "cell_domains-columns", "cell_domains-value", "col_gcc-value"])
    def test_malformed_model_rejected(self, kwargs):
        rule = build_gcc_weights((0, 1), groups=[{1}], bounds=[(0, 2)])
        with pytest.raises(ValueError):
            MatrixModel(2, 2, (0, 1), rule, **kwargs)

    @pytest.mark.parametrize("kwargs, problem", [
        ({"col_sums": [(0, 1, 2), (0, 1)]}, r"col_sums\[0\] must be an \(lo, hi\)"),
        ({"col_sums": [None, 3]}, r"col_sums\[1\] must be an \(lo, hi\)"),
        ({"col_gcc": [{0: 3}, {}]}, r"col_gcc\[0\]\[0\] must be an \(lo, hi\)"),
        ({"col_gcc": [{}, {1: (0, 1.5)}]}, r"col_gcc\[1\]\[1\] must be an \(lo, hi\)"),
        ({"values": (0.5, 1)}, "value 0.5 is not an int"),
        ({"values": (0, "1")}, "value '1' is not an int"),
        ({"col_sums": [(True, 2), None]}, r"col_sums\[0\] must be an \(lo, hi\)"),
        ({"col_gcc": [{}, {0: (0, False)}]}, r"col_gcc\[1\]\[0\] must be an \(lo, hi\)"),
        ({"values": (False, True)}, "value False is not an int"),
    ], ids=["col_sums-triple", "col_sums-scalar", "col_gcc-scalar",
            "col_gcc-float", "values-float", "values-str", "col_sums-bool",
            "col_gcc-bool", "values-bool"])
    def test_malformed_bound_or_value_named(self, kwargs, problem):
        kwargs = {"values": (0, 1), **kwargs}
        with pytest.raises(ValueError, match=f"^{problem}"):
            MatrixModel(2, 2, row_rule=universal_dfa((0, 1)), **kwargs)

    @pytest.mark.parametrize("props, problem", [
        ([WordProp((frozenset({0}), frozenset({2})))], "outside 0..1"),
        ([StretchCountProp(frozenset({3}))], "outside 0..1"),
        ([WordProp(())], "the word is empty"),
        ([WordProp((frozenset(),))], "a symbol set is empty"),
        ([StretchLengthProp(frozenset())], "a symbol set is empty"),
        ([StretchCountProp(frozenset({0, 1}))], "holds every value"),
        ([StretchLengthProp(frozenset({0, 1}))], "holds every value"),
        ([StretchCountProp({1}), WordProp(({0},)), StretchCountProp({1})],
         "listed twice"),
    ], ids=["word-value", "stretchcount-value", "empty-word", "empty-word-set",
            "stretchlen-empty", "stretchcount-full", "stretchlen-full",
            "repeated"])
    def test_malformed_property_rejected(self, props, problem):
        name = type(props[-1]).__name__
        with pytest.raises(ValueError, match=f"^{name}.*{problem}"):
            MatrixModel(2, 2, (0, 1), universal_dfa((0, 1)), properties=props)

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0), (-1, 1)])
    def test_empty_matrix_rejected(self, shape):
        rule = universal_dfa((0, 1))
        with pytest.raises(ValueError, match="at least one row"):
            MatrixModel(*shape, (0, 1), rule)

    def test_positional_cost_on_counted_resource_rejected(self):
        # Reading 1 costs 1 more at position 2, so resource 0 counts no
        # value group and no count condition is posted.
        dfa = universal_dfa((0, 1))
        costs = CostMatrices(1, {(0, 0, 1): 1}, {(0, 0, 1, 2): 1})
        rule = WeightedDfa(dfa, costs, [(0, 9)])
        m = MatrixModel(2, 3, (0, 1), rule)
        assert m.row_rule.count_groups() == ()
        assert count_group_eqs(build(m, "wa")) == 0

    def test_count_group_judged_on_accepting_runs_only(self):
        # State 1 is reached by reading 1 twice in a row and never accepts,
        # so the cost 5 it pays on 0 lies on no accepting run; nor does the
        # cost of unreachable state 3.
        trans = {(0, 0): 0, (0, 1): 2, (2, 0): 0, (2, 1): 1,
                 (1, 0): 1, (1, 1): 1, (3, 0): 3, (3, 1): 3}
        base = {(0, 0, 1): 1, (0, 2, 1): 1, (0, 1, 0): 5, (0, 3, 0): 1}
        rule = WeightedDfa(Dfa(4, (0, 1), trans, 0, {0, 2, 3}),
                           CostMatrices(1, base), [(0, 9)])
        m = MatrixModel(2, 3, (0, 1), rule)
        assert m.row_rule.count_groups() == ((frozenset({1}), 0),)

    @pytest.mark.parametrize("mode, posted", [("decomp", 0), ("wa", 3),
                                              ("cwa", 3)])
    def test_build_posts_one_equality_per_inferred_group(self, mode, posted):
        # Resources 0-2 count {1}, {0, 2} and every value; resource 3 pays 2
        # for a 1, so it counts no group.
        base = {(0, 0, 1): 1, (1, 0, 0): 1, (1, 0, 2): 1, (3, 0, 1): 2}
        base.update({(2, 0, v): 1 for v in range(3)})
        rule = WeightedDfa(universal_dfa((0, 1, 2)), CostMatrices(4, base),
                           [(0, 9)] * 4)
        m = MatrixModel(2, 3, (0, 1, 2), rule)
        assert m.row_rule.count_groups() == (
            (frozenset({1}), 0), (frozenset({0, 2}), 1),
            (frozenset({0, 1, 2}), 2))
        assert count_group_eqs(build(m, mode)) == posted

    def test_default_properties_cover_each_value(self):
        props = default_properties(2)
        # per value: two word shapes, stretch count, stretch length
        assert len(props) == 8
        kinds = [type(p).__name__ for p in props]
        assert kinds.count("WordProp") == 4
        assert kinds.count("StretchCountProp") == 2
        assert kinds.count("StretchLengthProp") == 2

    def test_default_properties_pass_their_own_check(self):
        # A lone value fills every row, so it has no stretch properties.
        assert default_properties(1) == [WordProp(({0},)),
                                         WordProp(({0}, {0}))]
        for n_values in (1, 2, 3):
            for prop in default_properties(n_values):
                check_property(prop, n_values)


class TestAchievableTotals:
    def test_sliding_counter_totals(self):
        wd = build_sliding_word_counter(({1},), 3, (0, 1))
        assert achievable_totals(wd, 3) == [(0, 1), (0, 1), (0, 1), (0, 3)]

    def test_infeasible_returns_none(self):
        wd = build_gcc_weights((0, 1), groups=[{1}], bounds=[(5, 9)])
        assert achievable_totals(wd, 3) is None


    def test_totals_kept_on_the_automaton(self, monkeypatch):
        wd = build_gcc_weights((0, 1), groups=[{1}], bounds=[(0, 2)])
        first = achievable_totals(wd, 3)
        monkeypatch.setattr(matrixcp.model, "_achievable_totals", None)
        assert achievable_totals(wd, 3) == first == [(0, 2)]
        achievable_totals(wd, 3).append("scratch")
        assert achievable_totals(wd, 3) == [(0, 2)]


class TestSolve:
    def test_permutation_first_solution(self):
        out = solve(permutation_model(3), mode="decomp")
        assert out.status == "sat"
        assert out.grid == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

    @pytest.mark.parametrize("mode", ["decomp", "wa", "cwa"])
    def test_permutation_enumeration_counts(self, mode):
        seen = []
        solve(permutation_model(3), mode=mode,
              on_solution=lambda g: (seen.append(tuple(map(tuple, g))), False)[1])
        assert len(set(seen)) == 6

    def test_one_value_model_agrees_with_the_oracle(self):
        m = MatrixModel(2, 3, (5,), universal_dfa((0,)))
        assert brute_solve(m) == ("sat", [[0] * 3] * 2)
        for mode in MODES:
            out = solve(m, mode)
            assert (out.status, out.grid) == ("sat", [[5] * 3] * 2), mode

    @pytest.mark.parametrize("mode", ["decomp", "wa", "cwa"])
    def test_pinned_column_unsat(self, mode):
        m = MatrixModel(2, 2, (0, 1), build_gcc_weights((0, 1)),
                        col_gcc=[{1: (1, 1)}, {1: (1, 1)}],
                        cell_domains=[[{1}, {0, 1}], [{1}, {0, 1}]])
        assert solve(m, mode=mode).status == "unsat"

    def test_grid_reports_external_values(self):
        rule = build_gcc_weights((0, 1), groups=[{1}], bounds=[(1, 1)])
        m = MatrixModel(1, 2, (10, 20), rule, col_gcc=[{1: (0, 1)}] * 2)
        out = solve(m, mode="decomp")
        assert sorted(out.grid[0]) == [10, 20]

    def test_lex_rows_prunes_symmetric_duplicates(self):
        rule = build_gcc_weights((0, 1), groups=[{1}], bounds=[(1, 1)])
        base = dict(col_gcc=[{1: (0, 2)}, {1: (0, 2)}])
        free = MatrixModel(2, 2, (0, 1), rule, **base)
        ordered = MatrixModel(2, 2, (0, 1), rule, **base, lex_rows=True)
        count = lambda m: len(brute_solutions(m))
        assert count(free) == 4
        seen = []
        solve(ordered, mode="decomp",
              on_solution=lambda g: (seen.append(tuple(map(tuple, g))), False)[1])
        assert len(seen) == 3  # the two mirrored unequal-row grids collapse

    def test_elapsed_includes_build(self, monkeypatch):
        build_s = []

        def timed_build(*args, **kwargs):
            t0 = time.monotonic()
            b = build(*args, **kwargs)
            build_s.append(time.monotonic() - t0)
            return b

        monkeypatch.setattr(matrixcp.model, "build", timed_build)
        out = solve(permutation_model(4), mode="cwa")
        assert out.status == "sat"
        assert out.elapsed >= build_s[-1] > 0
        rule = build_gcc_weights((0, 1), groups=[{1}], bounds=[(5, 9)])
        out = solve(MatrixModel(2, 3, (0, 1), rule), mode="cwa")
        assert out.stats.root_failure
        assert out.elapsed >= build_s[-1] > 0

    def test_time_limit_counts_build(self, monkeypatch):
        def slow_build(*args, **kwargs):
            b = build(*args, **kwargs)
            time.sleep(0.05)
            return b

        def no_search(*args, **kwargs):
            raise AssertionError("search ran after the build used the limit")

        monkeypatch.setattr(matrixcp.model, "build", slow_build)
        monkeypatch.setattr(matrixcp.model, "search", no_search)
        out = solve(permutation_model(4), mode="cwa", time_limit=0.02)
        assert out.status == "timeout" and out.grid is None
        assert out.elapsed >= 0.05
        out = solve(permutation_model(4), mode="decomp", time_limit=0.0)
        assert out.status == "timeout"
        # A build that proves the model unsat still answers unsat.
        rule = build_gcc_weights((0, 1), groups=[{1}], bounds=[(5, 9)])
        out = solve(MatrixModel(2, 3, (0, 1), rule), mode="cwa",
                    time_limit=0.0)
        assert out.status == "unsat" and out.stats.root_failure

    def test_time_limit_reports_timeout(self):
        m = gen_random(321, 6, 6, 3)
        out = solve(m, mode="decomp", time_limit=0.0)
        assert out.status in ("timeout", "sat", "unsat")

    def test_node_limit_reports_budget(self):
        free = solve(permutation_model(4), mode="decomp")
        assert free.status == "sat" and free.stats.nodes > 1
        out = solve(permutation_model(4), mode="decomp", node_limit=1)
        assert (out.status, out.grid, out.stats.nodes) == ("budget", None, 1)
        out = solve(permutation_model(4), mode="decomp",
                    node_limit=free.stats.nodes)
        assert (out.status, out.grid) == ("sat", free.grid)


class TestModeContrast:
    def scarcity_model(self):
        # three rows each need one 1 but only two columns can take one;
        # no single column constraint sees the shortfall
        rule = build_gcc_weights((0, 1), groups=[{1}], bounds=[(1, 1)])
        return MatrixModel(3, 3, (0, 1), rule,
                           col_gcc=[{1: (0, 1)}, {1: (0, 1)}, {1: (0, 0)}])

    def test_aggregate_count_conditions_fail_at_root(self):
        m = self.scarcity_model()
        assert brute_solve(m)[0] == "unsat"
        assert root_prune(m, "decomp") is not None
        assert root_prune(m, "wa") is None
        assert root_prune(m, "cwa") is None

    def test_decomp_needs_search_where_wa_does_not(self):
        m = self.scarcity_model()
        out_d = solve(m, mode="decomp")
        out_w = solve(m, mode="wa")
        assert out_d.status == out_w.status == "unsat"
        assert not out_d.stats.root_failure
        assert out_w.stats.root_failure


class TestExplicitProperties:
    def word_model(self, counted_total=False):
        rule = build_gcc_weights((0, 1), groups=[{1}], bounds=[(1, 2)])
        props = [WordProp((frozenset({1}), frozenset({1})))]
        if counted_total:
            # a one-symbol word over the group the rule counts posts nothing
            props.append(WordProp((frozenset({1}),)))
        return MatrixModel(2, 3, (0, 1), rule,
                           col_gcc=[{1: (0, 2)} for _ in range(3)],
                           properties=props)

    @pytest.mark.parametrize("counted_total", [False, True])
    def test_word_conditions_preserve_solutions(self, counted_total):
        m = self.word_model(counted_total)
        want = {tuple(map(tuple, g)) for g in brute_solutions(m)}
        got = set()
        solve(m, mode="cwa",
              on_solution=lambda g: (got.add(tuple(map(tuple, g))), False)[1])
        ext = {tuple(tuple(m.values[v] for v in row) for row in g) for g in want}
        assert got == ext

    @pytest.mark.parametrize("prop", [
        StretchCountProp(frozenset({1})),
        StretchLengthProp(frozenset({1})),
        WordProp((frozenset({0}),)),
    ])
    def test_single_property_models_solve(self, prop):
        rule = build_gcc_weights((0, 1), groups=[{1}], bounds=[(1, 2)])
        m = MatrixModel(2, 3, (0, 1), rule,
                        col_gcc=[{1: (0, 2)} for _ in range(3)],
                        properties=[prop])
        st, _ = brute_solve(m)
        for mode in ("wa", "cwa"):
            assert solve(m, mode=mode).status == st

    def test_filtering_row_rule_with_length_property(self):
        # rows: every 1-stretch exactly 2 long; columns cap the 1s
        rule = stretch_length_dfa({1}, (0, 1), 2, 2)
        m = MatrixModel(2, 4, (0, 1), rule,
                        col_gcc=[{1: (0, 1)} for _ in range(4)],
                        properties=[StretchLengthProp(frozenset({1}))])
        st, grid = brute_solve(m)
        assert st == "sat"
        for mode in ("decomp", "wa", "cwa"):
            out = solve(m, mode=mode)
            assert out.status == "sat"
            internal = [[m.values.index(v) for v in row] for row in out.grid]
            assert check_solution(m, internal)


class TestRootPruneMonotone:
    def test_modes_nest_pointwise(self):
        """Crossing prunes at least as much as measuring, which prunes at
        least as much as the plain decomposition."""
        rng = random.Random(77)
        for trial in range(25):
            m = gen_random(rng.randrange(10 ** 6), rng.randint(2, 3),
                           rng.randint(2, 4), rng.randint(2, 3))
            doms = {}
            for mode in ("decomp", "wa", "cwa"):
                doms[mode] = root_prune(m, mode)
            if doms["decomp"] is None:
                continue
            for strong, weak in (("wa", "decomp"), ("cwa", "wa")):
                if doms[strong] is None:
                    continue
                for i in range(m.n_rows):
                    for k in range(m.n_cols):
                        assert doms[strong][i][k] <= doms[weak][i][k], (
                            f"trial {trial} cell ({i},{k})")

    def test_solutions_never_pruned(self):
        rng = random.Random(78)
        for trial in range(15):
            m = gen_random(rng.randrange(10 ** 6), 2, 3, 2)
            sols = brute_solutions(m)
            for mode in ("decomp", "wa", "cwa"):
                doms = root_prune(m, mode)
                if doms is None:
                    assert not sols, f"trial {trial} {mode}"
                    continue
                for g in sols:
                    for i in range(m.n_rows):
                        for k in range(m.n_cols):
                            assert g[i][k] in doms[i][k]


class TestBuilt:
    def test_branch_vars_cover_cells(self):
        m = permutation_model(2)
        b = build(m, "decomp")
        assert len(b.branch_vars) == 4

    def test_cwa_over_cross_cap_skips_its_property(self, monkeypatch):
        caps = []
        product = WeightedDfa.product

        def spy(self, other, *args, **kwargs):
            caps.append(kwargs.get("max_states"))
            return product(self, other, *args, **kwargs)

        monkeypatch.setattr(WeightedDfa, "product", spy)
        prop = StretchCountProp({1})
        rule = build_gcc_weights((0, 1), groups=[{1}], bounds=[(1, 2)])
        m = MatrixModel(2, 3, (0, 1), rule, properties=[prop])

        def measuring_mcr(b):
            z = b.prop_z[prop][0][0]
            (p,) = [p for p in b.store._watchers[z] if isinstance(p, Mcr)]
            return p

        crossed = build(m, "cwa", cross_cap=2)
        p = measuring_mcr(crossed)
        assert p.zs == crossed.rule_z[0] + crossed.prop_z[prop][0]
        # The product has 2 states; a cap of 1 stops its build at the
        # second, and the property posts nothing: no resource, no Mcr and
        # no condition, so the store is the one a build without it makes.
        skipped = build(m, "cwa", cross_cap=1)
        assert caps == [2, 1]
        assert skipped.prop_z == {}
        bare = build(MatrixModel(2, 3, (0, 1), rule, properties=[]), "cwa")

        def posted(b):
            return [(type(p).__name__, tuple(p.variables())) for p in
                    dict.fromkeys(p for ws in b.store._watchers for p in ws)]

        assert len(skipped.store.domains) == len(bare.store.domains)
        assert posted(skipped) == posted(bare)

    def test_cwa_crosses_for_the_row_length(self):
        # A rule counting 1s modulo 50 crosses with the stretch counter into
        # 100 states, but rows of 3 cells reach only 6 of them (plus a dead
        # state), so the product fits under a cap of 20.
        prop = StretchCountProp({1})
        trans = {(q, v): (q + v) % 50 for q in range(50) for v in (0, 1)}
        base = {(0, q, 1): 1 for q in range(50)}
        rule = WeightedDfa(Dfa(50, (0, 1), trans, 0, range(50)),
                           CostMatrices(1, base), [(1, 2)])
        m = MatrixModel(2, 3, (0, 1), rule, properties=[prop])
        b = build(m, "cwa", cross_cap=20)
        z = b.prop_z[prop][0][0]
        (p,) = [p for p in b.store._watchers[z] if isinstance(p, Mcr)]
        assert p.zs == b.rule_z[0] + b.prop_z[prop][0]
        assert p.wdfa.dfa.n_states == 7
        sols = brute_solutions(m)
        doms = root_prune(m, "cwa")
        for g in sols:
            for i in range(m.n_rows):
                for k in range(m.n_cols):
                    assert g[i][k] in doms[i][k]

    def test_root_infeasible_shortcut(self):
        # a rule whose bounds admit no length-K word at all
        rule = build_gcc_weights((0, 1), groups=[{1}], bounds=[(5, 9)])
        m = MatrixModel(2, 3, (0, 1), rule)
        b = build(m, "decomp")
        assert b.root_infeasible
        out = solve(m, mode="decomp")
        assert out.status == "unsat" and out.stats.root_failure

    def test_only_property_modes_hold_counts_in_variables(self):
        # Under decomp nothing but the column reads a count, so the column
        # checks it against the declared bounds and no interval variable
        # holds it; the property conditions of wa and cwa read the cards.
        m = permutation_model(3)
        for mode in MODES:
            b = build(m, mode)
            columns = [p for p in dict.fromkeys(
                p for ws in b.store._watchers for p in ws)
                if isinstance(p, GccColumn)]
            assert len(columns) == 3
            if mode == "decomp":
                assert b.cards == []
                assert not any(n.startswith("n[") for n in b.store.names)
                assert all(p.zs == () and p.bounds == ((0, 3), (1, 1))
                           for p in columns)
            else:
                assert [p.zs for p in columns] == b.cards
                assert all(p.bounds is None for p in columns)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("gcc", [{1: (2, 1)}, {0: (3, 5)}])
    def test_empty_declared_count_range_is_root_infeasible(self, mode, gcc):
        # (3, 5) is clamped to the 2 rows: (3, 2).
        m = MatrixModel(2, 2, (0, 1), universal_dfa((0, 1)),
                        col_gcc=[{}, gcc])
        assert build(m, mode).root_infeasible
        out = solve(m, mode)
        assert out.status == "unsat" and out.stats.root_failure

    @staticmethod
    def big_cost_model(cost):
        """3x7 over one state where symbol 0 costs ``cost``: the row total
        ranges over 0..7*cost."""
        dfa = Dfa(1, (0, 1), {(0, 0): 0, (0, 1): 0}, 0, {0})
        rule = WeightedDfa(dfa, CostMatrices(1, {(0, 0, 0): cost}),
                           [(0, 7 * cost)])
        return MatrixModel(3, 7, (0, 1), rule)

    def test_big_cost_totals_build_in_constant_memory(self):
        tracemalloc.start()
        try:
            build(self.big_cost_model(10**5), "decomp")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_huge_cost_totals_solve(self):
        out = solve(self.big_cost_model(10**9), "decomp")
        assert out.status == "sat"


# Two rosters of one case, pinned as the cwa build made them when each
# build made its own products and measuring automata: coverage per day and
# shift, status, search nodes, and the root domains of the cells row by row
# (value indices, one group per cell).
SHARED_CASE_ROSTERS = [
    ([[5, 0, 0], [5, 0, 0], [5, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0],
      [1, 0, 0]], "sat", 8, "0 0 0 12 012 012 012"),
    ([[0, 4, 0], [0, 0, 0], [1, 1, 0], [2, 1, 0], [1, 1, 0], [1, 1, 0],
      [1, 1, 0]], "sat", 17, "012 012 012 012 012 012 012"),
]


def test_rosters_of_one_case_share_crossed_automata():
    rules = default_toy_case(3)
    models = [roster_model(NspInstance(5, 7, 3, cover), rules)
              for cover, *_ in SHARED_CASE_ROSTERS]
    assert models[0].row_rule is models[1].row_rule
    built = [build(m, "cwa") for m in models]
    counted = [WordProp((group,))
               for group, _ in models[0].row_rule.count_groups()]
    props = [p for p in default_properties(3) if p not in counted]
    for b in built:
        assert list(b.prop_z) == props
    for prop in props:
        mcrs = []
        for b in built:
            z = b.prop_z[prop][0][0]
            (p,) = [p for p in b.store._watchers[z] if isinstance(p, Mcr)]
            assert p.zs[:len(b.rule_z[0])] == b.rule_z[0]  # crossed
            mcrs.append(p)
        assert mcrs[0].wdfa is mcrs[1].wdfa
    for m, (_, status, nodes, row) in zip(models, SHARED_CASE_ROSTERS):
        out = solve(m, "cwa")
        assert (out.status, out.stats.nodes) == (status, nodes)
        doms = root_prune(m, "cwa")
        assert [" ".join("".join(map(str, sorted(d))) for d in cells)
                for cells in doms] == [row] * m.n_rows


def test_uncounted_symbol_counter_is_shared():
    """A one-symbol word over a set the rule does not count posts the
    product of the rule with a counter of that set, one automaton for every
    build; the word over the set the rule counts posts nothing."""
    rule = build_gcc_weights((0, 1), groups=[{1}], bounds=[(1, 2)])
    words = [WordProp((frozenset({v}),)) for v in (0, 1)]
    m = MatrixModel(2, 3, (0, 1), rule, properties=words)
    posted = []
    for b in [build(m, "cwa") for _ in range(2)]:
        assert list(b.prop_z) == words[:1]
        z = b.prop_z[words[0]][0][0]
        (p,) = [p for p in b.store._watchers[z] if isinstance(p, Mcr)]
        posted.append(p.wdfa)
    assert posted[0] is posted[1]
    assert posted[0].n_resources == 2
    assert posted[0].dfa.n_states == 1
    assert solve(m, "cwa").status == brute_solve(m)[0]


def fuzz_models():
    """The 200 criterion-4 fuzz models."""
    return [gen_random(9000 + i, random.Random(100 + i).randint(2, 4),
                       random.Random(200 + i).randint(2, 4),
                       random.Random(300 + i).randint(2, 3))
            for i in range(200)]


def fixpoint_models():
    """The 200 criterion-4 fuzz models, the 94 planted models of
    ``test_planted`` and six toy rosters."""
    return fuzz_models() + planted_models() + [
        roster_model(inst, rules) for inst, rules in gen_toy_rosters(4242, 6)]


@pytest.mark.parametrize("mode", ["wa", "cwa"])
def test_every_variable_is_a_cell_count_or_resource(mode):
    """Every variable a build posts is a cell, a column count, a rule
    resource or a property resource: the stretch-length windows read the
    row resources themselves.  Only ``cwa`` posts property resources."""
    models = fuzz_models() + [roster_model(inst, rules)
                              for inst, rules in gen_toy_rosters(4242, 25)]
    lengths = 0
    for m in models:
        b = build(m, mode)
        listed = [x for row in b.cells for x in row]
        listed += [n for col in b.cards for n in col]
        listed += [z for row in b.rule_z for z in row]
        listed += [z for rows in b.prop_z.values() for row in rows for z in row]
        assert sorted(listed) == list(range(len(b.store.domains))), m.name
        lengths += sum(isinstance(p, StretchLengthProp) for p in b.prop_z)
        if mode == "wa":
            assert b.prop_z == {}, m.name
    assert lengths > 100 or mode == "wa"


def test_root_is_a_local_fixpoint(monkeypatch):
    """After a stable root propagation, running any propagator once more
    changes nothing: each one leaves its own local fixpoint (the contract
    ``propagators`` documents)."""
    posted = []
    fill = Store.fill

    def spy(store, posting, *data):
        posted.extend(posting.props)
        fill(store, posting, *data)

    monkeypatch.setattr(Store, "fill", spy)
    stable = reruns = 0
    for m in fixpoint_models():
        for mode in MODES:
            posted.clear()
            b = build(m, mode)
            st = b.store
            if b.root_infeasible or st.propagate() != "stable":
                continue
            stable += 1
            before = [d.values for d in st.domains]
            for prop in posted:
                st.mark()
                prop.run(st)
                assert [d.values for d in st.domains] == before, (
                    f"{m.name} {mode}: {type(prop).__name__} was not at "
                    "its fixpoint")
                st.undo()
                reruns += 1
    # 397 and 13,798 when written; 115 and 6,449 before the planted models
    # joined, while wa still posted measuring automata.
    assert stable >= 100 and reruns >= 5000


def measuring_rows(store, b, mode, wdfa):
    """Post ``wdfa`` on every row of the build ``b``: crossed with the row
    rule under ``cwa`` (as ``build`` posts it), alone under ``wa``.
    Returns the per-row resource ids."""
    if mode == "cwa":
        return matrixcp.model._post_measuring_rows(store, b, b.model, wdfa,
                                                   20000)
    ranges = achievable_totals(wdfa, b.model.n_cols)
    rows = []
    for cells in b.cells:
        rows.append(tuple([store.new_interval(lo, hi) for lo, hi in ranges]))
        store.register(Mcr(cells, rows[-1], wdfa))
    return rows


def test_singleton_word_positions_prune_nothing_at_the_fixpoint():
    """A one-symbol word posts at most its total condition.  Its
    per-position equalities ``n[v@k] == sum_i z[i,k]`` were dropped because
    the flag ``z[i,k]`` is ``[x[i,k] = v]``, and the word over a group the
    rule counts posts nothing, because its count-group equality ties the
    same total to the same column counts.  On a model at its root fixpoint,
    posting the full counter of each value with those equalities, and the
    counter of each counted group with its total equality, changes no
    domain of the model's own variables: under ``cwa`` each counter crossed
    with the rule, under ``wa``, which posts no measuring automaton, each
    counter alone.  So the uncrossed counters would add nothing to
    ``wa``'s count-group equalities."""
    stable = groups = 0
    for m in fixpoint_models():
        R, K = m.n_rows, m.n_cols
        for mode in ("wa", "cwa"):
            b = build(m, mode)
            st = b.store
            if b.root_infeasible or st.propagate() != "stable":
                continue
            stable += 1
            before = [d.values for d in st.domains]
            for v in range(m.n_values):
                counter = build_sliding_word_counter(
                    (frozenset((v,)),), K, range(m.n_values))
                rows = measuring_rows(st, b, mode, counter)
                for k in range(K + 1):
                    flags = SumE([VarE(rows[i][k]) for i in range(R)])
                    cards = [VarE(b.cards[j][v])
                             for j in (range(K) if k == K else (k,))]
                    st.register(Relation("eq", SumE(cards), flags))
            for group, _ in m.row_rule.count_groups():
                counter = matrixcp.model._symbol_counter(group, m.n_values, K)
                rows = measuring_rows(st, b, mode, counter)
                total = SumE([VarE(rows[i][0]) for i in range(R)])
                cards = [VarE(b.cards[k][v]) for k in range(K) for v in group]
                st.register(Relation("eq", SumE(cards), total))
                groups += 1
            assert st.propagate() == "stable", (m.name, mode)
            assert [d.values for d in st.domains[:len(before)]] == before, (
                m.name, mode)
    assert stable >= 70 and groups >= 15  # 262 and 20 when written


def small_reductions():
    """Four 3-SAT formulas, three exact covers and three hitting sets (sum
    variant), seeded; their searches replay filter results across
    subtrees."""
    rng = random.Random(4243)
    models = []
    for _ in range(4):
        clauses = [[p if rng.random() < 0.5 else -p
                    for p in rng.sample(range(1, 6), 3)] for _ in range(16)]
        models.append(gen_3sat(clauses, 5))
    for _ in range(3):
        family = [set(rng.sample(range(1, 13), rng.randint(2, 3)))
                  for _ in range(14)]
        models.append(gen_exact_cover(family, 12))
    for _ in range(3):
        edges = [set(rng.sample(range(10), rng.randint(2, 3)))
                 for _ in range(12)]
        models.append(gen_hitting_set(10, edges, 3, variant="sum"))
    return models


def search_fixpoint_cases():
    """(model, modes) pairs: the small reductions under decomp, the
    criterion-4 fuzz models and every fifth planted model under every
    mode, and six toy rosters under wa and cwa (decomp searches some of
    them for minutes)."""
    models = fixpoint_models()
    return ([(m, ("decomp",)) for m in small_reductions()]
            + [(m, MODES) for m in models[:200] + models[200:-6:5]]
            + [(m, ("wa", "cwa")) for m in models[-6:]])


def test_memo_cap_changes_no_search(monkeypatch):
    """Eviction costs only refiltering: with the memo capped at two entries
    every search count and the solution stay the same."""
    m = small_reductions()[3]
    full = solve(m, "decomp")
    full_size = len(engine.MEMO)
    engine.clear_memo()
    monkeypatch.setattr(engine, "MEMO_CAP", 2)
    capped = solve(m, "decomp")
    assert full.stats.nodes > 100
    assert capped.stats.as_dict() == full.stats.as_dict()
    assert capped.grid == full.grid
    assert full_size > 2 >= len(engine.MEMO)


def test_search_nodes_are_local_fixpoints(monkeypatch):
    """At every stable search node, running any propagator once more with a
    fresh memo changes nothing, and every solution passes
    ``check_solution``.  So the filter results that propagation replayed
    from the process memo, which outlives the node, the store and the solve
    that made them, were as good as fresh ones."""
    posted = []
    where = ""
    undone = checking = False
    stable = reruns = replays = filters = 0
    fill, propagate, undo = Store.fill, Store.propagate, Store.undo
    run = MemoFilter.run

    def spy_fill(store, posting, *data):
        posted.extend(posting.props)
        fill(store, posting, *data)

    def checked_propagate(store):
        nonlocal checking, stable, reruns
        status = propagate(store)
        if status == "stable":
            checking = True
            memo = OrderedDict(engine.MEMO)
            engine.MEMO.clear()
            before = [d.values for d in store.domains]
            for prop in posted:
                store.mark()
                prop.run(store)
                assert [d.values for d in store.domains] == before, (
                    f"{where}: {type(prop).__name__} was not at its fixpoint")
                store.undo()
            engine.MEMO.clear()
            engine.MEMO.update(memo)
            checking = False
            stable += 1
            reruns += len(posted)
        return status

    def spy_undo(store):
        nonlocal undone
        undone |= not checking
        undo(store)

    def spy_run(prop, store):
        nonlocal replays
        seen = filters
        try:
            run(prop, store)
        finally:
            if undone and not checking and filters == seen:
                replays += 1

    def counted(filter):
        def spy(prop, *args):
            nonlocal filters
            filters += 1
            return filter(prop, *args)
        return spy

    monkeypatch.setattr(Store, "fill", spy_fill)
    monkeypatch.setattr(Store, "propagate", checked_propagate)
    monkeypatch.setattr(Store, "undo", spy_undo)
    monkeypatch.setattr(MemoFilter, "run", spy_run)
    for cls in (Mcr, GccColumn):
        monkeypatch.setattr(cls, "filter", counted(cls.filter))
    solutions = 0
    for m, modes in search_fixpoint_cases():
        index = {v: j for j, v in enumerate(m.values)}
        for mode in modes:
            posted.clear()
            undone = False
            where = f"{m.name} {mode}"
            found = []

            def on_solution(grid):
                found.append([[index[v] for v in row] for row in grid])
                assert check_solution(m, found[-1]), f"{where}: {grid}"
                return len(found) == 3

            solve(m, mode, on_solution=on_solution)
            solutions += len(found)
    # 2,078 stable nodes, 67,222 re-runs, 13,293 replays after an undo and
    # 426 solutions when written (1,385, 86,188, 11,003 and 255 before the
    # planted models joined, while wa still posted measuring automata).
    assert stable >= 1000 and reruns >= 50000
    assert replays >= 5000 and solutions >= 150
