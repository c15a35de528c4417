import random
from itertools import product

import pytest

from conftest import permutation_model
from matrixcp.automata import Dfa, build_gcc_weights, stretch_length_dfa, universal_dfa
from matrixcp.generators import _random_dfa, gen_random
from matrixcp.model import MatrixModel
from matrixcp.oracle import (
    CapExceeded,
    brute_dc,
    brute_solutions,
    brute_solve,
    check_solution,
    encode_matrix_dfa,
    regular2_dc,
    regular2_support,
)


def one_one_dfa():
    """Binary words containing exactly one 1."""
    return Dfa(2, (0, 1), {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, 0, {1})


class TestCheckSolution:
    def test_accepts_valid_grid(self):
        m = permutation_model(3)
        assert check_solution(m, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])

    def test_rejects_bad_column_count(self):
        m = permutation_model(3)
        assert not check_solution(m, [[0, 0, 1], [0, 0, 1], [1, 1, 0]])

    def test_rejects_bad_row_word(self):
        m = permutation_model(2)
        assert not check_solution(m, [[1, 1], [0, 0]])

    def test_rejects_value_outside_cell_domain(self):
        m = MatrixModel(1, 2, (0, 1), universal_dfa((0, 1)),
                        cell_domains=[[{0}, {0, 1}]])
        assert not check_solution(m, [[1, 0]])

    def test_column_sum_bounds(self):
        m = MatrixModel(2, 1, (0, 5), universal_dfa((0, 1)), col_sums=[(5, 10)])
        assert check_solution(m, [[1], [0]])
        assert not check_solution(m, [[0], [0]])


class TestBruteSolutions:
    def test_permutation_count(self):
        assert len(brute_solutions(permutation_model(3))) == 6

    def test_limit_short_circuits(self):
        assert len(brute_solutions(permutation_model(3), limit=2)) == 2

    def test_pin_filters(self):
        m = permutation_model(3)
        pinned = brute_solutions(m, pin=(0, 2, 1))
        assert len(pinned) == 2
        assert all(g[0][2] == 1 for g in pinned)

    def test_every_reported_grid_checks_out(self):
        m = gen_random(42, 3, 3, 2)
        for g in brute_solutions(m):
            assert check_solution(m, g)

    def test_node_budget_raises(self):
        with pytest.raises(CapExceeded):
            brute_solutions(permutation_model(4), cap=3)

    def test_unsat_returns_empty(self):
        st, g = brute_solve(permutation_model(1).__class__(
            2, 2, (0, 1), build_gcc_weights((0, 1)),
            col_gcc=[{1: (1, 1)}, {1: (1, 1)}],
            cell_domains=[[{1}, {0, 1}], [{1}, {0, 1}]]))
        assert st == "unsat" and g is None


class TestBruteDc:
    def test_supports_match_solution_enumeration(self):
        rng = random.Random(13)
        for _ in range(12):
            m = gen_random(rng.randrange(10 ** 6), 2, 3, 2)
            sols = brute_solutions(m)
            dc = brute_dc(m)
            if not sols:
                assert dc is None
                continue
            for i in range(m.n_rows):
                for k in range(m.n_cols):
                    assert dc[i][k] == {g[i][k] for g in sols}

    def test_unsat_is_none(self):
        m = MatrixModel(2, 2, (0, 1), build_gcc_weights((0, 1)),
                        col_gcc=[{1: (1, 1)}, {1: (1, 1)}],
                        cell_domains=[[{1}, {0, 1}], [{1}, {0, 1}]])
        assert brute_dc(m) is None


class TestEncodeMatrixDfa:
    def test_two_by_two_permutation_language(self):
        d = encode_matrix_dfa(one_one_dfa(), one_one_dfa(), 2, 2)
        words = set(d.words(4))
        assert words == {(0, 1, 1, 0), (1, 0, 0, 1)}

    def test_language_matches_direct_check(self):
        rows = one_one_dfa()
        cols = stretch_length_dfa({1}, (0, 1), 1, 1)
        d = encode_matrix_dfa(rows, cols, 2, 3)
        for w in product((0, 1), repeat=6):
            grid = [w[:3], w[3:]]
            want = all(rows.accepts(r) for r in grid) and all(
                cols.accepts((grid[0][k], grid[1][k])) for k in range(3))
            assert d.accepts(w) is want

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError):
            encode_matrix_dfa(one_one_dfa(), universal_dfa((0, 1, 2)), 2, 2)

    def test_state_cap_guard(self):
        with pytest.raises(CapExceeded):
            encode_matrix_dfa(one_one_dfa(), one_one_dfa(), 8, 20, cap=100)


class TestRegular2:
    def test_dc_equals_support_enumeration(self):
        rng = random.Random(29)
        agree = 0
        for _ in range(30):
            rows = _random_dfa(rng, rng.randint(1, 3), (0, 1))
            cols = _random_dfa(rng, rng.randint(1, 3), (0, 1))
            R, K = rng.randint(1, 3), rng.randint(1, 3)
            want = regular2_support(rows, cols, R, K)
            got = regular2_dc(rows, cols, R, K)
            assert got == want
            agree += 1
        assert agree == 30

    def test_restricted_domains(self):
        rows = one_one_dfa()
        cols = one_one_dfa()
        doms = [[(0,), (0, 1)], [(0, 1), (0, 1)]]
        want = regular2_support(rows, cols, 2, 2, domains=doms)
        got = regular2_dc(rows, cols, 2, 2, domains=doms)
        assert want == got == [[frozenset({0}), frozenset({1})],
                               [frozenset({1}), frozenset({0})]]

    def test_unsat_side_agreement(self):
        # columns demand a 1 each but rows allow at most one in total
        rows = stretch_length_dfa({1}, (0, 1), 2, 2)
        cols = one_one_dfa()
        doms = [[(0,), (0, 1)], [(0, 1), (0,)]]
        assert regular2_support(rows, cols, 2, 2, domains=doms) is None
        assert regular2_dc(rows, cols, 2, 2, domains=doms) is None
