"""The filter memo is one per process (``engine.MEMO``): results made in one
store are replayed in every other.  A warm memo changes no solve; two kinds
never share a token; the memo keeps no automaton alive; and the memo and
its token table stay within ``MEMO_CAP``.
"""

import gc
import weakref

import pytest

from matrixcp import engine
from matrixcp.automata import CostMatrices, Dfa, WeightedDfa
from matrixcp.engine import MEMO, TOKENS, Store, clear_memo
from matrixcp.generators import gen_random
from matrixcp.model import root_prune, solve
from matrixcp.propagators import GccColumn, Mcr, MemoFilter
from matrixcp.roster import gen_toy_rosters, roster_model
from test_staged_build import fuzz_models


def count_filters(monkeypatch):
    """Count the filter calls of every memo filter class; returns the
    one-element counter."""
    calls = [0]
    for cls in MemoFilter.__subclasses__():
        def spy(self, *args, filter=cls.filter):
            calls[0] += 1
            return filter(self, *args)
        monkeypatch.setattr(cls, "filter", spy)
    return calls


def cold(model, mode):
    """Root domains and the status, search counts and grid of a solve, each
    from an empty memo."""
    clear_memo()
    root = root_prune(model, mode)
    clear_memo()
    out = solve(model, mode)
    return root, out.status, out.stats.as_dict(), out.grid


def roster_pool(seed):
    return [roster_model(inst, rules) for inst, rules in gen_toy_rosters(seed, 25)]


CASES = ([("fuzz", mode) for mode in ("decomp", "wa", "cwa")]
         + [(seed, mode) for seed in (4242, 1201) for mode in ("wa", "cwa")])


@pytest.mark.parametrize("pool,mode", CASES)
def test_warm_memo_changes_no_solve(pool, mode, monkeypatch):
    """Each instance solved with an empty memo, then again after every
    other instance of its pool (a pass over the pool, then the instances in
    reverse order): the same root domains, status, search counts and grid."""
    models = fuzz_models() if pool == "fuzz" else roster_pool(pool)
    filters = count_filters(monkeypatch)
    want = [cold(m, mode) for m in models]
    cold_filters = filters[0]
    clear_memo()
    for m in models:
        solve(m, mode)
    filters[0] = 0
    for m, w in reversed(list(zip(models, want))):
        root = root_prune(m, mode)
        out = solve(m, mode)
        got = root, out.status, out.stats.as_dict(), out.grid
        assert got == w, f"{m.name} {mode}"
    # The warm pass replays what the cold one filtered, as every pool fits
    # under the cap; only the fuzz pool under cwa crosses more products than
    # the product table keeps (``PRODUCT_CAP``), and a product built again
    # gets a new token (4,035 cold and 1,218 warm filters when written).
    assert cold_filters > 0
    if (pool, mode) == ("fuzz", "cwa"):
        assert filters[0] < cold_filters / 3
    else:
        assert filters[0] == 0


def outcomes(*posts):
    """Propagate each posting on its own fresh store, in turn, sharing the
    memo; returns the (status, domains) of each."""
    out = []
    for post in posts:
        st = Store()
        vs = post(st)
        out.append((st.propagate(), [tuple(sorted(st.dom(v))) for v in vs]))
    return out


def each_cold(*posts):
    outs = []
    for post in posts:
        clear_memo()
        outs += outcomes(post)
    return outs


def mcr_row(wdfa, doms, bounds):
    def post(st):
        xs = [st.new_var(dm) for dm in doms]
        zs = [st.new_interval(lo, hi) for lo, hi in bounds]
        st.register(Mcr(xs, zs, wdfa))
        return xs + zs
    return post


def counting(symbol):
    """One state over (0, 1), all words accepted, one resource counting
    ``symbol``, bounded to 0..9."""
    dfa = Dfa(1, (0, 1), {(0, 0): 0, (0, 1): 0}, 0, {0})
    return WeightedDfa(dfa, CostMatrices(1, {(0, 0, symbol): 1}), [(0, 9)])


class TestTokens:
    def test_different_automata_on_one_input(self):
        ones, zeros = counting(1), counting(0)
        assert ones.memo_token is not zeros.memo_token
        posts = [mcr_row(w, [(0, 1)] * 2, [(2, 2)]) for w in (ones, zeros)]
        got = outcomes(*posts)
        assert got == each_cold(*posts)
        assert got[0][1][:2] == [(1,), (1,)] and got[1][1][:2] == [(0,), (0,)]

    def test_constant_and_variable_card_columns(self):
        # Same counted values, and inputs whose keys would be equal under
        # one token: three free cells and cards in [1, 3], [1, 2] read
        # (3, 3, 3, 1, 1, 3, 2), as do the seven masks of the second.
        def cards(st):
            xs = [st.new_var((0, 1)) for _ in range(3)]
            cs = [st.new_interval(1, 3), st.new_interval(1, 2)]
            st.register(GccColumn(xs, cs, (0, 1)))
            return xs + cs

        def constant(st):
            doms = [(0, 1)] * 3 + [(0,), (0,), (0, 1), (1,)]
            xs = [st.new_var(dm) for dm in doms]
            st.register(GccColumn(xs, [(0, 3), (0, 7)], (0, 1)))
            return xs

        card = GccColumn([0, 1], [2, 3], (0, 1))
        const = GccColumn([0, 1], [(0, 1), (0, 1)], (0, 1))
        assert card._token is not const._token
        got = outcomes(cards, constant)
        assert got == each_cold(cards, constant)
        assert got == [("stable", [(0, 1)] * 3 + [(1, 2), (1, 2)]),
                       ("stable", [(0, 1)] * 3 + [(0,), (0,), (0, 1), (1,)])]

    def test_one_automaton_on_two_row_lengths(self):
        ones = counting(1)
        posts = [mcr_row(ones, [(0, 1)] * 2, [(2, 9)]),
                 mcr_row(ones, [(0, 1)] * 3, [(2, 9)]),
                 mcr_row(ones, [(0, 1)] * 3 + [(0,)], [(0, 3)])]
        got = outcomes(*posts)
        assert got == each_cold(*posts)
        assert got[:2] == [("stable", [(1,), (1,), (2,)]),
                           ("stable", [(0, 1)] * 3 + [(2, 3)])]

    def test_the_kind_fixes_the_interval_variables(self):
        st = Store()
        xs = [st.new_var((0, 1)) for _ in range(2)]
        z = st.new_interval(0, 5)
        with pytest.raises(ValueError, match="Mcr: 0 interval variables, "
                                             "its kind fixes 1"):
            Mcr(xs, [], counting(1))
        with pytest.raises(ValueError, match="Mcr: 1 interval variables, "
                                             "its kind fixes 0"):
            Mcr(xs, [z], WeightedDfa.plain(counting(1).dfa))


def test_a_dropped_models_automaton_dies():
    model = gen_random(9001, 3, 3, 2)
    ref = weakref.ref(model.row_rule)
    token = model.row_rule.memo_token
    for mode in ("decomp", "wa", "cwa"):
        solve(model, mode)
    assert any(key[0] is token for key in MEMO)
    del model
    gc.collect()
    assert ref() is None
    assert any(key[0] is token for key in MEMO)


def test_memo_and_tokens_stay_within_the_cap(monkeypatch):
    cap = 40
    monkeypatch.setattr(engine, "MEMO_CAP", cap)
    sizes = []
    propagate = Store.propagate

    def watched(store):
        status = propagate(store)
        sizes.append((len(MEMO), len(TOKENS)))
        return status

    monkeypatch.setattr(Store, "propagate", watched)
    for model in fuzz_models()[:60]:
        for mode in ("decomp", "wa", "cwa"):
            solve(model, mode)
    assert max(s for s, _ in sizes) == cap
    assert max(t for _, t in sizes) == cap
