"""Differential checks of the weighted row propagator and of
``achievable_totals`` on seeded random weighted automata with 2-3 resources,
positional and negative costs, random cell domains and resource bounds."""

import random
from itertools import product

from conftest import ALPHABET, random_weighted
from matrixcp.automata import CostMatrices, Dfa, WeightedDfa
from matrixcp.engine import MEMO, Store, clear_memo
from matrixcp.model import achievable_totals
from matrixcp.propagators import GccColumn, Mcr


def random_case(rng):
    """(automaton, cell domains, resource variable bounds)."""
    n = rng.randint(1, 5)
    wa = random_weighted(rng, n)
    doms = [tuple(sorted(rng.sample(ALPHABET, rng.randint(1, 3))))
            for _ in range(n)]
    # Bounds around the totals of one word in the domains, so that most
    # cases keep solutions and some bounds cut arcs.
    _, totals = wa.run_weighted([rng.choice(dm) for dm in doms])
    zb = [(t - rng.randint(0, 3), t + rng.randint(0, 3)) for t in totals]
    return wa, doms, zb


def post_row(st, wa, doms, zb):
    """Post one Mcr on fresh variables; returns its (cells, resources)."""
    xs = [st.new_var(dm) for dm in doms]
    zs = [st.new_interval(lo, hi) for lo, hi in zb]
    st.register(Mcr(xs, zs, wa))
    return xs, zs


def snapshot(st, row):
    xs, zs = row
    return (tuple(tuple(sorted(st.dom(x))) for x in xs),
            tuple((st.vmin(z), st.vmax(z)) for z in zs))


def propagate(wa, doms, zb):
    """Post one Mcr and propagate; None on failure, else the cell domains
    and resource bounds."""
    st = Store()
    row = post_row(st, wa, doms, zb)
    if st.propagate() == "failed":
        return None
    return snapshot(st, row)


# Results of the propagator before its arcs were compiled (per-call layered
# graph and per-arc cost lookups), for random_case(random.Random(4201)) in
# order.  The compiled version must reach the same fixpoint exactly.
SEED_RESULTS = [
    (((0,), (0, 1, 2), (1,), (2,)), ((-1, 0), (3, 4))),
    (((0,), (2,), (0,)), ((1, 1), (-4, -4), (-3, -3))),
    (((1,),), ((0, 0), (0, 0), (0, 0))),
    None,
    (((2,),), ((-2, -2), (1, 1), (-1, -1))),
    (((0, 1, 2), (0, 1), (0, 1, 2)), ((2, 6), (-2, -2), (-2, 3))),
    (((0,), (0, 1)), ((-1, 1), (-1, 2), (-1, 0))),
    None,
    (((1,), (0,), (2,)), ((2, 2), (6, 6))),
    None,
    (((1, 2), (0, 1, 2), (1, 2), (0, 2)), ((0, 2), (-2, -2))),
    (((0, 2),), ((-2, 0), (-1, 0), (0, 1))),
    (((1, 2), (2,)), ((0, 1), (-3, -2))),
    (((0, 1), (0, 1, 2), (0, 1), (2,), (0, 1, 2)), ((2, 4), (0, 2))),
    (((0,), (0,)), ((0, 0), (0, 0))),
    (((0,), (0, 2), (1,)), ((4, 5), (1, 1), (-6, -6))),
    (((1, 2), (2,), (2,)), ((0, 0), (-4, -2))),
    None,
    (((1,), (1, 2), (0, 1)), ((-1, 0), (6, 8), (-5, -3))),
    (((1,), (0,)), ((0, 0), (3, 3))),
    (((0, 1, 2), (0, 1, 2), (0, 1, 2)), ((-1, 1), (-2, 2))),
    (((0,), (0, 1), (2,)), ((-1, 0), (4, 5), (3, 5))),
    (((2,),), ((-2, -2), (1, 1))),
    None,
    (((1,),), ((3, 3), (0, 0), (1, 1))),
    (((0, 1, 2), (0, 1, 2), (0, 1, 2), (1, 2)), ((-8, -5), (3, 7))),
    (((0,), (2,)), ((2, 2), (4, 4), (-4, -4))),
    None,
    (((2,), (1, 2), (1, 2)), ((1, 2), (2, 2))),
    (((0,), (2,)), ((2, 2), (-2, -2), (-1, -1))),
    None,
    (((0, 1), (2,), (0, 1, 2), (0, 1, 2)), ((1, 1), (-5, -2))),
    (((0, 1), (0, 1), (0, 1)), ((0, 1), (0, 0), (-3, 0))),
    (((2,), (0,), (0,)), ((-2, -2), (6, 6), (-1, -1))),
    None,
    None,
    (((2,), (1, 2), (1, 2), (0, 1)), ((-1, -1), (-4, -3), (2, 2))),
    (((0, 2), (1,), (2,)), ((1, 1), (0, 2), (0, 0))),
    (((0,),), ((3, 3), (1, 1), (0, 0))),
    (((0, 1, 2), (0, 2), (1,), (1, 2), (1, 2)), ((-2, 3), (0, 6))),
    None,
    (((0,), (1,), (0,)), ((2, 2), (1, 1))),
    None,
    (((0, 1, 2), (0, 1, 2), (2,), (1, 2), (1, 2)), ((-1, 4), (5, 6))),
    (((0,), (0, 2), (2,)), ((1, 1), (-1, 0), (1, 2))),
    (((2,), (0, 2), (0, 1)), ((3, 3), (-2, 1))),
    (((0, 2), (1,), (0, 1, 2), (1, 2), (0, 1)), ((0, 1), (-3, -1), (3, 7))),
    None,
    (((0, 2), (0, 1, 2), (0, 1, 2), (1, 2), (1,)), ((-4, 1), (0, 4))),
    (((1,), (0,), (2,)), ((4, 4), (3, 3))),
    (((1, 2),), ((2, 3), (-1, -1), (-1, 0))),
    (((0,), (2,), (0, 2), (1,), (2,)), ((2, 3), (9, 10), (6, 7))),
    None,
    (((2,), (0, 2), (0, 1, 2), (1,), (0, 1, 2)), ((2, 4), (3, 7))),
    (((2,),), ((0, 0), (-1, -1), (-1, -1))),
    (((0,), (2,), (2,)), ((6, 6), (-1, -1), (-1, -1))),
    (((0,), (1,), (0,)), ((4, 4), (-4, -4), (-5, -5))),
    None,
    (((2,), (1,), (0,), (1,), (2,)), ((-2, -2), (-2, -2), (2, 2))),
    (((0, 1, 2), (0,), (0,), (0, 1, 2), (1, 2)), ((-2, 0), (-2, 1))),
    (((0,), (1,), (0,), (0,)), ((-1, -1), (-3, -3), (-1, -1))),
    None,
    (((2,), (2,), (1,)), ((0, 0), (-1, -1))),
    (((0, 1), (1, 2), (0, 1, 2), (0, 2)), ((4, 6), (7, 10))),
    None,
    None,
    None,
    (((0,),), ((3, 3), (0, 0))),
    None,
    (((0,), (2,)), ((-2, -2), (-1, -1))),
    (((0, 1), (0, 2), (1,), (0, 1), (0, 1)), ((4, 4), (1, 5), (1, 6))),
    (((0,), (2,)), ((5, 5), (3, 3), (2, 2))),
    (((0,),), ((1, 1), (0, 0))),
    (((0,),), ((0, 0), (3, 3), (0, 0))),
    (((1,),), ((0, 0), (1, 1))),
    (((0, 1, 2), (0, 1, 2)), ((-2, 2), (-3, -2))),
    (((2,), (0, 1), (1,), (0,)), ((-1, 1), (-4, -2), (0, 1))),
    None,
    (((1, 2), (1,), (1, 2), (0,)), ((0, 2), (6, 8), (-2, -2))),
    (((1,), (1, 2), (0, 2)), ((-3, 0), (-1, -1))),
]


def test_mcr_sound_against_enumeration():
    rng = random.Random(4201)
    for trial in range(len(SEED_RESULTS)):
        wa, doms, zb = random_case(rng)
        got = propagate(wa, doms, zb)
        words = []
        for w in product(*doms):
            ok, totals = wa.run_weighted(w)
            if ok and all(lo <= t <= hi for t, (lo, hi) in zip(totals, zb)):
                words.append((w, totals))
        if got is None:
            assert not words, f"trial {trial}: failed with solutions"
            continue
        new_doms, new_zb = got
        for w, totals in words:
            for i, v in enumerate(w):
                assert v in new_doms[i], f"trial {trial} lost ({i},{v})"
            for t, (lo, hi) in zip(totals, new_zb):
                assert lo <= t <= hi, f"trial {trial} cut total {t}"


def test_mcr_matches_seed_results():
    rng = random.Random(4201)
    for trial, want in enumerate(SEED_RESULTS):
        assert propagate(*random_case(rng)) == want, f"trial {trial}"


def test_achievable_totals_with_positional_costs():
    rng = random.Random(4202)
    for trial in range(150):
        n = rng.randint(0, 4)
        wa = random_weighted(rng, n)
        wa = WeightedDfa(wa.dfa, wa.costs,
                         [(-rng.randint(0, 6), rng.randint(0, 6))
                          for _ in range(wa.n_resources)])
        totals = [wa.run_weighted(w) for w in product(ALPHABET, repeat=n)]
        totals = [t for ok, t in totals if ok]
        want = None
        if totals:
            want = []
            for r, (blo, bhi) in enumerate(wa.resource_bounds):
                lo = max(min(t[r] for t in totals), blo)
                hi = min(max(t[r] for t in totals), bhi)
                if lo > hi:
                    want = None
                    break
                want.append((lo, hi))
        assert achievable_totals(wa, n) == want, f"trial {trial}"


def warm_and_cold(wa, doms, zb):
    """Propagate a row on a fresh store with an empty process memo, then a
    second row with the same input (new variables) on the same store, the
    memo now holding the first row's result.  Returns both outcomes, each
    the status and the domains left (after a failure too), and the memo
    sizes after each propagation."""
    clear_memo()
    st = Store()
    cold_row = post_row(st, wa, doms, zb)
    cold = st.propagate(), snapshot(st, cold_row)
    size = len(MEMO)
    warm_row = post_row(st, wa, doms, zb)
    warm = st.propagate(), snapshot(st, warm_row)
    return cold, warm, size, len(MEMO)


def test_warm_memo_replays_cold_result():
    rng = random.Random(4201)
    partial_failures = 0
    for trial, want in enumerate(SEED_RESULTS):
        wa, doms, zb = random_case(rng)
        cold, warm, size, warm_size = warm_and_cold(wa, doms, zb)
        assert size == warm_size == 1, f"trial {trial}: memo not reused"
        assert warm == cold, f"trial {trial}"
        if want is not None:
            assert cold == ("stable", want), f"trial {trial}"
        elif cold[1][1] != tuple(zb):
            partial_failures += 1
    # Failing inputs that move resource bounds before they fail: the replay
    # must make the same partial changes, then fail again.
    assert partial_failures >= 5


def test_memo_replay_is_positional():
    # Two rows on one automaton, the second with its variables created in
    # reverse order: a replay by variable id would prune the wrong cells.
    wa = WeightedDfa(Dfa(2, (0, 1), {(0, 0): 0, (0, 1): 1, (1, 0): 0,
                                     (1, 1): 1}, 0, {0, 1}),
                     CostMatrices(1, {(0, 1, 1): 1}), [(0, 5)])
    # z counts adjacent 1-1 pairs: two of them force the word 0,1,1,1.
    doms = [(0, 1), (1,), (0, 1), (1,)]
    st = Store()
    a = post_row(st, wa, doms, [(2, 2)])
    zb = st.new_interval(2, 2)
    xb = [st.new_var(dm) for dm in reversed(doms)][::-1]
    st.register(Mcr(xb, [zb], wa))
    assert st.propagate() == "stable"
    assert len(MEMO) == 1
    assert snapshot(st, a) == snapshot(st, (xb, [zb]))
    assert snapshot(st, a)[0] == ((0,), (1,), (1,), (1,))


def test_entry_from_another_subtree_replays_without_filtering(monkeypatch):
    # A row and a column over the same cells: the results both filter in one
    # subtree are replayed in a sibling subtree with the same input.
    wa = random_weighted(random.Random(4203), 4)
    st = Store()
    xs, zs = post_row(st, wa, [ALPHABET] * 4, [(-50, 50)] * wa.n_resources)
    cards = [st.new_interval(0, 4) for _ in ALPHABET]
    st.register(GccColumn(xs, cards, ALPHABET))
    assert st.propagate() == "stable"
    x, v = xs[0], min(st.dom(xs[0]))
    assert len(st.dom(x)) > 1
    filtered = []
    for cls in (Mcr, GccColumn):
        def spy(self, *args, filter=cls.filter):
            filtered.append(type(self))
            return filter(self, *args)
        monkeypatch.setattr(cls, "filter", spy)

    def subtree():
        st.mark()
        st.assign(x, v)
        out = st.propagate(), snapshot(st, (xs, zs + cards))
        st.undo()
        return out

    first = subtree()
    assert set(filtered) == {Mcr, GccColumn}
    size = len(MEMO)
    filtered.clear()
    assert subtree() == first
    assert filtered == [] and len(MEMO) == size
