"""Differential checks of the compiled ``MemoFilter.run`` kernels on seeded
random scopes: plain, weighted and crossed ``Mcr`` rows, ``GccColumn`` with
constant and with card-variable bounds, ``SumColumn``, and a scripted memo
filter whose results also hold the changes the others never make, from no
cells up to 40 cells with 3 interval variables.

``MemoFilter.run`` calls a function generated and compiled for the shape of
its scope, ``(cells, interval variables)`` (``propagators._memo_run``).  The
reference here is the interpreted ``run`` the kernels replaced,
``reference_run``.  Each case runs on twin stores, one per implementation,
both inside ``Store.propagate`` and called directly (no propagator running),
first with an empty memo and then with the memo the first runs left.  The
twins must end equal: domains, trail, tier contents in order, the queued
set, the parked list, the order in which the woken watchers ran and the
``Inconsistent`` message; and the cold runs must leave equal memos.
"""

import random

import pytest

from matrixcp import propagators
from matrixcp.automata import SHARED_CAP, WeightedDfa
from matrixcp.engine import (
    ENTAILED,
    MEMO,
    NO_CHANGE,
    Inconsistent,
    Propagator,
    Store,
    clear_memo,
    members,
    memo_token,
    memoised,
)
from matrixcp.generators import _random_dfa
from matrixcp.propagators import GccColumn, Mcr, MemoFilter, SumColumn
from test_mcr_differential import random_weighted

ALPHABET = (0, 1, 2)
COMPILED = MemoFilter.run


def reference_run(self, store):
    """The interpreted ``MemoFilter.run`` that the compiled kernels
    replaced: the key from list comprehensions, a commit per change through
    ``Store._commit``."""
    domains = store.domains
    if self.zs:
        cells = [domains[x].bits for x in self.xs]
        lo = []
        hi = []
        for z in self.zs:
            r = domains[z].bits
            lo.append(r[0])
            hi.append(r[-1])
        key = (self._token, *cells, *lo, *hi)
        result = MEMO.get(key)
        if result is None:
            result = memoised(key, self.filter, cells, lo, hi)
    else:
        key = (self._token, *[domains[x].bits for x in self.xs])
        result = MEMO.get(key)
        if result is None:
            result = memoised(key, self.filter, key[1:], (), (),
                              entailed=self.entailed)
    if result is NO_CHANGE:
        return
    if result is ENTAILED:
        store.park(self)
        return
    changes, failed = result
    vs = self._vars
    commit = store._commit
    for pos, new in changes:
        commit(vs[pos], new)
    if failed:
        raise Inconsistent(f"{type(self).__name__} has no solution")


class Watcher(Propagator):
    """Watches ``vids`` in tier ``priority``; a run only logs its name in
    the store's ``log``."""

    def __init__(self, name, vids, priority):
        self.name = name
        self.vids = tuple(vids)
        self.priority = priority

    def variables(self):
        return self.vids

    def run(self, store):
        store.log.append(self.name)


# -- random cases ----------------------------------------------------------------


def random_mask(rng, n_values):
    if rng.random() < 0.3:
        return 1 << rng.randrange(n_values)
    return rng.randrange(1, 1 << n_values)


def around(rng, t, spread):
    return range(t - rng.randint(0, spread), t + rng.randint(0, spread) + 1)


def row_bounds(rng, wa, cells):
    # Around the totals of one word in the cells, so that most rows keep
    # runs within the bounds and some bounds cut arcs.
    _, totals = wa.run_weighted([rng.choice(members(dm)) for dm in cells])
    return [around(rng, t, 3) for t in totals]


def plain_mcr(rng, n, m):
    wa = WeightedDfa.plain(_random_dfa(rng, rng.randint(1, 4), ALPHABET))
    return ([random_mask(rng, 3) for _ in range(n)], [],
            lambda xs, zs: Mcr(xs, zs, wa))


def weighted_mcr(rng, n, m):
    wa = random_weighted(rng, n)
    while m is not None and wa.n_resources != m:
        wa = random_weighted(rng, n)
    cells = [random_mask(rng, 3) for _ in range(n)]
    return cells, row_bounds(rng, wa, cells), lambda xs, zs: Mcr(xs, zs, wa)


def crossed_mcr(rng, n, m):
    plain = WeightedDfa.plain(_random_dfa(rng, rng.randint(1, 3), ALPHABET))
    wa = plain.product(random_weighted(rng, n), n)
    cells = [random_mask(rng, 3) for _ in range(n)]
    return cells, row_bounds(rng, wa, cells), lambda xs, zs: Mcr(xs, zs, wa)


def gcc_constant(rng, n, m):
    values = sorted(rng.sample(range(4), rng.randint(0, 3)))
    bounds = []
    for _ in values:
        lo = rng.randint(0, n)
        bounds.append((lo, rng.randint(lo, n)))
    return ([random_mask(rng, 4) for _ in range(n)], [],
            lambda xs, zs: GccColumn(xs, bounds, values))


def gcc_cards(rng, n, m):
    m = rng.randint(0, 3) if m is None else m
    values = sorted(rng.sample(range(4), m))
    cards = []
    for _ in values:
        lo = rng.randint(0, n)
        cards.append(range(lo, rng.randint(lo, n) + 1))
    return ([random_mask(rng, 4) for _ in range(n)], cards,
            lambda xs, zs: GccColumn(xs, zs, values))


def sum_column(rng, n, m):
    table = sorted(rng.sample(range(-3, 8), rng.randint(1, 4)))
    cells = [random_mask(rng, len(table)) for _ in range(n)]
    total = sum(table[rng.choice(members(dm))] for dm in cells)
    lo, hi = rng.randint(total - 4, total), rng.randint(total, total + 4)
    if rng.random() < 0.2:
        lo, hi = hi + 1, hi + rng.randint(1, 3)  # no cell choice fits
    return cells, [], lambda xs, zs: SumColumn(xs, table, lo, hi)


class Scripted(MemoFilter):
    """A memo filter with no constraint behind it: its result is drawn at
    random, seeded by its input, and may repeat a domain (a change that
    changes nothing), change a position twice or empty one.  The filters
    of the propagators above never make such a change."""

    def __init__(self, xs, zs, seed):
        self.seed = seed
        super().__init__(xs, zs, memo_token((Scripted, seed, len(zs))),
                         len(zs))

    def filter(self, cells, lo, hi):
        rng = random.Random(repr((self.seed, list(cells), lo, hi)))
        doms = list(cells) + [range(a, b + 1) for a, b in zip(lo, hi)]
        changes = []
        while doms and rng.random() < 0.6:
            pos = rng.randrange(len(doms))
            new = doms[pos]
            if rng.random() < 0.7:
                if type(new) is range:
                    start = rng.randint(new.start, new.stop)
                    new = range(start, rng.randint(start, new.stop))
                else:
                    new &= rng.randrange(1 << new.bit_length())
            changes.append((pos, new))
            if not new:
                break
            doms[pos] = new
        return changes, rng.random() < 0.15

    def entailed(self, cells, lo, hi):
        return random.Random(repr((self.seed, cells))).random() < 0.5


def scripted(rng, n, m):
    m = rng.choice((0, 0, 1, 2, 3)) if m is None else m
    seed = rng.random()
    return ([random_mask(rng, 3) for _ in range(n)],
            [around(rng, 3, 2) for _ in range(m)],
            lambda xs, zs: Scripted(xs, zs, seed))


KINDS = {"plain_mcr": plain_mcr, "weighted_mcr": weighted_mcr,
         "crossed_mcr": crossed_mcr, "gcc_constant": gcc_constant,
         "gcc_cards": gcc_cards, "sum_column": sum_column,
         "scripted": scripted}
CELLS = (0, 1, 1, 2, 3, 4, 5, 6, 8, 13, 21, 40)


def random_case(rng, kind, n=None, m=None):
    """``(domains, prop, watchers, early)`` over variables ``0..``: the
    initial domain of each variable (masks and ranges), a propagator of
    ``kind`` over ``n`` cells (``m`` interval variables, where the kind
    lets it choose) at random ids, with a few more variables outside its
    scope; watchers of random tiers, each watching about half of the
    variables; and the propagators to queue before the run,
    ``prop`` among them at times."""
    if n is None:
        n = rng.choice(CELLS[:-3] if kind == "crossed_mcr" else CELLS)
    cells, bounds, make = KINDS[kind](rng, n, m)
    extra = [random_mask(rng, 3) for _ in range(rng.randint(0, 3))]
    ids = rng.sample(range(n + len(bounds) + len(extra)),
                     n + len(bounds) + len(extra))
    domains = [None] * len(ids)
    for vid, dom in zip(ids, cells + bounds + extra):
        domains[vid] = dom
    prop = make(ids[:n], ids[n:n + len(bounds)])
    watchers = [Watcher(f"w{k}", [v for v in range(len(ids))
                                  if rng.random() < 0.5],
                        rng.randrange(3))
                for k in range(rng.randint(0, 4))]
    early = [p for p in watchers + [prop] if rng.random() < 0.3]
    return domains, prop, watchers, early


# -- running the twins -----------------------------------------------------------


def fresh_store(case):
    domains, prop, watchers, early = case
    st = Store()
    st.log = []
    for dom in domains:
        if type(dom) is range:
            st.new_interval(dom[0], dom[-1])
        else:
            st.new_var(members(dom))
    for p in [prop] + watchers:
        for vid in p.variables():
            st.watch(vid, p)
    for p in early:
        st.enqueue(p)
    return st


def recording(run):
    """``run`` that logs the message of the Inconsistent it raises."""
    def recorded(self, store):
        try:
            run(self, store)
        except Inconsistent as e:
            store.log.append(f"raised {e}")
            raise
    return recorded


def outcome(case, run, inside, monkeypatch):
    """The store's state after ``run`` of the case's propagator, queued
    with the early propagators and run by ``propagate`` (``inside``) or
    called directly."""
    prop = case[1]
    st = fresh_store(case)
    if inside:
        st.enqueue(prop)
        with monkeypatch.context() as mp:
            mp.setattr(MemoFilter, "run", recording(run))
            status = st.propagate()
    else:
        status = "ran"
        try:
            run(prop, st)
        except Inconsistent as e:
            status = f"raised {e}"
    return (status, [d.bits for d in st.domains], list(st._trail),
            [list(tier) for tier in st._tiers], set(st._queued),
            list(st._parked), st.log, st.propagation_count)


def memo_entries():
    return [(key, result, result is ENTAILED, result is NO_CHANGE)
            for key, result in MEMO.items()]


def check_twins(case, inside, monkeypatch):
    """Run the case under both implementations, with an empty memo and then
    a warm one; returns the compiled kernel's cold outcome."""
    clear_memo()
    want = outcome(case, reference_run, inside, monkeypatch)
    want_memo = memo_entries()
    clear_memo()
    got = outcome(case, COMPILED, inside, monkeypatch)
    assert got == want
    assert memo_entries() == want_memo
    assert outcome(case, COMPILED, inside, monkeypatch) == want
    assert outcome(case, reference_run, inside, monkeypatch) == want
    assert memo_entries() == want_memo
    return got


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_kernel_matches_interpreted_run(kind, monkeypatch):
    rng = random.Random(f"memo kernels {kind}")
    seen = {"parked": 0, "raised": 0, "changed": 0, "woke itself": 0,
            "woke a watcher": 0}
    for _ in range(60):
        case = random_case(rng, kind)
        prop, early = case[1], case[3]
        for inside in (True, False):
            status, _, trail, tiers, _, parked, log, _ = check_twins(
                case, inside, monkeypatch)
            seen["parked"] += prop in parked
            seen["raised"] += "raised" in str(status) + "".join(log)
            seen["changed"] += bool(trail)
            if not inside:
                seen["woke itself"] += prop not in early and any(
                    prop in tier for tier in tiers)
                seen["woke a watcher"] += any(
                    w not in early for tier in tiers for w in tier)
    # Every kind exercises the commit and its wakes; every kind without
    # interval variables parks, and every kind can fail.
    assert seen["changed"] and seen["raised"], seen
    assert seen["woke itself"] and seen["woke a watcher"], seen
    if kind in ("plain_mcr", "gcc_constant", "sum_column", "scripted"):
        assert seen["parked"], seen


@pytest.mark.parametrize("kind,n,m", [
    ("sum_column", 0, 0), ("gcc_constant", 0, 0), ("gcc_cards", 0, 0),
    ("sum_column", 1, 0), ("plain_mcr", 1, 0), ("gcc_cards", 0, 1),
    ("gcc_cards", 1, 1), ("weighted_mcr", 0, 2), ("gcc_cards", 40, 3),
    ("weighted_mcr", 40, 3),
])
def test_edge_shapes(kind, n, m, monkeypatch):
    rng = random.Random(f"memo kernel shape {kind} {n} {m}")
    for _ in range(10):
        case = random_case(rng, kind, n, m)
        prop = case[1]
        assert (len(prop.xs), len(prop.zs)) == (n, m)
        assert prop._run is propagators._memo_run(n, m)
        for inside in (True, False):
            check_twins(case, inside, monkeypatch)


def test_one_kernel_per_shape_shared_across_classes():
    wa = random_weighted(random.Random(4), 3)
    plain = WeightedDfa.plain(_random_dfa(random.Random(5), 2, ALPHABET))
    by_shape = {
        (3, 0): [Mcr([0, 1, 2], [], plain), SumColumn([3, 4, 5], (1, 2), 0, 9),
                 GccColumn([6, 7, 8], [(0, 1)], [0]),
                 GccColumn([0, 1, 2], [], [])],
        (3, wa.n_resources): [Mcr([0, 1, 2], range(3, 3 + wa.n_resources), wa),
                              GccColumn([0, 1, 2], range(3, 3 + wa.n_resources),
                                        range(wa.n_resources))],
        (0, 1): [GccColumn([], [9], [1])],
    }
    kernels = {}
    for shape, props in by_shape.items():
        kernels[shape] = props[0]._run
        assert all(p._run is kernels[shape] for p in props), shape
        assert kernels[shape] is propagators._memo_run(*shape)
    assert len({id(k) for k in kernels.values()}) == len(kernels)


def test_kernel_table_stays_within_cap():
    kernel = SumColumn(range(3), (0, 1), 0, 1)._run
    for n in range(SHARED_CAP + 8):
        SumColumn(range(n), (0, 1), 0, n)
        info = propagators._memo_run.cache_info()
        assert info.currsize <= info.maxsize == SHARED_CAP
    again = SumColumn(range(3), (0, 1), 0, 1)._run
    assert again is not kernel
    assert again.__code__ == kernel.__code__


def test_class_level_patches_reach_the_kernel(monkeypatch):
    # ``MemoFilter.run`` stays the class-level entry point, and a kernel
    # looks ``filter`` and ``entailed`` up on the instance at each miss, so
    # class-level spies on them see every run and every question.
    runs, asked = [], []
    run = MemoFilter.run

    def spy_run(self, store):
        runs.append(self)
        run(self, store)

    def entailed(self, cells, lo, hi):
        asked.append(cells)
        return True

    monkeypatch.setattr(MemoFilter, "run", spy_run)
    monkeypatch.setattr(SumColumn, "entailed", entailed)
    clear_memo()
    st = Store()
    xs = [st.new_var([0, 1]) for _ in range(2)]
    col = SumColumn(xs, (0, 1), 0, 5)
    st.register(col)
    assert st.propagate() == "stable"
    assert runs == [col] and asked == [(3, 3)] and st._parked == [col]
