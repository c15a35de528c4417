"""Entailment and parking: ``MemoFilter.entailed`` of each class that has
one, the parked state of ``engine.Store``, and searches that park against
searches that never do.

A propagator whose constraint every completion of its cells satisfies parks
until the store backtracks above it; it can prune nothing there, so parking
moves no domain, node or verdict, only the number of propagator runs.
"""

import os
import random
import sys
from itertools import product

import pytest

from matrixcp import engine
from matrixcp.automata import WeightedDfa
from matrixcp.engine import ENTAILED, NO_CHANGE, Inconsistent, Propagator, Store
from matrixcp.generators import _random_dfa, gen_random
from matrixcp.model import root_prune, solve
from matrixcp.propagators import GccColumn, Mcr, SumColumn

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
sys.path.insert(0, BENCH)
import workloads  # noqa: E402


def random_mask(rng, n_values):
    return rng.randrange(1, 1 << n_values)


def tuples(cells):
    """Every tuple of the cells' cross product."""
    return product(*(engine.members(dm) for dm in cells))


# -- the sentinel ---------------------------------------------------------------


def test_entailed_is_its_own_object():
    # Two equal tuple literals of one module compile to one constant; the
    # sentinel must not be that constant, or nothing would ever park.
    assert ENTAILED is not NO_CHANGE
    assert ENTAILED == NO_CHANGE


def test_memo_keeps_entailment_apart_from_no_change():
    holds = lambda *args: True  # noqa: E731
    assert engine.memoised("a", lambda: ([], False), entailed=holds) is ENTAILED
    assert engine.memoised("b", lambda: ([], False),
                           entailed=lambda: False) is NO_CHANGE
    assert engine.memoised("c", lambda: ([], False)) is NO_CHANGE
    # A result that changes something or fails is never asked.
    asked = []
    engine.memoised("d", lambda: ([(0, 1)], False), entailed=asked.append)
    engine.memoised("e", lambda: ([], True), entailed=asked.append)
    assert asked == []


# -- soundness against brute force ----------------------------------------------


def test_gcc_column_entailment_is_sound():
    rng = random.Random(2601)
    entailed = 0
    for _ in range(3000):
        n, n_values = rng.randint(1, 4), rng.randint(1, 3)
        values = rng.sample(range(n_values), rng.randint(0, n_values))
        bounds = []
        for _ in values:
            lo = rng.randint(0, n)
            bounds.append((lo, rng.randint(lo, n)))
        cells = tuple(random_mask(rng, n_values) for _ in range(n))
        prop = GccColumn(list(range(n)), bounds, values)
        if not prop.entailed(cells, (), ()):
            continue
        entailed += 1
        for t in tuples(cells):
            for v, (lo, hi) in zip(values, bounds):
                assert lo <= t.count(v) <= hi, (cells, values, bounds, t)
    assert entailed >= 300


def test_sum_column_entailment_is_sound():
    rng = random.Random(2602)
    entailed = 0
    for _ in range(3000):
        n, n_values = rng.randint(1, 4), rng.randint(1, 3)
        ext = sorted(rng.sample(range(-3, 4), n_values))
        lo = rng.randint(-6, 6)
        hi = lo + rng.randint(0, 8)
        cells = tuple(random_mask(rng, n_values) for _ in range(n))
        prop = SumColumn(list(range(n)), ext, lo, hi)
        if not prop.entailed(cells, (), ()):
            continue
        entailed += 1
        for t in tuples(cells):
            assert lo <= sum(ext[v] for v in t) <= hi, (cells, ext, lo, hi, t)
    assert entailed >= 300


def test_plain_automaton_entailment_is_sound():
    rng = random.Random(2603)
    entailed = 0
    for _ in range(3000):
        n_values = rng.randint(1, 3)
        dfa = _random_dfa(rng, rng.randint(1, 4), tuple(range(n_values)))
        n = rng.randint(1, 4)
        cells = tuple(random_mask(rng, n_values) for _ in range(n))
        prop = Mcr(list(range(n)), [], WeightedDfa.plain(dfa))
        if not prop.entailed(cells, (), ()):
            continue
        entailed += 1
        for t in tuples(cells):
            assert dfa.accepts(t), (cells, t)
    assert entailed >= 300


# -- the parked state of the store ----------------------------------------------


class Parker(Propagator):
    """Counts its runs, removes ``value`` from its variable while it is
    there, and parks once it has, as an entailed filter does."""

    def __init__(self, vid, value, tier=0):
        self.vid = vid
        self.value = value
        self.priority = tier
        self.runs = 0

    def variables(self):
        return (self.vid,)

    def run(self, store):
        self.runs += 1
        store.remove_value(self.vid, self.value)
        store.park(self)


class Fails(Propagator):
    def __init__(self, vid):
        self.vid = vid

    def variables(self):
        return (self.vid,)

    def run(self, store):
        raise Inconsistent("planted")


def parked_store():
    st = Store()
    x = st.new_var(range(4))
    p = Parker(x, 0)
    st.register(p)
    return st, x, p


def test_parked_propagator_is_not_woken():
    st, x, p = parked_store()
    assert st.propagate() == "stable" and p.runs == 1
    st.remove_value(x, 1)
    assert not any(st._tiers)
    assert st.propagate() == "stable" and p.runs == 1


def test_parked_at_the_root_stays_parked():
    st, x, p = parked_store()
    st.propagate()
    st.mark()
    st.remove_value(x, 1)
    st.undo()
    st.remove_value(x, 2)
    assert st.propagate() == "stable" and p.runs == 1


def test_undo_of_its_mark_unparks():
    st, x, p = parked_store()
    st.remove_value(x, 0)  # the first run then parks without removing
    st.mark()
    assert st.propagate() == "stable" and p.runs == 1
    st.remove_value(x, 1)
    assert st.propagate() == "stable" and p.runs == 1
    st.undo()
    assert st.dom(x) == frozenset({1, 2, 3}) and st._queued == set()
    st.remove_value(x, 2)
    assert st.propagate() == "stable" and p.runs == 2


def test_nested_marks_unpark_what_parked_since_each():
    st = Store()
    x = st.new_var(range(4))
    y = st.new_var(range(4))
    outer, inner = Parker(x, 0), Parker(y, 0)
    for p in (outer, inner):
        st.watch(p.vid, p)
    st.mark()
    st.remove_value(x, 1)
    st.propagate()  # outer parks at depth 1
    st.mark()
    st.remove_value(y, 1)
    st.propagate()  # inner parks at depth 2
    assert (outer.runs, inner.runs) == (1, 1)
    st.undo()  # back to depth 1: only inner wakes again
    st.remove_value(x, 2)
    st.remove_value(y, 2)
    st.propagate()
    assert (outer.runs, inner.runs) == (1, 2)
    st.undo()  # back to the root: both wake again
    st.remove_value(x, 3)
    st.remove_value(y, 3)
    st.propagate()
    assert (outer.runs, inner.runs) == (2, 3)


def test_parked_propagator_stays_parked_through_a_deeper_failure():
    st, x, p = parked_store()
    z = st.new_var(range(3))
    st.watch(z, Fails(z))
    st.mark()
    st.remove_value(x, 1)
    assert st.propagate() == "stable" and p.runs == 1  # parked at depth 1
    st.mark()
    st.remove_value(z, 0)
    assert st.propagate() == "failed"
    assert not any(st._tiers) and st._queued == {p}
    st.undo()  # the failing level: p stays parked
    st.remove_value(x, 2)
    assert st.propagate() == "stable" and p.runs == 1
    st.undo()  # p's level
    st.remove_value(x, 3)
    assert st.propagate() == "stable" and p.runs == 2


def test_memo_filter_parks_on_an_entailed_column():
    st = Store()
    xs = [st.new_var({0, 1}) for _ in range(3)]
    # Value 1 at most twice: entailed once a cell is fixed to 0.
    col = GccColumn(xs, [(0, 2)], [1])
    st.register(col)
    assert st.propagate() == "stable" and col not in st._parked
    st.mark()
    st.assign(xs[0], 0)
    assert st.propagate() == "stable" and st._parked == [col]
    st.assign(xs[1], 1)
    assert st.propagate() == "stable" and not any(st._tiers)
    assert st.propagation_count == 2
    st.undo()
    assert st._parked == [] and st._queued == set()


# -- searches that park against searches that never do --------------------------


def outcomes(models, mode):
    out = []
    for model in models:
        res = solve(model, mode)
        s = res.stats
        out.append((res.status, res.grid, s.nodes, s.backtracks, s.failures,
                    s.root_failure, root_prune(model, mode)))
    return out


def runs(models, mode):
    return sum(solve(model, mode).stats.propagations for model in models)


def without_entailment(monkeypatch, measure):
    """``measure()`` with every ``entailed`` false, so nothing parks, from
    an empty memo and leaving it empty."""
    with monkeypatch.context() as m:
        for cls in (GccColumn, SumColumn, Mcr):
            m.setattr(cls, "entailed", lambda self, cells, lo, hi: False)
        engine.clear_memo()
        out = measure()
    engine.clear_memo()
    return out


def fuzz_models():
    """The 200 criterion-4 fuzz models."""
    return [gen_random(9000 + i, random.Random(100 + i).randint(2, 4),
                       random.Random(200 + i).randint(2, 4),
                       random.Random(300 + i).randint(2, 3))
            for i in range(200)]


@pytest.mark.parametrize("mode", ["decomp", "wa", "cwa"])
def test_parking_moves_no_search_on_fuzz_models(monkeypatch, mode):
    models = fuzz_models()
    want = without_entailment(monkeypatch, lambda: outcomes(models, mode))
    assert outcomes(models, mode) == want


def test_parking_moves_no_search_on_reductions(monkeypatch):
    w = workloads.WORKLOADS["reductions-decomp"]
    instances, _ = workloads.setup(w, workloads.DEFAULT_GEN_SEED, None,
                                   workloads.EXPECTED_PATH)
    models = [inst.model for inst in instances]
    want, runs_without = without_entailment(
        monkeypatch, lambda: (outcomes(models, w.mode), runs(models, w.mode)))
    assert outcomes(models, w.mode) == want
    # And it does park: the pool takes fewer runs.
    assert runs(models, w.mode) < runs_without
