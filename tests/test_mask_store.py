"""The bitmask store against a frozenset reference model, branching choices
against a full scan, and the checks at the edge of the store."""

import random

import pytest

from matrixcp.engine import Inconsistent, Store, pick
from matrixcp.propagators import GccColumn, Mcr, SumColumn, regular_dc
from matrixcp.automata import Dfa, WeightedDfa

TOP = 12  # values 0..TOP-1


class RefStore:
    """Value variables as frozensets, with the semantics of ``Store``: an op
    returns whether it changed the domain, and raises Inconsistent, leaving
    the domain as it was, when it would empty it."""

    def __init__(self):
        self.doms = []
        self.marks = []

    def new_var(self, values):
        self.doms.append(frozenset(values))
        return len(self.doms) - 1

    def _set(self, vid, new):
        if new == self.doms[vid]:
            return False
        if not new:
            raise Inconsistent(vid)
        self.doms[vid] = new
        return True

    def keep_values(self, vid, allowed):
        return self._set(vid, self.doms[vid] & frozenset(allowed))

    def remove_value(self, vid, v):
        return self._set(vid, self.doms[vid] - {v})

    def assign(self, vid, v):
        return self.keep_values(vid, (v,))

    def set_min(self, vid, lo):
        return self._set(vid, frozenset(v for v in self.doms[vid] if v >= lo))

    def set_max(self, vid, hi):
        return self._set(vid, frozenset(v for v in self.doms[vid] if v <= hi))

    def mark(self):
        self.marks.append(list(self.doms))

    def undo(self):
        self.doms = self.marks.pop()


def random_op(rng, n_vars):
    vid = rng.randrange(n_vars)
    name = rng.choice(["keep_values", "remove_value", "assign", "set_min",
                       "set_max", "mark", "undo"])
    if name in ("mark", "undo"):
        return name, ()
    # Values far outside every domain must cost no giant mask.
    far = rng.choice([-10**9, 10**9])
    if name == "keep_values":
        return name, (vid, {rng.choice([rng.randrange(-2, TOP + 2)] * 9 + [far])
                            for _ in range(rng.randint(0, 8))})
    if name in ("set_min", "set_max"):
        return name, (vid, rng.choice([rng.randrange(-5, TOP + 5)] * 3 + [far]))
    return name, (vid, rng.choice([rng.randrange(-2, TOP + 2)] * 9 + [far]))


def observe(st, vid):
    dom = frozenset(st.dom(vid))
    return dom, st.vmin(vid), st.vmax(vid), st.is_fixed(vid)


@pytest.mark.parametrize("seed", range(4))
def test_mask_store_matches_frozenset_reference(seed):
    rng = random.Random(7700 + seed)
    for trial in range(60):
        st, ref = Store(), RefStore()
        n_vars = rng.randint(1, 4)
        for _ in range(n_vars):
            values = rng.sample(range(TOP), rng.randint(1, TOP))
            assert st.new_var(values) == ref.new_var(values)
        for step in range(80):
            name, args = random_op(rng, n_vars)
            if name == "undo" and not ref.marks:
                continue
            outcome = []
            for s in (st, ref):
                try:
                    outcome.append(getattr(s, name)(*args))
                except Inconsistent:
                    outcome.append("inconsistent")
            where = f"seed {seed} trial {trial} step {step}: {name}{args}"
            assert outcome[0] == outcome[1], where
            for vid in range(n_vars):
                dom = ref.doms[vid]
                want = dom, min(dom), max(dom), len(dom) == 1
                assert observe(st, vid) == want, where


def full_scan(st, branch_vars):
    best = None
    for vid in branch_vars:
        size = len(st.dom(vid))
        if size > 1 and (best is None or size < len(st.dom(best))):
            best = vid
    return best


def test_pick_matches_a_full_scan():
    """``pick`` from a random ``start`` over a prefix fixed first finds the
    variable a full scan finds, and the first unfixed index."""
    rng = random.Random(7800)
    for trial in range(500):
        st = Store()
        vids = []
        for _ in range(rng.randint(1, 10)):
            if rng.random() < 0.2:
                lo = rng.randrange(-3, 3)
                vids.append(st.new_interval(lo, lo + rng.randrange(4)))
            else:
                vids.append(st.new_var(rng.sample(range(8), rng.randint(1, 5))))
        branch = rng.sample(vids, rng.randint(0, len(vids)))
        start = rng.randint(0, len(branch))
        for vid in branch[:start]:
            st.assign(vid, st.vmin(vid))
        first = next((i for i, vid in enumerate(branch)
                      if not st.is_fixed(vid)), len(branch))
        assert first >= start
        assert pick(st, branch, start) == (first, full_scan(st, branch)), \
            f"trial {trial}"


@pytest.mark.parametrize("bad", [-1, 1.5, "a", None])
def test_new_var_rejects_a_value_that_is_not_a_non_negative_integer(bad):
    st = Store()
    st.new_var({0})
    with pytest.raises(ValueError, match=r"x\[0,1\]"):
        st.new_var({0, bad}, "x[0,1]")
    with pytest.raises(ValueError, match=r"variable v1:"):
        st.new_var([bad])


def test_memo_filters_reject_a_variable_at_two_positions():
    st = Store()
    x, y = st.new_var({0, 1}), st.new_var({0, 1})
    z = st.new_interval(0, 2)
    dfa = Dfa(1, (0, 1), {(0, 0): 0, (0, 1): 0}, 0, {0})
    with pytest.raises(ValueError, match=f"variable {x} appears twice"):
        regular_dc([x, y, x], dfa)
    with pytest.raises(ValueError, match=f"variable {z} appears twice"):
        GccColumn([x, y], [z, z], (0, 1))
    with pytest.raises(ValueError, match=f"variable {y} appears twice"):
        SumColumn([x, y, y], (1, 2), 0, 5)
    Mcr([x, y], [], WeightedDfa.plain(dfa))
