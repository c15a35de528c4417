"""Differential checks of ``Relation`` on seeded random expression trees:
nested ``SumE``/``ScaleE``/``MaxE``/``MinE``/``ConstE`` up to depth 3 over
2-4 interval variables, related by ``le`` or ``eq``.

``Relation`` runs on a kernel generated per expression shape.  The reference
here is the interpreter it replaced: ``Program`` lays the expression out in
pre-order, ``sweep_bounds`` computes every node's bounds bottom-up and
``require`` hands the required bounds down.  Each pass of the kernel must
match a pass of the reference: the changed flag, the failure, the final
bounds and the exact ``set_min``/``set_max`` calls.
"""

import random
from itertools import product

import pytest

from matrixcp import propagators
from matrixcp.automata import SHARED_CAP
from matrixcp.engine import Inconsistent, Store
from matrixcp.propagators import (
    CONST,
    MAX,
    MIN,
    SCALE,
    SUM,
    VAR,
    ConstE,
    MaxE,
    MinE,
    Relation,
    ScaleE,
    SumE,
    VarE,
)


# -- the reference: an interpreter over the pre-order node list ----------------


def _ceil_div(a, b):
    return -((-a) // b)


class Program:
    """A compiled expression triple: ``ops``, ``args`` and ``kids`` in
    pre-order, and for the bottom-up sweep the constants laid out by node
    (``consts``), the variable leaves ``(node, vid)`` and the inner nodes
    ``(node, op, arg, kids)`` in post-order, children first."""

    __slots__ = ("ops", "args", "kids", "consts", "leaves", "inner")

    def __init__(self, expr):
        ops, args, kids = self.ops, self.args, self.kids = [], [], []
        consts, leaves, inner = self.consts, self.leaves, self.inner = [], [], []

        def emit(e):
            i = len(ops)
            op, arg, children = e
            ops.append(op)
            args.append(arg)
            kids.append(())
            consts.append(arg if op == CONST else 0)
            if op == VAR:
                leaves.append((i, arg))
            elif children:
                ks = kids[i] = tuple([emit(ch) for ch in children])
                inner.append((i, op, arg, ks))
            return i

        emit(expr)


def sweep_bounds(program, store):
    """Bounds of every node of ``program`` under the store's domains, as two
    lists ``lo`` and ``hi``; each variable leaf reads its domain once."""
    lo = program.consts[:]
    hi = program.consts[:]
    domains = store.domains
    for i, vid in program.leaves:
        bits = domains[vid].bits
        if type(bits) is range:
            lo[i] = bits[0]
            hi[i] = bits[-1]
        else:
            lo[i] = (bits & -bits).bit_length() - 1
            hi[i] = bits.bit_length() - 1
    for i, op, c, ks in program.inner:
        if op == SUM:
            a = b = 0
            for k in ks:
                a += lo[k]
                b += hi[k]
            lo[i] = a
            hi[i] = b
        elif op == SCALE:
            k = ks[0]
            if c > 0:
                lo[i] = c * lo[k]
                hi[i] = c * hi[k]
            else:
                lo[i] = c * hi[k]
                hi[i] = c * lo[k]
        elif op == MAX:
            a = b = None
            for k in ks:
                if a is None or lo[k] > a:
                    a = lo[k]
                if b is None or hi[k] > b:
                    b = hi[k]
            lo[i] = a
            hi[i] = b
        else:
            a = b = None
            for k in ks:
                if a is None or lo[k] < a:
                    a = lo[k]
                if b is None or hi[k] < b:
                    b = hi[k]
            lo[i] = a
            hi[i] = b
    return lo, hi


def require(program, store, lo, hi, need_lo, need_hi):
    """Bound the program's root to ``need_lo..need_hi`` (None: unbounded)
    and derive every node's required bounds from its parent's and the
    bounds ``lo``/``hi`` of ``sweep_bounds``; variable leaves take theirs
    with ``set_min``/``set_max``.  A child gets a bound only where it cuts
    the child's own.  Returns whether a domain changed; raises Inconsistent
    when a node's required bounds miss its bounds."""
    if (need_lo is None or need_lo <= lo[0]) and (need_hi is None
                                                  or need_hi >= hi[0]):
        return False  # the root already meets them: nothing cuts below
    ops, args, kids = program.ops, program.args, program.kids
    n = len(ops)
    want_lo = [None] * n
    want_hi = [None] * n
    want_lo[0] = need_lo
    want_hi[0] = need_hi
    changed = False
    for i in range(n):
        a = want_lo[i]
        b = want_hi[i]
        if a is None and b is None:
            continue
        if (a is not None and a > hi[i]) or (b is not None and b < lo[i]):
            raise Inconsistent("expression misses its required bounds")
        op = ops[i]
        if op == VAR:
            if a is not None:
                changed |= store.set_min(args[i], a)
            if b is not None:
                changed |= store.set_max(args[i], b)
        elif op == SUM:
            ks = kids[i]
            if b is not None:
                slack = b - lo[i]
                for k in ks:
                    r = slack + lo[k]
                    if r < hi[k]:
                        want_hi[k] = r
            if a is not None:
                slack = a - hi[i]
                for k in ks:
                    r = slack + hi[k]
                    if r > lo[k]:
                        want_lo[k] = r
        elif op == SCALE:
            (k,) = kids[i]
            c = args[i]
            if c > 0:
                up = None if b is None else b // c
                down = None if a is None else _ceil_div(a, c)
            else:
                up = None if a is None else a // c
                down = None if b is None else _ceil_div(b, c)
            if up is not None and up < hi[k]:
                want_hi[k] = up
            if down is not None and down > lo[k]:
                want_lo[k] = down
        elif op == MAX:
            ks = kids[i]
            if b is not None:
                for k in ks:
                    if b < hi[k]:
                        want_hi[k] = b
            if a is not None:
                able = [k for k in ks if hi[k] >= a]
                if len(able) == 1 and a > lo[able[0]]:
                    want_lo[able[0]] = a
        elif op == MIN:
            ks = kids[i]
            if a is not None:
                for k in ks:
                    if a > lo[k]:
                        want_lo[k] = a
            if b is not None:
                able = [k for k in ks if lo[k] <= b]
                if len(able) == 1 and b < hi[able[0]]:
                    want_hi[able[0]] = b
    return changed


# -- random cases ----------------------------------------------------------------


def random_expr(rng, vids, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.2:
            return ConstE(rng.randint(-3, 5))
        return VarE(rng.choice(vids))
    kind = rng.choice(("sum", "scale", "max", "min"))
    if kind == "scale":
        return ScaleE(rng.choice((-2, -1, 1, 2)), random_expr(rng, vids, depth - 1))
    children = [random_expr(rng, vids, depth - 1) for _ in range(rng.randint(1, 3))]
    return {"sum": SumE, "max": MaxE, "min": MinE}[kind](children)


def random_case(rng):
    """(variable bounds, op, left, right) over variables 0..len(bounds)-1."""
    bounds = []
    for _ in range(rng.randint(2, 4)):
        lo = rng.randint(-2, 3)
        bounds.append((lo, lo + rng.randint(0, 4)))
    vids = list(range(len(bounds)))
    op = rng.choice(("le", "eq"))
    return bounds, op, random_expr(rng, vids, 3), random_expr(rng, vids, 3)


def value(e, x):
    """The value of expression e under the assignment x (vid -> int)."""
    op, arg, children = e
    if op == CONST:
        return arg
    if op == VAR:
        return x[arg]
    vals = [value(ch, x) for ch in children]
    if op == SCALE:
        return arg * vals[0]
    return {SUM: sum, MAX: max, MIN: min}[op](vals)


def propagate(bounds, op, left, right):
    """Post the relation on fresh variables; None on failure, else the final
    bounds of every variable."""
    st = Store()
    vids = [st.new_interval(lo, hi) for lo, hi in bounds]
    assert vids == list(range(len(bounds)))
    st.register(Relation(op, left, right))
    if st.propagate() == "failed":
        return None
    return tuple((st.vmin(v), st.vmax(v)) for v in vids)


def cases(seed, count):
    rng = random.Random(seed)
    return [random_case(rng) for _ in range(count)]


def test_sound_against_enumeration():
    for bounds, op, left, right in cases(8301, 300):
        got = propagate(bounds, op, left, right)
        for x in product(*(range(lo, hi + 1) for lo, hi in bounds)):
            lv, rv = value(left, x), value(right, x)
            if lv <= rv if op == "le" else lv == rv:
                assert got is not None, (bounds, op)
                assert all(lo <= v <= hi for v, (lo, hi) in zip(x, got))


def test_bounds_of_the_compiled_sweep():
    st = Store()
    a = st.new_interval(-2, 3)
    b = st.new_interval(1, 4)
    e = SumE([MaxE([VarE(a), ScaleE(-2, VarE(b))]), MinE([VarE(b), ConstE(2)])])
    lo, hi = sweep_bounds(Program(e), st)
    assert (lo[0], hi[0]) == (-1, 5)
    # Both ends are attained: a=-2, b=1 gives -1 and a=3 with b>=2 gives 5.
    assert {value(e, x) for x in product(range(-2, 4), range(1, 5))} >= {-1, 5}


# Results of the propagator before relations were compiled (each expression
# node pushing its bounds into its children), for cases(8302, 200) in order.
# The compiled version must reach the same fixpoint, failures included.
SEED_RESULTS = [
    None,
    ((0, 1), (-1, 3), (0, 4), (0, 1)),
    None,
    ((2, 3), (2, 3)),
    ((0, 0), (0, 0)),
    ((2, 2), (2, 3), (-1, 1)),
    None,
    None,
    ((3, 4), (3, 7), (1, 3)),
    None,
    ((-1, 2), (0, 0), (-2, -1), (2, 6)),
    ((3, 3), (-2, 0)),
    ((0, 4), (1, 2)),
    None,
    ((-1, 0), (0, 3), (3, 7), (-1, 0)),
    ((-1, 1), (2, 5), (2, 2)),
    None,
    ((2, 5), (3, 6), (1, 5), (0, 4)),
    ((3, 3), (2, 3), (-1, 2)),
    ((2, 3), (-2, -1), (-2, 1), (-2, -1)),
    ((3, 4), (0, 3), (2, 3)),
    None,
    ((3, 3), (2, 5), (3, 6)),
    ((-1, 0), (3, 5), (2, 4), (-2, 0)),
    None,
    ((-1, 0), (1, 5)),
    ((0, 2), (-1, 2)),
    ((-1, 3), (-1, 0), (2, 2)),
    None,
    ((2, 5), (0, 3), (0, 0), (-2, -2)),
    ((-1, 1), (-2, 1), (-1, 1)),
    ((3, 4), (0, 1), (3, 4)),
    ((2, 3), (2, 4)),
    ((-2, -1), (0, 0), (3, 5), (1, 1)),
    ((0, 0), (1, 2), (3, 7)),
    None,
    None,
    ((0, 2), (1, 4), (0, 4), (0, 2)),
    ((-2, 0), (2, 6), (2, 5)),
    None,
    ((-1, 2), (0, 3), (3, 4), (2, 3)),
    None,
    ((0, 3), (0, 3), (-1, 0)),
    ((-2, 2), (2, 2), (2, 3)),
    None,
    None,
    ((3, 4), (3, 5), (0, 3)),
    None,
    ((2, 2), (-2, -1), (-2, -2)),
    ((1, 2), (3, 6), (-1, -1)),
    None,
    None,
    None,
    ((0, 0), (1, 3)),
    ((0, 0), (2, 6), (0, 0)),
    ((0, 1), (0, 0), (0, 2), (3, 5)),
    ((0, 0), (0, 0)),
    ((2, 3), (1, 2), (2, 2), (0, 1)),
    ((3, 6), (2, 4)),
    ((1, 1), (3, 3)),
    ((0, 0), (0, 0), (0, 0), (0, 3)),
    ((2, 3), (-2, -2)),
    ((2, 6), (2, 2), (0, 4)),
    ((2, 3), (0, 3), (-2, 1)),
    None,
    ((0, 0), (2, 2), (1, 1)),
    None,
    ((3, 7), (2, 4)),
    None,
    ((1, 3), (-1, 2)),
    None,
    ((1, 4), (1, 4), (1, 3)),
    None,
    None,
    ((1, 3), (-2, 0), (-2, 0), (3, 4)),
    ((0, 4), (3, 5), (0, 2), (1, 4)),
    None,
    ((0, 2), (1, 5)),
    None,
    None,
    None,
    None,
    ((-1, 2), (3, 6), (-1, 0), (1, 3)),
    None,
    ((-2, -1), (1, 5)),
    None,
    None,
    None,
    ((-1, -1), (-2, 0), (1, 4)),
    ((-1, 1), (-1, 1), (0, 3)),
    ((2, 6), (0, 1), (-1, 0)),
    ((2, 5), (0, 2)),
    None,
    ((-1, 1), (-2, 1)),
    None,
    ((-2, -2), (-1, 0), (-1, 0)),
    None,
    ((-1, -1), (3, 6), (0, 3)),
    ((1, 5), (1, 4), (0, 1)),
    ((1, 1), (1, 2), (1, 1)),
    None,
    None,
    ((-2, 2), (1, 3)),
    None,
    ((2, 3), (-1, -1), (-1, -1), (1, 2)),
    ((2, 4), (1, 4), (1, 1), (-2, 0)),
    ((2, 4), (-1, 3), (0, 3), (1, 3)),
    ((2, 2), (4, 4), (-2, 2)),
    None,
    None,
    ((3, 6), (-2, 0), (-1, 0), (3, 7)),
    None,
    ((2, 4), (0, 1), (1, 5), (1, 2)),
    None,
    ((3, 6), (-2, 0), (2, 4)),
    None,
    None,
    None,
    ((1, 4), (1, 2), (-2, -1)),
    ((2, 2), (2, 2)),
    ((-2, -2), (1, 3), (1, 2)),
    ((2, 6), (3, 5), (2, 6)),
    None,
    ((0, 0), (1, 3), (0, 0)),
    None,
    ((-1, 2), (1, 4)),
    ((0, 1), (3, 4), (3, 5)),
    None,
    ((-1, 3), (-2, 2)),
    ((-2, -2), (-2, -2)),
    ((5, 7), (1, 5), (2, 2)),
    ((0, 2), (1, 4)),
    ((0, 1), (1, 1), (-1, 1), (-2, 1)),
    None,
    ((2, 2), (0, 0)),
    None,
    None,
    None,
    None,
    None,
    None,
    None,
    ((-1, 2), (-1, 2)),
    ((-1, -1), (-2, 1), (3, 3)),
    ((-1, -1), (3, 7), (3, 3), (-1, -1)),
    None,
    ((0, 1), (2, 6), (0, 1)),
    ((-1, 1), (0, 3), (-1, -1), (-1, 2)),
    ((1, 2), (3, 4), (1, 4)),
    None,
    ((2, 2), (2, 2)),
    ((0, 0), (3, 3)),
    None,
    ((1, 1), (-2, 0), (-2, 1), (3, 4)),
    ((-1, -1), (-1, -1), (0, 2)),
    None,
    None,
    None,
    ((2, 4), (3, 5), (-1, 2)),
    None,
    ((-2, 0), (-1, -1)),
    None,
    ((3, 3), (-1, 2), (-1, 1), (-2, 2)),
    ((2, 5), (2, 5)),
    ((1, 1), (3, 6)),
    ((-2, 2), (-2, 1)),
    None,
    None,
    None,
    None,
    None,
    None,
    ((1, 1), (-2, 0)),
    ((2, 3), (1, 1), (1, 2)),
    ((0, 1), (0, 0), (1, 5), (3, 7)),
    None,
    ((-1, 2), (-1, 0)),
    None,
    None,
    None,
    ((1, 5), (2, 6), (2, 2)),
    None,
    None,
    None,
    None,
    ((2, 4), (1, 1), (-1, 1), (1, 4)),
    ((-1, 1), (1, 4), (2, 5), (1, 4)),
    None,
    None,
    None,
    ((3, 7), (0, 0)),
    ((3, 4), (-1, 1), (0, 1), (-1, 2)),
    ((1, 2), (-1, 2), (0, 2), (0, 2)),
    ((-2, -2), (1, 2), (-2, -1)),
    None,
    None,
    None,
    ((0, 1), (0, 1)),
    ((2, 5), (3, 7)),
    None,
]


def test_matches_seed_results():
    got = [propagate(*case) for case in cases(8302, 200)]
    assert got == SEED_RESULTS


# -- the kernel against the reference, pass by pass ------------------------------


class SpyStore(Store):
    """A store that records every ``set_min``/``set_max`` call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def set_min(self, vid, lo):
        self.calls.append(("min", vid, lo))
        return super().set_min(vid, lo)

    def set_max(self, vid, hi):
        self.calls.append(("max", vid, hi))
        return super().set_max(vid, hi)


def run_pass(step, store):
    """One pass: (changed flag or "failed", the calls it made, the bounds
    it left)."""
    del store.calls[:]
    try:
        outcome = step(store)
    except Inconsistent:
        outcome = "failed"
    bounds = [(store.vmin(v), store.vmax(v)) for v in range(len(store.domains))]
    return outcome, list(store.calls), bounds


def assert_passes_match(make_vars, op, left, right):
    """Run the kernel and the reference pass by pass on stores that
    ``make_vars`` fills alike, until a pass fails or changes nothing."""
    program = Program(SumE([left, ScaleE(-1, right)]))
    need_lo = 0 if op == "eq" else None
    rel = Relation(op, left, right)
    ours, theirs = SpyStore(), SpyStore()
    make_vars(ours)
    make_vars(theirs)

    def reference(store):
        lo, hi = sweep_bounds(program, store)
        return require(program, store, lo, hi, need_lo, 0)

    for _ in range(100):
        got = run_pass(rel._pass, ours)
        want = run_pass(reference, theirs)
        assert got == want, (op, left, right)
        if got[0] is not True:
            return
    raise AssertionError("no fixpoint within 100 passes")


def test_kernel_matches_reference():
    for bounds, op, left, right in cases(8303, 2000):
        def make_vars(st):
            for lo, hi in bounds:
                st.new_interval(lo, hi)
        assert_passes_match(make_vars, op, left, right)


def test_kernel_matches_reference_on_value_variables():
    # Value variables hold bitmasks, whose bounds the kernel reads apart.
    rng = random.Random(8304)
    for bounds, op, left, right in cases(8305, 300):
        sets = [rng.sample(range(7), rng.randint(1, 4)) for _ in bounds]

        def make_vars(st):
            for values in sets:
                st.new_var(values)
        assert_passes_match(make_vars, op, left, right)


# -- the kernel table ----------------------------------------------------------


def test_one_kernel_per_shape():
    a, b, c, d = range(4)
    first = Relation("le", SumE([VarE(a), ConstE(2)]), MaxE([VarE(b), VarE(a)]))
    other = Relation("le", SumE([VarE(c), ConstE(2)]), MaxE([VarE(d), VarE(c)]))
    assert first._kernel is other._kernel
    assert other.variables() == [c, d]
    eq = Relation("eq", SumE([VarE(a), ConstE(2)]), MaxE([VarE(b), VarE(a)]))
    assert eq._kernel is not first._kernel


def test_evicted_kernel_rebuilt_equal():
    kernel = Relation("le", VarE(0), ScaleE(3, VarE(1)))._kernel
    for c in range(SHARED_CAP):
        Relation("le", VarE(0), ConstE(c))
    again = Relation("le", VarE(0), ScaleE(3, VarE(1)))._kernel
    assert again is not kernel
    assert again.__code__ == kernel.__code__


@pytest.mark.parametrize("expr", [
    ConstE(1.5),
    ConstE(True),
    ScaleE("2", VarE(0)),
], ids=["float", "bool", "str-coefficient"])
def test_non_int_rejected_before_source(expr, monkeypatch):
    def build(op, shape):
        raise AssertionError("kernel source built")

    monkeypatch.setattr(propagators, "_kernel_source", build)
    with pytest.raises(ValueError, match="is not an int"):
        Relation("le", expr, VarE(1))
