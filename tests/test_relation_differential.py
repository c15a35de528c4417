"""Differential checks of ``Relation`` on seeded random expression trees:
nested ``SumE``/``ScaleE``/``MaxE``/``MinE``/``ConstE`` up to depth 3 over
2-4 interval variables, related by ``le`` or ``eq``."""

import random
from itertools import product

from matrixcp.engine import Store
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
    Program,
    Relation,
    ScaleE,
    SumE,
    VarE,
    sweep_bounds,
)


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
