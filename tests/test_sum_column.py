"""``SumColumn`` as a memo filter on bitmasks, against the pass loop it
replaced, kept here as the reference: each pass bounds every cell by the
slack the other cells' extremes leave at the start of the pass, until a pass
changes nothing."""

import random

import pytest

from matrixcp.engine import Store
from matrixcp.propagators import SumColumn

FAR = 10**9


def ref_sum_column(doms, ext, lo, hi):
    """The final cell domains, or None on failure."""
    doms = [frozenset(d) for d in doms]
    changed = True
    while changed:
        changed = False
        mins = [ext[min(d)] for d in doms]
        maxs = [ext[max(d)] for d in doms]
        total_lo, total_hi = sum(mins), sum(maxs)
        if total_lo > hi or total_hi < lo:
            return None
        for i, d in enumerate(doms):
            need_lo = lo - (total_hi - maxs[i])
            need_hi = hi - (total_lo - mins[i])
            allowed = frozenset(v for v in d if need_lo <= ext[v] <= need_hi)
            if not allowed:
                return None
            if allowed != d:
                doms[i] = allowed
                changed = True
    return doms


def propagate(doms, ext, lo, hi):
    st = Store()
    xs = [st.new_var(d) for d in doms]
    st.register(SumColumn(xs, ext, lo, hi))
    if st.propagate() == "failed":
        return None
    return [st.dom(x) for x in xs]


def random_column(rng):
    n_values = rng.randint(1, 6)
    ext = sorted(rng.sample(range(-6, 9), n_values))
    if rng.random() < 0.5 and 0 not in ext:
        ext = sorted(ext[1:] + [0]) if len(ext) > 1 else [0]
    doms = [rng.sample(range(len(ext)), rng.randint(1, len(ext)))
            for _ in range(rng.randint(1, 4))]
    least = sum(ext[min(d)] for d in doms)
    most = sum(ext[max(d)] for d in doms)
    kind = rng.randrange(4)
    if kind == 0:  # cutting into [least, most]
        a, b = sorted(rng.randint(least, most) for _ in range(2))
        return doms, ext, a, b
    if kind == 1:  # missing it
        return doms, ext, *rng.choice([(most + 1, most + 3), (least - 3, least - 1)])
    if kind == 2:  # unbounded on one side or both
        return doms, ext, *rng.choice([(-FAR, FAR), (-FAR, rng.randint(least, most)),
                                       (rng.randint(least, most), FAR)])
    return doms, ext, least, least  # the least total only


@pytest.mark.parametrize("seed", range(3))
def test_sum_column_matches_the_pass_loop(seed):
    rng = random.Random(8800 + seed)
    failures = pruned = 0
    for trial in range(400):
        doms, ext, lo, hi = random_column(rng)
        want = ref_sum_column(doms, ext, lo, hi)
        assert propagate(doms, ext, lo, hi) == want, f"seed {seed} trial {trial}"
        failures += want is None
        pruned += want is not None and want != [frozenset(d) for d in doms]
    assert failures >= 20 and pruned >= 20


def test_equal_columns_share_one_memo_entry():
    st = Store()
    cols = [[st.new_var({0, 1, 2}) for _ in range(3)] for _ in range(2)]
    for col in cols:
        st.register(SumColumn(col, (-1, 0, 4), 11, 12))
    assert st.propagate() == "stable"
    assert len(st.memo) == 1
    assert [[st.dom(x) for x in col] for col in cols] == [[{2}] * 3] * 2
