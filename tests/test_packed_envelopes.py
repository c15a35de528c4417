"""Differential checks of the packed-int cost envelopes.

``Mcr.filter`` and ``achievable_totals`` run on envelopes packed into one
int per state (``automata.Packing``).  Here they are compared with a plain
reference that keeps each envelope as two lists of per-resource minima and
maxima, on random weighted automata with 0-12 resources, costs up to 10**6
in magnitude, positional costs and rows of 1-40 cells, and with word
enumeration on short rows.  Bounds come in three kinds: around the totals of
one word, far outside every total (10**9), and cutting into the achievable
range.  The reference lists ``Store`` operations; each is compared as the
domain it leaves, which is what ``Mcr.filter`` returns.  A replay case feeds
it the rows that solving benchmark instances filters.
"""

import random
from itertools import product

import pytest

from conftest import ALPHABET, workloads
from matrixcp.automata import CostMatrices, Dfa, WeightedDfa
from matrixcp.engine import Store, mask_of, members
from matrixcp.model import achievable_totals, solve
from matrixcp.propagators import Mcr

FAR = 10**9


# -- the reference: envelopes as lists of minima and maxima ---------------------


def ref_graph(wdfa, cells):
    """The layered graph of the runs through ``cells``, each arc with its
    cost vector read from the cost matrices, and the states reached last."""
    d, costs, nres = wdfa.dfa, wdfa.costs, wdfa.n_resources
    arcs = []
    reach = {d.start}
    for i, dom in enumerate(cells):
        layer = [(q, v, d.step(q, v),
                  [costs.cost(r, q, v, i) for r in range(nres)])
                 for q in sorted(reach) for v in sorted(dom)]
        arcs.append(layer)
        reach = {a[2] for a in layer}
    return arcs, reach


def ref_envelopes(arcs, seeds, nres, backward=False):
    """Per layer, state -> (minima, maxima) of the path costs from the seeds."""
    cur = {q: ([0] * nres, [0] * nres) for q in seeds}
    out = [cur]
    for layer in reversed(arcs) if backward else arcs:
        nxt = {}
        for q, _, q2, cost in layer:
            if backward:
                q, q2 = q2, q
            if q not in cur:
                continue
            lo = [m + c for m, c in zip(cur[q][0], cost)]
            hi = [m + c for m, c in zip(cur[q][1], cost)]
            if q2 in nxt:
                lo = [min(x, y) for x, y in zip(nxt[q2][0], lo)]
                hi = [max(x, y) for x, y in zip(nxt[q2][1], hi)]
            nxt[q2] = (lo, hi)
        out.append(nxt)
        cur = nxt
    if backward:
        out.reverse()
    return out


def ref_filter(wdfa, cells, lo, hi):
    """``Mcr.filter`` with list envelopes: the same fixpoint of backward
    trimming, bound tightening and through-cost cuts, the same ops."""
    n, d, nres = len(cells), wdfa.dfa, wdfa.n_resources
    lo, hi = list(lo), list(hi)
    ops = []
    arcs, reach = ref_graph(wdfa, cells)
    while True:
        live = reach & d.accepting
        finals = live
        for i in range(n - 1, -1, -1):
            arcs[i] = [a for a in arcs[i] if a[2] in live]
            live = {a[0] for a in arcs[i]}
        if d.start not in live:
            return ops, True
        if nres == 0:
            break
        fwd = ref_envelopes(arcs, (d.start,), nres)
        mins = [min(fwd[n][q][0][r] for q in finals) for r in range(nres)]
        maxs = [max(fwd[n][q][1][r] for q in finals) for r in range(nres)]
        for r in range(nres):
            if mins[r] > lo[r]:
                ops.append((Store.set_min, n + r, mins[r]))
                if mins[r] > hi[r]:
                    return ops, True
                lo[r] = mins[r]
            if maxs[r] < hi[r]:
                ops.append((Store.set_max, n + r, maxs[r]))
                if maxs[r] < lo[r]:
                    return ops, True
                hi[r] = maxs[r]
        if lo == mins and hi == maxs:
            break
        bwd = ref_envelopes(arcs, finals, nres, backward=True)
        cut = False
        for i, layer in enumerate(arcs):
            f, b = fwd[i], bwd[i + 1]
            kept = []
            for a in layer:
                (flo, fhi), (blo, bhi) = f[a[0]], b[a[2]]
                if any(flo[r] + a[3][r] + blo[r] > hi[r]
                       or fhi[r] + a[3][r] + bhi[r] < lo[r] for r in range(nres)):
                    cut = True
                else:
                    kept.append(a)
            arcs[i] = kept
        if not cut:
            break
        reach = {d.start}
        for i, layer in enumerate(arcs):
            arcs[i] = layer = [a for a in layer if a[0] in reach]
            reach = {a[2] for a in layer}
    for i, layer in enumerate(arcs):
        symbols = frozenset(a[1] for a in layer)
        if len(symbols) < len(cells[i]):
            ops.append((Store.keep_values, i, symbols))
    return ops, False


def as_changes(ops, cells, lo, hi):
    """The reference's ops as ``(position, domain it leaves)``: a cell's
    mask, or an interval's ``range`` (empty once a bound crosses the other)."""
    n = len(cells)
    cells = [mask_of(dm) for dm in cells]
    bounds = [[a, b] for a, b in zip(lo, hi)]
    out = []
    for op, pos, arg in ops:
        if op is Store.keep_values:
            cells[pos] &= mask_of(arg)
            out.append((pos, cells[pos]))
            continue
        b = bounds[pos - n]
        b[op is Store.set_max] = arg
        out.append((pos, range(b[0], b[1] + 1)))
    return out


def ref_changes(wdfa, cells, bounds):
    """``ref_filter`` with its ops as the domains they leave."""
    lo = [b[0] for b in bounds]
    hi = [b[1] for b in bounds]
    ops, failed = ref_filter(wdfa, cells, lo, hi)
    return as_changes(ops, cells, lo, hi), failed


def ref_totals(wdfa, n):
    """``achievable_totals`` with list envelopes."""
    nres = wdfa.n_resources
    arcs, reach = ref_graph(wdfa, [ALPHABET] * n)
    finals = reach & wdfa.dfa.accepting
    if not finals:
        return None
    last = ref_envelopes(arcs, (wdfa.dfa.start,), nres)[n]
    out = []
    for r, (blo, bhi) in enumerate(wdfa.resource_bounds):
        lo = max(min(last[q][0][r] for q in finals), blo)
        hi = min(max(last[q][1][r] for q in finals), bhi)
        if lo > hi:
            return None
        out.append((lo, hi))
    return out


# -- cases --------------------------------------------------------------------------


def random_automaton(rng, n, n_res, top):
    """A random automaton with ``n_res`` resources whose base and positional
    (positions 0..n-1) costs lie in [-top, top]."""
    n_states = rng.randint(1, 5)
    trans = {(q, v): rng.randrange(n_states)
             for q in range(n_states) for v in ALPHABET}
    acc = {q for q in range(n_states) if rng.random() < 0.6} or {0}
    base = {}
    positional = {}
    for r in range(n_res):
        for q in range(n_states):
            for v in ALPHABET:
                if rng.random() < 0.6:
                    base[(r, q, v)] = rng.randint(-top, top)
                for i in range(n):
                    if rng.random() < 0.05:
                        positional[(r, q, v, i)] = rng.randint(-top, top)
    return WeightedDfa(Dfa(n_states, ALPHABET, trans, 0, acc),
                       CostMatrices(n_res, base, positional),
                       [(-FAR, FAR)] * n_res)


def random_bounds(rng, wdfa, doms):
    """Resource bounds of one of three kinds: around one word's totals, far
    out (containing every total, missing them all, or one-sided), or cutting
    into the range of the totals of all accepted words around that word's,
    some of them one-sided or far."""
    kind = rng.randrange(3)
    _, totals = wdfa.run_weighted([rng.choice(sorted(dm)) for dm in doms])
    if kind == 0:
        spread = max(map(abs, totals), default=0) // 4 + 3
        return [(t - rng.randint(0, spread), t + rng.randint(0, spread))
                for t in totals]
    if kind == 1:
        return [rng.choice([(-FAR, FAR), (FAR, FAR + 5), (-FAR - 5, -FAR), (-FAR, t)])
                for t in totals]
    ranges = ref_totals(wdfa, len(doms)) or [(t, t) for t in totals]
    out = []
    for t, (lo, hi) in zip(totals, ranges):
        lo, hi = rng.randint(min(lo, t), t), rng.randint(t, max(hi, t))
        # Far bounds next to cutting ones fill whole fields of the packed limit.
        out.append(rng.choice([(lo, hi), (lo, hi), (-FAR, hi), (lo, FAR), (-FAR, FAR)]))
    return out


def random_case(rng, max_n=40):
    n = rng.randint(1, max_n)
    wdfa = random_automaton(rng, n, rng.randint(0, 12), rng.choice([1, 3, 100, 10**6]))
    doms = [frozenset(rng.sample(ALPHABET, rng.randint(1, 3))) for _ in range(n)]
    return wdfa, doms, random_bounds(rng, wdfa, doms)


def mcr_filter(wdfa, cells, bounds):
    st = Store()
    xs = [st.new_var(dm) for dm in cells]
    zs = [st.new_interval(-1, 1) for _ in bounds]
    return Mcr(xs, zs, wdfa).filter([mask_of(dm) for dm in cells],
                                    [lo for lo, _ in bounds],
                                    [hi for _, hi in bounds])


# -- tests --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_filter_matches_list_envelopes(seed):
    rng = random.Random(9100 + seed)
    for trial in range(150):
        wdfa, doms, bounds = random_case(rng)
        want = ref_changes(wdfa, doms, bounds)
        assert mcr_filter(wdfa, doms, bounds) == want, f"seed {seed} trial {trial}"


def test_achievable_totals_match_list_envelopes():
    rng = random.Random(9200)
    for trial in range(300):
        n = rng.randint(1, 40)
        wdfa = random_automaton(rng, n, rng.randint(0, 12),
                                rng.choice([1, 3, 100, 10**6]))
        assert achievable_totals(wdfa, n) == ref_totals(wdfa, n), f"trial {trial}"


def test_short_rows_against_enumeration():
    """On rows of at most 5 cells: ``achievable_totals`` is the exact range
    of the accepted words' totals, and ``Mcr`` keeps every value and total
    of every word within the bounds (and fails only without one)."""
    rng = random.Random(9300)
    for trial in range(300):
        wdfa, doms, bounds = random_case(rng, max_n=5)
        n = len(doms)
        accepted = [totals for w in product(ALPHABET, repeat=n)
                    for ok, totals in [wdfa.run_weighted(w)] if ok]
        want = None
        if accepted:
            want = [(min(t[r] for t in accepted), max(t[r] for t in accepted))
                    for r in range(wdfa.n_resources)]
        assert achievable_totals(wdfa, n) == want, f"trial {trial}"

        changes, failed = mcr_filter(wdfa, doms, bounds)
        assert (changes, failed) == ref_changes(wdfa, doms, bounds), f"trial {trial}"
        cells = [mask_of(dm) for dm in doms]
        zb = [list(b) for b in bounds]
        for pos, dom in changes:
            if pos < n:
                cells[pos] = dom
            else:
                zb[pos - n] = [dom.start, dom.stop - 1]
        words = []
        for w in product(*doms):
            ok, totals = wdfa.run_weighted(w)
            if ok and all(lo <= t <= hi for t, (lo, hi) in zip(totals, bounds)):
                words.append((w, totals))
        assert not (failed and words), f"trial {trial}: failed with solutions"
        for w, totals in words:
            assert all(cells[i] >> v & 1 for i, v in enumerate(w)), f"trial {trial}"
            assert all(lo <= t <= hi for t, (lo, hi) in zip(totals, zb)), \
                f"trial {trial}"


@pytest.mark.parametrize("n, top", [(1, 1), (4, 2**10), (4, 2**10 - 1), (8, 2**17),
                                    (2, 2**19 - 1), (40, 10**6)])
def test_width_boundary(n, top):
    """Paths reach the extreme totals +-n*top in every resource, through base
    and positional costs, with n*top a power of two or just below one."""
    dfa = Dfa(1, ALPHABET, {(0, v): 0 for v in ALPHABET}, 0, {0})
    n_res = 3
    base = {}
    positional = {}
    for r in range(n_res):
        base[(r, 0, 0)] = top
        base[(r, 0, 1)] = top // 2
        for i in range(n):
            positional[(r, 0, 1, i)] = -top - top // 2  # -top in total
            positional[(r, 0, 2, i)] = (-1) ** (r + i) * top
    wdfa = WeightedDfa(dfa, CostMatrices(n_res, base, positional),
                       [(-FAR, FAR)] * n_res)
    bound = n * top
    assert wdfa.arc_table(n).packing.width == bound.bit_length() + 3
    assert achievable_totals(wdfa, n) == [(-bound, bound)] * n_res
    assert achievable_totals(wdfa, n) == ref_totals(wdfa, n)
    doms = [frozenset(ALPHABET)] * n
    for bounds in ([(bound, bound)] * n_res, [(-bound, -bound)] * n_res,
                   [(-bound, bound)] * n_res, [(bound - 1, FAR)] * n_res,
                   [(-FAR, -bound - 1)] * n_res, [(0, 0)] * n_res,
                   [(bound, FAR), (-FAR, -bound), (-1, 1)]):
        assert mcr_filter(wdfa, doms, bounds) == ref_changes(wdfa, doms, bounds), bounds
    changes, failed = mcr_filter(wdfa, doms, [(bound, bound)] * n_res)
    assert not failed
    assert [dom for pos, dom in changes if pos < n] == [mask_of({0})] * n


def test_replayed_benchmark_rows():
    """Every row ``Mcr.filter`` gets while solving the first 3 satisfiable
    rosters of the toy pool under ``cwa`` (the unsatisfiable ones are
    refuted before any row filter runs), whose crossed products have
    positional costs, up to 11 resources and hundreds of states, and one
    3-SAT instance of the reductions pool under ``decomp`` (no resources),
    replayed against the reference."""
    calls = []
    cold = Mcr.filter

    def recorded(self, cells, lo, hi):
        calls.append((self.wdfa, [frozenset(members(dm)) for dm in cells],
                      list(zip(lo, hi))))
        return cold(self, cells, lo, hi)

    cases = [("toy-cwa", ["toy002_s", "toy003_s", "toy007_s"]),
             ("reductions-decomp", ["002_3sat_5x21"])]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Mcr, "filter", recorded)
        for name, picked in cases:
            w = workloads.WORKLOADS[name]
            instances, _ = workloads.setup(w, workloads.DEFAULT_GEN_SEED, 8,
                                           workloads.EXPECTED_PATH)
            for inst in instances:
                if inst.name in picked:
                    before = len(calls)
                    assert solve(inst.model, w.mode).status == "sat"
                    assert len(calls) > before, inst.name
    assert {wdfa.n_resources for wdfa, _, _ in calls} >= {0, 11}
    assert max(wdfa.dfa.n_states for wdfa, _, _ in calls) >= 200
    assert any(wdfa.costs.positional for wdfa, _, _ in calls)
    for k, (wdfa, doms, bounds) in enumerate(calls):
        assert mcr_filter(wdfa, doms, bounds) == ref_changes(wdfa, doms, bounds), k
