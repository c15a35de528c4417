"""Acceptance checks for the matrix-constraint library.

One test per criterion; each prints a single summary line on success, and the
test report carries the pass/fail verdict.  The checks are end to end: exact
oracles and reference deciders on one side, the propagation stack on the
other.
"""

import random
import time
from itertools import combinations, product

import pytest

from matrixcp.automata import (
    CostMatrices,
    Dfa,
    WeightedDfa,
    build_sliding_word_counter,
    build_stretch_length_bounds,
    build_word_occurrence,
)
from matrixcp.engine import Store
from matrixcp.generators import (
    _random_dfa,
    gen_3dm_bc,
    gen_3dm_dc,
    gen_3sat,
    gen_exact_cover,
    gen_hitting_set,
    gen_random,
)
from matrixcp.model import achievable_totals, root_prune, solve
from matrixcp.oracle import (
    CapExceeded,
    brute_dc,
    brute_solve,
    regular2_dc,
    regular2_support,
)
from matrixcp.propagators import ConstE, MaxE, MinE, Mcr, Relation, SumE, VarE
from matrixcp.roster import gen_toy_rosters, roster_model, run_bench


def _line(n, msg):
    print(f"criterion {n}: PASS - {msg}")


# -- criterion 1: word-condition regression on the known 5x5 snapshot ---------


def build_snapshot_state(per_position):
    """A mid-search 5x5 snapshot over values 0..2, watching the two-cell
    word 2,2: rows 2..4 are pinned to 1 in columns 0 and 2, and the
    cardinality variables for value 2 carry the bounds

        col 0: [0,2]  col 1: [4,5]  col 2: [4,5]  col 3: [0,2]  col 4: [0,5]

    Row automata derive the per-position word flags; the conditions tie the
    flags to the cardinalities, either per position or in aggregate.
    """
    R, K = 5, 5
    pat = (frozenset({2}), frozenset({2}))
    st = Store()
    cells = []
    for i in range(R):
        row = []
        for k in range(K):
            if i >= 2 and k in (0, 2):
                row.append(st.new_var({1}))
            else:
                row.append(st.new_var({0, 1, 2}))
        cells.append(row)
    card_dom = [(0, 2), (4, 5), (4, 5), (0, 2), (0, 5)]
    cards = [st.new_interval(lo, hi) for lo, hi in card_dom]
    wd = build_sliding_word_counter(pat, K, (0, 1, 2))
    totals = achievable_totals(wd, K)
    zs = []
    for i in range(R):
        z = [st.new_interval(lo, hi) for lo, hi in totals]
        zs.append(z)
        st.register(Mcr(cells[i], z, wd))
    n_flags = K - len(pat) + 1

    def lw(k):
        # a window match needs both its columns nearly full of 2s
        return MaxE([ConstE(0),
                     SumE([VarE(cards[k]), VarE(cards[k + 1]), ConstE(-R)])])

    def uw(k):
        return MinE([VarE(cards[k]), VarE(cards[k + 1])])

    if per_position:
        for k in range(n_flags):
            zsum = SumE([VarE(zs[i][k]) for i in range(R)])
            st.register(Relation("le", lw(k), zsum))
            st.register(Relation("le", zsum, uw(k)))
    else:
        tot = SumE([VarE(zs[i][n_flags]) for i in range(R)])
        st.register(Relation("le", SumE([lw(k) for k in range(n_flags)]), tot))
        st.register(Relation("le", tot, SumE([uw(k) for k in range(n_flags)])))
    return st, zs


def test_criterion_1_per_position_vs_aggregate_word_conditions():
    t0 = time.monotonic()
    st_pos, _ = build_snapshot_state(per_position=True)
    status_pos = st_pos.propagate()
    st_agg, zs = build_snapshot_state(per_position=False)
    status_agg = st_agg.propagate()
    elapsed = time.monotonic() - t0

    assert status_pos == "failed", "per-position conditions must fail here"
    assert status_agg == "stable", "aggregate-only conditions must not fail"
    # the pinned rows cannot start the word at position 1
    for i in range(5):
        want = (0, 0) if i >= 2 else (0, 1)
        assert (st_agg.vmin(zs[i][1]), st_agg.vmax(zs[i][1])) == want
    assert elapsed < 1.0
    _line(1, f"per-position failed, aggregate stable ({elapsed:.3f}s)")


# -- criterion 2: reduction equivalence over exhaustive enumerations ----------


def sat3_decide(clauses, n):
    return any(
        all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses)
        for bits in product((False, True), repeat=n)
    )


def cover_decide(family, n):
    uni = frozenset(range(1, n + 1))
    for r in range(1, len(family) + 1):
        for picked in combinations(family, r):
            if (sum(len(s) for s in picked) == n
                    and frozenset().union(*picked) == uni):
                return True
    return False


def m3d_decide(triples, q):
    for picked in combinations(range(len(triples)), q):
        if all(len({triples[i][c] for i in picked}) == q for c in range(3)):
            return True
    return False


def hit_decide(nv, edges, k):
    # a hitting set of size exactly k; padding covers smaller ones
    if k > nv:
        return False
    return any(all(set(p) & e for e in edges)
               for p in combinations(range(nv), k))


def sat(model):
    return brute_solve(model)[0] == "sat"


def test_criterion_2_reduction_equivalence():
    t0 = time.monotonic()
    counts = {}

    n_inst = 0
    for n in (1, 2, 3):
        lits = sorted(range(1, n + 1)) + sorted(-i for i in range(1, n + 1))
        clauses = [c for r in (1, 2, 3) for c in combinations(sorted(lits), r)]
        for r in (1, 2, 3):
            for formula in combinations(clauses, r):
                assert sat(gen_3sat(list(formula), n)) is sat3_decide(formula, n)
                n_inst += 1
    counts["3sat"] = n_inst

    n_inst = 0
    for n in (1, 2, 3):
        subsets = [frozenset(s) for r in range(1, n + 1)
                   for s in combinations(range(1, n + 1), r)]
        for r in range(1, len(subsets) + 1):
            for fam in combinations(subsets, r):
                want = cover_decide(fam, n)
                assert sat(gen_exact_cover([set(s) for s in fam], n)) is want
                n_inst += 1
    counts["cover"] = n_inst

    n_inst = 0
    for q in (1, 2):
        all_triples = sorted(product(range(q), repeat=3))
        for m in (1, 2, 3, 4):
            if m > len(all_triples):
                continue
            for ts in combinations(all_triples, m):
                want = m3d_decide(list(ts), q)
                assert sat(gen_3dm_dc(list(ts), q)) is want
                assert sat(gen_3dm_bc(list(ts), q)) is want
                n_inst += 2
    counts["3dm"] = n_inst

    n_inst = 0
    for nv in (1, 2, 3, 4):
        all_edges = [frozenset(e) for r in range(1, nv + 1)
                     for e in combinations(range(nv), r)]
        for ne in (1, 2, 3, 4):
            if ne > len(all_edges):
                continue
            for es in combinations(all_edges, ne):
                edges = [set(e) for e in es]
                for k in (1, 2, 3):
                    want = hit_decide(nv, edges, k)
                    for variant in ("gcc", "sum"):
                        assert sat(gen_hitting_set(nv, edges, k,
                                                   variant=variant)) is want
                        n_inst += 1
    counts["hitting"] = n_inst

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    total = sum(counts.values())
    _line(2, f"{total} instances agree ({counts}, {elapsed:.1f}s)")


# -- criterion 3: encoded-automaton filtering equals exhaustive supports ------


def test_criterion_3_two_automaton_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(1001)
    for trial in range(100):
        alpha = tuple(range(rng.randint(1, 2)))
        rows = _random_dfa(rng, rng.randint(1, 3), alpha)
        cols = _random_dfa(rng, rng.randint(1, 3), alpha)
        R, C = rng.randint(1, 3), rng.randint(1, 3)
        doms = None
        if rng.random() < 0.5:
            doms = [[tuple(sorted(rng.sample(alpha, rng.randint(1, len(alpha)))))
                     for _ in range(C)] for _ in range(R)]
        want = regular2_support(rows, cols, R, C, domains=doms)
        got = regular2_dc(rows, cols, R, C, domains=doms)
        assert got == want, f"trial {trial}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _line(3, f"100 instances, identical domains ({elapsed:.1f}s)")


# -- criteria 4 and 5: root soundness and mode monotonicity -------------------


@pytest.fixture(scope="module")
def fuzz_roots():
    """200 seeded instances with exact supports and per-mode root domains."""
    t0 = time.monotonic()
    out = []
    for i in range(200):
        m = gen_random(9000 + i, random.Random(100 + i).randint(2, 4),
                       random.Random(200 + i).randint(2, 4),
                       random.Random(300 + i).randint(2, 3))
        support = brute_dc(m, cap=5_000_000)
        doms = {mode: root_prune(m, mode) for mode in ("decomp", "wa", "cwa")}
        out.append((m, support, doms))
    return out, time.monotonic() - t0


def test_criterion_4_root_pruning_soundness(fuzz_roots):
    fuzz_roots, built_in = fuzz_roots
    t0 = time.monotonic()
    checked = 0
    for m, support, doms in fuzz_roots:
        if support is None:
            continue  # unsat instances cannot witness unsound pruning
        for mode in ("decomp", "wa", "cwa"):
            dm = doms[mode]
            assert dm is not None, f"{m.name} {mode} failed on a sat instance"
            for r in range(m.n_rows):
                for k in range(m.n_cols):
                    assert support[r][k] <= dm[r][k], (
                        f"{m.name} {mode} pruned a supported value at ({r},{k})")
            checked += 1
    elapsed = built_in + (time.monotonic() - t0)
    assert elapsed < 120.0
    _line(4, f"200 instances, {checked} sat mode-roots sound ({elapsed:.1f}s)")


def test_criterion_5_mode_strengthening_monotone(fuzz_roots):
    fuzz_roots, _ = fuzz_roots
    pairs = 0
    for m, _, doms in fuzz_roots:
        for strong, weak in (("wa", "decomp"), ("cwa", "wa")):
            ds, dw = doms[strong], doms[weak]
            if ds is None:
                continue  # stronger mode failing is maximal pruning
            assert dw is not None, (
                f"{m.name}: {weak} failed at root but {strong} did not")
            for r in range(m.n_rows):
                for k in range(m.n_cols):
                    assert ds[r][k] <= dw[r][k], (
                        f"{m.name}: {strong} kept a value {weak} pruned")
            pairs += 1
    _line(5, f"200 instances, {pairs} mode pairs nest pointwise")


# -- criterion 6: automata algebra fuzz ----------------------------------------


def test_criterion_6_automata_algebra():
    t0 = time.monotonic()
    rng = random.Random(606)

    def rand_weighted(alpha):
        n = rng.randint(1, 3)
        trans = {(q, v): rng.randrange(n) for q in range(n) for v in alpha}
        acc = {q for q in range(n) if rng.random() < 0.7} or {0}
        base = {(0, q, v): rng.randint(1, 3)
                for q in range(n) for v in alpha if rng.random() < 0.4}
        return WeightedDfa(Dfa(n, alpha, trans, 0, acc),
                           CostMatrices(1, base), [(0, 10 ** 9)])

    for _ in range(500):
        alpha = tuple(range(rng.randint(1, 3)))
        a, b = rand_weighted(alpha), rand_weighted(alpha)
        p = a.product(b, 6)
        w = tuple(rng.choice(alpha) for _ in range(rng.randint(0, 6)))
        oka, ca = a.run_weighted(w)
        okb, cb = b.run_weighted(w)
        okp, cp = p.run_weighted(w)
        assert okp == (oka and okb) and cp == ca + cb

    def stretch_lengths(w, vhat):
        # (shortest, longest) maximal run of vhat in w; len(w)+1 and 0 for none
        runs = [len(r) for r in "".join(
            "x" if v in vhat else " " for v in w).split()]
        return (min(runs, default=len(w) + 1), max(runs, default=0))

    for _ in range(500):
        alpha = tuple(range(rng.randint(2, 3)))
        vhat = set(rng.sample(alpha, rng.randint(1, len(alpha) - 1)))
        n = rng.randint(1, 5)
        w = tuple(rng.choice(alpha) for _ in range(n))
        assert (build_stretch_length_bounds(vhat, alpha, n).run_weighted(w)
                == (True, stretch_lengths(w, vhat)))

    for _ in range(500):
        alpha = tuple(range(rng.randint(2, 3)))
        m = rng.randint(1, 2)
        n = rng.randint(m, 5)
        pattern = [frozenset(rng.sample(alpha, rng.randint(1, 2)))
                   for _ in range(m)]
        slide = build_sliding_word_counter(pattern, n, alpha)
        prod = None
        for k in range(n - m + 1):
            nxt = build_word_occurrence(pattern, k, n, alpha)
            prod = nxt if prod is None else prod.product(nxt, n)
        w = tuple(rng.choice(alpha) for _ in range(n))
        ok, got = slide.run_weighted(w)
        assert (ok, got[:-1]) == prod.run_weighted(w)
        assert got[-1] == sum(got[:-1])

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _line(6, f"3 x 500 fuzzed pairs hold ({elapsed:.1f}s)")


# -- criterion 7: benchmark directionality across modes -------------------------


def _directionality(records):
    """Check criterion 7 on ``run_bench`` records: solved counts obey
    ``cwa >= wa >= decomp``, and every unsat ``cwa`` closes is refuted at
    the root or takes at most a tenth of the decomposition's backtracks.
    Returns the per-mode solved counts and the unsats checked by
    backtracks."""
    by = {}
    for r in records:
        by.setdefault(r.instance, {})[r.mode] = r
    solved = {m: sum(1 for i in by if by[i][m].status in ("sat", "unsat"))
              for m in ("decomp", "wa", "cwa")}
    assert solved["cwa"] >= solved["wa"] >= solved["decomp"]

    weak_unsats = []
    for name, rs in by.items():
        if not name.endswith("u") or rs["cwa"].status != "unsat":
            continue
        if rs["cwa"].root_failure:
            continue
        d = rs["decomp"]
        if d.status in ("sat", "unsat"):
            assert rs["cwa"].backtracks * 10 <= d.backtracks, name
            weak_unsats.append(name)
    return solved, weak_unsats


def test_criterion_7_roster_benchmark_directionality():
    pairs = gen_toy_rosters(4242, 50)
    models = [roster_model(i, r) for i, r in pairs]
    records = run_bench(models, modes=("decomp", "wa", "cwa"), time_limit=5.0)
    solved, weak_unsats = _directionality(records)
    _line(7, f"solved {solved}, all crossed unsats root-failed or beat the "
             f"decomposition 10x ({len(weak_unsats)} via backtracks)")


def test_criterion_7_node_budget_directionality():
    """Criterion 7 under a node budget in place of the time limit, so the
    solved counts do not depend on the machine's speed."""
    pairs = gen_toy_rosters(4242, 50)
    models = [roster_model(i, r) for i, r in pairs]
    records = run_bench(models, modes=("decomp", "wa", "cwa"),
                        time_limit=None, node_limit=2_000)
    solved, weak_unsats = _directionality(records)
    assert solved == {"decomp": 30, "wa": 50, "cwa": 50}
    assert {r.status for r in records} == {"sat", "unsat", "budget"}
    _line(7, f"within 2,000 nodes solved {solved} ({len(weak_unsats)} "
             f"crossed unsats via backtracks)")


# -- criterion 8: run-to-run determinism ----------------------------------------


def test_criterion_8_deterministic_counts():
    cases = [(gen_random(3031, 3, 4, 2), ("decomp", "wa", "cwa")),
             (gen_hitting_set(3, [{0, 1}, {1, 2}], 2), ("decomp", "wa"))]
    inst, rules = next((i, r) for i, r in gen_toy_rosters(4242, 10)
                       if i.name.endswith("s"))
    cases.append((roster_model(inst, rules), ("wa", "cwa")))

    runs = 0
    for model, modes in cases:
        for mode in modes:
            stats = []
            for _ in range(2):
                out = solve(model, mode=mode, time_limit=60)
                stats.append((out.status, out.stats.nodes,
                              out.stats.backtracks, out.stats.failures))
            assert stats[0] == stats[1], f"{model.name} {mode}"
            runs += 1
    _line(8, f"{runs} instance/mode pairs repeat with identical counts")
