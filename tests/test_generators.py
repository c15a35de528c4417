import hashlib
import random
from itertools import combinations, product

import pytest

from matrixcp.canonical import dump_model
from matrixcp.generators import (
    gen_3dm_bc,
    gen_3dm_dc,
    gen_3sat,
    gen_exact_cover,
    gen_hitting_set,
    gen_planted,
    gen_random,
)
from matrixcp.oracle import brute_solve


# -- reference deciders for the source problems --------------------------------


def sat3_decide(clauses, n_props):
    for bits in product((False, True), repeat=n_props):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses):
            return True
    return False


def exact_cover_decide(family, n):
    universe = frozenset(range(1, n + 1))
    for r in range(len(family) + 1):
        for picked in combinations(range(len(family)), r):
            sets = [frozenset(family[i]) for i in picked]
            if sum(len(s) for s in sets) == n and frozenset().union(*sets, frozenset()) == universe:
                return True
    return False


def matching3d_decide(triples, q):
    for picked in combinations(range(len(triples)), q):
        ws = {triples[i][0] for i in picked}
        xs = {triples[i][1] for i in picked}
        ys = {triples[i][2] for i in picked}
        if len(ws) == len(xs) == len(ys) == q:
            return True
    return q == 0


def hitting_decide(n_vertices, edges, k):
    """Is there a hitting set of size exactly k?  Equivalent to <= k whenever
    k <= |V| (pad with unused vertices); impossible when k > |V|."""
    if k > n_vertices:
        return False
    for picked in combinations(range(n_vertices), k):
        s = set(picked)
        if all(s & set(e) for e in edges):
            return True
    return False


def decision(model):
    return brute_solve(model)[0] == "sat"


class TestSat3:
    TABLE = [
        ([(1, 2, 3)], 3, True),
        ([(1, 1, 1), (-1, -1, -1)], 1, False),
        ([(1, 2), (-1, 2), (1, -2), (-1, -2)], 2, False),
        ([(1,), (-2,)], 2, True),
    ]

    @pytest.mark.parametrize("clauses,n,want", TABLE)
    def test_table(self, clauses, n, want):
        assert decision(gen_3sat(clauses, n)) is want
        assert sat3_decide(clauses, n) is want

    def test_shape(self):
        m = gen_3sat([(1, -2, 3), (2, 3, 3)], 3)
        assert (m.n_rows, m.n_cols) == (3, 2)
        assert m.name == "3sat_3x2"

    def test_fuzz_agreement(self):
        rng = random.Random(610)
        for _ in range(40):
            n = rng.randint(1, 3)
            clauses = []
            for _ in range(rng.randint(1, 3)):
                clauses.append(tuple(rng.choice((1, -1)) * rng.randint(1, n)
                                     for _ in range(rng.randint(1, 3))))
            assert decision(gen_3sat(clauses, n)) is sat3_decide(clauses, n)


class TestExactCover:
    TABLE = [
        ([{1, 2}, {3}], 3, True),
        ([{1, 2}, {2, 3}], 3, False),
        ([{1}, {2}, {3}], 3, True),
        ([{1, 2, 3}], 3, True),
        ([{2}], 2, False),
    ]

    @pytest.mark.parametrize("family,n,want", TABLE)
    def test_table(self, family, n, want):
        assert decision(gen_exact_cover(family, n)) is want
        assert exact_cover_decide(family, n) is want

    def test_fuzz_agreement(self):
        rng = random.Random(611)
        for _ in range(40):
            n = rng.randint(1, 3)
            fam = []
            for _ in range(rng.randint(1, 3)):
                fam.append(set(rng.sample(range(1, n + 1),
                                          rng.randint(1, n))))
            assert decision(gen_exact_cover(fam, n)) is exact_cover_decide(fam, n)


class TestMatching3d:
    TABLE = [
        ([(0, 0, 0)], 1, True),
        ([(0, 0, 0), (1, 1, 1)], 2, True),
        ([(0, 0, 0), (0, 1, 1), (1, 0, 1)], 2, False),
        ([(0, 1, 0), (1, 0, 1)], 2, True),
        ([(0, 0, 0), (0, 0, 0)], 1, True),
    ]

    @pytest.mark.parametrize("gen", [gen_3dm_dc, gen_3dm_bc])
    @pytest.mark.parametrize("triples,q,want", TABLE)
    def test_table(self, gen, triples, q, want):
        assert decision(gen(triples, q)) is want
        assert matching3d_decide(triples, q) is want

    @pytest.mark.parametrize("gen,cols", [(gen_3dm_dc, 5), (gen_3dm_bc, 5)])
    def test_row_per_triple(self, gen, cols):
        m = gen([(0, 0, 0), (1, 1, 0), (1, 0, 1)], 2)
        assert (m.n_rows, m.n_cols) == (3, cols)

    def test_fuzz_agreement(self):
        rng = random.Random(612)
        for _ in range(25):
            q = rng.randint(1, 2)
            triples = [tuple(rng.randrange(q) for _ in range(3))
                       for _ in range(rng.randint(1, 3))]
            want = matching3d_decide(triples, q)
            assert decision(gen_3dm_dc(triples, q)) is want
            assert decision(gen_3dm_bc(triples, q)) is want


class TestHittingSet:
    TABLE = [
        (3, [{0, 1}, {1, 2}], 1, True),
        (3, [{0}, {1}, {2}], 2, False),
        (2, [{0}, {1}], 2, True),
        (4, [{0, 1}, {2, 3}, {0, 3}], 1, False),
        (4, [{0, 1}, {2, 3}, {0, 3}], 2, True),
        (2, [{0, 1}], 3, False),  # cannot pick three distinct vertices
    ]

    @pytest.mark.parametrize("variant", ["gcc", "sum"])
    @pytest.mark.parametrize("nv,edges,k,want", TABLE)
    def test_table(self, variant, nv, edges, k, want):
        assert decision(gen_hitting_set(nv, edges, k, variant=variant)) is want
        assert hitting_decide(nv, edges, k) is want

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            gen_hitting_set(2, [{0}], 1, variant="bogus")

    def test_fuzz_agreement(self):
        rng = random.Random(613)
        for _ in range(30):
            nv = rng.randint(1, 4)
            edges = [set(rng.sample(range(nv), rng.randint(1, min(2, nv))))
                     for _ in range(rng.randint(1, 3))]
            k = rng.randint(1, 3)
            want = hitting_decide(nv, edges, k)
            for variant in ("gcc", "sum"):
                assert decision(gen_hitting_set(nv, edges, k, variant=variant)) is want


def seeded_reductions():
    """A fixed seeded set of every reduction, both hitting-set variants and
    3DM instances with repeated coordinates (so with clones) included."""
    rng = random.Random(625)
    for _ in range(12):
        n = rng.randint(1, 5)
        clauses = [tuple(rng.choice((1, -1)) * rng.randint(1, n)
                         for _ in range(rng.randint(1, 3)))
                   for _ in range(rng.randint(1, 6))]
        yield gen_3sat(clauses, n)
        family = [set(rng.sample(range(1, n + 1), rng.randint(1, n)))
                  for _ in range(rng.randint(1, 5))]
        yield gen_exact_cover(family, n)
        q = rng.randint(1, 3)
        triples = [tuple(rng.randrange(q) for _ in range(3))
                   for _ in range(rng.randint(1, 6))]
        yield gen_3dm_dc(triples, q)
        yield gen_3dm_bc(triples, q)
        edges = [set(rng.sample(range(n), rng.randint(1, n)))
                 for _ in range(rng.randint(1, 4))]
        k = rng.randint(1, 3)
        yield gen_hitting_set(n, edges, k)
        yield gen_hitting_set(n, edges, k, variant="sum")


def test_reductions_golden_digest():
    # The benchmark's expected counts and the held-out pins hold only while
    # the reductions build the very same models: pin their text.
    digest = hashlib.sha256()
    for model in seeded_reductions():
        digest.update(dump_model(model).encode())
    assert digest.hexdigest() == (
        "3d37aabf134af60dae23433ccff48485b71defebd74d5a27a1465566637bfe59")


class TestGenRandom:
    def test_same_seed_same_model(self):
        a = gen_random(7, 3, 3, 2)
        b = gen_random(7, 3, 3, 2)
        assert dump_model(a) == dump_model(b)

    def test_different_seeds_differ_somewhere(self):
        dumps = {dump_model(gen_random(s, 3, 3, 2)) for s in range(12)}
        assert len(dumps) > 1

    def test_requested_shape(self):
        m = gen_random(5, 4, 6, 3)
        assert (m.n_rows, m.n_cols, m.n_values) == (4, 6, 3)
        assert len(m.values) == 3

    @pytest.mark.parametrize("name", ["tightness", "domain_gaps"])
    @pytest.mark.parametrize("p", [-1, 2, float("nan")])
    def test_probability_outside_the_unit_interval_rejected(self, name, p):
        with pytest.raises(ValueError, match=name):
            gen_random(7, 3, 3, 2, **{name: p})

    @pytest.mark.parametrize("p", [0, 1])
    def test_probability_at_the_ends_accepted(self, p):
        gen_random(7, 3, 3, 2, tightness=p, domain_gaps=p)

    def test_models_are_buildable(self):
        from matrixcp.model import root_prune
        for s in range(10):
            m = gen_random(s, 2, 3, 2)
            root_prune(m, "cwa")  # must not raise


class TestGenPlanted:
    def test_same_seed_same_model(self):
        a, b = (gen_planted(7, 3, 4, 3) for _ in range(2))
        assert dump_model(a) == dump_model(b)
        assert a.name == "planted_7"

    def test_rule_is_that_of_gen_random(self):
        m = gen_planted(8, 3, 4, 3, n_states=4)
        rule = gen_random(8, 3, 4, 3, n_states=4, tightness=0,
                          domain_gaps=0).row_rule
        assert m.row_rule.content_key() == rule.content_key()
        assert m.cell_domains is None

    def test_every_seed_is_sat(self):
        for s in range(20):
            try:
                m = gen_planted(s, 3, 3, 2, slack=0, exact=0.5)
            except ValueError:
                continue
            assert brute_solve(m)[0] == "sat", m.name

    def test_exact_bounds_are_the_planted_counts(self):
        m = gen_planted(7, 3, 4, 3, exact=1)
        for spec in m.col_gcc:
            assert sorted(spec) == [0, 1, 2]
            assert all(lo == hi for lo, hi in spec.values())
            assert sum(lo for lo, _ in spec.values()) == 3

    def test_slack_widens_within_the_rows(self):
        exact = gen_planted(7, 3, 4, 3, exact=1)
        wide = gen_planted(7, 3, 4, 3, slack=2)
        for got, planted in zip(wide.col_gcc, exact.col_gcc):
            for v, (lo, hi) in got.items():
                count = planted[v][0]
                assert max(count - 2, 0) <= lo <= count <= hi
                assert hi <= min(count + 2, 3)

    def test_rule_without_words_rejected(self):
        with pytest.raises(ValueError, match="seed 5011 accepts no word"):
            gen_planted(5011, 3, 4, 3)

    @pytest.mark.parametrize("p", [-0.5, 2, float("nan")])
    def test_exact_outside_the_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match="exact"):
            gen_planted(7, 3, 4, 3, exact=p)
