"""Fixtures and model pools shared by the test modules.

Every pool is defined here once and imported from here (``from conftest
import ...``); no test module imports another.  Each helper returns new
model objects on every call: layouts and memo entries hang off the row
rules, so a pool shared across modules would change what the layout and
memo tests observe.
"""

import os
import random
import sys
from itertools import product

import pytest

from matrixcp import engine
from matrixcp.automata import CostMatrices, Dfa, WeightedDfa, build_gcc_weights
from matrixcp.engine import Propagator
from matrixcp.generators import gen_planted, gen_random
from matrixcp.model import MatrixModel
from matrixcp.roster import gen_toy_rosters, roster_model

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
sys.path.insert(0, BENCH)
import workloads  # noqa: E402,F401  (the benchmark pools, for the test modules)

ALPHABET = (0, 1, 2)

# The planted set: (rows, columns, values, rule states, slack, chance of an
# exact bound) per shape.
SHAPES = [(3, 4, 3, 3, 1, 0.3), (4, 5, 3, 4, 1, 0.3), (4, 5, 3, 4, 1, 0.0),
          (5, 5, 2, 4, 1, 0.3), (4, 6, 3, 3, 2, 0.2)]
SEEDS = 20  # per shape; shape j takes seeds 5000 + 100 j + 0..19


@pytest.fixture(autouse=True)
def empty_memo():
    """Each test starts with an empty process filter memo and token table,
    so a test that counts entries counts only its own."""
    engine.clear_memo()


def fuzz_models():
    """The 200 criterion-4 fuzz models."""
    return [gen_random(9000 + i, random.Random(100 + i).randint(2, 4),
                       random.Random(200 + i).randint(2, 4),
                       random.Random(300 + i).randint(2, 3))
            for i in range(200)]


def planted_models():
    """The planted models of every shape, skipping the seeds whose rule
    accepts no word (6 of 100)."""
    models = []
    for j, (R, K, V, S, slack, exact) in enumerate(SHAPES):
        for s in range(SEEDS):
            try:
                models.append(gen_planted(5000 + 100 * j + s, R, K, V,
                                          n_states=S, slack=slack,
                                          exact=exact))
            except ValueError:
                pass
    return models


def toy_models():
    """The 25 toy rosters of the ``toy-cwa`` benchmark pool."""
    return [roster_model(inst, rules)
            for inst, rules in gen_toy_rosters(4242, 25)]


def roster_pools():
    """The 50 criterion-7 rosters (gen seed 4242; the first 25 are the
    toy-cwa pool) and the 25 held-out ones (gen seed 1201)."""
    return [roster_model(inst, rules)
            for seed, count in ((4242, 50), (1201, 25))
            for inst, rules in gen_toy_rosters(seed, count)]


def permutation_model(n):
    """Each row places exactly one 1; each column receives exactly one."""
    rule = build_gcc_weights((0, 1), groups=[{1}], bounds=[(1, 1)])
    return MatrixModel(n, n, (0, 1), rule,
                       col_gcc=[{1: (1, 1)} for _ in range(n)])


def sat3_decide(clauses, n_props):
    """Whether some assignment of the ``n_props`` propositions satisfies
    every clause (literals are signed proposition numbers)."""
    return any(
        all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses)
        for bits in product((False, True), repeat=n_props)
    )


def single_fifo(monkeypatch):
    """Put every propagator class in tier 0, so the store runs one FIFO."""
    classes = [Propagator]
    for cls in classes:  # grows while it is walked
        classes += cls.__subclasses__()
        if "priority" in vars(cls):
            monkeypatch.setattr(cls, "priority", 0)


def random_weighted(rng, n):
    """A random automaton over ``ALPHABET`` with 2-3 resources whose base
    and positional (positions 0..n-1) costs range over negative and positive
    values."""
    n_res = rng.randint(2, 3)
    n_states = rng.randint(1, 4)
    trans = {(q, v): rng.randrange(n_states)
             for q in range(n_states) for v in ALPHABET}
    acc = {q for q in range(n_states) if rng.random() < 0.6} or {0}
    base = {}
    positional = {}
    for r in range(n_res):
        for q in range(n_states):
            for v in ALPHABET:
                if rng.random() < 0.6:
                    base[(r, q, v)] = rng.randint(-2, 3)
                for i in range(n):
                    if rng.random() < 0.15:
                        positional[(r, q, v, i)] = rng.randint(-2, 2)
    bounds = [(-50, 50)] * n_res
    return WeightedDfa(Dfa(n_states, ALPHABET, trans, 0, acc),
                       CostMatrices(n_res, base, positional), bounds)
