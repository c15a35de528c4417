"""Count gate on a slice of both benchmark pools (``bench/workloads.py``):
search nodes, root-pruned cell values and propagator runs
(``stats.propagations``) per instance are deterministic, so a change that
should leave pruning and wakeups alone must leave them as pinned here.

The first 6 toy rosters of ``gen_toy_rosters(4242, 25)`` run under ``cwa``
and under ``wa`` (the ``toy-wa`` workload, run on demand), 6 instances of the
reductions pool (3-SAT, exact cover, hitting set) under ``decomp``.  Root-pruned values count as ``bench/run.py`` counts them.
Propagator runs include those made inside ``build``: under ``wa`` and
``cwa`` it propagates the decomposition layer before posting the property
layer, and the unsat rosters fail there.
"""

import os
import sys

import pytest

from matrixcp.model import root_prune, solve

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
sys.path.insert(0, BENCH)
import workloads  # noqa: E402

# (pool index, name, verdict, search nodes, root-pruned values, propagator runs)
TOY_CWA = [
    (0, "toy000_u", "unsat", 0, 168, 16),
    (1, "toy001_u", "unsat", 0, 105, 13),
    (2, "toy002_s", "sat", 32, 0, 1999),
    (3, "toy003_s", "sat", 21, 0, 1341),
    (4, "toy004_u", "unsat", 0, 168, 16),
    (5, "toy005_u", "unsat", 0, 105, 13),
]
TOY_WA = [
    (0, "toy000_u", "unsat", 0, 168, 16),
    (1, "toy001_u", "unsat", 0, 105, 13),
    (2, "toy002_s", "sat", 32, 0, 1915),
    (3, "toy003_s", "sat", 21, 0, 1269),
    (4, "toy004_u", "unsat", 0, 168, 16),
    (5, "toy005_u", "unsat", 0, 105, 13),
]
REDUCTIONS_DECOMP = [
    (2, "002_3sat_5x21", "sat", 347, 0, 3867),
    (8, "008_3sat_5x21", "unsat", 861, 0, 13700),
    (14, "014_cover_14x12", "sat", 1, 144, 111),
    (18, "018_cover_14x12", "unsat", 1, 0, 149),
    (22, "022_hitting_sum_3x22", "unsat", 33, 66, 974),
    (24, "024_hitting_sum_3x22", "sat", 7, 66, 247),
]


def root_pruned(model, mode):
    pruned = root_prune(model, mode)
    return sum(
        len(model.cell_domain(i, k)) - (0 if pruned is None else len(pruned[i][k]))
        for i in range(model.n_rows)
        for k in range(model.n_cols)
    )


@pytest.mark.parametrize("workload, pinned", [
    ("toy-cwa", TOY_CWA),
    ("reductions-decomp", REDUCTIONS_DECOMP),
    ("toy-wa", TOY_WA),
])
def test_counts_match_pinned(workload, pinned):
    w = workloads.WORKLOADS[workload]
    count = pinned[-1][0] + 1
    instances, _ = workloads.setup(w, workloads.DEFAULT_GEN_SEED, count,
                                   workloads.EXPECTED_PATH)
    got = []
    for idx, *_ in pinned:
        inst = instances[idx]
        out = solve(inst.model, w.mode)
        got.append((idx, inst.name, out.status, out.stats.nodes,
                    root_pruned(inst.model, w.mode), out.stats.propagations))
    assert got == pinned
