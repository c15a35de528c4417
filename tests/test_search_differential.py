"""Differential checks of ``engine.search`` and ``engine.pick``.

``pick`` resumes its scan at the first branch variable its parent node found
unfixed, and ``search`` keeps that index with each decision.  The reference
here is the search it replaced, kept verbatim below: ``pick`` scans every
branch variable at every node.  Both run on the same models, each on a fresh
build, and must agree on the status, the solution and every count,
``propagations`` included.
"""

import os
import random
import sys
import time

import pytest

from matrixcp import engine
from matrixcp.engine import Inconsistent, SearchResult, SearchStats
from matrixcp.generators import gen_random
from matrixcp.model import build
from matrixcp.roster import gen_toy_rosters, roster_model

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
sys.path.insert(0, BENCH)
import workloads  # noqa: E402


# -- the reference: a full scan at every node ---------------------------------


def pick(store, branch_vars):
    """The unfixed variable of ``branch_vars`` with the smallest domain, the
    first one on ties; None when all are fixed.  No unfixed domain is smaller
    than 2, so the scan stops at the first of size 2."""
    domains = store.domains
    best = None
    best_size = 0
    for vid in branch_vars:
        bits = domains[vid].bits
        size = len(bits) if type(bits) is range else bits.bit_count()
        if size > 1 and (best is None or size < best_size):
            if size == 2:
                return vid
            best, best_size = vid, size
    return best


def search(store, branch_vars, time_limit=None, on_solution=None):
    """Depth-first search over ``branch_vars`` (other variables must be fixed
    by propagation once these are).

    Branching picks the smallest unfixed domain (lowest variable first on
    ties) and tries values in increasing order: assign, and on failure remove
    the value.  Returns a SearchResult with status "sat", "unsat" or
    "timeout".  With ``on_solution`` the search enumerates: each solution is
    passed to the callback and search continues until the callback returns
    True (stop) or the tree is exhausted (status then reports "unsat" only if
    no solution was seen).
    """
    t0 = time.monotonic()
    stats = SearchStats()
    deadline = None if time_limit is None else t0 + time_limit

    def out(status, solution):
        stats.propagations = store.propagation_count
        return SearchResult(status, solution, stats, time.monotonic() - t0)

    if store.propagate() == "failed":
        stats.failures += 1
        stats.root_failure = True
        return out("unsat", None)

    found = [None]
    # Explicit stack of (vid, value) decisions for iterative DFS: a popped
    # decision is refuted by removing its value.
    stack = []
    while True:
        if deadline is not None and time.monotonic() > deadline:
            while stack:
                store.undo()
                stack.pop()
            return out("timeout", found[0])
        vid = pick(store, branch_vars)
        if vid is None:
            solution = {v: store.value(v) for v in branch_vars}
            found[0] = solution
            if on_solution is None or on_solution(solution):
                while stack:
                    store.undo()
                    stack.pop()
                return out("sat", solution)
            status = "failed"  # force a backtrack to keep enumerating
        else:
            stats.nodes += 1
            v = store.vmin(vid)
            store.mark()
            stack.append((vid, v))
            store.assign(vid, v)
            status = store.propagate()
        while status == "failed":
            stats.failures += 1
            if not stack:
                return out("sat" if found[0] is not None else "unsat", found[0])
            stats.backtracks += 1
            vid, v = stack.pop()
            store.undo()
            # Refute the tried value and re-propagate at this node.
            try:
                store.remove_value(vid, v)
                status = store.propagate()
            except Inconsistent:
                status = "failed"


# -- the comparison -----------------------------------------------------------


def fuzz_models():
    """The 200 criterion-4 fuzz models."""
    return [gen_random(9000 + i, random.Random(100 + i).randint(2, 4),
                       random.Random(200 + i).randint(2, 4),
                       random.Random(300 + i).randint(2, 3))
            for i in range(200)]


def toy_models():
    """The 25 toy rosters of the ``toy-cwa`` benchmark pool."""
    return [roster_model(inst, rules)
            for inst, rules in gen_toy_rosters(4242, 25)]


def outcome(searcher, model, mode, limit=None):
    """Status, solution, the search counts and the solutions seen by
    ``searcher`` on a fresh build of ``model``; with ``limit`` it enumerates
    until it has seen that many."""
    b = build(model, mode)
    if b.root_infeasible:
        return None
    seen = []
    on_solution = None
    if limit is not None:
        def on_solution(sol):
            seen.append(sol)
            return len(seen) >= limit
    res = searcher(b.store, b.branch_vars, on_solution=on_solution)
    s = res.stats
    return (res.status, res.solution, s.nodes, s.backtracks, s.failures,
            s.root_failure, s.propagations, seen)


@pytest.mark.parametrize("mode", ["decomp", "wa", "cwa"])
def test_resumed_scan_searches_as_the_full_scan_on_fuzz_models(mode):
    searched = 0
    for model in fuzz_models():
        want = outcome(search, model, mode)
        got = outcome(engine.search, model, mode)
        assert got == want, f"{model.name} {mode}"
        searched += want is not None and want[2] > 0
    assert searched >= 20  # enough models reach search to exercise it


def test_resumed_scan_searches_as_the_full_scan_on_toy_rosters():
    for model in toy_models():
        want = outcome(search, model, "cwa")
        assert outcome(engine.search, model, "cwa") == want, model.name


def test_resumed_scan_searches_as_the_full_scan_on_reductions():
    """The ``reductions-decomp`` benchmark pool, whose searches run deepest."""
    w = workloads.WORKLOADS["reductions-decomp"]
    instances, _ = workloads.setup(w, workloads.DEFAULT_GEN_SEED, None,
                                   workloads.EXPECTED_PATH)
    for inst in instances:
        want = outcome(search, inst.model, w.mode)
        assert outcome(engine.search, inst.model, w.mode) == want, inst.name


def test_resumed_scan_enumerates_as_the_full_scan():
    """Enumeration backtracks from every solution, through the decisions the
    resumed index is kept with."""
    enumerated = 0
    for model in fuzz_models():
        want = outcome(search, model, "decomp", limit=40)
        assert outcome(engine.search, model, "decomp", limit=40) == want, \
            model.name
        enumerated += want is not None and len(want[-1]) > 1
    assert enumerated >= 20
