"""Exact reference algorithms: brute-force solving, exact per-cell supports,
and the single-automaton encoding of a whole matrix.

These are deliberately simple and, but for ``regular2_dc``, independent of the
propagation engine; the test suite uses them as ground truth.
``regular2_dc`` is the engine-side counterpart that ``regular2_support``
checks: it propagates the encoded automaton in a ``Store`` with
``propagators.regular_dc``.
"""

from __future__ import annotations

import itertools

from .automata import Dfa, reachable
from .engine import Inconsistent, Store
from .propagators import regular_dc


class CapExceeded(Exception):
    """The instance is too large for the brute-force oracle."""


def check_solution(model, grid):
    """Exact check of a full internal-index grid against the model."""
    R, K = model.n_rows, model.n_cols
    for i in range(R):
        for k in range(K):
            if grid[i][k] not in model.cell_domain(i, k):
                return False
        if not model.row_rule.accepts_within_bounds(grid[i]):
            return False
    for k in range(K):
        for v in range(model.n_values):
            lo, hi = model.card_bounds(k, v)
            c = sum(1 for i in range(R) if grid[i][k] == v)
            if not lo <= c <= hi:
                return False
        if model.col_sums[k] is not None:
            lo, hi = model.col_sums[k]
            s = sum(model.values[grid[i][k]] for i in range(R))
            if not lo <= s <= hi:
                return False
    return True


def brute_solutions(model, cap=10_000_000, limit=None, pin=None):
    """All solutions (internal grids) by pruned depth-first enumeration.

    ``pin`` optionally fixes one cell to one value.  Enumeration is row-major
    with sound pruning only, so the returned set is exact (up to ``limit``).
    Raises CapExceeded when the search explores more than ``cap`` nodes.
    """
    R, K, V = model.n_rows, model.n_cols, model.n_values
    doms = [
        [sorted(model.cell_domain(i, k)) for k in range(K)] for i in range(R)
    ]
    if pin is not None:
        i, k, v = pin
        if v not in doms[i][k]:
            return []
        doms[i][k] = [v]

    wdfa = model.row_rule
    d = wdfa.dfa
    nres = wdfa.n_resources
    cost = wdfa.costs.cost
    rbounds = wdfa.resource_bounds

    # Per-row suffix feasibility and per-resource cost envelopes.
    ok = []
    bmin = []
    bmax = []
    for i in range(R):
        ok_i = [set() for _ in range(K + 1)]
        ok_i[K] = set(d.accepting)
        lo_i = [dict() for _ in range(K + 1)]
        hi_i = [dict() for _ in range(K + 1)]
        for q in d.accepting:
            lo_i[K][q] = [0] * nres
            hi_i[K][q] = [0] * nres
        for j in range(K - 1, -1, -1):
            for q in range(d.n_states):
                for v in doms[i][j]:
                    q2 = d.step(q, v)
                    if q2 not in ok_i[j + 1]:
                        continue
                    ok_i[j].add(q)
                    cs = [cost(r, q, v, j) for r in range(nres)]
                    nlo = lo_i[j].get(q)
                    slo = lo_i[j + 1][q2]
                    shi = hi_i[j + 1][q2]
                    if nlo is None:
                        lo_i[j][q] = [slo[r] + cs[r] for r in range(nres)]
                        hi_i[j][q] = [shi[r] + cs[r] for r in range(nres)]
                    else:
                        nhi = hi_i[j][q]
                        for r in range(nres):
                            if slo[r] + cs[r] < nlo[r]:
                                nlo[r] = slo[r] + cs[r]
                            if shi[r] + cs[r] > nhi[r]:
                                nhi[r] = shi[r] + cs[r]
        ok.append(ok_i)
        bmin.append(lo_i)
        bmax.append(hi_i)
        if d.start not in ok_i[0]:
            return []

    # Remaining support per column and value, and remaining sum envelopes.
    supp = [[[0] * V for _ in range(K)] for _ in range(R + 1)]
    for i in range(R - 1, -1, -1):
        for k in range(K):
            for v in range(V):
                supp[i][k][v] = supp[i + 1][k][v] + (1 if v in doms[i][k] else 0)
    card = [
        [model.card_bounds(k, v) for v in range(V)] for k in range(K)
    ]
    cap_total = [sum(hi for _, hi in card[k]) for k in range(K)]
    ext = model.values
    smin = [[0] * K for _ in range(R + 1)]
    smax = [[0] * K for _ in range(R + 1)]
    for i in range(R - 1, -1, -1):
        for k in range(K):
            smin[i][k] = smin[i + 1][k] + ext[doms[i][k][0]]
            smax[i][k] = smax[i + 1][k] + ext[doms[i][k][-1]]

    grid = [[0] * K for _ in range(R)]
    cnt = [[0] * V for _ in range(K)]
    ssum = [0] * K
    out = []
    budget = [cap]

    def rec(i, k, q, pc):
        budget[0] -= 1
        if budget[0] < 0:
            raise CapExceeded(f"brute search exceeded {cap} nodes")
        if k == K:
            if i + 1 == R:
                out.append([row[:] for row in grid])
                return len(out) == limit
            return rec(i + 1, 0, d.start, [0] * nres)
        for v in doms[i][k]:
            q2 = d.step(q, v)
            if q2 not in ok[i][k + 1]:
                continue
            pc2 = [pc[r] + cost(r, q, v, k) for r in range(nres)]
            feasible = True
            for r in range(nres):
                if (
                    pc2[r] + bmin[i][k + 1][q2][r] > rbounds[r][1]
                    or pc2[r] + bmax[i][k + 1][q2][r] < rbounds[r][0]
                ):
                    feasible = False
                    break
            if not feasible:
                continue
            lo_v, hi_v = card[k][v]
            if cnt[k][v] + 1 > hi_v:
                continue
            cnt[k][v] += 1
            # each unmet lower bound needs remaining support, and the unmet
            # demands of the column must fit in its remaining cells
            slots = R - i - 1
            need = 0
            colfail = False
            for u in range(V):
                short = card[k][u][0] - cnt[k][u]
                if short > 0:
                    if supp[i + 1][k][u] < short:
                        colfail = True
                        break
                    need += short
            if not colfail and need > slots:
                colfail = True
            if not colfail and cap_total[k] - sum(cnt[k]) < slots:
                colfail = True
            if model.col_sums[k] is not None and not colfail:
                lo_s, hi_s = model.col_sums[k]
                s2 = ssum[k] + ext[v]
                if s2 + smin[i + 1][k] > hi_s or s2 + smax[i + 1][k] < lo_s:
                    colfail = True
            if not colfail:
                grid[i][k] = v
                ssum[k] += ext[v]
                stop = rec(i, k + 1, q2, pc2)
                ssum[k] -= ext[v]
                if stop:
                    cnt[k][v] -= 1
                    return True
            cnt[k][v] -= 1
        return False

    rec(0, 0, d.start, [0] * nres)
    return out


def brute_solve(model, cap=10_000_000):
    """First solution or unsat, by exhaustive search."""
    sols = brute_solutions(model, cap=cap, limit=1)
    if sols:
        return "sat", sols[0]
    return "unsat", None


def brute_dc(model, cap=10_000_000):
    """Exact per-cell supports: the set of values of each cell appearing in at
    least one solution.  None when the model has no solution."""
    R, K = model.n_rows, model.n_cols
    status, first = brute_solve(model, cap=cap)
    if status == "unsat":
        return None
    support = [[set([first[i][k]]) for k in range(K)] for i in range(R)]
    for i in range(R):
        for k in range(K):
            for v in model.cell_domain(i, k):
                if v in support[i][k]:
                    continue
                if brute_solutions(model, cap=cap, limit=1, pin=(i, k, v)):
                    support[i][k].add(v)
    return [[frozenset(s) for s in row] for row in support]


# -- whole-matrix single-automaton encoding ------------------------------------


def encode_matrix_dfa(row_dfa, col_dfa, n_rows, n_cols, cap=1_000_000):
    """One automaton over the row-major flattening of the matrix.

    Accepts exactly the length n_rows*n_cols sequences whose every row is
    accepted by row_dfa and every column by col_dfa.  States track the row
    position, the row automaton state, and one column automaton state per
    column, so the size grows exponentially with the number of columns.
    """
    if set(row_dfa.alphabet) != set(col_dfa.alphabet):
        raise ValueError("row and column automata must share the alphabet")
    est = n_cols * row_dfa.n_states * col_dfa.n_states ** n_cols
    if est > cap:
        raise CapExceeded(f"encoded automaton would have about {est} states")
    alphabet = row_dfa.alphabet

    def successors(key):
        if key is None:  # a complete row was rejected
            return [None] * len(alphabet)
        j, q, vec = key
        out = []
        for v in alphabet:
            q2 = row_dfa.step(q, v)
            vec2 = vec[:j] + (col_dfa.step(vec[j], v),) + vec[j + 1:]
            if j + 1 < n_cols:
                out.append((j + 1, q2, vec2))
            elif q2 in row_dfa.accepting:
                out.append((0, row_dfa.start, vec2))
            else:
                out.append(None)
        return out

    order, rows = reachable(
        (0, row_dfa.start, (col_dfa.start,) * n_cols), successors
    )
    accepting = [
        i for i, key in enumerate(order)
        if key is not None and key[0] == 0
        and all(qc in col_dfa.accepting for qc in key[2])
    ]
    return Dfa.from_rows(alphabet, rows, 0, accepting)


def regular2_support(row_dfa, col_dfa, n_rows, n_cols, domains=None,
                     cap=1_000_000):
    """Exact per-cell supports of the two-automaton matrix constraint, by
    enumerating row words and checking columns.  None when unsatisfiable."""
    if domains is None:
        domains = [
            [tuple(row_dfa.alphabet)] * n_cols for _ in range(n_rows)
        ]
    words_per_row = [
        list(row_dfa.words(n_cols, allowed=domains[i])) for i in range(n_rows)
    ]
    total = 1
    for ws in words_per_row:
        total *= len(ws)
        if total > cap:
            raise CapExceeded("too many row-word combinations")
    support = [[set() for _ in range(n_cols)] for _ in range(n_rows)]
    found = False
    for combo in itertools.product(*words_per_row):
        good = True
        for k in range(n_cols):
            q = col_dfa.start
            for i in range(n_rows):
                q = col_dfa.step(q, combo[i][k])
            if q not in col_dfa.accepting:
                good = False
                break
        if good:
            found = True
            for i in range(n_rows):
                for k in range(n_cols):
                    support[i][k].add(combo[i][k])
    if not found:
        return None
    return [[frozenset(s) for s in row] for row in support]


def regular2_dc(row_dfa, col_dfa, n_rows, n_cols, domains=None, cap=1_000_000):
    """Engine-side counterpart of regular2_support: propagate the encoded
    single automaton to a fixpoint and report the cell domains (None on
    failure)."""
    encoded = encode_matrix_dfa(row_dfa, col_dfa, n_rows, n_cols, cap=cap)
    store = Store()
    if domains is None:
        domains = [
            [tuple(row_dfa.alphabet)] * n_cols for _ in range(n_rows)
        ]
    try:
        xs = [
            [store.new_var(domains[i][k]) for k in range(n_cols)]
            for i in range(n_rows)
        ]
        flat = [x for row in xs for x in row]
        store.register(regular_dc(flat, encoded))
    except Inconsistent:
        return None
    if store.propagate() == "failed":
        return None
    return [
        [store.dom(xs[i][k]) for k in range(n_cols)]
        for i in range(n_rows)
    ]
