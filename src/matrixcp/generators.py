"""Instance generators that embed classic hard problems into matrix models.

Each generator returns a MatrixModel whose satisfiability coincides with the
source combinatorial question, so these double as correctness fixtures and as
hard benchmark families.  A seeded random generator for loose fuzzing is also
provided.
"""

from __future__ import annotations

import random
from collections import Counter

from .automata import (
    CostMatrices,
    Dfa,
    WeightedDfa,
    reachable,
    sequence_window_dfa,
    stretch_length_dfa,
)
from .model import MatrixModel, achievable_totals


def gen_3sat(clauses, n_props):
    """CNF satisfiability as a matrix model.

    clauses: iterable of iterables of nonzero ints (4 means the 4th
    proposition positive, -4 negative).  Rows are propositions, columns are
    clauses, values are (-1, 0, 1).  A row may mention 0 outside its clauses
    and, beyond that, only 1's (proposition true) or only -1's (false); each
    clause column allows at most R-1 zeros, forcing a satisfied literal.
    """
    clauses = [set(c) for c in clauses]
    R, K = n_props, len(clauses)
    values = (-1, 0, 1)
    NEG, ZERO, POS = 0, 1, 2
    doms = []
    for r in range(R):
        p = r + 1
        row = []
        for c in clauses:
            allowed = {ZERO}
            if p in c:
                allowed.add(POS)
            if -p in c:
                allowed.add(NEG)
            row.append(frozenset(allowed))
        doms.append(row)
    col_gcc = [{ZERO: (0, R - 1)} for _ in range(K)]
    # No-mixing rule: after a 1 only 0/1 may follow, after a -1 only -1/0.
    trans = {
        (0, ZERO): 0, (0, POS): 1, (0, NEG): 2,
        (1, ZERO): 1, (1, POS): 1, (1, NEG): 3,
        (2, ZERO): 2, (2, NEG): 2, (2, POS): 3,
        (3, ZERO): 3, (3, POS): 3, (3, NEG): 3,
    }
    rule = Dfa(4, (NEG, ZERO, POS), trans, 0, {0, 1, 2})
    return MatrixModel(
        R, K, values, rule, col_gcc=col_gcc, cell_domains=doms,
        name=f"3sat_{R}x{K}",
    )


def gen_exact_cover(family, universe_size):
    """Exact cover as a matrix model.

    family: list of sets over 1..universe_size.  A row is either the signed
    incidence word of its set (chosen into the cover) or all zeros (not
    chosen); the all-or-nothing shape comes from requiring every run of zeros
    to span the whole row.  Each column requires value 1 exactly once.
    """
    family = [set(s) for s in family]
    R, K = len(family), universe_size
    values = (-1, 0, 1)
    NEG, ZERO, POS = 0, 1, 2
    doms = [
        [
            frozenset((ZERO, POS)) if i in family[r] else frozenset((NEG, ZERO))
            for i in range(1, K + 1)
        ]
        for r in range(R)
    ]
    col_gcc = [{POS: (1, 1)} for _ in range(K)]
    rule = stretch_length_dfa({ZERO}, (NEG, ZERO, POS), lo=K)
    return MatrixModel(
        R, K, values, rule, col_gcc=col_gcc, cell_domains=doms,
        name=f"cover_{R}x{K}",
    )


def _3dm_model(triples, q, zero, axes, name):
    """The m x 5 matrix both 3DM flavors build, row i reading
    [axis 0, {0, t}, axis 1, {0, t}, axis 2] for triple i.

    Codes below ``zero`` are clones (none in the dc flavor), code ``zero``
    stands for 0, zero + 1 for t and the 3q codes above t for coordinate
    values.  axes[a] holds axis a's cell domain for each coordinate and its
    column's bounds.  The t-columns require at least m - q t's and at least
    q zeros, and every length-2 window holds a zero or a clone.
    """
    m = len(triples)
    t = zero + 1
    values = tuple(range(t + 1 + 3 * q))
    zero_or_t = frozenset((zero, t))
    t_gcc = {t: (m - q, m), zero: (q, m)}
    (dom0, gcc0), (dom1, gcc1), (dom2, gcc2) = axes
    doms = [[dom0[w], zero_or_t, dom1[z], zero_or_t, dom2[y]]
            for w, z, y in triples]
    rule = sequence_window_dfa(range(t), values, window=2, lo=1, hi=2)
    return MatrixModel(
        m, 5, values, rule, col_gcc=[gcc0, t_gcc, gcc1, t_gcc, gcc2],
        cell_domains=doms, name=name,
    )


def gen_3dm_dc(triples, q):
    """Three-dimensional matching, domain-consistency flavor.

    triples: list of (w, z, y) with coordinates in 0..q-1.  An m x 5 matrix;
    row i either spells (w_i, 0, z_i, 0, y_i) (triple selected) or
    (0, t, 0, t, 0) (not selected); every length-2 window holds a zero.
    Odd columns require each coordinate value at least once plus at least
    m - q zeros; the t-columns require at least m - q t's and at least q
    zeros.
    """
    triples = list(triples)
    m = len(triples)
    axes = []
    for a in range(3):  # codes 0, t, then the w, z and y values
        codes = range(2 + a * q, 2 + (a + 1) * q)
        gcc = dict.fromkeys(codes, (1, m))
        gcc[0] = (m - q, m)
        axes.append(({i: frozenset((0, c)) for i, c in enumerate(codes)}, gcc))
    return _3dm_model(triples, q, 0, axes, f"3dm_dc_{m}x5")


def gen_3dm_bc(triples, q):
    """Three-dimensional matching, bounds-consistency flavor.

    Like gen_3dm_dc but cell domains are intervals in a total value order
    where each coordinate value gets occurrences-1 clone values below zero; a
    non-selected row takes clones instead of zeros in its odd columns.
    """
    triples = list(triples)
    m = len(triples)
    taken = Counter((a, c) for triple in triples for a, c in enumerate(triple))
    # Total order: w-clones (block q-1 first), z-clones, y-clones, 0, t,
    # y values, z values, w values.  Codes are positions in this order.
    zero = sum(n - 1 for n in taken.values())
    axes = []
    pos = 0
    for a in range(3):
        dom, gcc = {}, {}
        for i in range(q - 1, -1, -1):
            code = zero + 2 + (2 - a) * q + i
            clones = range(pos, pos + max(taken[a, i] - 1, 0))
            dom[i] = frozenset(range(pos, code + 1))
            for c in (*clones, code):
                gcc[c] = (1, m)
            pos = clones.stop
        axes.append((dom, gcc))
    return _3dm_model(triples, q, zero, axes, f"3dm_bc_{m}x5")


def _word_trie_dfa(words, alphabet):
    """DFA accepting exactly the given equal-length words."""
    words = {tuple(w) for w in words}
    prefixes = {w[:j] for w in words for j in range(len(w) + 1)}
    # Keys are prefixes of the words, None once the input left them all.
    order, rows = reachable((), lambda p: [
        p + (v,) if p is not None and p + (v,) in prefixes else None
        for v in alphabet
    ])
    return Dfa.from_rows(
        tuple(alphabet), rows, 0, [i for i, p in enumerate(order) if p in words]
    )


def gen_hitting_set(n_vertices, edges, k, variant="gcc"):
    """Hitting set as a k x (|V|+|E|) matrix model.

    Each row spells the word of one vertex: its marker in the first block
    plus its edge incidences.  The gcc variant marks vertices with 1 and
    requires at most one 1 in each vertex column and at least one in each
    edge column; the sum variant marks vertices with -1 and replaces the
    column constraints with sum bounds (>= -1 on vertex columns, >= 1 on
    edge columns).
    """
    if variant == "gcc":
        values, marker = (0, 1), 1
    elif variant == "sum":
        values, marker = (-1, 0, 1), -1
    else:
        raise ValueError("variant must be 'gcc' or 'sum'")
    edges = [set(e) for e in edges]
    K = n_vertices + len(edges)
    ZERO, ONE, MARK = (values.index(x) for x in (0, 1, marker))
    words = []
    for v in range(n_vertices):
        w = [ZERO] * n_vertices
        w[v] = MARK
        w += [ONE if v in e else ZERO for e in edges]
        words.append(w)
    rule = _word_trie_dfa(words, range(len(values)))
    col_gcc = col_sums = None
    if variant == "gcc":
        col_gcc = [{ONE: (0, 1)}] * n_vertices + [{ONE: (1, k)}] * len(edges)
    else:
        col_sums = [(-1, k)] * n_vertices + [(1, k)] * len(edges)
    return MatrixModel(
        k, K, values, rule, col_gcc=col_gcc, col_sums=col_sums,
        name=f"hitting_{variant}_{k}x{K}",
    )


def _random_dfa(rng, n_states, alphabet):
    trans = {}
    for q in range(1, n_states):
        # spine edge keeps every state reachable
        src = rng.randrange(q)
        trans[(src, rng.choice(alphabet))] = q
    for q in range(n_states):
        for v in alphabet:
            trans.setdefault((q, v), rng.randrange(n_states))
    n_acc = rng.randint(1, n_states)
    accepting = set(rng.sample(range(n_states), n_acc))
    return Dfa(n_states, alphabet, trans, 0, accepting)


def gen_random(seed, n_rows, n_cols, n_values, n_states=3, n_resources=1,
               tightness=0.4, domain_gaps=0.2):
    """Seeded random instance: random connected rule automaton with random
    transition costs, random per-column cardinality intervals, random cell
    domain restrictions.  ``tightness`` is the chance that a column bounds
    a value's count, ``domain_gaps`` the chance that a cell drops a value;
    each must lie in [0, 1]."""
    for name, p in (("tightness", tightness), ("domain_gaps", domain_gaps)):
        if not 0 <= p <= 1:
            raise ValueError(f"{name} must lie in [0, 1], not {p!r}")
    rng = random.Random(seed)
    values = tuple(range(n_values))
    alphabet = tuple(range(n_values))
    dfa = _random_dfa(rng, n_states, alphabet)
    base = {}
    for r in range(n_resources):
        for q in range(n_states):
            for v in alphabet:
                if rng.random() < 0.5:
                    base[(r, q, v)] = rng.randint(0, 2)
    wide = WeightedDfa(
        dfa, CostMatrices(n_resources, base), [(0, 2 * n_cols)] * n_resources
    )
    totals = achievable_totals(wide, n_cols)
    bounds = []
    for r in range(n_resources):
        if totals is None:
            bounds.append((0, 2 * n_cols))
            continue
        lo, hi = totals[r]
        a = rng.randint(lo, hi)
        b = rng.randint(a, hi)
        if rng.random() < 0.15:
            b = a  # occasionally pin the total
        bounds.append((a, b))
    rule = WeightedDfa(dfa, CostMatrices(n_resources, dict(base)), bounds)

    col_gcc = []
    for _ in range(n_cols):
        spec = {}
        for v in range(n_values):
            if rng.random() < tightness:
                lo = rng.randint(0, n_rows)
                hi = rng.randint(lo, n_rows)
                spec[v] = (lo, hi)
        col_gcc.append(spec)
    doms = None
    if domain_gaps > 0:
        doms = []
        for _ in range(n_rows):
            row = []
            for _ in range(n_cols):
                dm = {
                    v for v in range(n_values) if rng.random() >= domain_gaps
                }
                if not dm:
                    dm = {rng.randrange(n_values)}
                row.append(frozenset(dm))
            doms.append(row)
    return MatrixModel(
        n_rows, n_cols, values, rule, col_gcc=col_gcc, cell_domains=doms,
        name=f"random_{seed}",
    )


def gen_planted(seed, n_rows, n_cols, n_values, n_states=3, slack=1,
                exact=0.0):
    """Seeded random instance, sat by construction.  The rule is that of
    ``gen_random(seed, ..., tightness=0, domain_gaps=0)``; each planted row
    is a uniform draw among the words it accepts within its bounds (they
    are enumerated, so rows must be short).  Each column bounds each
    value's count by its planted count: exactly with probability ``exact``,
    else widened by up to ``slack`` on each side.  A rule that accepts no
    word raises ValueError."""
    if not 0 <= exact <= 1:
        raise ValueError(f"exact must lie in [0, 1], not {exact!r}")
    rule = gen_random(seed, n_rows, n_cols, n_values, n_states=n_states,
                      tightness=0, domain_gaps=0).row_rule
    words = [w for w in rule.dfa.words(n_cols) if rule.accepts_within_bounds(w)]
    if not words:
        raise ValueError(f"the rule of seed {seed} accepts no word of "
                         f"length {n_cols} within its bounds")
    rng = random.Random(f"planted {seed}")
    grid = [rng.choice(words) for _ in range(n_rows)]
    col_gcc = [{} for _ in range(n_cols)]
    for k, spec in enumerate(col_gcc):
        for v in range(n_values):
            c = sum(row[k] == v for row in grid)
            if rng.random() < exact:
                spec[v] = (c, c)
            else:
                spec[v] = (max(c - rng.randint(0, slack), 0),
                           min(c + rng.randint(0, slack), n_rows))
    return MatrixModel(n_rows, n_cols, tuple(range(n_values)), rule,
                       col_gcc=col_gcc, name=f"planted_{seed}")
