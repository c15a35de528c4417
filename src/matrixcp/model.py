"""Matrix models: every row follows a weighted automaton rule, every column
obeys per-value cardinality bounds.

A model is lowered into a propagation store in one of three modes:

- ``decomp``: row rule + column value counts checked against their
  declared bounds only.
- ``wa``: decomp plus the count-group equalities (each row-rule resource
  that counts a value group against that group's column counts), per-row
  measuring automata for string properties (word occurrences, stretch
  counts, stretch length extremes) and the necessary conditions tying
  their totals to the column count variables.  A one-symbol word over a
  group the rule counts posts nothing: its count-group equality states
  it.
- ``cwa``: wa, with each measuring automaton crossed with the row rule
  automaton so both are filtered jointly, sharing the rule's resource
  variables.

Cells take internal value indices 0..V-1; the ascending ``values`` table maps
them to external integers (used by column sums and all I/O).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

from .automata import (
    SHARED_CAP,
    ProductTooLarge,
    WeightedDfa,
    build_gcc_weights,
    build_sliding_word_counter,
    build_stretch_count,
    build_stretch_length_bounds,
    sweep_forward,
)
from .engine import Inconsistent, SearchStats, Store, search
from .propagators import (
    ConstE,
    GccColumn,
    MaxE,
    Mcr,
    MinE,
    Relation,
    ScaleE,
    StretchLengthWindows,
    SumColumn,
    SumE,
    VarE,
    post_lex_chain,
    stretch_edge,
)

MODES = ("decomp", "wa", "cwa")


@dataclass(frozen=True)
class WordProp:
    """Measure occurrences of a symbol-set word at each start position."""

    pattern: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "pattern", tuple(frozenset(p) for p in self.pattern)
        )


@dataclass(frozen=True)
class StretchCountProp:
    """Measure the number of maximal runs of symbols from vhat per row."""

    vhat: frozenset

    def __post_init__(self):
        object.__setattr__(self, "vhat", frozenset(self.vhat))


@dataclass(frozen=True)
class StretchLengthProp:
    """Measure min/max maximal-run length of symbols from vhat per row."""

    vhat: frozenset

    def __post_init__(self):
        object.__setattr__(self, "vhat", frozenset(self.vhat))


def check_property(prop, n_values):
    """Raise a ValueError naming ``prop`` unless its measuring automaton can
    be built over the value indices 0..n_values-1: every symbol set nonempty
    and within them, a word at least one set long, and a stretch set short
    of every value."""
    if isinstance(prop, WordProp):
        sets = prop.pattern
    elif isinstance(prop, (StretchCountProp, StretchLengthProp)):
        sets = (prop.vhat,)
    else:
        raise ValueError(f"unknown property {prop!r}")
    values = frozenset(range(n_values))
    if not sets:
        problem = "the word is empty"
    elif not all(sets):
        problem = "a symbol set is empty"
    elif not all(map(values.issuperset, sets)):
        problem = f"a symbol set holds a value index outside 0..{n_values - 1}"
    elif not isinstance(prop, WordProp) and prop.vhat == values:
        problem = "the stretch set holds every value"
    else:
        return
    raise ValueError(f"{prop}: {problem}")


def default_properties(n_values):
    """Singleton words, repeated pairs, stretch counts and lengths per value."""
    props = []
    for v in range(n_values):
        props.append(WordProp((frozenset((v,)),)))
        props.append(WordProp((frozenset((v,)), frozenset((v,)))))
        props.append(StretchCountProp(frozenset((v,))))
        props.append(StretchLengthProp(frozenset((v,))))
    return props


class MatrixModel:
    """Immutable description of one matrix constraint instance.

    col_gcc[k] maps value indices to (lo, hi) occurrence bounds in column k
    (missing values are unconstrained).  col_sums[k] optionally bounds the sum
    of external cell values of column k.  cell_domains optionally restricts
    each cell to a subset of value indices.  The aggregate count conditions
    of the wa/cwa modes tie each row-rule resource that totals the
    occurrences of a value group to the column counts of that group; the
    groups are read off the rule (``WeightedDfa.count_groups``).
    """

    def __init__(
        self,
        n_rows,
        n_cols,
        values,
        row_rule,
        col_gcc=None,
        col_sums=None,
        cell_domains=None,
        properties=None,
        lex_rows=False,
        name="",
    ):
        if n_rows < 1 or n_cols < 1:
            raise ValueError(f"a matrix needs at least one row and one "
                             f"column, not {n_rows} x {n_cols}")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.values = tuple(values)
        if list(self.values) != sorted(set(self.values)):
            raise ValueError("value table must be strictly ascending")
        nv = len(self.values)
        if isinstance(row_rule, WeightedDfa):
            self.row_rule = row_rule
        else:
            self.row_rule = WeightedDfa.plain(row_rule)
        if set(self.row_rule.dfa.alphabet) != set(range(nv)):
            raise ValueError("row rule must run over value indices 0..V-1")
        for what, per_col in (("col_gcc", col_gcc), ("col_sums", col_sums)):
            if per_col and len(per_col) != n_cols:
                raise ValueError(f"{what} needs one entry per column")
        self.col_gcc = [dict(col_gcc[k]) if col_gcc else {} for k in range(n_cols)]
        self.col_sums = list(col_sums) if col_sums else [None] * n_cols
        self.cell_domains = None
        if cell_domains is not None:
            if [len(row) for row in cell_domains] != [n_cols] * n_rows:
                raise ValueError(f"cell_domains must be {n_rows} x {n_cols}")
            self.cell_domains = [[frozenset(d) for d in row]
                                 for row in cell_domains]
        self.properties = None if properties is None else list(properties)
        for prop in self.properties or ():
            check_property(prop, nv)
        used = self.col_gcc + [d for row in self.cell_domains or () for d in row]
        if not all(map(frozenset(range(nv)).issuperset, used)):
            raise ValueError(f"a cell domain or col_gcc entry holds a value "
                             f"index outside 0..{nv - 1}")
        self.lex_rows = lex_rows
        self.name = name

    @property
    def n_values(self):
        return len(self.values)

    def cell_domain(self, i, k):
        if self.cell_domains is None:
            return frozenset(range(self.n_values))
        return self.cell_domains[i][k]

    def card_bounds(self, k, v):
        lo, hi = self.col_gcc[k].get(v, (0, self.n_rows))
        return max(lo, 0), min(hi, self.n_rows)


def achievable_totals(wdfa, n):
    """Per-resource (lo, hi) of totals over accepted length-n words,
    intersected with the declared resource bounds; None when infeasible.
    Computed once per run length and kept on the automaton, so a shared
    rule or measuring automaton pays for it once per process."""
    if n not in wdfa._totals:
        wdfa._totals[n] = _achievable_totals(wdfa, n)
    out = wdfa._totals[n]
    return None if out is None else list(out)


def _achievable_totals(wdfa, n):
    nres = wdfa.n_resources
    table = wdfa.arc_table(n)
    last = sweep_forward(table, wdfa.dfa.start)[1][n]
    finals = last.keys() & wdfa.dfa.accepting
    if not finals:
        return None
    packing = table.packing
    env = packing.unpack(packing.least(last[q] for q in finals))
    out = []
    for r in range(nres):
        lo, hi = env[r], -env[nres + r]
        blo, bhi = wdfa.resource_bounds[r]
        lo, hi = max(lo, blo), min(hi, bhi)
        if lo > hi:
            return None
        out.append((lo, hi))
    return tuple(out)


class Built:
    """A model lowered into a store.  Under ``wa`` and ``cwa`` the
    decomposition layer has already been propagated to its fixpoint and the
    property propagators wait in the queue; under ``decomp`` every
    propagator waits there.  Either way the caller's ``propagate`` (or
    ``search``) finishes the root fixpoint."""

    def __init__(self, model, mode):
        self.model = model
        self.mode = mode
        self.store = Store()
        self.cells = []        # R x K cell variable ids
        self.cards = []        # K x V cardinality variable ids (wa, cwa)
        self.rule_z = []       # R x n_resources rule resource ids
        self.prop_z = {}       # posted property -> per-row resource ids
        self.branch_vars = []
        self.root_infeasible = False

    def grid_of(self, solution):
        """Map a search solution to the external-value matrix."""
        values = self.model.values
        return [
            [values[solution[x]] for x in row]
            for row in self.cells
        ]

    def cell_domains_snapshot(self):
        return [
            [self.store.dom(x) for x in row]
            for row in self.cells
        ]


def build(model, mode="decomp", cross_cap=20000):
    """Lower a model into a store under the given mode.

    Under ``decomp`` each column's ``GccColumn`` counts against the declared
    bounds (``MatrixModel.card_bounds``) as constants, and ``Built.cards`` is
    empty; under ``wa`` and ``cwa`` the counts are interval variables, which
    the property conditions read.  A declared count range that is empty
    makes the model root-infeasible under every mode.

    Under ``cwa`` each measuring automaton is crossed with the row rule for
    words of the row length K; ``cross_cap`` bounds the states of that
    product, and a product that needs more falls back to the uncrossed
    measuring automaton.

    Under ``wa`` and ``cwa`` the build is staged.  It posts the
    decomposition layer first (cells, columns, row rules, the lex chain and
    the count-group equalities) and propagates it.  If that fails,
    the model is root-infeasible and no measuring automaton, product or
    property propagator is built.  Otherwise the property layer is posted
    and its propagators stay queued for the caller.  The root fixpoint does
    not depend on the order in which propagators run, so the staging moves
    only where a refutation happens and how many runs it takes.

    A one-symbol word over a value group the rule counts is not posted (and
    has no ``Built.prop_z`` entry): its total is the rule resource that the
    group's count-group equality already ties to the column counts.  A
    word of two or more symbols gets one pair of conditions per start
    position plus one on its total.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    b = Built(model, mode)
    try:
        _build_inner(b, model, mode, cross_cap)
    except Inconsistent:
        b.root_infeasible = True
    return b


class CountGroupEq(Relation):
    """A count-group equality: the column counts of a value group against
    the totals of the rule resource that counts it (see
    ``WeightedDfa.count_groups``).  It belongs to the decomposition layer,
    so it runs in that layer's tier, before the row filters."""

    priority = 0


def _build_inner(b, model, mode, cross_cap):
    store = b.store
    R, K, V = model.n_rows, model.n_cols, model.n_values

    b.cells = [
        [store.new_var(model.cell_domain(i, k), f"x[{i},{k}]") for k in range(K)]
        for i in range(R)
    ]
    b.branch_vars = [x for row in b.cells for x in row]

    for k in range(K):
        cards = [model.card_bounds(k, v) for v in range(V)]
        if mode != "decomp":
            # The property conditions read the counts, so they are variables.
            cards = [store.new_interval(lo, hi, f"n[{v}@{k}]")
                     for v, (lo, hi) in enumerate(cards)]
            b.cards.append(cards)
        column_cells = [b.cells[i][k] for i in range(R)]
        store.register(GccColumn(column_cells, cards, list(range(V))))
        if model.col_sums[k] is not None:
            lo, hi = model.col_sums[k]
            store.register(SumColumn(column_cells, model.values, lo, hi))

    totals = achievable_totals(model.row_rule, K)
    if totals is None:
        raise Inconsistent("row rule admits no word within resource bounds")
    b.rule_z = [
        [
            store.new_interval(lo, hi, f"z[{i},{r}]")
            for r, (lo, hi) in enumerate(totals)
        ]
        for i in range(R)
    ]
    for i in range(R):
        store.register(Mcr(b.cells[i], b.rule_z[i], model.row_rule))

    if model.lex_rows:
        post_lex_chain(store, b.cells)

    if mode == "decomp":
        return

    # The count groups read only column counts and rule resources, so they
    # join the decomposition layer, which runs to its fixpoint before any
    # measuring automaton or product is built.  Each equality states the
    # one-symbol word over its group, so that word is not posted again.
    counted = set()
    for group, rj in model.row_rule.count_groups():
        col_total = SumE(
            [VarE(b.cards[k][v]) for k in range(K) for v in group]
        )
        row_total = SumE([VarE(b.rule_z[i][rj]) for i in range(R)])
        store.register(CountGroupEq("eq", col_total, row_total))
        counted.add(WordProp((group,)))
    if store.propagate() == "failed":
        raise Inconsistent("the decomposition layer has no solution")

    props = model.properties
    if props is None:
        props = default_properties(V)
    for prop in props:
        if prop not in counted:
            _post_property(b, model, mode, prop, cross_cap)


@lru_cache(maxsize=SHARED_CAP)
def _symbol_counter(vset, n_values, n):
    """The one-resource counter of the symbols in ``vset`` over rows of n
    cells.  Shared like the measuring automata of ``automata``: one per
    argument tuple, of the ``SHARED_CAP`` most recently used."""
    return build_gcc_weights(range(n_values), [vset], [(0, n)])


def _card_expr(b, k, vset):
    vs = sorted(vset)
    if len(vs) == 1:
        return VarE(b.cards[k][vs[0]])
    return SumE([VarE(b.cards[k][v]) for v in vs])


def _post_measuring_rows(b, model, mode, wdfa, cross_cap):
    """Create per-row resource variables and post the measuring automaton,
    crossed with the row rule under cwa.  Returns the per-row id lists."""
    store = b.store
    R, K = model.n_rows, model.n_cols
    ranges = achievable_totals(wdfa, K)
    if ranges is None:
        raise Inconsistent("measuring automaton admits no word")
    rows = []
    crossed = None
    if mode == "cwa":
        try:
            crossed = model.row_rule.product(wdfa, K, max_states=cross_cap)
        except ProductTooLarge:
            pass
    for i in range(R):
        zs = [store.new_interval(lo, hi) for (lo, hi) in ranges]
        rows.append(zs)
        if crossed is not None:
            store.register(Mcr(b.cells[i], b.rule_z[i] + zs, crossed))
        else:
            store.register(Mcr(b.cells[i], zs, wdfa))
    return rows


def _post_property(b, model, mode, prop, cross_cap):
    store = b.store
    R, K = model.n_rows, model.n_cols

    if isinstance(prop, WordProp):
        pattern = prop.pattern
        m = len(pattern)
        if m > K:
            return
        if m == 1:
            # The flag at k would be [x[i,k] in pattern[0]], so a
            # per-position equality narrows only what the column's
            # GccColumn narrows from the cells: the total is the whole
            # condition, and a counter of the set measures it.
            wd = _symbol_counter(pattern[0], model.n_values, K)
        else:
            wd = build_sliding_word_counter(pattern, K, range(model.n_values),
                                            with_total=True)
        rows = _post_measuring_rows(b, model, mode, wd, cross_cap)
        b.prop_z[prop] = rows
        tot = SumE([VarE(rows[i][-1]) for i in range(R)])
        if m == 1:
            cards = SumE([_card_expr(b, k, pattern[0]) for k in range(K)])
            store.register(Relation("eq", cards, tot))
            return

        def lw(k):
            parts = [_card_expr(b, k + j, pattern[j]) for j in range(m)]
            return MaxE(
                [ConstE(0), SumE(parts + [ConstE(-(m - 1) * R)])]
            )

        def uw(k):
            return MinE([_card_expr(b, k + j, pattern[j]) for j in range(m)])

        n_flags = K - m + 1
        for k in range(n_flags):
            zsum = SumE([VarE(rows[i][k]) for i in range(R)])
            store.register(Relation("le", lw(k), zsum))
            store.register(Relation("le", zsum, uw(k)))
        store.register(
            Relation("le", SumE([lw(k) for k in range(n_flags)]), tot)
        )
        store.register(
            Relation("le", tot, SumE([uw(k) for k in range(n_flags)]))
        )
        return

    if isinstance(prop, StretchCountProp):
        vhat = prop.vhat
        wd = build_stretch_count(vhat, range(model.n_values), (K + 1) // 2)
        rows = _post_measuring_rows(b, model, mode, wd, cross_cap)
        b.prop_z[prop] = rows

        cards = [_card_expr(b, k, vhat) for k in range(K)]

        def cardv(k):
            return cards[k] if 0 <= k < K else ConstE(0)

        def us(k, d):
            overlap = MaxE(
                [ConstE(0), SumE([cardv(k + d), cardv(k), ConstE(-R)])]
            )
            return SumE([cardv(k), ScaleE(-1, overlap)])

        tot = SumE([VarE(rows[i][0]) for i in range(R)])
        for d in (-1, 1):
            edges = SumE([stretch_edge(cards, k, d) for k in range(K)])
            store.register(Relation("le", edges, tot))
            store.register(
                Relation("le", tot, SumE([us(k, d) for k in range(K)]))
            )
        return

    if isinstance(prop, StretchLengthProp):
        vhat = prop.vhat
        wd = build_stretch_length_bounds(vhat, range(model.n_values), K)
        rows = _post_measuring_rows(b, model, mode, wd, cross_cap)
        b.prop_z[prop] = rows
        zmin = store.new_interval(0, K + 1)
        zmax = store.new_interval(0, K)
        store.register(
            Relation("eq", VarE(zmin), MinE([VarE(rows[i][0]) for i in range(R)]))
        )
        store.register(
            Relation("eq", VarE(zmax), MaxE([VarE(rows[i][1]) for i in range(R)]))
        )
        store.register(
            StretchLengthWindows(
                [_card_expr(b, k, vhat) for k in range(K)], zmin, zmax, R
            )
        )
        return

    raise ValueError(f"unknown property {prop!r}")


def root_prune(model, mode):
    """Propagate once at the root; returns the cell domain grid or None on
    failure."""
    b = build(model, mode)
    if b.root_infeasible:
        return None
    if b.store.propagate() == "failed":
        return None
    return b.cell_domains_snapshot()


class SolveOutcome:
    """Result of ``solve``; ``elapsed`` is the wall time from the start of
    ``solve``, so it includes building the model."""

    __slots__ = ("status", "grid", "stats", "elapsed", "built")

    def __init__(self, status, grid, stats, elapsed, built):
        self.status = status
        self.grid = grid
        self.stats = stats
        self.elapsed = elapsed
        self.built = built


def solve(model, mode="decomp", time_limit=None, on_solution=None):
    """Build and search; returns a SolveOutcome with the external-value grid.

    ``time_limit`` counts from the start of ``build``: search gets what the
    build left, and a build that uses it all up ends in "timeout" unless it
    already proved the model unsat.
    """
    t0 = time.monotonic()
    b = build(model, mode)
    stats = SearchStats()
    stats.propagations = b.store.propagation_count  # run inside build
    if b.root_infeasible:
        stats.failures = 1
        stats.root_failure = True
        return SolveOutcome("unsat", None, stats, time.monotonic() - t0, b)
    remaining = None
    if time_limit is not None:
        remaining = time_limit - (time.monotonic() - t0)
        if remaining <= 0:
            return SolveOutcome("timeout", None, stats,
                                time.monotonic() - t0, b)
    wrapped = None
    if on_solution is not None:
        wrapped = lambda sol: on_solution(b.grid_of(sol))
    res = search(b.store, b.branch_vars, time_limit=remaining,
                 on_solution=wrapped)
    grid = b.grid_of(res.solution) if res.solution is not None else None
    return SolveOutcome(res.status, grid, res.stats, time.monotonic() - t0, b)
