"""Matrix models: every row follows a weighted automaton rule, every column
obeys per-value cardinality bounds.

A model is lowered into a propagation store in one of three modes:

- ``decomp``: row rule + column cardinalities + their channeling only.
- ``wa``: decomp plus per-row measuring automata for string properties
  (word occurrences, stretch counts, stretch length extremes) and the
  necessary conditions tying their totals to the column count variables.
- ``cwa``: wa, with each measuring automaton crossed with the row rule
  automaton so both are filtered jointly, sharing the rule's resource
  variables.

Cells take internal value indices 0..V-1; the ascending ``values`` table maps
them to external integers (used by column sums and all I/O).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .automata import (
    ProductTooLarge,
    WeightedDfa,
    envelopes,
    layered_arcs,
    build_sliding_word_counter,
    build_stretch_count,
    build_stretch_length_bounds,
)
from .engine import Inconsistent, Store, search
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
    each cell to a subset of value indices.  rule_count_groups declares that a
    row-rule resource totals the occurrences of a value group, enabling the
    aggregate count conditions.
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
        rule_count_groups=None,
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
        self.rule_count_groups = [
            (frozenset(g), r) for g, r in (rule_count_groups or [])
        ]
        for g, r in self.rule_count_groups:
            if not 0 <= r < self.row_rule.n_resources:
                raise ValueError(f"count group names no rule resource: {r}")
        used = self.col_gcc + [g for g, _ in self.rule_count_groups]
        used += [d for row in self.cell_domains or () for d in row]
        if not all(map(frozenset(range(nv)).issuperset, used)):
            raise ValueError(f"a cell domain, col_gcc entry or count group "
                             f"holds a value index outside 0..{nv - 1}")
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
    intersected with the declared resource bounds; None when infeasible."""
    nres = wdfa.n_resources
    arcs, reach = layered_arcs(wdfa, n)
    finals = reach & wdfa.dfa.accepting
    if not finals:
        return None
    packing = wdfa.arc_table(n).packing
    last = envelopes(arcs, (wdfa.dfa.start,), packing)[n]
    env = packing.unpack(packing.least(last[q] for q in finals))
    out = []
    for r in range(nres):
        lo, hi = env[r], -env[nres + r]
        blo, bhi = wdfa.resource_bounds[r]
        lo, hi = max(lo, blo), min(hi, bhi)
        if lo > hi:
            return None
        out.append((lo, hi))
    return out


class Built:
    """A model lowered into a store, ready to propagate and search."""

    def __init__(self, model, mode):
        self.model = model
        self.mode = mode
        self.store = Store()
        self.cells = []        # R x K cell variable ids
        self.cards = []        # K x V cardinality variable ids
        self.rule_z = []       # R x n_resources rule resource ids
        self.prop_z = {}       # property -> per-row resource id lists
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


def build(model, mode="decomp", aggregate_words=False, cross_cap=20000):
    """Lower a model into a store under the given mode.

    Under ``cwa`` each measuring automaton is crossed with the row rule for
    words of the row length K; ``cross_cap`` bounds the states of that
    product, and a product that needs more falls back to the uncrossed
    measuring automaton.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    b = Built(model, mode)
    try:
        _build_inner(b, model, mode, aggregate_words, cross_cap)
    except Inconsistent:
        b.root_infeasible = True
    return b


def _build_inner(b, model, mode, aggregate_words, cross_cap):
    store = b.store
    R, K, V = model.n_rows, model.n_cols, model.n_values

    b.cells = [
        [store.new_var(model.cell_domain(i, k), f"x[{i},{k}]") for k in range(K)]
        for i in range(R)
    ]
    b.branch_vars = [x for row in b.cells for x in row]

    b.cards = []
    for k in range(K):
        col = []
        for v in range(V):
            lo, hi = model.card_bounds(k, v)
            col.append(store.new_interval(lo, hi, f"n[{v}@{k}]"))
        b.cards.append(col)
        column_cells = [b.cells[i][k] for i in range(R)]
        store.register(GccColumn(column_cells, col, list(range(V))))
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

    props = model.properties
    if props is None:
        props = default_properties(V)
    for prop in props:
        _post_property(b, model, mode, prop, aggregate_words, cross_cap)

    for group, rj in model.rule_count_groups:
        col_total = SumE(
            [VarE(b.cards[k][v]) for k in range(K) for v in group]
        )
        row_total = SumE([VarE(b.rule_z[i][rj]) for i in range(R)])
        store.register(Relation("eq", col_total, row_total))


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


def _post_property(b, model, mode, prop, aggregate_words, cross_cap):
    store = b.store
    R, K = model.n_rows, model.n_cols

    if isinstance(prop, WordProp):
        pattern = prop.pattern
        m = len(pattern)
        if m > K:
            return
        wd = build_sliding_word_counter(pattern, K, range(model.n_values),
                                        with_total=True)
        n_flags = K - m + 1
        if aggregate_words:
            wd = wd.with_resources([n_flags])
        rows = _post_measuring_rows(b, model, mode, wd, cross_cap)
        b.prop_z[prop] = rows

        def lw(k):
            parts = [_card_expr(b, k + j, pattern[j]) for j in range(m)]
            if m == 1:
                return parts[0]
            return MaxE(
                [ConstE(0), SumE(parts + [ConstE(-(m - 1) * R)])]
            )

        def uw(k):
            parts = [_card_expr(b, k + j, pattern[j]) for j in range(m)]
            if m == 1:
                return parts[0]
            return MinE(parts)

        total_idx = len(rows[0]) - 1
        if not aggregate_words:
            for k in range(n_flags):
                zsum = SumE([VarE(rows[i][k]) for i in range(R)])
                if m == 1:
                    store.register(Relation("eq", lw(k), zsum))
                else:
                    store.register(Relation("le", lw(k), zsum))
                    store.register(Relation("le", zsum, uw(k)))
        tot = SumE([VarE(rows[i][total_idx]) for i in range(R)])
        if m == 1:
            store.register(
                Relation("eq", SumE([lw(k) for k in range(n_flags)]), tot)
            )
        else:
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

        def cardv(k):
            if k < 0 or k >= K:
                return ConstE(0)
            return _card_expr(b, k, vhat)

        def ls(k, d):
            return MaxE(
                [ConstE(0), SumE([cardv(k), ScaleE(-1, cardv(k + d))])]
            )

        def us(k, d):
            overlap = MaxE(
                [ConstE(0), SumE([cardv(k + d), cardv(k), ConstE(-R)])]
            )
            return SumE([cardv(k), ScaleE(-1, overlap)])

        tot = SumE([VarE(rows[i][0]) for i in range(R)])
        for d in (-1, 1):
            store.register(
                Relation("le", SumE([ls(k, d) for k in range(K)]), tot)
            )
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


def root_prune(model, mode, aggregate_words=False):
    """Propagate once at the root; returns the cell domain grid or None on
    failure."""
    b = build(model, mode, aggregate_words=aggregate_words)
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


def solve(model, mode="decomp", time_limit=None, aggregate_words=False,
          on_solution=None):
    """Build and search; returns a SolveOutcome with the external-value grid.

    ``time_limit`` counts from the start of ``build``: search gets what the
    build left, and a build that uses it all up ends in "timeout" unless it
    already proved the model unsat.
    """
    from .engine import SearchStats

    t0 = time.monotonic()
    b = build(model, mode, aggregate_words=aggregate_words)
    if b.root_infeasible:
        stats = SearchStats()
        stats.failures = 1
        stats.root_failure = True
        return SolveOutcome("unsat", None, stats, time.monotonic() - t0, b)
    remaining = None
    if time_limit is not None:
        remaining = time_limit - (time.monotonic() - t0)
        if remaining <= 0:
            return SolveOutcome("timeout", None, SearchStats(),
                                time.monotonic() - t0, b)
    wrapped = None
    if on_solution is not None:
        wrapped = lambda sol: on_solution(b.grid_of(sol))
    res = search(b.store, b.branch_vars, time_limit=remaining,
                 on_solution=wrapped)
    grid = b.grid_of(res.solution) if res.solution is not None else None
    return SolveOutcome(res.status, grid, res.stats, time.monotonic() - t0, b)
