"""Propagators: weighted-automaton rows, cardinality columns, linear and
interval-expression relations, lexicographic ordering, column sums.

Every propagator runs to its own local fixpoint inside run() because the store
does not reschedule the propagator that is currently running.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .automata import (
    WeightedDfa,
    layered_arcs,
    live_symbols,
    sweep_backward,
    sweep_forward,
)
from .engine import (
    MEMO,
    Inconsistent,
    Propagator,
    mask_of,
    memo_token,
    memoised,
)


def _ceil_div(a, b):
    return -((-a) // b)


class MemoFilter(Propagator):
    """A propagator whose work is a pure function ``filter(cells, lo, hi)``
    of the domains of its cells ``xs`` (value variables, as bitmasks) and
    the bounds of its interval variables ``zs``.

    ``filter`` returns ``(changes, failed)``: ``changes`` lists ``(position,
    domain)`` in the order they are to be committed, positions counting the
    cells first and then the interval variables, each domain the variable's
    new one (a mask for a cell, a ``range`` for an interval variable, empty
    where a crossing bound empties it); ``failed`` says that the constraint
    has no solution once they are committed.  Besides its input, the result
    depends on the propagator's memo kind only (an automaton, counted values,
    bounds), never on the store.  So ``run`` looks it up in the process memo
    (``engine.memoised``), which every store uses, and commits it on its own
    variables: every propagator of the same kind and arity that sees the
    same input, in any search node of any store, gets the result without
    filtering.

    The key is the kind's ``token``, fetched once when the propagator is
    built (an automaton's ``memo_token``, or ``engine.memo_token`` of a
    hashable kind), then the cell masks, then, if there are interval
    variables, their lower and upper bounds.  A key tells the arities of one
    kind apart by its length only if the kind fixes the number of interval
    variables, so a subclass passes that number as ``n_bounds``, computed
    from the kind alone, and a scope with another number is rejected.
    A variable may appear at one position only: two positions' domains would
    be computed apart, and the later commit would undo the earlier one.
    """

    def __init__(self, xs, zs, token, n_bounds):
        self.xs = list(xs)
        self.zs = list(zs)
        self._token = token
        self._vars = self.xs + self.zs
        if len(self.zs) != n_bounds:
            raise ValueError(f"{type(self).__name__}: {len(self.zs)} interval "
                             f"variables, its kind fixes {n_bounds}")
        if len(set(self._vars)) < len(self._vars):
            vs = self._vars
            dup = next(v for i, v in enumerate(vs) if v in vs[:i])
            raise ValueError(f"{type(self).__name__}: variable {dup} appears "
                             "twice in its scope")

    def variables(self):
        return self._vars

    def run(self, store):
        domains = store.domains
        cells = [domains[x].bits for x in self.xs]
        if self.zs:
            lo = []
            hi = []
            for z in self.zs:
                r = domains[z].bits
                lo.append(r[0])
                hi.append(r[-1])
            key = (self._token, *cells, *lo, *hi)
        else:
            lo = hi = ()
            key = (self._token, *cells)
        result = MEMO.get(key)
        if result is None:
            result = memoised(key, self.filter, cells, lo, hi)
        changes, failed = result
        vs = self._vars
        commit = store._commit
        for pos, new in changes:
            commit(vs[pos], new)
        if failed:
            raise Inconsistent(f"{type(self).__name__} has no solution")

    def filter(self, cells, lo, hi):
        raise NotImplementedError


class Mcr(MemoFilter):
    """Weighted-automaton row propagator.

    Runs on the layered graph of automaton runs over the row variables
    (Pesant's regular, with the multi-resource envelopes of multicost-regular).
    The arcs come from the automaton's compiled arc table
    (``WeightedDfa.arc_table``), which the automaton owns and every row posted
    with it shares.  The filter reaches a fixpoint in rounds of two sweeps.
    The forward sweep (``automata.sweep_forward``) gathers the arcs from
    reached states, through the cell domains in the first round and through
    the arcs the last round kept after that, with their forward cost
    envelopes.  The resource bounds are tightened to the envelope merged over
    the accepting states reached.  The backward sweep
    (``automata.sweep_backward``) drops the arcs off every accepting run and
    cuts those whose per-resource through-cost interval misses the bounds;
    a round that cuts an arc is followed by another, whose forward sweep
    resumes at the lowest layer with a cut arc.  Each row variable
    keeps the symbols of the arcs the last backward sweep kept, ORed into
    one mask.  With zero resources one forward arc pass and one backward
    pass (``layered_arcs``, ``live_symbols``) give exact domain consistency
    for the plain automaton membership constraint.

    Envelopes and arc costs are ints packed by the table's ``Packing``: one
    field per slot of ``(min_0.., -max_0..)``, offset by a bias larger than
    any path cost of the row, with the top bit of each field free.  A
    through-cost (forward envelope + arc cost + backward envelope) has fields
    in ``[bias, 3*bias]``, below that guard bit, and the tightened bounds lie
    within the envelope, so the cut test ``(ceiling - through) & guard``
    borrows across no field and reads every slot's verdict from its guard
    bit.  Only the envelope merged over the final states is unpacked.

    The filter is a pure function of the automaton (the memo kind, keyed by
    its ``memo_token``), the cell domains and the resource bounds, so every
    row posted with the same automaton shares the results in the process
    memo (see ``MemoFilter``): the rows of one model, of a model solved again
    and of every roster built from the same rule set, whose automata are
    built once per process.  The automaton fixes the number of resource
    variables, one per cost matrix.
    """

    priority = 1

    def __init__(self, xs, zs, wdfa):
        super().__init__(xs, zs, wdfa.memo_token, wdfa.n_resources)
        self.wdfa = wdfa

    def filter(self, cells, lo, hi):
        """Filter cell domains ``cells`` and resource bounds ``lo``/``hi``
        (see ``MemoFilter``).  ``failed`` means no accepting run within the
        bounds.  A bound change that empties a resource ends the list with
        ``failed`` set, so ``run`` commits the same bound changes before it
        fails.
        """
        n = len(cells)
        d = self.wdfa.dfa
        nres = self.wdfa.n_resources
        table = self.wdfa.arc_table(n)
        if nres == 0:
            arcs, reach = layered_arcs(table, d.start, cells)
            finals = reach & d.accepting
            if not finals:
                return [], True
            masks = live_symbols(arcs, finals)
            return [(i, m) for i, m in enumerate(masks) if m != cells[i]], False

        packing = table.packing
        lo = list(lo)
        hi = list(hi)
        changes = []
        arcs, env = sweep_forward(table, d.start, cells)
        while True:
            last = env[n]
            finals = last.keys() & d.accepting
            if not finals:
                return changes, True
            tight = packing.unpack(packing.least(last[q] for q in finals))
            mins = tight[:nres]
            maxs = [-e for e in tight[nres:]]
            for r in range(nres):
                v = mins[r]
                if v > lo[r]:
                    changes.append((n + r, range(v, hi[r] + 1)))
                    if v > hi[r]:
                        return changes, True
                    lo[r] = v
                v = maxs[r]
                if v < hi[r]:
                    changes.append((n + r, range(lo[r], v + 1)))
                    if v < lo[r]:
                        return changes, True
                    hi[r] = v
            # Bounds equal to the envelope cut no arc: every arc then lies
            # on a path whose total is within them.  Else an arc's packed
            # through-cost (min_r.., -max_r..) exceeds the ceiling in some
            # slot exactly when min_r > zmax_r or max_r < zmin_r; the bounds
            # now lie within the envelope, so within the packing.
            ceiling = None
            if lo != mins or hi != maxs:
                ceiling = packing.ceiling(hi + [-x for x in lo])
            masks, first = sweep_backward(arcs, env, finals, packing, ceiling)
            if first is None:
                break
            arcs, env = sweep_forward(table, d.start, arcs=arcs, env=env,
                                      first=first)
        changes += [(i, m) for i, m in enumerate(masks) if m != cells[i]]
        return changes, False


def regular_dc(xs, dfa):
    """Domain-consistency propagator for plain automaton membership."""
    return Mcr(xs, [], WeightedDfa.plain(dfa))


class GccColumn(MemoFilter):
    """Occurrence counting over one scope against per-value count bounds.

    ``cards[j]`` bounds how many scope variables take ``values[j]``: either
    an interval variable, which the filter narrows from the cells (for
    columns whose counts other propagators read), or a constant ``(lo,
    hi)`` pair, which it never changes (a declared empty pair raises
    Inconsistent, as an empty interval variable does).  Cells are pruned or
    forced when a count bound becomes tight.  The counts sum to at least the
    number of cells whose domain lies inside the counted values and to at
    most the number of cells that meet them: to the number of cells when
    every value is counted.  The filter is a pure function of the counted
    values and any constant bounds (the memo ``kind``), the cell domains and
    the bounds of the card variables (see ``MemoFilter``).  A count bound
    narrowed from some cells holds for every subset of them, so a filter
    started from the constant bounds leaves the cells that one started from
    card bounds narrowed earlier in the search leaves.
    """

    priority = 0

    def __init__(self, xs, cards, values):
        self.values = tuple(values)
        if len(cards) != len(self.values):
            raise ValueError("one cardinality per counted value")
        self.counted = mask_of(self.values)
        bounds = tuple(c for c in cards if type(c) is tuple)
        if not bounds:
            self.bounds = None
            super().__init__(xs, cards, memo_token((GccColumn, self.values)),
                             len(self.values))
            return
        if len(bounds) < len(cards):
            raise ValueError("cardinalities must be all variables or all "
                             "(lo, hi) bounds")
        if any(lo > hi for lo, hi in bounds):
            raise Inconsistent("a count bound admits no count")
        self.bounds = bounds
        super().__init__(xs, [], memo_token((GccColumn, self.values, bounds)),
                         0)

    def filter(self, cells, lo, hi):
        """Count each value over ``cells`` against its bounds (the card
        variables' ``lo``/``hi``, or the constant ones), and the total
        against the cells, until no bound or cell changes.  Only card
        variables get bound changes; one that empties a card ends the list
        with ``failed`` set."""
        n = len(cells)
        cells = list(cells)
        report = self.bounds is None
        if report:
            lo, hi = list(lo), list(hi)
        else:
            lo = [b[0] for b in self.bounds]
            hi = [b[1] for b in self.bounds]
        counted = self.counted
        changes = []

        def narrow(j, least, most):
            # Bound count j to [least, most]; True once that empties it.
            nonlocal changed
            if least > lo[j]:
                if report:
                    changes.append((n + j, range(least, hi[j] + 1)))
                if least > hi[j]:
                    return True
                lo[j] = least
                changed = True
            if most < hi[j]:
                if report:
                    changes.append((n + j, range(lo[j], most + 1)))
                if most < lo[j]:
                    return True
                hi[j] = most
                changed = True
            return False

        changed = True
        while changed:
            changed = False
            for j, v in enumerate(self.values):
                bit = 1 << v
                fixed = possible = 0
                for dm in cells:
                    if dm & bit:
                        possible += 1
                        if dm == bit:
                            fixed += 1
                if narrow(j, fixed, possible):
                    return changes, True
                if fixed == hi[j] and possible > fixed:
                    for i, dm in enumerate(cells):
                        if dm & bit and dm != bit:
                            cells[i] = dm ^ bit
                            changes.append((i, cells[i]))
                            changed = True
                elif possible == lo[j] and fixed < possible:
                    for i, dm in enumerate(cells):
                        if dm & bit and dm != bit:
                            cells[i] = bit
                            changes.append((i, bit))
                            changed = True
            must = may = 0
            for dm in cells:
                if dm & counted:
                    may += 1
                    if dm | counted == counted:
                        must += 1
            for j in range(len(lo)):
                if narrow(j, must - sum(hi) + hi[j], may - sum(lo) + lo[j]):
                    return changes, True
        return changes, False


# -- interval expressions ----------------------------------------------------
#
# An expression compiles once into a ``Program``: its nodes in pre-order, each
# an opcode, an argument (the constant, the variable id or the coefficient)
# and the indices of its children, which come after it.  One bottom-up sweep
# (``sweep_bounds``) computes every node's bounds from its children's, and one
# top-down sweep (``require``) hands each node's required bounds down to its
# children.  ``Relation`` runs on these sweeps.

CONST, VAR, SUM, SCALE, MAX, MIN = range(6)


class Program:
    """A compiled expression triple: ``ops``, ``args`` and ``kids`` in
    pre-order, and for the bottom-up sweep the constants laid out by node
    (``consts``), the variable leaves ``(node, vid)`` and the inner nodes
    ``(node, op, arg, kids)`` in post-order, children first."""

    __slots__ = ("ops", "args", "kids", "consts", "leaves", "inner")

    def __init__(self, expr):
        ops, args, kids = self.ops, self.args, self.kids = [], [], []
        consts, leaves, inner = self.consts, self.leaves, self.inner = [], [], []

        def emit(e):
            i = len(ops)
            op, arg, children = e
            ops.append(op)
            args.append(arg)
            kids.append(())
            consts.append(arg if op == CONST else 0)
            if op == VAR:
                leaves.append((i, arg))
            elif children:
                ks = kids[i] = tuple([emit(ch) for ch in children])
                inner.append((i, op, arg, ks))
            return i

        emit(expr)


def sweep_bounds(program, store):
    """Bounds of every node of ``program`` under the store's domains, as two
    lists ``lo`` and ``hi``; each variable leaf reads its domain once."""
    lo = program.consts[:]
    hi = program.consts[:]
    domains = store.domains
    for i, vid in program.leaves:
        bits = domains[vid].bits
        if type(bits) is range:
            lo[i] = bits[0]
            hi[i] = bits[-1]
        else:
            lo[i] = (bits & -bits).bit_length() - 1
            hi[i] = bits.bit_length() - 1
    for i, op, c, ks in program.inner:
        if op == SUM:
            a = b = 0
            for k in ks:
                a += lo[k]
                b += hi[k]
            lo[i] = a
            hi[i] = b
        elif op == SCALE:
            k = ks[0]
            if c > 0:
                lo[i] = c * lo[k]
                hi[i] = c * hi[k]
            else:
                lo[i] = c * hi[k]
                hi[i] = c * lo[k]
        elif op == MAX:
            a = b = None
            for k in ks:
                if a is None or lo[k] > a:
                    a = lo[k]
                if b is None or hi[k] > b:
                    b = hi[k]
            lo[i] = a
            hi[i] = b
        else:
            a = b = None
            for k in ks:
                if a is None or lo[k] < a:
                    a = lo[k]
                if b is None or hi[k] < b:
                    b = hi[k]
            lo[i] = a
            hi[i] = b
    return lo, hi


def require(program, store, lo, hi, need_lo, need_hi):
    """Bound the program's root to ``need_lo..need_hi`` (None: unbounded)
    and derive every node's required bounds from its parent's and the
    bounds ``lo``/``hi`` of ``sweep_bounds``; variable leaves take theirs
    with ``set_min``/``set_max``.  A child gets a bound only where it cuts
    the child's own.  Returns whether a domain changed; raises Inconsistent
    when a node's required bounds miss its bounds.

    The rules: a sum bounds each child by the slack the other children
    leave; a scale divides (floor for an upper bound, ceiling for a lower
    one, swapped by a negative coefficient); a max bounds every child from
    above, and from below only when a single child can still reach the lower
    bound (min symmetrically).
    """
    if (need_lo is None or need_lo <= lo[0]) and (need_hi is None
                                                  or need_hi >= hi[0]):
        return False  # the root already meets them: nothing cuts below
    ops, args, kids = program.ops, program.args, program.kids
    n = len(ops)
    want_lo = [None] * n
    want_hi = [None] * n
    want_lo[0] = need_lo
    want_hi[0] = need_hi
    changed = False
    for i in range(n):
        a = want_lo[i]
        b = want_hi[i]
        if a is None and b is None:
            continue
        if (a is not None and a > hi[i]) or (b is not None and b < lo[i]):
            raise Inconsistent("expression misses its required bounds")
        op = ops[i]
        if op == VAR:
            if a is not None:
                changed |= store.set_min(args[i], a)
            if b is not None:
                changed |= store.set_max(args[i], b)
        elif op == SUM:
            ks = kids[i]
            if b is not None:
                slack = b - lo[i]
                for k in ks:
                    r = slack + lo[k]
                    if r < hi[k]:
                        want_hi[k] = r
            if a is not None:
                slack = a - hi[i]
                for k in ks:
                    r = slack + hi[k]
                    if r > lo[k]:
                        want_lo[k] = r
        elif op == SCALE:
            (k,) = kids[i]
            c = args[i]
            if c > 0:
                up = None if b is None else b // c
                down = None if a is None else _ceil_div(a, c)
            else:
                up = None if a is None else a // c
                down = None if b is None else _ceil_div(b, c)
            if up is not None and up < hi[k]:
                want_hi[k] = up
            if down is not None and down > lo[k]:
                want_lo[k] = down
        elif op == MAX:
            ks = kids[i]
            if b is not None:
                for k in ks:
                    if b < hi[k]:
                        want_hi[k] = b
            if a is not None:
                able = [k for k in ks if hi[k] >= a]
                if len(able) == 1 and a > lo[able[0]]:
                    want_lo[able[0]] = a
        elif op == MIN:
            ks = kids[i]
            if a is not None:
                for k in ks:
                    if a > lo[k]:
                        want_lo[k] = a
            if b is not None:
                able = [k for k in ks if lo[k] <= b]
                if len(able) == 1 and b < hi[able[0]]:
                    want_hi[able[0]] = b
    return changed


# The expression constructors.  Each returns the triple ``(op, arg,
# children)`` that ``Program`` compiles, ``children`` a tuple of triples.


def ConstE(c):
    return CONST, c, ()


def VarE(vid):
    return VAR, vid, ()


def SumE(children):
    return SUM, None, tuple(children)


def ScaleE(coef, child):
    if coef == 0:
        raise ValueError("zero scale; use ConstE(0)")
    return SCALE, coef, (child,)


def MaxE(children):
    children = tuple(children)
    if not children:
        raise ValueError("max of nothing")
    return MAX, None, children


def MinE(children):
    children = tuple(children)
    if not children:
        raise ValueError("min of nothing")
    return MIN, None, children


class Relation(Propagator):
    """left <= right or left == right over interval expressions.

    ``left - right`` is compiled once into a program (``Program``), and
    each pass sweeps its bounds bottom-up, then requires the root to be at
    most 0 (exactly 0 for ``eq``) top-down (``require``).  Relations link
    the property layer's measured totals to the column counts, so they run
    in the last tier (see ``Propagator``).
    """

    priority = 2

    def __init__(self, op, left, right):
        if op not in ("le", "eq"):
            raise ValueError("op must be 'le' or 'eq'")
        self.op = op
        self._program = Program(SumE([left, ScaleE(-1, right)]))
        self._need_lo = 0 if op == "eq" else None
        self._vids = list(dict.fromkeys(vid for _, vid in self._program.leaves))

    def variables(self):
        return self._vids

    def _pass(self, store):
        lo, hi = sweep_bounds(self._program, store)
        return require(self._program, store, lo, hi, self._need_lo, 0)


class LinearEq(Relation):
    """Bounds propagation for sum(coef_i * x_i) == const."""

    def __init__(self, coefs, vids, const):
        if len(coefs) != len(vids):
            raise ValueError("coefficient per variable required")
        terms = [ScaleE(c, VarE(x)) for c, x in zip(coefs, vids) if c]
        super().__init__("eq", SumE(terms), ConstE(const))


# -- ordering and sums --------------------------------------------------------


class LexLe(Propagator):
    """xs lexicographically <= ys."""

    priority = 0

    def __init__(self, xs, ys):
        if len(xs) != len(ys):
            raise ValueError("lex rows must have equal length")
        self.xs = list(xs)
        self.ys = list(ys)

    def variables(self):
        return self.xs + self.ys

    def _suffix_ok(self, store, j):
        # Can positions >= j still realize xs <= ys?
        for i in range(j, len(self.xs)):
            if store.vmin(self.xs[i]) < store.vmax(self.ys[i]):
                return True
            if store.vmin(self.xs[i]) > store.vmax(self.ys[i]):
                return False
        return True

    def _pass(self, store):
        n = len(self.xs)
        i = 0
        while (
            i < n
            and store.is_fixed(self.xs[i])
            and store.is_fixed(self.ys[i])
            and store.value(self.xs[i]) == store.value(self.ys[i])
        ):
            i += 1
        if i == n:
            return False
        changed = store.set_max(self.xs[i], store.vmax(self.ys[i]))
        changed |= store.set_min(self.ys[i], store.vmin(self.xs[i]))
        domains = store.domains
        eq_possible = store.vmin(self.xs[i]) <= store.vmax(self.ys[i]) and bool(
            domains[self.xs[i]].bits & domains[self.ys[i]].bits
        )
        if eq_possible and not self._suffix_ok(store, i + 1):
            # Equality at the split position dooms the suffix: force strict.
            changed |= store.set_max(self.xs[i], store.vmax(self.ys[i]) - 1)
            changed |= store.set_min(self.ys[i], store.vmin(self.xs[i]) + 1)
        return changed


def post_lex_chain(store, rows):
    """Order consecutive rows lexicographically; returns the propagators."""
    props = []
    for a, b in zip(rows, rows[1:]):
        p = LexLe(a, b)
        store.register(p)
        props.append(p)
    return props


class SumColumn(MemoFilter):
    """Bounds propagation for lo <= sum of mapped cell values <= hi.

    Cells hold indices into an ascending external value table; the sum ranges
    over the external values.  The filter is a pure function of the table and
    the bounds (the memo ``kind``) and the cell domains (see ``MemoFilter``).
    """

    priority = 0

    def __init__(self, xs, values, lo, hi):
        self.values = tuple(values)
        self.lo = lo
        self.hi = hi
        super().__init__(xs, [], memo_token((SumColumn, self.values, lo, hi)),
                         0)

    def filter(self, cells, _lo, _hi):
        """Each pass keeps in every cell the values whose external value fits
        the slack the other cells' extremes leave (as they stood at the start
        of the pass), until a pass changes nothing.  A pass that starts with
        the extremes' sums outside the bounds, or empties a cell, ends the
        list with ``failed`` set."""
        ext = self.values
        cells = list(cells)
        changes = []
        changed = True
        while changed:
            changed = False
            mins = [ext[(dm & -dm).bit_length() - 1] for dm in cells]
            maxs = [ext[dm.bit_length() - 1] for dm in cells]
            total_lo, total_hi = sum(mins), sum(maxs)
            if total_lo > self.hi or total_hi < self.lo:
                return changes, True
            for i, dm in enumerate(cells):
                # The indices whose values lie in [need_lo, need_hi] are the
                # run start..stop-1 of the ascending table.
                start = bisect_left(ext, self.lo - (total_hi - maxs[i]))
                stop = bisect_right(ext, self.hi - (total_lo - mins[i]))
                kept = dm & ((1 << stop) - (1 << start)) if start < stop else 0
                if kept != dm:
                    changes.append((i, kept))
                    if not kept:
                        return changes, True
                    cells[i] = kept
                    changed = True
        return changes, False


# -- stretch-length window conditions -----------------------------------------


def stretch_edge(cards, k, d):
    """``max(0, c_k - c_(k+d))`` over the column count expressions ``cards``,
    with c 0 outside the row: a lower bound on the number of stretches of
    the counted symbols that start (d = -1) or end (d = 1) at column k."""
    other = cards[k + d] if 0 <= k + d < len(cards) else ConstE(0)
    return MaxE([ConstE(0), SumE([cards[k], ScaleE(-1, other)])])


class StretchLengthWindows(Propagator):
    """Window conditions tying per-column counts to stretch-length bounds.

    cards[k] is an expression for the number of tracked symbols in column k;
    zmin/zmax are shared stretch-length extremes over all rows.  The windows
    are instantiated at the weakest sound point of the current zmin/zmax box
    (zmin at its lower bound, zmax at its upper bound) and re-derived whenever
    that point moves, so they tighten as the length bounds tighten.  A
    property link, so it runs in the last tier (see ``Propagator``).
    """

    priority = 2

    def __init__(self, cards, zmin, zmax, n_rows):
        self.cards = list(cards)
        self.zmin = zmin
        self.zmax = zmax
        self.n_rows = n_rows
        leaves = [v for c in self.cards for _, v in Program(c).leaves]
        self._vids = list(dict.fromkeys(leaves + [zmin, zmax]))
        self._windows = {}  # (zmin lower bound, zmax upper bound) -> relations

    def variables(self):
        return self._vids

    def _build(self, a, b):
        # A start window of one term reads max(0, c_k - c_(k-1)) <= c_k (an
        # end window the same with c_(k+1)), which non-negative counts always
        # meet, so neither is posted.
        cards = self.cards
        K = len(cards)
        rels = []
        for k in range(K):
            for js, d in ((range(max(0, k - a + 1), k + 1), -1),
                          (range(k, min(K, k + a)), 1)):
                if len(js) > 1:
                    edges = SumE([stretch_edge(cards, j, d) for j in js])
                    rels.append(Relation("le", edges, cards[k]))
        if a <= b:
            cap = ConstE((b - a + 1) * self.n_rows)
            for ks, d in ((range(K - b), -1), (range(b, K), 1)):
                for k in ks:
                    terms = [cards[k - d * j] for j in range(a, b + 1)]
                    rels.append(Relation(
                        "le", SumE([stretch_edge(cards, k, d)] + terms), cap))
        return rels

    def _pass(self, store):
        # The windows depend only on this point, so each point's relations
        # are built once and kept for when search returns to it.
        box = (store.vmin(self.zmin), store.vmax(self.zmax))
        rels = self._windows.get(box)
        if rels is None:
            rels = self._windows[box] = self._build(*box)
        return any([rel._pass(store) for rel in rels])
