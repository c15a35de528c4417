"""Propagators: weighted-automaton rows, cardinality columns, linear and
interval-expression relations, lexicographic ordering, column sums.

Every propagator runs to its own local fixpoint inside run() because the store
does not reschedule the propagator that is currently running.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .automata import (
    WeightedDfa,
    envelopes,
    layered_arcs,
    trim_backward,
    trim_forward,
)
from .engine import Inconsistent, Propagator, mask_of


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
    has no solution once they are committed.  ``run`` looks the result up
    under its input and ``kind`` in the store's memo (``Store.memoised``),
    which outlives the search node that made it, and commits it on its own
    variables.  So every propagator of the same ``kind`` and arity that sees
    the same input anywhere in the search gets the result without filtering.
    A variable may appear at one position only: two positions' domains would
    be computed apart, and the later commit would undo the earlier one.
    """

    def __init__(self, xs, zs, kind):
        self.xs = list(xs)
        self.zs = list(zs)
        self.kind = kind
        self._vars = self.xs + self.zs
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
        lo = []
        hi = []
        for z in self.zs:
            r = domains[z].bits
            lo.append(r[0])
            hi.append(r[-1])
        changes, failed = store.memoised(
            (self.kind, *cells, *lo, *hi), self.filter, cells, lo, hi
        )
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
    with it shares.  The filter gathers the arcs reachable through the cell
    domains once, then trims those lists until a fixpoint: arcs off every
    accepting run go, the resource bounds are tightened to the path cost
    envelope, and arcs whose per-resource through-cost interval misses the
    resource bounds are cut.  Each row variable finally keeps the symbols of
    its surviving arcs, ORed into one mask.  With zero resources this is
    exact domain consistency for the plain automaton membership constraint.

    Envelopes and arc costs are ints packed by the table's ``Packing``: one
    field per slot of ``(min_0.., -max_0..)``, offset by a bias larger than
    any path cost of the row, with the top bit of each field free.  A
    through-cost (forward envelope + arc cost + backward envelope) has fields
    in ``[bias, 3*bias]``, below that guard bit, and the tightened bounds lie
    within the envelope, so the cut test ``(ceiling - through) & guard``
    borrows across no field and reads every slot's verdict from its guard
    bit.  Only the envelope merged over the final states is unpacked.

    The filter is a pure function of the automaton (the memo ``kind``), the
    cell domains and the resource bounds, so every row posted with the same
    automaton shares the results in the store's memo (see ``MemoFilter``).
    """

    priority = 1

    def __init__(self, xs, zs, wdfa):
        super().__init__(xs, zs, wdfa)
        self.wdfa = wdfa
        if len(self.zs) != wdfa.n_resources:
            raise ValueError("one resource variable per cost matrix required")

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
        packing = self.wdfa.arc_table(n).packing
        guard = packing.guard
        lo = list(lo)
        hi = list(hi)
        changes = []
        arcs, reach = layered_arcs(self.wdfa, n, cells)

        while True:
            finals = reach & d.accepting
            if d.start not in trim_backward(arcs, finals):
                return changes, True
            if nres == 0:
                break

            fwd = envelopes(arcs, (d.start,), packing)
            env = packing.unpack(packing.least(fwd[n][q] for q in finals))
            mins = env[:nres]
            maxs = [-e for e in env[nres:]]
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
            if lo == mins and hi == maxs:
                # Every arc lies on a path whose total is within the bounds.
                break

            bwd = envelopes(arcs, finals, packing, backward=True)
            # An arc's packed through-cost (min_r.., -max_r..) exceeds this in
            # some slot exactly when min_r > zmax_r or max_r < zmin_r.  The
            # bounds now lie within the envelope, so within the packing.
            ceiling = packing.ceiling(hi + [-x for x in lo])
            cut = False
            for i, layer in enumerate(arcs):
                f, b = fwd[i], bwd[i + 1]
                kept = []
                for a in layer:
                    through = f[a[0]] + b[a[2]]
                    if a[3] is not None:
                        through += a[3]
                    if (ceiling - through) & guard != guard:
                        cut = True
                    else:
                        kept.append(a)
                arcs[i] = kept
            if not cut:
                break
            reach = trim_forward(arcs, d.start)

        for i, layer in enumerate(arcs):
            kept = 0
            for a in layer:
                kept |= 1 << a[1]
            if kept != cells[i]:
                changes.append((i, kept))
        return changes, False


def regular_dc(xs, dfa):
    """Domain-consistency propagator for plain automaton membership."""
    return Mcr(xs, [], WeightedDfa.plain(dfa))


class GccColumn(MemoFilter):
    """Occurrence counting over one scope with cardinality variables.

    cards[j] tracks how many scope variables take values[j]; both directions
    are propagated (cards tightened from the cells, cells pruned or forced
    when a cardinality bound becomes tight).  The cards sum to at least the
    number of cells whose domain lies inside the counted values and to at
    most the number of cells that meet them: to the number of cells when
    every value is counted.  The cards are interval variables, read by their
    bounds, and the filter is a pure function of the counted values (the memo
    ``kind``), the cell domains and those bounds (see ``MemoFilter``).
    """

    priority = 0

    def __init__(self, xs, cards, values):
        if len(cards) != len(values):
            raise ValueError("one cardinality variable per counted value")
        self.values = tuple(values)
        self.counted = mask_of(self.values)
        super().__init__(xs, cards, self.values)

    def filter(self, cells, lo, hi):
        """Count each value over ``cells`` against its bounds ``lo``/``hi``,
        and the total against the cells, until no bound or cell changes.  A
        bound change that empties a cardinality ends the list with ``failed``
        set."""
        n = len(cells)
        cells, lo, hi = list(cells), list(lo), list(hi)
        counted = self.counted
        changes = []

        def narrow(j, least, most):
            # Bound cards[j] to [least, most]; True once that empties it.
            nonlocal changed
            if least > lo[j]:
                changes.append((n + j, range(least, hi[j] + 1)))
                if least > hi[j]:
                    return True
                lo[j] = least
                changed = True
            if most < hi[j]:
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
# children.  ``Relation`` and ``Expr.bounds`` both run on these sweeps.

CONST, VAR, SUM, SCALE, MAX, MIN = range(6)


class Program:
    """A compiled expression: ``ops``, ``args`` and ``kids`` in pre-order,
    and for the bottom-up sweep the constants laid out by node (``consts``),
    the variable leaves ``(node, vid)`` and the inner nodes ``(node, op,
    arg, kids)`` in post-order, children first."""

    __slots__ = ("ops", "args", "kids", "consts", "leaves", "inner")

    def __init__(self, expr):
        ops, args, kids = self.ops, self.args, self.kids = [], [], []
        consts, leaves, inner = self.consts, self.leaves, self.inner = [], [], []

        def emit(e):
            i = len(ops)
            op, arg, children = e.node()
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


class Expr:
    """An interval expression over interval variables; ``node`` gives its
    opcode, argument and children (see ``Program``)."""

    __slots__ = ()

    def node(self):
        raise NotImplementedError

    def vids(self):
        return [vid for _, vid in Program(self).leaves]

    def bounds(self, store):
        lo, hi = sweep_bounds(Program(self), store)
        return lo[0], hi[0]


class ConstE(Expr):
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def node(self):
        return CONST, self.c, ()


class VarE(Expr):
    __slots__ = ("vid",)

    def __init__(self, vid):
        self.vid = vid

    def node(self):
        return VAR, self.vid, ()


class SumE(Expr):
    __slots__ = ("children",)

    def __init__(self, children):
        self.children = list(children)

    def node(self):
        return SUM, None, self.children


class ScaleE(Expr):
    __slots__ = ("coef", "child")

    def __init__(self, coef, child):
        if coef == 0:
            raise ValueError("zero scale; use ConstE(0)")
        self.coef = coef
        self.child = child

    def node(self):
        return SCALE, self.coef, (self.child,)


class MaxE(Expr):
    __slots__ = ("children",)

    def __init__(self, children):
        self.children = list(children)
        if not self.children:
            raise ValueError("max of nothing")

    def node(self):
        return MAX, None, self.children


class MinE(Expr):
    __slots__ = ("children",)

    def __init__(self, children):
        self.children = list(children)
        if not self.children:
            raise ValueError("min of nothing")

    def node(self):
        return MIN, None, self.children


class Relation(Propagator):
    """left <= right or left == right over interval expressions.

    ``left - right`` is compiled once into a program (``Program``), and
    each pass sweeps its bounds bottom-up, then requires the root to be at
    most 0 (exactly 0 for ``eq``) top-down (``require``).
    """

    priority = 0

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
    """xs lexicographically <= ys (strictly < with strict=True)."""

    priority = 0

    def __init__(self, xs, ys, strict=False):
        if len(xs) != len(ys):
            raise ValueError("lex rows must have equal length")
        self.xs = list(xs)
        self.ys = list(ys)
        self.strict = strict

    def variables(self):
        return self.xs + self.ys

    def _suffix_ok(self, store, j):
        # Can positions >= j still realize xs <= ys (or < when strict)?
        for i in range(j, len(self.xs)):
            if store.vmin(self.xs[i]) < store.vmax(self.ys[i]):
                return True
            if store.vmin(self.xs[i]) > store.vmax(self.ys[i]):
                return False
        return not self.strict

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
            if self.strict:
                raise Inconsistent("lex prefix exhausted")
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


def post_lex_chain(store, rows, strict=False):
    """Order consecutive rows lexicographically; returns the propagators."""
    props = []
    for a, b in zip(rows, rows[1:]):
        p = LexLe(a, b, strict=strict)
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
        super().__init__(xs, [], (self.values, lo, hi))

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


class StretchLengthWindows(Propagator):
    """Window conditions tying per-column counts to stretch-length bounds.

    cards[k] is an expression for the number of tracked symbols in column k;
    zmin/zmax are shared stretch-length extremes over all rows.  The windows
    are instantiated at the weakest sound point of the current zmin/zmax box
    (zmin at its lower bound, zmax at its upper bound) and re-derived whenever
    that point moves, so they tighten as the length bounds tighten.
    """

    priority = 0

    def __init__(self, cards, zmin, zmax, n_rows):
        self.cards = list(cards)
        self.zmin = zmin
        self.zmax = zmax
        self.n_rows = n_rows
        self._vids = list(
            dict.fromkeys(
                [v for c in self.cards for v in c.vids()] + [zmin, zmax]
            )
        )
        self._windows = {}  # (zmin lower bound, zmax upper bound) -> relations

    def variables(self):
        return self._vids

    def _ls_plus(self, k):
        prev = ConstE(0) if k == 0 else self.cards[k - 1]
        return MaxE([ConstE(0), SumE([self.cards[k], ScaleE(-1, prev)])])

    def _ls_minus(self, k):
        nxt = ConstE(0) if k == len(self.cards) - 1 else self.cards[k + 1]
        return MaxE([ConstE(0), SumE([self.cards[k], ScaleE(-1, nxt)])])

    def _build(self, a, b):
        K = len(self.cards)
        rels = []
        for k in range(K):
            j0 = max(0, k - a + 1)
            if j0 <= k:
                rels.append(
                    Relation(
                        "le",
                        SumE([self._ls_plus(j) for j in range(j0, k + 1)]),
                        self.cards[k],
                    )
                )
            j1 = min(K - 1, k + a - 1)
            if j1 >= k:
                rels.append(
                    Relation(
                        "le",
                        SumE([self._ls_minus(j) for j in range(k, j1 + 1)]),
                        self.cards[k],
                    )
                )
        if a <= b:
            cap = ConstE((b - a + 1) * self.n_rows)
            for k in range(0, K - b):
                rels.append(
                    Relation(
                        "le",
                        SumE(
                            [self._ls_plus(k)]
                            + [self.cards[k + j] for j in range(a, b + 1)]
                        ),
                        cap,
                    )
                )
            for k in range(b, K):
                rels.append(
                    Relation(
                        "le",
                        SumE(
                            [self._ls_minus(k)]
                            + [self.cards[k - j] for j in range(a, b + 1)]
                        ),
                        cap,
                    )
                )
        return rels

    def _pass(self, store):
        # The windows depend only on this point, so each point's relations
        # are built once and kept for when search returns to it.
        box = (store.vmin(self.zmin), store.vmax(self.zmax))
        rels = self._windows.get(box)
        if rels is None:
            rels = self._windows[box] = self._build(*box)
        return any([rel._pass(store) for rel in rels])
