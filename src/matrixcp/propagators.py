"""Propagators: weighted-automaton rows, cardinality columns, linear and
interval-expression relations, lexicographic ordering, column sums.

Every propagator runs to its own local fixpoint inside run() because the store
does not reschedule the propagator that is currently running.
"""

from __future__ import annotations

from operator import add, gt

from .automata import (
    WeightedDfa,
    envelopes,
    layered_arcs,
    trim_backward,
    trim_forward,
)
from .engine import Inconsistent, Propagator, Store


def _ceil_div(a, b):
    return -((-a) // b)


class MemoFilter(Propagator):
    """A propagator whose work is a pure function ``filter(cells, lo, hi)``
    of the domains of its cells ``xs`` and the bounds of its interval
    variables ``zs`` (read only by their bounds).

    ``filter`` returns ``(ops, failed)``: ``ops`` lists ``(Store method,
    position, argument)`` in the order they are to be applied, positions
    counting the cells first and then the interval variables; ``failed``
    says that the constraint has no solution once they are applied.  ``run``
    looks the result up under its input and ``kind`` in the store's memo
    (``Store.memoised``), which outlives the search node that made it, and
    replays it on its own variables.  So every propagator of the same
    ``kind`` and arity that sees the same input anywhere in the search gets
    the result without filtering.
    """

    def __init__(self, xs, zs, kind):
        self.xs = list(xs)
        self.zs = list(zs)
        self.kind = kind
        self._vars = self.xs + self.zs

    def variables(self):
        return self._vars

    def run(self, store):
        cells = [store.dom(x) for x in self.xs]
        lo = [store.vmin(z) for z in self.zs]
        hi = [store.vmax(z) for z in self.zs]
        ops, failed = store.memoised(
            (self.kind, *cells, *lo, *hi), self.filter, cells, lo, hi
        )
        vs = self._vars
        for op, pos, arg in ops:
            op(store, vs[pos], arg)
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
    its surviving arcs.  With zero resources this is exact domain consistency
    for the plain automaton membership constraint.

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
        bounds.  An operation that empties a resource ends the list with
        ``failed`` set, so a replay makes the same bound changes before it
        fails.
        """
        n = len(cells)
        d = self.wdfa.dfa
        nres = self.wdfa.n_resources
        lo = list(lo)
        hi = list(hi)
        ops = []
        arcs, reach = layered_arcs(self.wdfa, n, cells)

        while True:
            finals = reach & d.accepting
            if d.start not in trim_backward(arcs, finals):
                return ops, True
            if nres == 0:
                break

            fwd = envelopes(arcs, (d.start,), nres)
            env = None
            for q in finals:
                e = fwd[n][q]
                env = e if env is None else tuple(map(min, env, e))
            for r in range(nres):
                v = env[r]
                if v > lo[r]:
                    ops.append((Store.set_min, n + r, v))
                    if v > hi[r]:
                        return ops, True
                    lo[r] = v
                v = -env[nres + r]
                if v < hi[r]:
                    ops.append((Store.set_max, n + r, v))
                    if v < lo[r]:
                        return ops, True
                    hi[r] = v
            if lo == list(env[:nres]) and hi == [-e for e in env[nres:]]:
                # Every arc lies on a path whose total is within the bounds.
                break

            bwd = envelopes(arcs, finals, nres, backward=True)
            # An arc's packed through-cost (min_r.., -max_r..) exceeds this in
            # some slot exactly when min_r > zmax_r or max_r < zmin_r.
            limit = hi + [-x for x in lo]
            cut = False
            for i, layer in enumerate(arcs):
                f, b = fwd[i], bwd[i + 1]
                kept = []
                for a in layer:
                    through = map(add, f[a[0]], b[a[2]])
                    if a[3] is not None:
                        through = map(add, through, a[3])
                    if any(map(gt, through, limit)):
                        cut = True
                    else:
                        kept.append(a)
                arcs[i] = kept
            if not cut:
                break
            reach = trim_forward(arcs, d.start)

        for i, layer in enumerate(arcs):
            symbols = frozenset(a[1] for a in layer)
            if len(symbols) < len(cells[i]):
                ops.append((Store.keep_values, i, symbols))
        return ops, False


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
        self.counted = frozenset(self.values)
        super().__init__(xs, cards, self.values)

    def filter(self, cells, lo, hi):
        """Count each value over ``cells`` against its bounds ``lo``/``hi``,
        and the total against the cells, until no bound or cell changes.  An
        operation that empties a cardinality ends the list with ``failed``
        set."""
        n = len(cells)
        cells, lo, hi = list(cells), list(lo), list(hi)
        ops = []

        def narrow(j, least, most):
            # Bound cards[j] to [least, most]; True once that empties it.
            nonlocal changed
            if least > lo[j]:
                ops.append((Store.set_min, n + j, least))
                if least > hi[j]:
                    return True
                lo[j] = least
                changed = True
            if most < hi[j]:
                ops.append((Store.set_max, n + j, most))
                if most < lo[j]:
                    return True
                hi[j] = most
                changed = True
            return False

        changed = True
        while changed:
            changed = False
            for j, v in enumerate(self.values):
                fixed = possible = 0
                for dm in cells:
                    if v in dm:
                        possible += 1
                        if len(dm) == 1:
                            fixed += 1
                if narrow(j, fixed, possible):
                    return ops, True
                if fixed == hi[j] and possible > fixed:
                    for i, dm in enumerate(cells):
                        if len(dm) > 1 and v in dm:
                            ops.append((Store.remove_value, i, v))
                            cells[i] = dm - {v}
                            changed = True
                elif possible == lo[j] and fixed < possible:
                    for i, dm in enumerate(cells):
                        if len(dm) > 1 and v in dm:
                            ops.append((Store.assign, i, v))
                            cells[i] = frozenset((v,))
                            changed = True
            must = sum(dm <= self.counted for dm in cells)
            may = n - sum(self.counted.isdisjoint(dm) for dm in cells)
            for j in range(len(lo)):
                if narrow(j, must - sum(hi) + hi[j], may - sum(lo) + lo[j]):
                    return ops, True
        return ops, False


# -- interval expressions ----------------------------------------------------


class Expr:
    def vids(self):
        return []

    def bounds(self, store):
        raise NotImplementedError

    def push_le(self, store, hi):
        return False

    def push_ge(self, store, lo):
        return False


class ConstE(Expr):
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def bounds(self, store):
        return self.c, self.c

    def push_le(self, store, hi):
        if self.c > hi:
            raise Inconsistent("constant above its required bound")
        return False

    def push_ge(self, store, lo):
        if self.c < lo:
            raise Inconsistent("constant below its required bound")
        return False


class VarE(Expr):
    __slots__ = ("vid",)

    def __init__(self, vid):
        self.vid = vid

    def vids(self):
        return [self.vid]

    def bounds(self, store):
        return store.vmin(self.vid), store.vmax(self.vid)

    def push_le(self, store, hi):
        return store.set_max(self.vid, hi)

    def push_ge(self, store, lo):
        return store.set_min(self.vid, lo)


class SumE(Expr):
    __slots__ = ("children",)

    def __init__(self, children):
        self.children = list(children)

    def vids(self):
        return [v for ch in self.children for v in ch.vids()]

    def bounds(self, store):
        lo = hi = 0
        for ch in self.children:
            clo, chi = ch.bounds(store)
            lo += clo
            hi += chi
        return lo, hi

    # Each child's bounds are read once, before any child is pushed.  Pushes
    # only tighten bounds, so limits derived from the earlier reads stay
    # sound; the caller iterates to a fixpoint.

    def push_le(self, store, hi):
        los = [ch.bounds(store)[0] for ch in self.children]
        slack = hi - sum(los)
        changed = False
        for ch, clo in zip(self.children, los):
            changed |= ch.push_le(store, slack + clo)
        return changed

    def push_ge(self, store, lo):
        his = [ch.bounds(store)[1] for ch in self.children]
        slack = lo - sum(his)
        changed = False
        for ch, chi in zip(self.children, his):
            changed |= ch.push_ge(store, slack + chi)
        return changed


class ScaleE(Expr):
    __slots__ = ("coef", "child")

    def __init__(self, coef, child):
        if coef == 0:
            raise ValueError("zero scale; use ConstE(0)")
        self.coef = coef
        self.child = child

    def vids(self):
        return self.child.vids()

    def bounds(self, store):
        lo, hi = self.child.bounds(store)
        a, b = self.coef * lo, self.coef * hi
        return (a, b) if a <= b else (b, a)

    def push_le(self, store, hi):
        if self.coef > 0:
            return self.child.push_le(store, hi // self.coef)
        return self.child.push_ge(store, _ceil_div(hi, self.coef))

    def push_ge(self, store, lo):
        if self.coef > 0:
            return self.child.push_ge(store, _ceil_div(lo, self.coef))
        return self.child.push_le(store, lo // self.coef)


class MaxE(Expr):
    __slots__ = ("children",)

    def __init__(self, children):
        self.children = list(children)
        if not self.children:
            raise ValueError("max of nothing")

    def vids(self):
        return [v for ch in self.children for v in ch.vids()]

    def bounds(self, store):
        bs = [ch.bounds(store) for ch in self.children]
        return max(b[0] for b in bs), max(b[1] for b in bs)

    def push_le(self, store, hi):
        changed = False
        for ch in self.children:
            changed |= ch.push_le(store, hi)
        return changed

    def push_ge(self, store, lo):
        # Only one child can be the witness when all others top out below lo.
        able = [ch for ch in self.children if ch.bounds(store)[1] >= lo]
        if not able:
            raise Inconsistent("max cannot reach its lower bound")
        if len(able) == 1:
            return able[0].push_ge(store, lo)
        return False


class MinE(Expr):
    __slots__ = ("children",)

    def __init__(self, children):
        self.children = list(children)
        if not self.children:
            raise ValueError("min of nothing")

    def vids(self):
        return [v for ch in self.children for v in ch.vids()]

    def bounds(self, store):
        bs = [ch.bounds(store) for ch in self.children]
        return min(b[0] for b in bs), min(b[1] for b in bs)

    def push_ge(self, store, lo):
        changed = False
        for ch in self.children:
            changed |= ch.push_ge(store, lo)
        return changed

    def push_le(self, store, hi):
        able = [ch for ch in self.children if ch.bounds(store)[0] <= hi]
        if not able:
            raise Inconsistent("min cannot stay under its upper bound")
        if len(able) == 1:
            return able[0].push_le(store, hi)
        return False


class Relation(Propagator):
    """left <= right or left == right over interval expressions."""

    priority = 0

    def __init__(self, op, left, right):
        if op not in ("le", "eq"):
            raise ValueError("op must be 'le' or 'eq'")
        self.op = op
        self.left = left
        self.right = right
        self._vids = list(dict.fromkeys(left.vids() + right.vids()))

    def variables(self):
        return self._vids

    def _pass(self, store):
        changed = False
        llo, lhi = self.left.bounds(store)
        rlo, rhi = self.right.bounds(store)
        if llo > rhi:
            raise Inconsistent("relation bounds disjoint")
        changed |= self.left.push_le(store, rhi)
        changed |= self.right.push_ge(store, llo)
        if self.op == "eq":
            if rlo > lhi:
                raise Inconsistent("relation bounds disjoint")
            changed |= self.right.push_le(store, lhi)
            changed |= self.left.push_ge(store, rlo)
        return changed


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
        eq_possible = store.vmin(self.xs[i]) <= store.vmax(self.ys[i]) and bool(
            store.dom(self.xs[i]) & store.dom(self.ys[i])
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


class SumColumn(Propagator):
    """Bounds propagation for lo <= sum of mapped cell values <= hi.

    Cells hold indices into an ascending external value table; the sum ranges
    over the external values.
    """

    priority = 0

    def __init__(self, xs, values, lo, hi):
        self.xs = list(xs)
        self.values = tuple(values)
        self.lo = lo
        self.hi = hi

    def variables(self):
        return list(self.xs)

    def _pass(self, store):
        ext = self.values
        mins = [ext[store.vmin(x)] for x in self.xs]
        maxs = [ext[store.vmax(x)] for x in self.xs]
        total_lo, total_hi = sum(mins), sum(maxs)
        if total_lo > self.hi or total_hi < self.lo:
            raise Inconsistent("column sum out of bounds")
        changed = False
        for i, x in enumerate(self.xs):
            need_lo = self.lo - (total_hi - maxs[i])
            need_hi = self.hi - (total_lo - mins[i])
            allowed = {v for v in store.dom(x) if need_lo <= ext[v] <= need_hi}
            changed |= store.keep_values(x, allowed)
        return changed


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
        self._box = None
        self._rels = []

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
        # The windows depend only on this point, so they are rebuilt only
        # when it moves (including back, on backtracking).
        box = (store.vmin(self.zmin), store.vmax(self.zmax))
        if box != self._box:
            self._box = box
            self._rels = self._build(*box)
        return any([rel._pass(store) for rel in self._rels])
