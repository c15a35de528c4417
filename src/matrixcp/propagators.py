"""Propagators: weighted-automaton rows, cardinality columns, linear and
interval-expression relations, lexicographic ordering, column sums.

Every propagator runs to its own local fixpoint inside run() because the store
does not reschedule the propagator that is currently running.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache

from .automata import (
    SHARED_CAP,
    WeightedDfa,
    sweep_backward,
    sweep_forward,
)
from .engine import (
    ENTAILED,
    MEMO,
    NO_CHANGE,
    Inconsistent,
    Propagator,
    mask_of,
    memo_token,
    memoised,
)


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

    A scope with no interval variables may also say that its constraint is
    entailed: ``entailed(cells, (), ())``, asked on a memo miss whose result
    changes nothing, is true only if every tuple of the cells' cross product
    satisfies the constraint.  Like ``filter`` it depends on the kind and
    the cells only, so the memo keeps the answer as ``engine.ENTAILED``, and
    ``run`` parks the propagator on it (``Store.park``): domains only shrink
    until the store backtracks, so it has nothing to prune until then.  A
    scope with interval variables never parks: its filter narrows their
    bounds, which other propagators read, as the cells shrink, even where
    every completion satisfies it.

    ``run`` runs on a kernel: a Python function generated for the shape of
    the scope, its numbers of cells and of interval variables
    (``_run_source``), which the propagator fetches from the process-wide
    table ``_memo_run`` when it is built.  Every ``MemoFilter`` class of a
    shape shares it.  The kernel builds the key as one tuple display,
    looks it up and commits the result with ``Store._commit`` inlined.  It
    looks ``filter`` and ``entailed`` up on the propagator at each miss,
    and ``run`` stays the class-level entry point, so a spy or tracer that
    patches any of the three on the class sees every call.
    """

    def __init__(self, xs, zs, token, n_bounds):
        self.xs = tuple(xs)
        self.zs = tuple(zs)
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
        self._run = _memo_run(len(self.xs), len(self.zs))

    def variables(self):
        return self._vars

    def run(self, store):
        self._run(self, store)

    def filter(self, cells, lo, hi):
        raise NotImplementedError

    def entailed(self, cells, lo, hi):
        return False


# The end of every kernel, whatever its shape: park on ``ENTAILED``, or
# commit the result with ``Store._commit`` inlined (trail the old domain,
# replace it, wake each watcher in list order but the store's running
# propagator and the queued ones), then fail if it fails.
_RUN_TAIL = """\
    if result is NO_CHANGE: return
    if result is ENTAILED:
        store.park(self)
        return
    changes, failed = result
    if changes:
        vs = self._vars
        trail = store._trail
        watchers = store._watchers
        running = store._running
        queued = store._queued
        tiers = store._tiers
        for pos, new in changes:
            vid = vs[pos]
            dom = D[vid]
            old = dom.bits
            if new == old: continue
            if not new: raise Inconsistent(store.names[vid])
            trail.append((vid, old))
            dom.bits = new
            for prop in watchers[vid]:
                if prop is not running and prop not in queued:
                    queued.add(prop)
                    tiers[prop.priority].append(prop)
    if failed:
        raise Inconsistent(f"{type(self).__name__} has no solution")
"""


def _run_source(n, m):
    """The source of ``run(self, store)`` for a ``MemoFilter`` scope of
    ``n`` cells and ``m`` interval variables.

    It unpacks the scope into locals ``x<i>``/``z<j>`` and builds the memo
    key as one tuple display: the token, each cell's mask, then the lower
    and upper bound of each interval variable.  On a miss it filters
    through ``memoised`` with the cells and bounds as lists, or, with no
    interval variables, with the cells as a tuple and ``entailed``.
    ``_RUN_TAIL`` ends it.
    """
    cells = [f"x{i}" for i in range(n)]
    bounds = [f"z{j}" for j in range(m)]
    lines = ["def run(self, store):"]
    if n + m:
        lines.append(f"    {', '.join(cells + bounds)}, = self._vars")
    lines.append("    D = store.domains")
    lines += [f"    r{j} = D[z{j}].bits" for j in range(m)]
    key = (["self._token"] + [f"D[{x}].bits" for x in cells]
           + [f"r{j}[0]" for j in range(m)] + [f"r{j}[-1]" for j in range(m)])
    lines += [f"    key = ({', '.join(key)},)",
              "    result = MEMO.get(key)",
              "    if result is None:"]
    if m:
        lines.append(f"        result = memoised(key, self.filter, "
                     f"list(key[1:{n + 1}]), list(key[{n + 1}:{n + m + 1}]), "
                     f"list(key[{n + m + 1}:]))")
    else:
        lines.append("        result = memoised(key, self.filter, key[1:], (), "
                     "(), entailed=self.entailed)")
    return "\n".join(lines) + "\n" + _RUN_TAIL


@lru_cache(maxsize=SHARED_CAP)
def _memo_run(n, m):
    """The compiled ``run`` of a scope of ``n`` cells and ``m`` interval
    variables (see ``_run_source``): one per (n, m) in the process, shared
    by every ``MemoFilter`` class, of the ``SHARED_CAP`` most recently
    used."""
    namespace = {"MEMO": MEMO, "memoised": memoised, "NO_CHANGE": NO_CHANGE,
                 "ENTAILED": ENTAILED, "Inconsistent": Inconsistent}
    exec(compile(_run_source(n, m), f"<run of {n} cells, {m} bounds>",
                 "exec"), namespace)
    return namespace["run"]


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
    one mask.  A plain automaton (zero resources) runs the same sweeps with
    empty envelopes: no bound changes and no cut, so one round keeps exactly
    the arcs on accepting runs, which is domain consistency for the plain
    automaton membership constraint.

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

    def entailed(self, cells, lo, hi):
        """Every word over ``cells`` is accepted: every state the forward
        sweep reaches from the start reads every symbol of its cell into a
        live state, and every state reached at the end accepts.  Only a plain automaton is
        asked (``MemoFilter``: no interval variables)."""
        d = self.wdfa.dfa
        arcs, env = sweep_forward(self.wdfa.arc_table(len(cells)), d.start,
                                  cells)
        for layer, reached, dom in zip(arcs, env, cells):
            read = dict.fromkeys(reached, 0)
            for q, v, _, _ in layer:
                read[q] |= 1 << v
            if any(r != dom for r in read.values()):
                return False
        return env[-1].keys() <= d.accepting


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
        n_bounds = sum(type(c) is tuple for c in cards)
        if not n_bounds:
            self.bounds = None
            super().__init__(xs, cards, memo_token((GccColumn, self.values)),
                             len(self.values))
            return
        if n_bounds < len(cards):
            raise ValueError("cardinalities must be all variables or all "
                             "(lo, hi) bounds")
        bounds = tuple(cards)  # a tuple passed in is kept, not copied
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
                fixed, possible = _occurrences(cells, bit)
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

    def entailed(self, cells, lo, hi):
        """Every completion of ``cells`` meets the constant bounds: each
        counted value is fixed in at least its lower bound of cells and
        possible in at most its upper bound.  Only constant bounds are
        asked (``MemoFilter``: no interval variables); a column that counts
        no value has none and holds."""
        for v, (least, most) in zip(self.values, self.bounds or ()):
            fixed, possible = _occurrences(cells, 1 << v)
            if fixed < least or possible > most:
                return False
        return True


def _occurrences(cells, bit):
    """``(fixed, possible)``: how many of the masks ``cells`` are ``bit``
    and how many hold it."""
    fixed = possible = 0
    for dm in cells:
        if dm & bit:
            possible += 1
            if dm == bit:
                fixed += 1
    return fixed, possible


# -- interval expressions ----------------------------------------------------
#
# An expression is a plain ``(op, arg, children)`` triple.  A ``Relation``
# runs on a kernel: a Python function generated for the *shape* of its
# expression (the triple with each variable id replaced by its position), so
# relations of one shape over different variables share one kernel.

CONST, VAR, SUM, SCALE, MAX, MIN = range(6)


# The expression constructors.  Each returns the triple ``(op, arg,
# children)``, ``children`` a tuple of triples.


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


def shape_of(expr):
    """``(shape, vids)``: ``expr`` with each variable id replaced by its
    position of first pre-order appearance, and the ids in that order.

    Constants and coefficients go into generated source (see
    ``_kernel_source``), so one that is not an ``int`` (a bool included)
    raises ValueError, as does an unknown op.
    """
    positions = {}

    def walk(e):
        op, arg, children = e
        if op == VAR:
            return VAR, positions.setdefault(arg, len(positions)), ()
        if op == CONST or op == SCALE:
            if type(arg) is not int:
                what = "constant" if op == CONST else "coefficient"
                raise ValueError(f"expression {what} {arg!r} is not an int")
        elif op not in (SUM, MAX, MIN):
            raise ValueError(f"unknown expression op {op!r}")
        return op, arg, tuple(map(walk, children))

    return walk(expr), list(positions)


def _mask_bounds(bits):
    return (bits & -bits).bit_length() - 1, bits.bit_length() - 1


def _kernel_source(op, shape):
    """The source of ``kernel(store, vids)`` for ``op`` ("le" or "eq") over
    ``shape``, a ``SumE``; ``vids`` holds the variable ids by position.

    The kernel reads the bounds ``x<p>``/``y<p>`` of each variable once and
    computes the bounds ``l<i>``/``h<i>`` of each inner node ``i`` (numbered
    in pre-order) bottom-up, one statement per node.  It returns False when
    the root already meets ``<= 0`` (``== 0`` for "eq") and raises
    Inconsistent when it misses it.  Otherwise it hands the required bounds
    ``a<i>``/``b<i>`` down in pre-order, bounds the variable leaves with
    ``set_min``/``set_max`` and returns whether a domain changed.  The
    rules: a sum bounds each child by the slack the other children leave; a
    scale divides (floor for an upper bound, ceiling for a lower one,
    swapped by a negative coefficient); a max bounds every child from above,
    and from below only when a single child can still reach the lower bound
    (min symmetrically).

    A node's rules run only where its parent cuts its bounds, and a leaf is
    bounded only where the cut is strict, so the calls are those of an
    interpreter that skips a node without a cut.  A side that is never
    required (the lower one of an "le" root and what inherits it) emits no
    code, and a required bound that cuts nothing is replaced by the node's
    own, which cuts nothing below either.  Below a root whose bounds meet
    its required ones every child's do too, so only the root can fail.
    """
    nodes = []  # pre-order (op, arg, kid indices)

    def number(e):
        i = len(nodes)
        nodes.append(None)
        nop, arg, children = e
        nodes[i] = (nop, arg, [number(ch) for ch in children])
        return i

    number(shape)

    def lo(i):
        nop, arg, _ = nodes[i]
        return f"({arg})" if nop == CONST else f"x{arg}" if nop == VAR else f"l{i}"

    def hi(i):
        nop, arg, _ = nodes[i]
        return f"({arg})" if nop == CONST else f"y{arg}" if nop == VAR else f"h{i}"

    def extreme(fn, cmp, terms):
        if len(terms) == 1:
            return terms[0]
        if len(terms) == 2:
            a, b = terms
            return f"({a} if {a} {cmp} {b} else {b})"
        return f"{fn}({', '.join(terms)})"

    lines = ["def kernel(store, vids):", "    D = store.domains"]
    for p in sorted({arg for nop, arg, _ in nodes if nop == VAR}):
        lines += [f"    d = D[vids[{p}]].bits",
                  f"    if type(d) is range: x{p} = d[0]; y{p} = d[-1]",
                  f"    else: x{p}, y{p} = mask_bounds(d)"]
    for i in reversed(range(len(nodes))):
        nop, c, kids = nodes[i]
        los = [lo(k) for k in kids]
        his = [hi(k) for k in kids]
        if nop == SUM:
            low, high = " + ".join(los) or "0", " + ".join(his) or "0"
        elif nop == SCALE:
            if c < 0:
                los, his = his, los
            low, high = f"{c} * {los[0]}", f"{c} * {his[0]}"
        elif nop == MAX:
            low, high = extreme("max", ">", los), extreme("max", ">", his)
        elif nop == MIN:
            low, high = extreme("min", "<", los), extreme("min", "<", his)
        else:
            continue
        lines.append(f"    l{i}, h{i} = {low}, {high}")
    if op == "le":
        lines += ["    if h0 <= 0: return False",
                  "    if l0 > 0: raise Inconsistent(MISS)"]
    else:
        lines += ["    if l0 == 0 == h0: return False",
                  "    if l0 > 0 or h0 < 0: raise Inconsistent(MISS)"]
    lines.append("    changed = False")

    def child(k, want_lo, if_lo, want_hi, if_hi, pad):
        # Hand node k the required bounds ``want_lo``/``want_hi`` (source,
        # None for no requirement), each where its source condition
        # ``if_lo``/``if_hi`` holds (always where None).
        nop, arg, _ = nodes[k]
        if nop == CONST:
            return
        if nop == VAR:
            for want, cond, cmp, own, call in (
                    (want_lo, if_lo, ">", f"x{arg}", "set_min"),
                    (want_hi, if_hi, "<", f"y{arg}", "set_max")):
                if want is None:
                    continue
                test = f"{want} {cmp} {own}"
                if not want.isidentifier():
                    test = f"(w := {want}) {cmp} {own}"
                    want = "w"
                if cond is not None:
                    test = f"{cond} and {test}"
                lines.append(f"{pad}if {test}: "
                             f"changed |= store.{call}(vids[{arg}], {want})")
            return
        mark = len(lines)
        names = []
        tests = []
        for want, cond, name, cmp, own in ((want_lo, if_lo, "a", ">", lo(k)),
                                           (want_hi, if_hi, "b", "<", hi(k))):
            if want is not None and (cond is not None
                                     or not want.isidentifier()):
                if cond is not None:
                    want = f"{want} if {cond} else {own}"
                lines.append(f"{pad}{name}{k} = {want}")
                want = f"{name}{k}"
            names.append(want)
            if want is not None:
                tests.append(f"{want} {cmp} {own}")
        lines.append(f"{pad}if {' or '.join(tests)}:")
        body = len(lines)
        block(k, *names, pad + "    ")
        if len(lines) == body:
            del lines[mark:]  # nothing below k can be bounded

    def block(i, a, b, pad):
        # The rules of inner node i, whose required bounds are the names or
        # literals ``a`` and ``b`` (None: no requirement on that side).
        nop, c, kids = nodes[i]
        if nop == SUM:
            if a is not None:
                lines.append(f"{pad}t{i} = {a} - h{i}")
            if b is not None:
                lines.append(f"{pad}s{i} = {b} - l{i}")
            for k in kids:
                child(k, a and f"t{i} + {hi(k)}", None,
                      b and f"s{i} + {lo(k)}", None, pad)
        elif nop == SCALE:
            if c < 0:
                a, b = b, a
            child(kids[0], a and f"-(-{a} // {c})", None,
                  b and f"{b} // {c}", None, pad)
        elif nop == MAX:
            if a is not None:
                lines.append(f"{pad}n{i} = "
                             + " + ".join([f"({hi(k)} >= {a})" for k in kids]))
            for k in kids:
                child(k, a, a and f"n{i} == 1 and {hi(k)} >= {a}", b, None,
                      pad)
        else:
            if b is not None:
                lines.append(f"{pad}n{i} = "
                             + " + ".join([f"({lo(k)} <= {b})" for k in kids]))
            for k in kids:
                child(k, a, None, b, b and f"n{i} == 1 and {lo(k)} <= {b}",
                      pad)

    block(0, "0" if op == "eq" else None, "0", "    ")
    lines.append("    return changed")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=SHARED_CAP)
def _kernel(op, shape):
    """The compiled kernel of ``op`` over ``shape`` (see ``_kernel_source``):
    one per (op, shape) in the process, of the ``SHARED_CAP`` most recently
    used."""
    namespace = {"Inconsistent": Inconsistent, "mask_bounds": _mask_bounds,
                 "MISS": "expression misses its required bounds"}
    exec(compile(_kernel_source(op, shape), f"<{op} kernel>", "exec"),
         namespace)
    return namespace["kernel"]


class Relation(Propagator):
    """left <= right or left == right over interval expressions.

    ``left - right`` is rewritten into its shape (``shape_of``), whose
    kernel comes from the process-wide table ``_kernel``, compiled the first
    time the shape is built.  Each pass is one kernel call: every node's
    bounds bottom-up, then the root required to be at most 0 (exactly 0
    for ``eq``) top-down.  Relations link the property layer's measured
    totals to the column counts, so they run in the last tier (see
    ``Propagator``).
    """

    priority = 2

    def __init__(self, op, left, right):
        if op not in ("le", "eq"):
            raise ValueError("op must be 'le' or 'eq'")
        self.op = op
        shape, self._vids = shape_of(SumE([left, ScaleE(-1, right)]))
        self._kernel = _kernel(op, shape)

    def variables(self):
        return self._vids

    def _pass(self, store):
        return self._kernel(store, self._vids)


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

    def entailed(self, cells, _lo, _hi):
        """The extremes' sums lie inside the bounds, so every completion's
        sum does."""
        ext = self.values
        return (self.lo <= sum(ext[(dm & -dm).bit_length() - 1] for dm in cells)
                and sum(ext[dm.bit_length() - 1] for dm in cells) <= self.hi)


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
    rows[i] holds row i's (shortest, longest stretch) resource ids.  The
    windows are instantiated at the weakest sound point of the rows' box
    (the least row minimum, the greatest row maximum) and re-derived
    whenever that point moves, so they tighten as the length bounds
    tighten; they narrow only the counts.  A property link, so it runs in
    the last tier (see ``Propagator``).
    """

    priority = 2

    def __init__(self, cards, rows):
        self.cards = list(cards)
        self.rows = list(rows)
        leaves = [v for c in self.cards for v in shape_of(c)[1]]
        self._vids = list(dict.fromkeys(leaves + [v for r in rows for v in r]))
        self._windows = {}  # box -> relations

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
            cap = ConstE((b - a + 1) * len(self.rows))
            for ks, d in ((range(K - b), -1), (range(b, K), 1)):
                for k in ks:
                    terms = [cards[k - d * j] for j in range(a, b + 1)]
                    rels.append(Relation(
                        "le", SumE([stretch_edge(cards, k, d)] + terms), cap))
        return rels

    def _pass(self, store):
        # The windows depend only on this point, so each point's relations
        # are built once and kept for when search returns to it.
        box = (min([store.vmin(lo) for lo, _ in self.rows]),
               max([store.vmax(hi) for _, hi in self.rows]))
        rels = self._windows.get(box)
        if rels is None:
            rels = self._windows[box] = self._build(*box)
        return any([rel._pass(store) for rel in rels])
