"""Deterministic and weighted finite automata over integer alphabets.

Automata here are total: every (state, symbol) pair has a transition, and dead
states are explicit (``Dfa.from_partial`` completes a partial table with a
sink).  A weighted automaton attaches, per resource, an integer cost to each
transition, optionally position dependent; running it over a word yields one
total per resource.

All objects are immutable after construction and safe to share between models.
Products and the measuring automata of the string properties are shared:
``WeightedDfa.product`` looks its result up by the operands' content, and
each measuring-automaton builder returns one automaton per argument tuple,
so equal rules get one object and compile its arc tables once per process.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from operator import add, sub

# Most products the process keeps (``WeightedDfa.product``) and most
# automata each measuring-automaton builder keeps; the least recently used
# is evicted first.  ``SHARED_CAP`` also bounds the layouts each row rule
# keeps (``model.build``), the oldest evicted first.
PRODUCT_CAP = 64
SHARED_CAP = 256

# (word length, content key, content key) -> product, least recently used
# first.
_PRODUCTS = OrderedDict()


class AutomatonError(ValueError):
    """Invalid automaton construction or use."""


def _alphabet(symbols):
    alphabet = tuple(symbols)
    if len(set(alphabet)) != len(alphabet) or not alphabet:
        raise AutomatonError("alphabet must be a nonempty list of distinct symbols")
    return alphabet


class Dfa:
    """Total deterministic finite automaton.

    States are 0..n_states-1, the alphabet is an ordered tuple of distinct
    integers (negative symbols are allowed), transitions must cover every
    (state, symbol) pair.  They are stored as one row of targets per state,
    in alphabet order.
    """

    __slots__ = ("n_states", "alphabet", "start", "accepting", "_col", "_rows")

    def __init__(self, n_states, alphabet, transitions, start, accepting):
        if n_states <= 0:
            raise AutomatonError("automaton needs at least one state")
        alphabet = _alphabet(alphabet)
        if not 0 <= start < n_states:
            raise AutomatonError("start state out of range")
        accepting = frozenset(accepting)
        if not all(0 <= q < n_states for q in accepting):
            raise AutomatonError("accepting state out of range")
        col = {v: j for j, v in enumerate(alphabet)}
        rows = [[None] * len(alphabet) for _ in range(n_states)]
        transitions = dict(transitions)
        for (q, v), q2 in transitions.items():
            if not (0 <= q < n_states and 0 <= q2 < n_states):
                raise AutomatonError(f"transition ({q},{v})->{q2} out of range")
            if v not in col:
                raise AutomatonError(f"transition on unknown symbol {v}")
            rows[q][col[v]] = q2
        missing = n_states * len(alphabet) - len(transitions)
        if missing:
            raise AutomatonError(
                f"transition table not total ({missing} pairs missing); "
                "use Dfa.from_partial to add an explicit sink"
            )
        self._set(alphabet, [tuple(row) for row in rows], start, accepting)

    def _set(self, alphabet, rows, start, accepting):
        self.n_states = len(rows)
        self.alphabet = alphabet
        self.start = start
        self.accepting = frozenset(accepting)
        self._col = {v: j for j, v in enumerate(alphabet)}
        self._rows = rows

    @classmethod
    def from_rows(cls, alphabet, rows, start, accepting):
        """Constructor that trusts the rows: rows[q] holds the targets of q in
        alphabet order, already total and in range (as ``reachable`` numbers
        them).  Only the alphabet is checked."""
        dfa = object.__new__(cls)
        dfa._set(_alphabet(alphabet), rows, start, accepting)
        return dfa

    @classmethod
    def from_partial(cls, n_states, alphabet, transitions, start, accepting):
        """Complete a partial transition table with an explicit dead sink."""
        alphabet = tuple(alphabet)
        transitions = dict(transitions)
        need_sink = any(
            (q, v) not in transitions for q in range(n_states) for v in alphabet
        )
        if need_sink:
            sink = n_states
            n_states += 1
            for q in range(n_states):
                for v in alphabet:
                    transitions.setdefault((q, v), sink)
        return cls(n_states, alphabet, transitions, start, accepting)

    def step(self, q, v):
        return self._rows[q][self._col[v]]

    def transitions(self):
        """All transitions as sorted (state, symbol, target) triples."""
        return sorted(
            (q, v, q2)
            for q, row in enumerate(self._rows)
            for v, q2 in zip(self.alphabet, row)
        )

    def accepts(self, word):
        q = self.start
        for v in word:
            q = self.step(q, v)
        return q in self.accepting

    def _suffix_table(self, length, allowed=None):
        # ok[i][q]: an accepting run of the remaining length-i suffix exists
        # from q, restricted to allowed symbols per position.
        ok = [set() for _ in range(length + 1)]
        ok[length] = set(self.accepting)
        for i in range(length - 1, -1, -1):
            syms = self.alphabet if allowed is None else allowed[i]
            nxt = ok[i + 1]
            ok[i] = {
                q
                for q in range(self.n_states)
                if any(self.step(q, v) in nxt for v in syms)
            }
        return ok

    def words(self, length, allowed=None):
        """Yield accepted words of the given length, lexicographically.

        ``allowed`` optionally restricts each position to a subset of the
        alphabet (any iterable of symbols per position).
        """
        if allowed is not None:
            allowed = [tuple(sorted(set(a) & set(self.alphabet))) for a in allowed]
            if len(allowed) != length:
                raise AutomatonError("allowed sets must match word length")
        ok = self._suffix_table(length, allowed)
        if self.start not in ok[0]:
            return
        word = []

        def rec(q, i):
            if i == length:
                yield tuple(word)
                return
            syms = self.alphabet if allowed is None else allowed[i]
            for v in sorted(syms):
                q2 = self.step(q, v)
                if q2 in ok[i + 1]:
                    word.append(v)
                    yield from rec(q2, i + 1)
                    word.pop()

        yield from rec(self.start, 0)

    def _live_states(self):
        """States from which some accepting state can be reached."""
        preds = [[] for _ in range(self.n_states)]
        for q, row in enumerate(self._rows):
            for q2 in row:
                preds[q2].append(q)
        live = set(self.accepting)
        todo = list(live)
        while todo:
            for q in preds[todo.pop()]:
                if q not in live:
                    live.add(q)
                    todo.append(q)
        return live


class CostMatrices:
    """Per-resource transition costs, optionally position dependent.

    ``base`` maps (resource, state, symbol) to a cost; ``positional`` maps
    (resource, state, symbol, position) to an extra cost added on top of the
    base entry.  Missing entries cost 0.

    Construction turns them into cost vectors (one entry per resource):
    ``self.base[(q, v)]`` and ``self.positional[(q, v)][i]``.  Only nonzero
    vectors are kept, and equal vectors are one shared tuple.
    """

    __slots__ = ("n_resources", "base", "positional")

    def __init__(self, n_resources, base=None, positional=None):
        if n_resources < 0:
            raise AutomatonError("resource count must be nonnegative")
        vectors = {}
        for key, c in dict(base or {}).items():
            if not 0 <= key[0] < n_resources:
                raise AutomatonError(f"cost entry {key} names an unknown resource")
            r, q, v = key
            vectors.setdefault((q, v), [0] * n_resources)[r] = c
        extras = {}
        for key, c in dict(positional or {}).items():
            if not 0 <= key[0] < n_resources:
                raise AutomatonError(f"cost entry {key} names an unknown resource")
            r, q, v, i = key
            per = extras.setdefault((q, v), {})
            per.setdefault(i, [0] * n_resources)[r] = c
        self._set(
            n_resources,
            {key: tuple(vec) for key, vec in vectors.items()},
            {key: {i: tuple(vec) for i, vec in per.items()} for key, per in extras.items()},
        )

    def _set(self, n_resources, base, positional):
        # base and positional hold cost vectors as tuples.
        shared = {}
        self.n_resources = n_resources
        self.base = {
            key: shared.setdefault(vec, vec) for key, vec in base.items() if any(vec)
        }
        self.positional = {}
        for key, per in positional.items():
            per = {i: shared.setdefault(vec, vec) for i, vec in per.items() if any(vec)}
            if per:
                self.positional[key] = per

    @classmethod
    def _from_vectors(cls, n_resources, base, positional):
        """Build from per-(state, symbol) cost vectors in the stored layout."""
        costs = object.__new__(cls)
        costs._set(n_resources, base, positional)
        return costs

    def cost(self, r, q, v, i=None):
        vec = self.base.get((q, v))
        c = vec[r] if vec else 0
        if i is not None and self.positional:
            extra = self.positional.get((q, v), {}).get(i)
            if extra:
                c += extra[r]
        return c


class WeightedDfa:
    """A Dfa plus cost matrices and per-resource interval bounds on totals.

    Every cost entry must name a state and a symbol of the automaton, and a
    positional one a position from 0; AutomatonError names an entry that
    does not.

    The automaton also owns what is derived from it on first use and freed
    with it: the compiled arc tables of its runs (see ``arc_table``), one per
    run length; its ``content_key``; the ``model.achievable_totals`` of each
    run length (``_totals``); its ``count_groups``; and the layouts of the
    models it is the row rule of (``_layouts``, see ``model.build``), one
    per ``model._layout_key``.  Its ``memo_token``, a plain object made
    with it, stands for it in the keys of the process's filter memo
    (``engine.MEMO``), so the memo never keeps the automaton alive, and an
    automaton built again, equal in content or not, gets a new token.
    """

    __slots__ = ("dfa", "costs", "resource_bounds", "memo_token", "_tables",
                 "_key", "_totals", "_groups", "_layouts", "__weakref__")

    def __init__(self, dfa, costs=None, resource_bounds=()):
        resource_bounds = tuple((int(lo), int(hi)) for lo, hi in resource_bounds)
        if costs is None:
            costs = CostMatrices(len(resource_bounds))
        if costs.n_resources != len(resource_bounds):
            raise AutomatonError(
                f"{costs.n_resources} cost matrices but "
                f"{len(resource_bounds)} resource bounds"
            )
        for lo, hi in resource_bounds:
            if lo > hi:
                raise AutomatonError("empty resource bound interval")
        for q, v in [*costs.base, *costs.positional]:
            if not 0 <= q < dfa.n_states:
                raise AutomatonError(f"cost entry on ({q}, {v}): state {q} "
                                     f"out of range 0..{dfa.n_states - 1}")
            if v not in dfa._col:
                raise AutomatonError(f"cost entry on ({q}, {v}): symbol {v} "
                                     "not in the alphabet")
        for (q, v), per in costs.positional.items():
            if min(per) < 0:
                raise AutomatonError(f"cost entry on ({q}, {v}) at position "
                                     f"{min(per)}: positions start at 0")
        self.dfa = dfa
        self.costs = costs
        self.resource_bounds = resource_bounds
        self.memo_token = object()
        self._tables = {}
        self._key = None
        self._totals = {}
        self._groups = None
        self._layouts = {}

    @classmethod
    def plain(cls, dfa):
        """Wrap an unweighted automaton (zero resources)."""
        return cls(dfa, CostMatrices(0), ())

    @property
    def n_resources(self):
        return self.costs.n_resources

    def run_weighted(self, word):
        """Run over a word; return (accepted, totals per resource)."""
        q = self.dfa.start
        totals = [0] * self.n_resources
        for i, v in enumerate(word):
            for r in range(self.n_resources):
                totals[r] += self.costs.cost(r, q, v, i)
            q = self.dfa.step(q, v)
        return q in self.dfa.accepting, tuple(totals)

    def accepts_within_bounds(self, word):
        ok, totals = self.run_weighted(word)
        if not ok:
            return False
        return all(
            lo <= t <= hi for t, (lo, hi) in zip(totals, self.resource_bounds)
        )

    def content_key(self):
        """A hashable key equal for two automata exactly when they have the
        same alphabet order, rows, start, accepting states, base and
        positional costs and resource bounds.  Computed once and kept."""
        key = self._key
        if key is None:
            d, c = self.dfa, self.costs
            key = self._key = (
                d.alphabet, tuple(d._rows), d.start, tuple(sorted(d.accepting)),
                tuple(sorted(c.base.items())),
                tuple(sorted((qv, tuple(sorted(per.items())))
                             for qv, per in c.positional.items())),
                self.resource_bounds,
            )
        return key

    def count_groups(self):
        """The value groups the resources count, as ``(group, r)`` in
        resource order.  Resource r counts the nonempty symbol set ``group``
        when every transition leaving a state on some accepting run costs 1
        on r if it reads a symbol of the group and 0 otherwise, and no
        positional entry of such a transition costs anything on r.  Computed
        once and kept."""
        groups = self._groups
        if groups is None:
            d, costs, n = self.dfa, self.costs, self.n_resources
            states = set(reachable(d.start, d._rows.__getitem__)[0])
            states &= d._live_states()
            zero = (0,) * n
            rows = {tuple(costs.base.get((q, v), zero) for v in d.alphabet)
                    for q in states}
            positional = {r for (q, _), per in costs.positional.items()
                          if q in states
                          for vec in per.values() for r in range(n) if vec[r]}
            groups = []
            for r in range(n):
                # r's cost on each symbol, one tuple per distinct state row
                per_state = {tuple(vec[r] for vec in row) for row in rows}
                if len(per_state) == 1 and r not in positional:
                    (col,) = per_state
                    if {0, 1} >= set(col) and 1 in col:
                        group = frozenset(v for v, c in zip(d.alphabet, col) if c)
                        groups.append((group, r))
            groups = self._groups = tuple(groups)
        return groups

    def arc_table(self, n):
        """Compiled arcs of the runs of length n, cached on the automaton.

        ``table.layers[i][q]`` is a tuple of arcs ``(q, v, q2, cost)``
        leaving state q at position i, one per symbol v whose target q2 can
        still reach an accepting state.  Layers without positional costs
        share one per-state list.  ``cost`` is None for a zero cost vector,
        else the envelope step ``(c_0.., -c_0..)`` packed into one int by
        ``table.packing``, whose field width fits every path cost of n arcs
        (see ``Packing``), so adding it to an envelope is one ``+``.
        """
        table = self._tables.get(n)
        if table is None:
            table = self._tables[n] = self._compile(n)
        return table

    def _compile(self, n):
        d = self.dfa
        live = d._live_states()
        base = self.costs.base
        extras = {}  # (position, state) -> symbol -> full cost vector there
        for (q, v), per in self.costs.positional.items():
            b = base.get((q, v))
            for i, vec in per.items():
                if i < n:
                    extras.setdefault((i, q), {})[v] = (
                        vec if b is None else tuple(map(add, b, vec)))
        vectors = [*base.values(), *(v for e in extras.values() for v in e.values())]
        top = max(max(map(max, vectors), default=0),
                  -min(map(min, vectors), default=0))
        packing = Packing(2 * self.n_resources, n * top)
        packed = {}

        def arcs(q, extra):
            out = []
            for v, q2 in zip(d.alphabet, d._rows[q]):
                if q2 not in live:
                    continue
                vec = extra[v] if v in extra else base.get((q, v))
                cost = None
                if vec is not None and any(vec):
                    cost = packed.get(vec)
                    if cost is None:
                        cost = packed[vec] = packing.pack(vec + tuple(-c for c in vec))
                out.append((q, v, q2, cost))
            return tuple(out)

        shared = [arcs(q, {}) for q in range(d.n_states)]
        layers = [shared] * n
        for (i, q), extra in extras.items():
            if layers[i] is shared:
                layers[i] = list(shared)
            layers[i][q] = arcs(q, extra)
        return ArcTable(layers, packing)

    def product(self, other, n, max_states=None):
        """Synchronous product for words of length at most ``n``: language
        intersection, resource vectors concatenated (self's resources first).

        Only the pair states reachable in at most n steps are kept, numbered
        breadth first as in the full product; a state first reached at step n
        leads to a rejecting dead state on every symbol.  So on words of
        length at most n the product runs as the full one, and for length n
        its layered graph of accepting runs is the full product's.  With
        ``max_states`` the build stops with ProductTooLarge as soon as the
        product needs more states.

        Products are shared.  The result is kept in one process-wide table
        under n and both operands' ``content_key``, and a later call with
        content-equal operands returns the same object, arc tables and all;
        the table keeps the ``PRODUCT_CAP`` most recently used.  On such a
        hit, a ``max_states`` below the product's state count raises
        ProductTooLarge as the build would.  A build that raises is not kept.
        """
        key = (n, self.content_key(), other.content_key())
        out = _PRODUCTS.get(key)
        if out is None:
            out = self._build_product(other, n, max_states)
            if len(_PRODUCTS) >= PRODUCT_CAP:
                _PRODUCTS.popitem(last=False)
            _PRODUCTS[key] = out
        else:
            _PRODUCTS.move_to_end(key)
            if max_states is not None and out.dfa.n_states > max_states:
                raise ProductTooLarge(f"automaton needs more than {max_states} states")
        return out

    def _build_product(self, other, n, max_states=None):
        """``product`` built afresh, bypassing the shared table."""
        a, b = self.dfa, other.dfa
        if set(a.alphabet) != set(b.alphabet):
            raise AutomatonError("product operands must share the alphabet")
        alphabet = a.alphabet
        a_rows = a._rows
        b_col = [b._col[v] for v in alphabet]
        b_rows = [tuple(row[j] for j in b_col) for row in b._rows]
        dead = (None,) * len(alphabet)
        step = {(a.start, b.start): 0}  # pair -> step it is first reached at

        def successors(p):
            if p is None or step[p] == n:
                return dead
            out = tuple(zip(a_rows[p[0]], b_rows[p[1]]))
            nxt = step[p] + 1
            for s in out:
                step.setdefault(s, nxt)
            return out

        order, rows = reachable((a.start, b.start), successors, max_states)
        if order[-1] is None:  # numbered last: only step-n states reach it
            order.pop()
        accepting = [
            i for i, (qa, qb) in enumerate(order)
            if qa in a.accepting and qb in b.accepting
        ]
        dfa = Dfa.from_rows(alphabet, rows, 0, accepting)

        zero_a = (0,) * self.n_resources
        zero_b = (0,) * other.n_resources
        ca, cb = self.costs, other.costs
        base = {}
        positional = {}
        for i, (qa, qb) in enumerate(order):
            for v in alphabet:
                x, y = ca.base.get((qa, v)), cb.base.get((qb, v))
                if x or y:
                    base[(i, v)] = (x or zero_a) + (y or zero_b)
                px, py = ca.positional.get((qa, v), {}), cb.positional.get((qb, v), {})
                if px or py:
                    positional[(i, v)] = {
                        pos: px.get(pos, zero_a) + py.get(pos, zero_b)
                        for pos in px.keys() | py.keys()
                    }
        costs = CostMatrices._from_vectors(
            self.n_resources + other.n_resources, base, positional
        )
        return WeightedDfa(dfa, costs, self.resource_bounds + other.resource_bounds)


class ProductTooLarge(AutomatonError):
    """A product build passed its ``max_states`` limit."""


def reachable(start, successors, max_states=None):
    """Number the keys reachable from ``start`` breadth first.

    ``successors(key)`` gives one next key per alphabet symbol, in alphabet
    order.  Returns the keys in numbering order (``start`` is 0) and, for
    each, the tuple of its successors' numbers: the rows of
    ``Dfa.from_rows``.  A dead end is an ordinary key (such as None) whose
    successors are itself.  With ``max_states`` the walk stops with
    ProductTooLarge as soon as it needs more keys.
    """
    index = {start: 0}
    keys = [start]
    rows = []
    for key in keys:  # keys grows while it is walked
        row = []
        for nxt in successors(key):
            q = index.get(nxt)
            if q is None:
                q = index[nxt] = len(keys)
                if max_states is not None and q >= max_states:
                    raise ProductTooLarge(
                        f"automaton needs more than {max_states} states"
                    )
                keys.append(nxt)
            row.append(q)
        rows.append(tuple(row))
    return keys, rows


# -- layered graph of runs ------------------------------------------------------
#
# The graph of the runs of length n has one layer per position; its arcs are
# the compiled ``(q, v, q2, cost)`` tuples of ``WeightedDfa.arc_table``, held
# in one list per layer.  ``Mcr`` and ``achievable_totals`` both run on it,
# in sweeps: ``sweep_forward`` and ``sweep_backward`` with cost envelopes.  A
# plain automaton runs the same sweeps; its envelopes are empty (0).


class Packing:
    """Integer vectors packed into one int, one fixed-width field per slot.

    Built for vectors of ``n_slots`` slots whose path sums stay within
    ``[-bound, bound]`` in every slot.  A field is ``width = (max(bound,
    1)).bit_length() + 3`` bits wide and a value is stored offset by ``bias
    = 2**(width-3)``, which exceeds ``bound``.  An envelope adds up one seed
    (``bias`` in every field) and the costs of a path, so its fields lie in
    ``[bias-bound, bias+bound]``; a through-sum (forward envelope, arc cost,
    backward envelope: two seeds) lies in ``[bias, 3*bias]``.  Every field
    stays positive and below ``2**(width-1)``, so the top bit of each field,
    the guard bit, is never set by a value, and no carry or borrow crosses a
    field: ``x + y`` adds the vectors slot by slot, even for costs that pack
    negative slots (``pack`` is linear).
    """

    __slots__ = ("n_slots", "width", "bias", "guard", "low", "seed")

    def __init__(self, n_slots, bound):
        self.n_slots = n_slots
        self.width = w = max(bound, 1).bit_length() + 3
        self.bias = 1 << (w - 3)
        ones = sum(1 << (s * w) for s in range(n_slots))
        self.guard = ones << (w - 1)   # the top bit of every field
        self.low = (1 << (w - 1)) - 1  # the value bits of one field
        self.seed = self.bias * ones

    def pack(self, vec):
        """The int holding ``vec`` unbiased: an arc cost."""
        w = self.width
        return sum(c << (s * w) for s, c in enumerate(vec))

    def unpack(self, env):
        """The slot values of an envelope (one seed's bias removed)."""
        w, low, bias = self.width, self.low, self.bias
        return [((env >> (s * w)) & low) - bias for s in range(self.n_slots)]

    def least(self, envs):
        """The slot-by-slot minimum of envelopes (branch free per pair: the
        guard bit of ``(x | guard) - y`` survives in a field iff x >= y)."""
        guard, shift = self.guard, self.width - 1
        it = iter(envs)
        x = next(it)
        for y in it:
            g = ((x | guard) - y) & guard
            x ^= (x ^ y) & (g - (g >> shift))
        return x

    def ceiling(self, limits):
        """Packed per-slot ``limits`` on through-sums, for the test
        ``(ceiling - through) & guard != guard``, true iff some slot of the
        through-sum exceeds its limit.  Each field holds its limit plus two
        biases, below the guard bit that is set in it, so the subtraction
        borrows across no field.  The limits must lie within ``[-bound,
        bound]``, as bounds already tightened to the envelope do."""
        return self.guard | (2 * self.seed + self.pack(limits))


class ArcTable:
    """The compiled arcs of the runs of one length (``layers``) and the
    ``Packing`` of their costs."""

    __slots__ = ("layers", "packing")

    def __init__(self, layers, packing):
        self.layers = layers
        self.packing = packing


def sweep_forward(table, start, doms=None, arcs=None, env=None, first=0):
    """The forward sweep of the layered graph: its arcs and their forward
    cost envelopes, in one pass.

    The sweep walks the per-layer arc lists ``arcs`` when given (the arcs a
    backward sweep kept), else the arcs of ``table`` (an ``ArcTable``)
    whose symbol the mask doms[i] holds (every arc when doms is None).
    Either way it keeps only the arcs whose source it reached from
    ``start``.  Returns the kept arc lists and the envelopes: ``env[i]``
    maps each state reached at layer i to the envelope of the paths from
    ``start`` to it, so its keys are the states reached there.

    Given ``arcs``, the envelopes ``env`` of the sweep they came from and
    the lowest layer ``first`` where the backward sweep cut an arc
    (``sweep_backward``), it resumes there: it keeps ``arcs[:first]`` and
    ``env[:first + 1]`` and sweeps the layers from ``first`` on.  That is
    exact.  Below ``first`` the backward sweep dropped only arcs off every
    accepting run, and a path to the source of a kept arc passes only
    states on an accepting run, so it kept every such path: the source's
    envelope is unchanged.  ``env[:first + 1]`` may still hold states that
    are off every run; no kept arc leaves them, so no sweep reads them.

    An envelope packs the per-resource minimum and negated maximum path cost
    ``(min_0.., -max_0..)`` into one int with the table's ``packing``, each
    slot offset by its bias: ``start`` holds ``packing.seed``.  Adding a
    packed arc cost is one ``+``, which moves both bounds, and merging two
    envelopes is one slot-by-slot minimum (``Packing.least``).  Since every
    path has at most as many arcs as the table has layers, the fields stay
    within the packing's width and no borrow crosses a field.
    """
    packing = table.packing
    guard, shift = packing.guard, packing.width - 1
    env = [{start: packing.seed}] if env is None else env[:first + 1]
    cur = env[-1]
    if arcs is None:
        kept = []
        layers = table.layers
    else:
        kept = arcs[:first]
        layers = arcs[first:]
    for i, layer in enumerate(layers, first):
        if arcs is not None:
            layer = [a for a in layer if a[0] in cur]
        elif doms is None:
            layer = [a for q in cur for a in layer[q]]
        else:
            dom = doms[i]
            layer = [a for q in cur for a in layer[q] if dom >> a[1] & 1]
        nxt = {}
        for q, _, q2, cost in layer:
            e = cur[q]
            if cost is not None:
                e += cost
            old = nxt.get(q2)
            if old is not None and old != e:
                g = ((old | guard) - e) & guard  # Packing.least, inlined
                e = old ^ ((old ^ e) & (g - (g >> shift)))
            nxt[q2] = e
        kept.append(layer)
        env.append(nxt)
        cur = nxt
    return kept, env


def sweep_backward(arcs, env, finals, packing, ceiling=None):
    """The backward sweep of the layered graph: the arcs on a path to
    ``finals``, cut to the through-cost ``ceiling`` when one is given.

    Seeded with ``packing.seed`` at the states of ``finals`` after the last
    layer, it walks the arcs of a forward sweep (``sweep_forward``, whose
    envelopes are ``env``) from the last layer back.  An arc whose target no
    longer reaches ``finals`` is dropped.  Every other arc adds its cost to
    its target's backward envelope and merges the sum into its source's.
    With a ``ceiling`` (``Packing.ceiling``) the arc is also cut when its
    through-cost, forward envelope + cost + backward envelope, exceeds the
    ceiling in some slot.  A cut arc still merges into its source's
    envelope, so every decision reads the envelopes of the graph as the
    sweep found it.  Replaces each ``arcs[i]`` by the arcs kept there and
    returns the mask of their symbols per layer and the lowest layer where
    an arc was cut, or None when none was.
    """
    guard, shift = packing.guard, packing.width - 1
    n = len(arcs)
    masks = [0] * n
    first = None
    cur = dict.fromkeys(finals, packing.seed)
    for i in range(n - 1, -1, -1):
        fwd = env[i]
        nxt = {}
        kept = []
        mask = 0
        for a in arcs[i]:
            q, v, q2, cost = a
            e = cur.get(q2)
            if e is None:
                continue
            if cost is not None:
                e += cost
            if ceiling is not None and (ceiling - fwd[q] - e) & guard != guard:
                first = i
            else:
                kept.append(a)
                mask |= 1 << v
            old = nxt.get(q)
            if old is not None and old != e:
                g = ((old | guard) - e) & guard  # Packing.least, inlined
                e = old ^ ((old ^ e) & (g - (g >> shift)))
            nxt[q] = e
        arcs[i] = kept
        masks[i] = mask
        cur = nxt
    return masks, first


def universal_dfa(alphabet):
    """One accepting state, every symbol loops."""
    alphabet = tuple(alphabet)
    return Dfa(1, alphabet, {(0, v): 0 for v in alphabet}, 0, {0})


def build_gcc_weights(alphabet, groups=None, bounds=None):
    """Universal one-state automaton counting symbol-group occurrences.

    One resource per group (default: one singleton group per symbol), cost 1
    whenever a symbol of the group is read.
    """
    alphabet = tuple(alphabet)
    if groups is None:
        groups = [frozenset((v,)) for v in alphabet]
    groups = [frozenset(g) for g in groups]
    for g in groups:
        if not g or not g <= set(alphabet):
            raise AutomatonError("count groups must be nonempty alphabet subsets")
    dfa = universal_dfa(alphabet)
    base = {}
    for r, g in enumerate(groups):
        for v in g:
            base[(r, 0, v)] = 1
    if bounds is None:
        bounds = [(0, 10**9)] * len(groups)
    return WeightedDfa(dfa, CostMatrices(len(groups), base), bounds)


def _check_stretch_set(vhat, alphabet):
    """Raise AutomatonError unless the set vhat is a proper nonempty subset
    of the alphabet."""
    if not vhat or not vhat < set(alphabet):
        raise AutomatonError(
            "stretch symbol set must be a proper nonempty subset of the alphabet"
        )


def _in_stretch_dfa(vhat, alphabet):
    """Two accepting states: 1 after a symbol of vhat, 0 after any other.
    vhat must be a proper nonempty subset of the alphabet."""
    _check_stretch_set(vhat, alphabet)
    trans = {(q, v): int(v in vhat) for q in (0, 1) for v in alphabet}
    return Dfa(2, alphabet, trans, 0, {0, 1})


def build_stretch_count(vhat, alphabet):
    """Two-state automaton counting maximal runs of symbols in vhat.

    Cost 1 is paid on each transition that enters a run; every word is
    accepted, so the single resource totals the number of maximal stretches
    (``achievable_totals`` bounds it by the row length: at most ceil(n/2)).
    Shared: one automaton per (vhat, alphabet), of the ``SHARED_CAP`` most
    recently used, for every row length.
    """
    return _stretch_count(frozenset(vhat), tuple(alphabet))


@lru_cache(maxsize=SHARED_CAP)
def _stretch_count(vhat, alphabet):
    dfa = _in_stretch_dfa(vhat, alphabet)
    base = {(0, 0, v): 1 for v in alphabet if v in vhat}
    return WeightedDfa(dfa, CostMatrices(1, base), [(0, 10**9)])


def build_word_occurrence(pattern, k, n, alphabet):
    """Automaton flagging one occurrence of a symbol-set word at position k.

    ``pattern`` is a sequence of symbol sets; the single resource totals 1
    exactly when positions k..k+len(pattern)-1 all hit their sets.  Words that
    fail the pattern fall into an absorbing (still accepting) state, so the
    automaton measures and never filters.  Intended for words of length n
    (shorter words may end mid-chain and be rejected).
    """
    alphabet = tuple(alphabet)
    pattern = [frozenset(p) for p in pattern]
    m = len(pattern)
    if m < 1:
        raise AutomatonError("pattern must be nonempty")
    if k < 0 or k + m > n:
        raise AutomatonError("pattern does not fit at that position")
    for p in pattern:
        if not p or not p <= set(alphabet):
            raise AutomatonError("pattern sets must be nonempty alphabet subsets")
    # States: 0..k-1 skip chain, k..k+m-1 matching chain, k+m matched,
    # k+m+1 absorbing mismatch.
    matched = k + m
    reject = k + m + 1
    trans = {}
    base = {}
    for i in range(k):
        for v in alphabet:
            trans[(i, v)] = i + 1
    for j in range(m):
        q = k + j
        for v in alphabet:
            if v in pattern[j]:
                trans[(q, v)] = q + 1
                if j == m - 1:
                    base[(0, q, v)] = 1
            else:
                trans[(q, v)] = reject
    for v in alphabet:
        trans[(matched, v)] = matched
        trans[(reject, v)] = reject
    dfa = Dfa(reject + 1, alphabet, trans, 0, {matched, reject})
    return WeightedDfa(dfa, CostMatrices(1, base), [(0, 1)])


def build_sliding_word_counter(pattern, n, alphabet):
    """One automaton flagging a symbol-set word at every start position.

    Resource j totals 1 exactly when the word occurs starting at position j
    (j = 0..n-len(pattern)), and a final extra resource sums all the flags.
    The state is the last len(pattern)-1 symbols read (padded with the first
    alphabet symbol before the word starts; padding can never produce a flag
    because costs are position gated).  Shared: one automaton per (pattern,
    n, alphabet), of the ``SHARED_CAP`` most recently used.
    """
    return _sliding_word_counter(tuple(frozenset(p) for p in pattern), n,
                                 tuple(alphabet))


@lru_cache(maxsize=SHARED_CAP)
def _sliding_word_counter(pattern, n, alphabet):
    m = len(pattern)
    if m < 1 or m > n:
        raise AutomatonError("pattern length must be between 1 and the word length")
    for p in pattern:
        if not p or not p <= set(alphabet):
            raise AutomatonError("pattern sets must be nonempty alphabet subsets")
    hists, rows = reachable(
        (alphabet[0],) * (m - 1), lambda h: [(h + (v,))[1:] for v in alphabet]
    )
    n_flags = n - m + 1
    positional = {}
    for qi, h in enumerate(hists):
        if not all(h[j] in pattern[j] for j in range(m - 1)):
            continue
        for v in pattern[m - 1]:
            # A full match can only end at positions >= m-1, which also
            # rules out any padded history.
            for end in range(m - 1, n):
                positional[(end - m + 1, qi, v, end)] = 1
                positional[(n_flags, qi, v, end)] = 1
    dfa = Dfa.from_rows(alphabet, rows, 0, range(len(hists)))
    bounds = [(0, 1)] * n_flags + [(0, n_flags)]
    return WeightedDfa(dfa, CostMatrices(n_flags + 1, {}, positional), bounds)


def build_stretch_length_bounds(vhat, alphabet, n):
    """Weighted automaton with (min stretch length, max stretch length) totals.

    The min resource reads n+1 when the word has no stretch at all, so a case
    rule "every stretch of vhat is at least lo long" is the interval
    [lo, n+1] and "at most hi" is [0, hi] on the max resource.

    A state is the start None or (current run length, saturating at n;
    shortest finished run, n+1 for none; longest run).  A transition costs
    the change in (min, max), where min counts the current run too, and the
    transitions out of the start pay the full values.  Every state accepts.
    Shared: one automaton per (vhat, alphabet, n), of the ``SHARED_CAP``
    most recently used.
    """
    return _stretch_length_bounds(frozenset(vhat), tuple(alphabet), n)


@lru_cache(maxsize=SHARED_CAP)
def _stretch_length_bounds(vhat, alphabet, n):
    _check_stretch_set(vhat, alphabet)

    def successors(key):
        cur, shortest, longest = key or (0, n + 1, 0)
        run = min(cur + 1, n)
        extend = (run, shortest, max(longest, run))
        finish = (0, min(shortest, cur or n + 1), longest)
        return [extend if v in vhat else finish for v in alphabet]

    def totals(key):
        if key is None:
            return (0, 0)
        cur, shortest, longest = key
        return (min(shortest, cur or n + 1), longest)

    order, rows = reachable(None, successors)
    base = {
        (q, v): tuple(map(sub, totals(order[q2]), totals(key)))
        for q, key in enumerate(order)
        for v, q2 in zip(alphabet, rows[q])
    }
    return WeightedDfa(
        Dfa.from_rows(alphabet, rows, 0, range(len(order))),
        CostMatrices._from_vectors(2, base, {}),
        [(1, n + 1), (0, n)],
    )


def stretch_length_dfa(vhat, alphabet, lo, hi=None):
    """Filter accepting words whose maximal vhat-runs all have length in [lo, hi].

    ``hi=None`` means unbounded above.  Runs cut by the word end still count.
    """
    alphabet = tuple(alphabet)
    vhat = frozenset(vhat)
    if not vhat <= set(alphabet):
        raise AutomatonError("stretch symbols must come from the alphabet")
    if lo < 1:
        lo = 1
    cap = hi if hi is not None else lo
    if hi is not None and lo > hi:
        raise AutomatonError("empty stretch length interval")
    # State 0: outside a run; state j (1..cap): inside a run of length j
    # (length saturates at cap when unbounded above).
    trans = {}
    for v in alphabet:
        trans[(0, v)] = 1 if v in vhat else 0
        for j in range(1, cap + 1):
            if v in vhat:
                if j < cap:
                    trans[(j, v)] = j + 1
                elif hi is None:
                    trans[(j, v)] = j
                # else: overlong run, handled by from_partial sink
            else:
                if j >= lo:
                    trans[(j, v)] = 0
                # else: run ended short, sink
    accepting = {0} | {j for j in range(lo, cap + 1)}
    return Dfa.from_partial(cap + 1, alphabet, trans, 0, accepting)


def sequence_window_dfa(vhat, alphabet, window, lo, hi):
    """Filter: every length-``window`` sliding window holds between lo and hi
    symbols from vhat.  Windows only start counting once the word is long
    enough, so words shorter than the window are unconstrained.
    """
    alphabet = tuple(alphabet)
    vhat = frozenset(vhat)
    if not vhat <= set(alphabet):
        raise AutomatonError("window symbols must come from the alphabet")
    if window < 1 or lo > hi:
        raise AutomatonError("bad window specification")
    # State: tuple of the last up-to-(window-1) membership bits, None once
    # a window is violated.
    bits = [1 if v in vhat else 0 for v in alphabet]

    def successors(h):
        if h is None:
            return [None] * len(bits)
        if len(h) < window - 1:
            return [h + (bit,) for bit in bits]
        return [(h + (bit,))[1:] if lo <= sum(h) + bit <= hi else None
                for bit in bits]

    order, rows = reachable((), successors)
    accepting = [i for i, h in enumerate(order) if h is not None]
    return Dfa.from_rows(alphabet, rows, 0, accepting)


def dump_automaton(wdfa):
    """Render a weighted automaton in the line-oriented text form.

    Transitions read ``trans q symbol q' [r:cost]*``; ``poscost`` lines add
    position-dependent extras.  ``parse_automaton`` inverts this exactly.
    """
    if isinstance(wdfa, Dfa):
        wdfa = WeightedDfa.plain(wdfa)
    d = wdfa.dfa
    lines = [f"wdfa {d.n_states} {d.start}"]
    lines.append("alphabet " + " ".join(str(v) for v in d.alphabet))
    lines.append("accept " + " ".join(str(q) for q in sorted(d.accepting)))
    lines.append(f"resources {wdfa.n_resources}")
    for r, (lo, hi) in enumerate(wdfa.resource_bounds):
        lines.append(f"bound {r} {lo} {hi}")
    for q, v, q2 in d.transitions():
        vec = wdfa.costs.base.get((q, v), ())
        costs = [f"{r}:{c}" for r, c in enumerate(vec) if c]
        lines.append(f"trans {q} {v} {q2}" + ("" if not costs else " " + " ".join(costs)))
    extras = sorted(
        (r, q, v, i, c)
        for (q, v), per in wdfa.costs.positional.items()
        for i, vec in per.items()
        for r, c in enumerate(vec)
        if c
    )
    for r, q, v, i, c in extras:
        lines.append(f"poscost {q} {v} {i} {r}:{c}")
    return "\n".join(lines) + "\n"


def clean_lines(text):
    """Numbered non-blank lines of ``text`` with '#' comments stripped."""
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        ln = raw.split("#", 1)[0].strip()
        if ln:
            out.append((no, ln))
    return out


def check_fields(parts, fields):
    """Raise ValueError unless the split line ``parts`` has the ``fields``
    after its tag.  A last field ``x ...`` repeats x one or more times, a
    last ``[x ...]`` zero or more times; empty ``fields`` allow none."""
    names = fields.split()
    last = names[-1] if names else ""
    repeat = last in ("...", "...]")
    need = len(names) - repeat - (last == "...]")
    got = len(parts) - 1
    if got < need or (got > need and not repeat):
        want = f"needs fields {fields}" if fields else "takes no fields"
        raise ValueError(f"{parts[0]} {want}: {' '.join(parts)}")


def check_once(seen, what, no):
    """Record in ``seen`` that line ``no`` sets ``what``; raise ValueError
    naming the earlier line if one already did."""
    if what in seen:
        raise ValueError(f"{what} already set on line {seen[what]}")
    seen[what] = no


# The fields after each automaton line's tag (see ``check_fields``).
AUTOMATON_FIELDS = {
    "wdfa": "states start",
    "alphabet": "symbol ...",
    "accept": "[state ...]",
    "resources": "count",
    "bound": "resource lo hi",
    "trans": "state symbol target [resource:cost ...]",
    "poscost": "state symbol position resource:cost ...",
}


def parse_automaton(text):
    """Parse the text form produced by dump_automaton.

    ``text`` is the text or its lines numbered as ``clean_lines`` returns
    them, and errors name the line at fault by that number: among others a
    line that sets again what an earlier line set, or that names a state,
    symbol or resource the automaton does not have.  '#' comments are
    ignored.  Transitions left out go to a rejecting sink
    (``Dfa.from_partial``).
    """
    lines = clean_lines(text) if isinstance(text, str) else list(text)
    if not lines:
        raise AutomatonError("automaton text is empty")
    first = lines[0][0]
    alphabet = accept = None
    n_res = 0
    bounds, trans, base, positional = {}, {}, {}, {}
    seen = {}  # what a line sets -> the number of the line that set it
    refs = []  # (line, kind, number) of every state, symbol and resource named
    for no, ln in lines:
        parts = ln.split()
        tag = parts[0]
        try:
            if (tag == "wdfa") != (no == first):
                raise ValueError("automaton text must start with its one "
                                 f"'wdfa' line: {ln}")
            if tag not in AUTOMATON_FIELDS:
                raise ValueError(f"unknown automaton line: {ln}")
            check_fields(parts, AUTOMATON_FIELDS[tag])
            sets = [tag]
            if tag == "wdfa":
                n_states, start = int(parts[1]), int(parts[2])
                if n_states < 1:
                    raise ValueError(f"automaton needs at least one state: {ln}")
                refs.append((no, "state", start))
            elif tag == "alphabet":
                alphabet = tuple(int(x) for x in parts[1:])
                if len(set(alphabet)) < len(alphabet):
                    raise ValueError(f"alphabet repeats a symbol: {ln}")
            elif tag == "accept":
                accept = {int(x) for x in parts[1:]}
                refs += [(no, "state", q) for q in accept]
            elif tag == "resources":
                n_res = int(parts[1])
                if n_res < 0:
                    raise ValueError(f"resource count must be nonnegative: {ln}")
            elif tag == "bound":
                r, lo, hi = (int(p) for p in parts[1:])
                if lo > hi:
                    raise ValueError(f"empty bound interval: {ln}")
                sets = [f"bound of resource {r}"]
                refs.append((no, "resource", r))
                bounds[r] = (lo, hi)
            else:
                q, v, x = (int(p) for p in parts[1:4])
                costs = [tok.split(":") for tok in parts[4:]]
                if any(len(rc) != 2 for rc in costs):
                    raise ValueError(f"costs read resource:cost: {ln}")
                costs = [(int(r), int(c)) for r, c in costs]
                refs += [(no, "state", q), (no, "symbol", v)]
                refs += [(no, "resource", r) for r, _ in costs]
                if tag == "trans":
                    refs.append((no, "state", x))
                    sets = [f"transition ({q}, {v})"]
                    sets += [f"cost of resource {r} on ({q}, {v})"
                             for r, _ in costs]
                    trans[(q, v)] = x
                    base.update(((r, q, v), c) for r, c in costs)
                else:
                    if x < 0:
                        raise ValueError(f"position {x} is negative: {ln}")
                    sets = [f"cost of resource {r} on ({q}, {v}) at position {x}"
                            for r, _ in costs]
                    positional.update(((r, q, v, x), c) for r, c in costs)
            for what in sets:
                check_once(seen, what, no)
        except ValueError as exc:
            raise AutomatonError(f"line {no}: {exc}") from exc
    if alphabet is None or accept is None:
        raise AutomatonError(
            f"line {first}: automaton text missing alphabet or accept line"
        )
    known = {"state": range(n_states), "symbol": alphabet, "resource": range(n_res)}
    for no, kind, x in refs:
        if x not in known[kind]:
            if kind == "symbol":
                where = "not in the alphabet"
            elif known[kind]:
                where = f"out of range 0..{len(known[kind]) - 1}"
            else:
                where = "named, but the automaton declares no resources"
            raise AutomatonError(f"line {no}: {kind} {x} {where}")
    dfa = Dfa.from_partial(n_states, alphabet, trans, start, accept)
    blist = [bounds.get(r, (0, 10**9)) for r in range(n_res)]
    return WeightedDfa(dfa, CostMatrices(n_res, base, positional), blist)
