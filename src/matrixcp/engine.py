"""Finite-domain store, propagation loop, and depth-first search.

Value variables hold small non-negative integers as an int bitmask (bit v set
iff v is in the domain); interval variables hold a ``range`` and are reasoned
on by their bounds.  Propagators subscribe to variables and are woken on any
domain change; three FIFO tiers, cheapest first (see ``Propagator``), run
them to a fixpoint.  Changes are trailed so search can backtrack without
copying the store.

Pure propagator filter results are kept in one memo per process (``MEMO``,
see ``memoised``), which every store uses.  A result depends on its input
only, never on the store, so the memo serves every search node of a solve,
every re-solve of a model (``root_prune`` then ``solve``) and every model
built from the same automata (the rosters of one rule set).  It holds at
most ``MEMO_CAP`` entries.  The library is single-threaded: nothing guards
the memo against concurrent use.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque

# Most entries the filter memo and its token table each keep; the oldest is
# evicted first.
MEMO_CAP = 1 << 14

# The process's filter memo, key -> (changes, failed), and the tokens of the
# hashable memo kinds (see ``memo_token``).
MEMO: OrderedDict = OrderedDict()
TOKENS: OrderedDict = OrderedDict()

# The one entry every filter result that changes nothing and holds shares.
NO_CHANGE = ((), False)


def memo_token(kind):
    """The token that stands for the hashable ``kind`` in memo keys: one
    plain object per distinct kind in ``TOKENS``, equal kinds sharing it.
    It hashes and compares by identity, so a lookup never hashes a nested
    kind.  ``TOKENS`` keeps at most ``MEMO_CAP`` kinds, evicting the oldest
    first; a kind interned again after its eviction gets a new token, which
    loses the entries made under the old one but never confuses two kinds.
    """
    token = TOKENS.get(kind)
    if token is None:
        if len(TOKENS) >= MEMO_CAP:
            TOKENS.popitem(last=False)
        token = TOKENS[kind] = object()
    return token


def memoised(key, filter, *args):
    """``filter(*args)``, looked up under ``key`` in ``MEMO`` first.

    ``key`` must determine the result, in every store.  A new result
    ``(changes, failed)`` is kept as ``(tuple(changes), failed)``, or as
    ``NO_CHANGE`` when it changes nothing and holds, and inserted after
    evicting the oldest entry if the memo holds ``MEMO_CAP`` already (an
    ``OrderedDict``, since finding a plain dict's first key scans the slots
    its earlier deletions left).
    """
    result = MEMO.get(key)
    if result is None:
        changes, failed = filter(*args)
        result = (tuple(changes), failed) if changes or failed else NO_CHANGE
        if len(MEMO) >= MEMO_CAP:
            MEMO.popitem(last=False)
        MEMO[key] = result
    return result


def clear_memo():
    """Empty the filter memo and its token table."""
    MEMO.clear()
    TOKENS.clear()


class Inconsistent(Exception):
    """A domain became empty or a propagator proved failure."""


def mask_of(values):
    """The bitmask of the given non-negative integers."""
    mask = 0
    for v in values:
        mask |= 1 << v
    return mask


def members(mask):
    """The integers whose bits are set in ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Domain:
    """A variable's candidate integers: ``bits`` is an int bitmask for a
    value variable and a ``range`` for an interval variable (counters,
    totals); ``values`` is the same set as a ``frozenset`` or that
    ``range``.

    Both are immutable, so every change replaces ``bits``: the trail keeps
    the replaced domain, and a memo key can hold the current one.  An
    interval variable is reasoned on by its bounds only: a removal strictly
    inside it is ignored, and a restriction keeps the hull of what survives.
    """

    __slots__ = ("bits",)

    def __init__(self, bits):
        if not bits:
            raise Inconsistent("empty initial domain")
        self.bits = bits

    @property
    def values(self):
        bits = self.bits
        return bits if type(bits) is range else frozenset(members(bits))


class Store:
    """Variable store with trailing and three FIFO propagation tiers.

    ``propagate`` always runs the oldest propagator of the lowest non-empty
    tier (``Propagator.priority``), so a propagator of a later tier runs
    only once every earlier tier is quiet.  A fixpoint does not depend on
    the order of the runs, so the tiers move only how many runs it takes.

    The store keeps no filter results: they live in the process memo
    (``MEMO``), which ``undo`` leaves alone.  A result depends on its input
    only, so it stays valid after backtracking and in every other store, and
    a propagator that sees an input again, in another subtree, another solve
    or another model, commits the result instead of filtering again.
    """

    def __init__(self):
        self.domains: list[Domain] = []
        self.names: list[str] = []
        self._watchers: list[list] = []
        self._trail: list[tuple[int, int | range]] = []
        self._marks: list[int] = []
        self._tiers = (deque(), deque(), deque())
        self._queued = set()
        self._running = None
        self.propagation_count = 0

    # -- variables ---------------------------------------------------------

    def new_var(self, values, name=""):
        """A value variable over the given finite set of non-negative
        integers."""
        values = list(values)
        for v in values:
            if not isinstance(v, int) or v < 0:
                raise ValueError(
                    f"variable {name or f'v{len(self.domains)}'}: value {v!r} "
                    "is not a non-negative integer")
        return self._new(mask_of(values), name)

    def new_interval(self, lo, hi, name=""):
        """An interval variable over ``lo..hi``, reasoned on by its bounds."""
        return self._new(range(lo, hi + 1), name)

    def _new(self, bits, name):
        vid = len(self.domains)
        self.domains.append(Domain(bits))
        self.names.append(name or f"v{vid}")
        self._watchers.append([])
        return vid

    def dom(self, vid):
        return self.domains[vid].values

    def vmin(self, vid):
        bits = self.domains[vid].bits
        if type(bits) is range:
            return bits[0]
        return (bits & -bits).bit_length() - 1

    def vmax(self, vid):
        bits = self.domains[vid].bits
        if type(bits) is range:
            return bits[-1]
        return bits.bit_length() - 1

    def is_fixed(self, vid):
        bits = self.domains[vid].bits
        if type(bits) is range:
            return len(bits) == 1
        return bits & (bits - 1) == 0

    def value(self, vid):
        """The value of a fixed variable; ValueError names an unfixed one."""
        bits = self.domains[vid].bits
        if type(bits) is range:
            if len(bits) == 1:
                return bits[0]
        elif bits & (bits - 1) == 0:
            return bits.bit_length() - 1
        raise ValueError(f"variable {self.names[vid]} is not fixed")

    def watch(self, vid, prop):
        self._watchers[vid].append(prop)

    # -- domain operations (trail + wake) ------------------------------------

    def _commit(self, vid, new):
        # new is always a subset of the domain: a mask of some of its bits or
        # a subrange, so an equal one means no change.
        dom = self.domains[vid]
        old = dom.bits
        if new == old:
            return False
        if not new:
            raise Inconsistent(self.names[vid])
        self._trail.append((vid, old))
        dom.bits = new
        for prop in self._watchers[vid]:
            if prop is not self._running:
                self.enqueue(prop)
        return True

    def keep_values(self, vid, allowed):
        """Restrict a variable to the given values (an interval variable to
        the hull of those it keeps)."""
        bits = self.domains[vid].bits
        if type(bits) is not range:
            top = bits.bit_length()
            return self._commit(vid, mask_of(v for v in allowed if 0 <= v < top) & bits)
        kept = [v for v in allowed if v in bits]
        if not kept:
            raise Inconsistent(self.names[vid])
        return self._commit(vid, range(min(kept), max(kept) + 1))

    def remove_value(self, vid, v):
        bits = self.domains[vid].bits
        if type(bits) is not range:
            if v < 0 or not bits >> v & 1:
                return False
            return self._commit(vid, bits ^ (1 << v))
        if v == bits[0]:
            return self._commit(vid, bits[1:])
        if v == bits[-1]:
            return self._commit(vid, bits[:-1])
        return False

    def assign(self, vid, v):
        return self.keep_values(vid, (v,))

    def set_min(self, vid, lo):
        bits = self.domains[vid].bits
        if type(bits) is range:
            return lo > bits[0] and self._commit(vid, range(lo, bits.stop))
        return lo > 0 and self._commit(vid, bits >> lo << lo)

    def set_max(self, vid, hi):
        bits = self.domains[vid].bits
        if type(bits) is range:
            return hi < bits[-1] and self._commit(vid, range(bits.start, hi + 1))
        if hi >= bits.bit_length() - 1:
            return False
        return self._commit(vid, bits & ((2 << hi) - 1) if hi >= 0 else 0)

    # -- trail ---------------------------------------------------------------

    def mark(self):
        self._marks.append(len(self._trail))

    def undo(self):
        back_to = self._marks.pop()
        trail = self._trail
        domains = self.domains
        # Newest first, so a variable changed twice ends at its oldest domain.
        for vid, bits in reversed(trail[back_to:]):
            domains[vid].bits = bits
        del trail[back_to:]

    # -- propagation ---------------------------------------------------------

    def enqueue(self, prop):
        if prop in self._queued:
            return
        self._queued.add(prop)
        self._tiers[prop.priority].append(prop)

    def register(self, prop):
        """Subscribe a propagator to its variables and schedule its first run."""
        for vid in prop.variables():
            self.watch(vid, prop)
        self.enqueue(prop)

    def propagate(self):
        """Run queued propagators to a fixpoint.

        Returns "stable" or "failed"; on failure every tier is emptied
        (the search undoes the trail anyway).
        """
        tiers = self._tiers
        try:
            while True:
                for tier in tiers:
                    if tier:
                        prop = tier.popleft()
                        break
                else:
                    return "stable"
                self._queued.discard(prop)
                self._running = prop
                try:
                    self.propagation_count += 1
                    prop.run(self)
                finally:
                    self._running = None
        except Inconsistent:
            for tier in tiers:
                tier.clear()
            self._queued.clear()
            return "failed"


class Propagator:
    """Base class: subclasses implement variables(), and either run(store)
    or one pass ``_pass(store)`` that returns whether it changed a domain,
    which run repeats to the propagator's local fixpoint.

    ``priority`` is the class's queue tier, cheap and decisive work first:
    0 for the counting decomposition (``GccColumn``, ``SumColumn``,
    ``LexLe`` and the count-group equalities ``model.CountGroupEq``), 1 for
    the row filters (``Mcr``, the default), 2 for the interval relations
    that link the property layer to the column counts (``Relation``,
    ``StretchLengthWindows``), which read the bounds the row filters leave
    and seldom prune, so they run once those are quiet.
    """

    priority = 1

    def variables(self):
        raise NotImplementedError

    def run(self, store):
        while self._pass(store):
            pass


class SearchStats:
    __slots__ = ("nodes", "backtracks", "failures", "root_failure", "propagations")

    def __init__(self):
        self.nodes = 0
        self.backtracks = 0
        self.failures = 0
        self.root_failure = False
        self.propagations = 0

    def as_dict(self):
        return {
            "nodes": self.nodes,
            "backtracks": self.backtracks,
            "failures": self.failures,
            "root_failure": self.root_failure,
            "propagations": self.propagations,
        }


class SearchResult:
    __slots__ = ("status", "solution", "stats", "elapsed")

    def __init__(self, status, solution, stats, elapsed):
        self.status = status
        self.solution = solution
        self.stats = stats
        self.elapsed = elapsed


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
