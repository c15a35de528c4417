"""Finite-domain store, propagation loop, and depth-first search.

Value variables hold small non-negative integers as an int bitmask (bit v set
iff v is in the domain); interval variables hold a ``range`` and are reasoned
on by their bounds.  Propagators subscribe to variables and are woken on any
domain change; three FIFO tiers, cheapest first (see ``Propagator``), run
them to a fixpoint.  Changes are trailed so search can backtrack without
copying the store.  What is posted once into a ``Recorder`` (a
``Posting``) fills any number of stores (``Store.fill``), which share its
propagators.

Pure propagator filter results are kept in one memo per process (``MEMO``,
see ``memoised``), which every store uses.  A result depends on its input
only, never on the store, so the memo serves every search node of a solve,
every re-solve of a model (``root_prune`` then ``solve``) and every model
built from the same automata (the rosters of one rule set).  It holds at
most ``MEMO_CAP`` entries.  The library is single-threaded: nothing guards
the memo against concurrent use.

A propagator whose constraint every completion of its domains satisfies is
entailed: it can prune nothing in the subtree below.  The memo keeps such a
result as ``ENTAILED``, and a propagator that meets it parks itself
(``Store.park``): it stays in the store's queued set without a place in any
tier, so the wake test every domain change already makes skips it, until
the search backtracks above the node where it parked.

A memo hit costs a key, a lookup and a commit, so the memo filters
(``propagators.MemoFilter``) run on kernels compiled per scope shape: each
builds its key as one tuple display and commits with ``Store._commit``
inlined.
"""

from __future__ import annotations

import sys
import time
from collections import OrderedDict, deque
from itertools import islice

# Most entries the filter memo and its token table each keep; the oldest is
# evicted first.
MEMO_CAP = 1 << 14

# The process's filter memo, key -> (changes, failed), and the tokens of the
# hashable memo kinds (see ``memo_token``).
MEMO: OrderedDict = OrderedDict()
TOKENS: OrderedDict = OrderedDict()
# The (position, domain) pairs of the memo's changes, each kept once: the
# results repeat few pairs (78 distinct among 7,328 in a pass over the
# reductions pool).  Emptied before it would pass ``MEMO_CAP`` pairs.
PAIRS: dict = {}

# The one entry every filter result that changes nothing and holds shares.
NO_CHANGE = ((), False)
# The entry of a result that changes nothing because the constraint is
# entailed.  Equal to NO_CHANGE but another object: the compiler folds two
# equal tuple literals of one module into one constant, so it is built at
# run time.
ENTAILED = tuple([(), False])


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


def memoised(key, filter, *args, entailed=None):
    """``filter(*args)``, looked up under ``key`` in ``MEMO`` first.

    ``key`` must determine the result, in every store.  A new result
    ``(changes, failed)`` is kept as ``(tuple(changes), failed)``, each
    change an equal pair from ``PAIRS``.  One that changes nothing and
    holds is kept as ``ENTAILED`` when ``entailed`` is given and
    ``entailed(*args)`` is true, else as ``NO_CHANGE``.  The entry is
    inserted after evicting the oldest one if the memo holds ``MEMO_CAP``
    already (an ``OrderedDict``, since finding a plain dict's first key
    scans the slots its earlier deletions left).
    """
    result = MEMO.get(key)
    if result is None:
        changes, failed = filter(*args)
        if changes or failed:
            if len(PAIRS) + len(changes) > MEMO_CAP:
                PAIRS.clear()
            result = (tuple([PAIRS.setdefault(c, c) for c in changes]),
                      failed)
        elif entailed is not None and entailed(*args):
            result = ENTAILED
        else:
            result = NO_CHANGE
        if len(MEMO) >= MEMO_CAP:
            MEMO.popitem(last=False)
        MEMO[key] = result
    return result


def clear_memo():
    """Empty the filter memo, its token table and its pairs."""
    MEMO.clear()
    TOKENS.clear()
    PAIRS.clear()


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

    A propagator that finds its constraint entailed parks (``park``): it is
    put on the parked list and in the queued set, but in no tier, so the
    wake test of ``_commit`` skips it at no cost of its own.  Domains only
    shrink until the next ``undo``, so it stays entailed until then.
    ``mark`` records the length of the parked list with the trail's, and
    ``undo`` un-parks the propagators parked since; a failing ``propagate``
    empties the queued set and puts the parked ones back.
    """

    def __init__(self):
        self.domains: list[Domain] = []
        self.names: list[str] = []
        self._watchers: list[list] = []
        self._trail: list[tuple[int, int | range]] = []
        self._marks: list[tuple[int, int]] = []
        self._tiers = (deque(), deque(), deque())
        self._queued = set()
        self._parked = []
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
        """Replace the domain of ``vid`` by ``new``, always a subset of it (a
        mask of some of its bits or a subrange), so an equal one means no
        change and returns False.  An empty one raises Inconsistent naming
        the variable.  Otherwise trail the old domain, replace it and wake
        each watcher, in list order, but the running propagator and those
        already queued; return True.  The memo-filter kernel
        (``propagators._run_source``) inlines this for every change it
        commits."""
        dom = self.domains[vid]
        old = dom.bits
        if new == old:
            return False
        if not new:
            raise Inconsistent(self.names[vid])
        self._trail.append((vid, old))
        dom.bits = new
        # ``enqueue`` inlined: this runs for every domain change.
        running = self._running
        queued = self._queued
        tiers = self._tiers
        for prop in self._watchers[vid]:
            if prop is not running and prop not in queued:
                queued.add(prop)
                tiers[prop.priority].append(prop)
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
        bits = self.domains[vid].bits
        if type(bits) is range:
            return self.keep_values(vid, (v,))
        return self._commit(vid, bits & (1 << v)
                            if 0 <= v < bits.bit_length() else 0)

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
        self._marks.append((len(self._trail), len(self._parked)))

    def undo(self):
        back_to, parked_to = self._marks.pop()
        trail = self._trail
        domains = self.domains
        # Newest first, so a variable changed twice ends at its oldest domain.
        for vid, bits in reversed(trail[back_to:]):
            domains[vid].bits = bits
        del trail[back_to:]
        parked = self._parked
        if len(parked) > parked_to:
            self._queued.difference_update(parked[parked_to:])
            del parked[parked_to:]

    # -- propagation ---------------------------------------------------------

    def enqueue(self, prop):
        if prop in self._queued:
            return
        self._queued.add(prop)
        self._tiers[prop.priority].append(prop)

    def park(self, prop):
        """Wake ``prop`` no more until the ``undo`` of the latest mark (for
        good when no mark is open).  Only the running propagator parks, once
        its constraint holds in every completion of the domains."""
        self._parked.append(prop)
        self._queued.add(prop)

    def register(self, prop):
        """Subscribe a propagator to its variables and schedule its first run."""
        for vid in prop.variables():
            self.watch(vid, prop)
        self.enqueue(prop)

    def fill(self, posting, data=()):
        """Post ``posting`` (see ``Posting``) into this store, which must
        hold just the variables of the postings filled before it, in order:
        add its variables, the data ones over the masks and ranges ``data``,
        then register its propagators in posting order as ``register`` does:
        subscribe each to its variables and queue it in the tier its
        ``priority`` names now.  An empty domain raises Inconsistent, as
        ``new_var`` would."""
        if len(self.domains) != posting.start or len(data) != posting.n_data:
            raise ValueError(f"a posting of {posting.n_data} data variables "
                             f"after {posting.start} fills a store of "
                             f"{len(self.domains)} with {len(data)}")
        self.domains += map(Domain, data)
        self.domains += map(Domain, posting.bits)
        self.names += posting.names
        watchers = self._watchers
        watchers += [[] for _ in range(len(self.domains) - len(watchers))]
        # ``register`` inlined: a fill registers every propagator of a model.
        queued = self._queued
        tiers = self._tiers
        for prop in posting.props:
            for vid in prop.variables():
                watchers[vid].append(prop)
            if prop not in queued:
                queued.add(prop)
                tiers[prop.priority].append(prop)

    def propagate(self):
        """Run queued propagators to a fixpoint.

        Returns "stable" or "failed"; on failure every tier is emptied
        (the search undoes the trail anyway) and the parked propagators stay
        parked.  ``propagation_count`` counts every run, the failing one
        included.
        """
        tiers = self._tiers
        t0, t1, t2 = tiers
        queued = self._queued
        runs = 0
        try:
            while True:
                if t0:
                    prop = t0.popleft()
                elif t1:
                    prop = t1.popleft()
                elif t2:
                    prop = t2.popleft()
                else:
                    return "stable"
                queued.discard(prop)
                self._running = prop
                runs += 1
                prop.run(self)
        except Inconsistent:
            for tier in tiers:
                tier.clear()
            queued.clear()
            queued.update(self._parked)
            return "failed"
        finally:
            self._running = None
            self.propagation_count += runs


class Posting:
    """Variables and propagators posted once (``Recorder``) and filled into
    any number of stores (``Store.fill``).

    It follows the ``start`` variables of the postings filled before it and
    adds more: first ``n_data`` data variables, whose initial domains each
    fill supplies, then one per entry of ``bits``, the initial mask or
    range of each.  ``names`` names the added variables, and ``props`` lists
    the propagators it registered, in order.  Every store filled from it
    shares these propagator objects; a fill subscribes them to their
    variables anew, so a posting keeps no watcher lists.
    """

    __slots__ = ("start", "n_data", "bits", "names", "props")

    def __init__(self, start, n_data, bits, names, props):
        self.start = start
        self.n_data = n_data
        self.bits = bits
        self.names = names
        self.props = props

    @property
    def end(self):
        """The variable count of a store filled with this posting."""
        return self.start + self.n_data + len(self.bits)


class Recorder(Store):
    """A store that records what is posted into it, for a ``Posting``, and
    is never propagated.  ``register`` records a propagator instead of
    subscribing and queueing it (``watch``, ``enqueue``).  The data
    variables (``new_data``) come first.  A recorder made ``after`` a
    posting numbers its variables from where that one ends."""

    def __init__(self, after=None):
        super().__init__()
        self._start = self._n_data = 0
        self._posted = []
        if after is not None:
            self._start = after.end
            # Placeholders: posting reads no domain, only variable ids.
            self.domains = [None] * self._start
            self.names = [None] * self._start

    def new_data(self, name=""):
        """A data variable; its domain here is a placeholder."""
        if len(self.domains) != self._start + self._n_data:
            raise ValueError("data variables come before the others")
        self._n_data += 1
        return self._new(1, name)

    def watch(self, vid, prop):
        pass

    def enqueue(self, prop):
        self._posted.append(prop)

    def posting(self):
        """What has been posted, as a ``Posting``."""
        first = self._start + self._n_data
        # Interned: the postings of many models repeat the same names.
        return Posting(self._start, self._n_data,
                       tuple([d.bits for d in self.domains[first:]]),
                       tuple(map(sys.intern, self.names[self._start:])),
                       tuple(self._posted))


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

    A propagator may be shared by many stores: ``model.build`` posts each
    model shape once and fills every store of that shape with the same
    propagator objects (``Posting``).  The shape is the layout key
    (``model._layout_key``); the property layer of ``cwa`` is posted when a
    model of the shape first passes the decomposition layer.  So a
    propagator keeps no state of a store: its variable ids, its kind and
    caches that depend on those alone.
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


def pick(store, branch_vars, start=0):
    """``(first, vid)``: ``first`` is the index of the first unfixed
    variable of ``branch_vars`` at or after ``start`` (``len(branch_vars)``
    when there is none), and ``vid`` the unfixed variable with the smallest
    domain from there on, the first one on ties, or None.  No unfixed domain
    is smaller than 2, so the scan stops at the first of size 2.  The
    variables before ``start`` must be fixed."""
    domains = store.domains
    n = len(branch_vars)
    first = start
    while first < n:
        best = branch_vars[first]
        bits = domains[best].bits
        best_size = len(bits) if type(bits) is range else bits.bit_count()
        if best_size > 1:
            break
        first += 1
    else:
        return n, None
    if best_size == 2:
        return first, best
    for vid in islice(branch_vars, first + 1, None):
        bits = domains[vid].bits
        size = len(bits) if type(bits) is range else bits.bit_count()
        if 1 < size < best_size:
            if size == 2:
                return first, vid
            best, best_size = vid, size
    return first, best


def search(store, branch_vars, time_limit=None, on_solution=None,
           node_limit=None):
    """Depth-first search over ``branch_vars`` (other variables must be fixed
    by propagation once these are).

    Branching picks the smallest unfixed domain (lowest variable first on
    ties) and tries values in increasing order: assign, and on failure remove
    the value.  Returns a SearchResult with status "sat", "unsat", "timeout"
    (past ``time_limit`` seconds) or "budget" (a node was due after
    ``node_limit`` nodes).  With ``on_solution`` the search enumerates: each
    solution is passed to the callback and search continues until the
    callback returns True (stop) or the tree is exhausted (status then
    reports "unsat" only if no solution was seen).  The time limit is
    checked between nodes, and the node budget where a node would open, so a
    search stopped by its budget depends on the model only.

    A variable fixed at a node stays fixed below it, so ``pick`` resumes at
    the first branch variable the parent found unfixed; each decision keeps
    that index, which its refutation, back at the parent's domains, resumes
    from too.
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
    # Explicit stack of (vid, value, first) decisions for iterative DFS: a
    # popped decision is refuted by removing its value.
    stack = []

    def stop(status, solution):
        # Back to the root's domains, then report.
        for _ in stack:
            store.undo()
        return out(status, solution)

    first = 0
    while True:
        if deadline is not None and time.monotonic() > deadline:
            return stop("timeout", found[0])
        first, vid = pick(store, branch_vars, first)
        if vid is None:
            solution = {v: store.value(v) for v in branch_vars}
            found[0] = solution
            if on_solution is None or on_solution(solution):
                return stop("sat", solution)
            status = "failed"  # force a backtrack to keep enumerating
        elif node_limit is not None and stats.nodes >= node_limit:
            return stop("budget", found[0])
        else:
            stats.nodes += 1
            v = store.vmin(vid)
            store.mark()
            stack.append((vid, v, first))
            store.assign(vid, v)
            status = store.propagate()
        while status == "failed":
            stats.failures += 1
            if not stack:
                return out("sat" if found[0] is not None else "unsat", found[0])
            stats.backtracks += 1
            vid, v, first = stack.pop()
            store.undo()
            # Refute the tried value and re-propagate at this node.
            try:
                store.remove_value(vid, v)
                status = store.propagate()
            except Inconsistent:
                status = "failed"
