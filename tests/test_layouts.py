"""Layouts: ``build`` posts each model shape once per row rule and fills
every store of that shape from what it recorded (``model.Layout``).

A store filled from a cached layout must be the store a cold build makes:
every solve ends the same, and on a few cases the filled stores are equal
variable by variable and propagator by propagator.  A posting that fails
leaves nothing behind; a rule's layouts die with it and stay within
``SHARED_CAP``; and a fill queues each propagator in the tier its priority
names at fill time.
"""

import gc
import weakref

import pytest

import matrixcp.model
from conftest import (
    fuzz_models,
    permutation_model,
    planted_models,
    roster_pools,
    single_fifo,
    workloads,
)
from matrixcp.automata import build_gcc_weights
from matrixcp.engine import Inconsistent, Store
from matrixcp.model import MODES, MatrixModel, build, root_prune, solve
from matrixcp.oracle import brute_solve

# The criterion-4 fuzz models refuted while their layout is posted, under
# every mode: the row rule admits no word within its resource bounds.  So
# every build of them posts again, and none leaves a layout behind.
REFUTED_IN_POSTING = ("random_9046", "random_9072", "random_9101",
                      "random_9135", "random_9139", "random_9150",
                      "random_9166", "random_9182")


def reductions():
    w = workloads.WORKLOADS["reductions-decomp"]
    instances, _ = workloads.setup(w, workloads.DEFAULT_GEN_SEED, None,
                                   workloads.EXPECTED_PATH)
    return [inst.model for inst in instances]


def passing_model():
    """A fuzz model that passes the decomposition layer under every mode and
    searches 3 nodes under ``cwa``."""
    return next(m for m in fuzz_models() if m.name == "random_9006")


POOLS = {"fuzz": fuzz_models, "rosters": roster_pools,
         "reductions": reductions}
CASES = ([("fuzz", mode) for mode in MODES]
         + [("rosters", mode) for mode in ("wa", "cwa")]
         + [("reductions", "decomp")])


def outcome(out, root):
    """A solve's status, grid, search counts, root flag and propagator
    runs, then the ``root_prune`` grid ``root``."""
    s = out.stats
    return (out.status, out.grid, s.nodes, s.backtracks, s.failures,
            out.built.root_infeasible, s.propagations, root)


def cold(model, mode):
    """``outcome`` with every layout of the model's rule dropped before the
    solve and before the root prune."""
    model.row_rule._layouts.clear()
    out = solve(model, mode)
    assert not out.built.layout_reused
    model.row_rule._layouts.clear()
    return outcome(out, root_prune(model, mode))


@pytest.mark.parametrize("pool,mode", CASES)
def test_cached_layouts_change_no_solve(pool, mode):
    """Each model solved with its rule's layouts dropped, then from cached
    ones after a pass over the pool, forward and in reverse: the same
    status, grid, nodes, backtracks, failures, root flag, propagator runs
    and root domains."""
    models = POOLS[pool]()
    want = [cold(m, mode) for m in models]
    for m in models:
        solve(m, mode)
    for order in (list, lambda pairs: list(reversed(pairs))):
        reused = 0
        for m, w in order(list(zip(models, want))):
            out = solve(m, mode)
            assert outcome(out, root_prune(m, mode)) == w, f"{m.name} {mode}"
            reused += out.built.layout_reused
    # After a pass over the pool, every build of the reversed pass fills
    # from cached layouts, but for the fuzz models refuted while posting.
    refuted = sum(m.name in REFUTED_IN_POSTING for m in models)
    assert reused == len(models) - refuted


def named(props):
    return [(type(p).__name__, tuple(p.variables())) for p in props]


def queue(store):
    """The class and scope of each queued propagator, tier by tier."""
    return [named(tier) for tier in store._tiers]


def image(store):
    """Everything a fill sets: each variable's domain and name, the class
    and scope of each of its watchers in order, and the queue."""
    return ([d.bits for d in store.domains], list(store.names),
            [named(ws) for ws in store._watchers], queue(store),
            store.propagation_count)


def few_cases():
    fuzz = [m for m in fuzz_models()[:12] if m.name not in REFUTED_IN_POSTING]
    rosters = roster_pools()
    return ([(m, mode) for m in fuzz[:6] for mode in MODES]
            + [(m, mode) for m in (rosters[0], rosters[2], rosters[3])
               for mode in ("wa", "cwa")]
            + [(m, "decomp") for m in reductions()[::7]])


@pytest.mark.parametrize("mode", MODES)
def test_the_key_holds_the_shape_not_the_data(mode):
    """Cell domains never pick the layout, count bounds only under
    ``decomp``, where they are constants; ``cross_cap`` and the properties
    only under ``cwa``, the one mode that posts a property layer."""
    rule = build_gcc_weights((0, 1), groups=[{1}], bounds=[(0, 3)])

    def model(cover, cells=None, properties=None):
        return MatrixModel(2, 3, (0, 1), rule, col_gcc=[{1: cover}] * 3,
                           cell_domains=cells, properties=properties)

    assert not build(model([0, 2]), mode).layout_reused  # a list is a range
    for same in (model((0, 2)), model((0, 2), [[{0, 1}, {1}, {0}]] * 2)):
        assert build(same, mode).layout_reused
    assert build(model((1, 2)), mode).layout_reused == (mode != "decomp")
    for other in (build(model((0, 2)), mode, cross_cap=5),
                  build(model((0, 2), properties=[]), mode)):
        assert other.layout_reused == (mode != "cwa")
    for m in (model((1, 2)), model((0, 2), [[{1}, {1}, {0}]] * 2)):
        assert solve(m, mode).status == brute_solve(m)[0]


def test_a_filled_store_is_the_cold_one():
    for model, mode in few_cases():
        model.row_rule._layouts.clear()
        first = build(model, mode)
        again = build(model, mode)
        assert not first.layout_reused and again.layout_reused
        assert image(again.store) == image(first.store), f"{model.name} {mode}"
        assert (again.cells, again.cards, again.rule_z, again.prop_z,
                again.branch_vars) == (first.cells, first.cards, first.rule_z,
                                       first.prop_z, first.branch_vars)


@pytest.mark.parametrize("mode", MODES)
def test_a_posting_that_fails_leaves_no_layout(mode):
    refuted = []
    for model in fuzz_models():
        model.row_rule._layouts.clear()
        b = build(model, mode)
        if b.root_infeasible and not model.row_rule._layouts:
            refuted.append(model.name)
            again = build(model, mode)
            assert again.root_infeasible and not again.layout_reused
            assert not model.row_rule._layouts
            assert solve(model, mode).status == "unsat"
    assert tuple(refuted) == REFUTED_IN_POSTING


def test_a_property_posting_that_fails_leaves_no_property_layer(monkeypatch):
    """A property layer that raises part-way is not kept: the next build
    posts it again, whole, and solves as a cold build does."""
    model = next(m for m in fuzz_models()
                 if not build(m, "cwa").root_infeasible)
    want = cold(model, "cwa")
    post = matrixcp.model._post_property
    calls = []

    def fails_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise Inconsistent("stopped part-way")
        return post(*args)

    model.row_rule._layouts.clear()
    with monkeypatch.context() as m:
        m.setattr(matrixcp.model, "_post_property", fails_second)
        assert build(model, "cwa").root_infeasible
    (lay,) = model.row_rule._layouts.values()
    assert lay.properties is None
    b = build(model, "cwa")
    assert not b.layout_reused and lay.properties is not None
    out = solve(model, "cwa")
    assert out.built.layout_reused
    assert outcome(out, root_prune(model, "cwa")) == want


def test_wa_is_decomp_on_a_rule_that_counts_no_group():
    """``wa`` adds to ``decomp`` only the count-group equalities.  On a rule
    that counts no group it fills ``decomp``'s layout, so it ends every
    solve as ``decomp`` does and prunes the same root; on a rule that
    counts one it keeps its count variables and a layout of its own."""
    plain = [m for m in fuzz_models() + planted_models()
             if not m.row_rule.count_groups()]
    assert len(plain) == 197 + 94
    for m in plain:
        m.row_rule._layouts.clear()
        want = outcome(solve(m, "decomp"), root_prune(m, "decomp"))
        out = solve(m, "wa")
        assert outcome(out, root_prune(m, "wa")) == want, m.name
        assert out.built.layout_reused == (m.name not in REFUTED_IN_POSTING)
        assert out.built.cards == []
    grouped = roster_pools()[:25] + [permutation_model(4)]
    for m in grouped:
        assert m.row_rule.count_groups()
        m.row_rule._layouts.clear()
        build(m, "decomp")
        b = build(m, "wa")
        assert not b.layout_reused and len(b.cards) == m.n_cols, m.name
        assert build(m, "wa").layout_reused


def test_a_dropped_rules_layouts_die_with_it():
    model = passing_model()
    assert not model.row_rule.count_groups()
    for mode in MODES:
        assert not solve(model, mode).built.root_infeasible
    layouts = list(model.row_rule._layouts.values())
    # The rule counts no group, so wa fills decomp's layout; only the cwa
    # layout has a property layer.
    assert [bool(lay.properties) for lay in layouts] == [False, True]
    posted = [weakref.ref(p) for lay in layouts
              for part in (lay.decomposition, lay.properties) if part
              for p in part.props]
    ref = weakref.ref(model.row_rule)
    del model, layouts
    gc.collect()
    assert ref() is None
    assert posted and all(p() is None for p in posted)


def test_the_layout_table_stays_within_the_cap(monkeypatch):
    cap = 3
    monkeypatch.setattr(matrixcp.model, "SHARED_CAP", cap)
    rule = build_gcc_weights((0, 1), groups=[{1}], bounds=[(0, 4)])
    shapes = [(n_rows, mode) for n_rows in range(1, 6) for mode in MODES]
    sizes = []
    for n_rows, mode in shapes:
        b = build(MatrixModel(n_rows, 4, (0, 1), rule), mode)
        assert not b.layout_reused
        sizes.append(len(rule._layouts))
    assert max(sizes) == cap
    # The newest shapes are kept, the oldest one was dropped and posts again.
    for n_rows, mode in shapes[-cap:]:
        assert build(MatrixModel(n_rows, 4, (0, 1), rule), mode).layout_reused
    n_rows, mode = shapes[0]
    assert not build(MatrixModel(n_rows, 4, (0, 1), rule), mode).layout_reused
    assert len(rule._layouts) == cap


@pytest.mark.parametrize("mode", MODES)
def test_a_fill_queues_by_the_priorities_of_fill_time(mode, monkeypatch):
    """A layout cached under the class priorities fills a store whose queue
    is that of a cold build under every priority patched to 0: one FIFO in
    posting order."""
    model = passing_model()
    model.row_rule._layouts.clear()
    tiered = build(model, mode)
    with monkeypatch.context() as m:
        single_fifo(m)
        warm = build(model, mode)
        model.row_rule._layouts.clear()
        fifo = build(model, mode)
    assert warm.layout_reused and not fifo.layout_reused
    assert queue(warm.store) == queue(fifo.store)
    t0, t1, t2 = warm.store._tiers
    assert t0 and not t1 and not t2
    assert sum(map(len, tiered.store._tiers)) == len(t0)


@pytest.mark.parametrize("mode", ["cwa"])
def test_a_stubbed_propagate_leaves_both_layers_queued(mode, monkeypatch):
    """With ``Store.propagate`` stubbed, a build from a cached layout runs
    nothing and queues both layers, as a cold build does (``unstaged`` in
    ``test_staged_build``)."""
    model = passing_model()
    build(model, mode)
    with monkeypatch.context() as m:
        m.setattr(Store, "propagate", lambda store: "stable")
        warm = build(model, mode)
        model.row_rule._layouts.clear()
        stubbed = build(model, mode)
    assert warm.layout_reused and not stubbed.layout_reused
    assert warm.store.propagation_count == 0
    assert queue(warm.store) == queue(stubbed.store)
    lay = next(iter(model.row_rule._layouts.values()))
    queued = sum(map(len, warm.store._tiers))
    assert queued == len(lay.decomposition.props) + len(lay.properties.props)
