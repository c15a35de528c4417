"""The staged build of ``cwa``: ``build`` propagates the decomposition
layer before it posts the property layer; and the queue tiers
(``Propagator.priority``), which order the layers at every propagation.

The reference orders are built here only: ``build`` with ``Store.propagate``
stubbed out posts every propagator before any of them runs, as an unstaged
build would, and the root propagation then runs them all together; with
every class's ``priority`` patched to 0 the store runs one FIFO queue.
"""

import random

import pytest

from matrixcp.automata import WeightedDfa
from matrixcp.engine import Propagator, Store, search
from matrixcp.generators import gen_random
from matrixcp.model import build, root_prune, solve
from matrixcp.roster import gen_toy_rosters, roster_model


def fuzz_models():
    """The 200 criterion-4 fuzz models."""
    return [gen_random(9000 + i, random.Random(100 + i).randint(2, 4),
                       random.Random(200 + i).randint(2, 4),
                       random.Random(300 + i).randint(2, 3))
            for i in range(200)]


def toy_models():
    """The first 25 toy rosters of the benchmark pool."""
    return [roster_model(inst, rules)
            for inst, rules in gen_toy_rosters(4242, 25)]


def root_and_search(b):
    """Root grid (None when refuted) and (status, nodes, backtracks) of the
    built model ``b``."""
    if b.root_infeasible or b.store.propagate() == "failed":
        return None, ("unsat", 0, 0)
    grid = b.cell_domains_snapshot()
    res = search(b.store, b.branch_vars)
    return grid, (res.status, res.stats.nodes, res.stats.backtracks)


def unstaged(model, mode, monkeypatch):
    """``root_and_search`` of a build that posts every propagator before it
    runs any."""
    with monkeypatch.context() as m:
        m.setattr(Store, "propagate", lambda store: "stable")
        b = build(model, mode)
    return root_and_search(b)


@pytest.mark.parametrize("mode", ["cwa"])
def test_staging_moves_no_root_domain_and_no_search(mode, monkeypatch):
    refuted = searched = 0
    for model in fuzz_models() + toy_models():
        grid, counts = unstaged(model, mode, monkeypatch)
        out = solve(model, mode)
        assert root_prune(model, mode) == grid, f"{model.name} {mode}"
        assert (out.status, out.stats.nodes, out.stats.backtracks) == counts, (
            f"{model.name} {mode}")
        refuted += out.built.root_infeasible
        searched += out.stats.nodes > 0
    # Both sides of the staging are exercised: 177 models fail inside build
    # and 38 search when written.
    assert refuted >= 170 and searched >= 30


@pytest.mark.parametrize("mode", ["cwa"])
def test_overload_roster_is_refuted_inside_build(mode, monkeypatch):
    inst, rules = gen_toy_rosters(4242, 1)[0]
    assert inst.name == "toy000_u"
    model = roster_model(inst, rules)
    inst, rules = gen_toy_rosters(4242, 5)[4]
    assert inst.name == "toy004_u"
    same_shape = roster_model(inst, rules)
    products = []
    product = WeightedDfa.product
    monkeypatch.setattr(WeightedDfa, "product",
                        lambda *a, **kw: products.append(a) or product(*a, **kw))
    model.row_rule._layouts.clear()  # a shape no model has passed yet
    b = build(model, mode)
    assert b.root_infeasible
    assert b.prop_z == {}
    assert products == []
    out = solve(model, mode)
    assert out.status == "unsat"
    assert out.stats.root_failure
    assert out.stats.propagations > 0
    # A second roster of the shape fills from its layout and fails the
    # decomposition layer too: still no product and no property layer.
    second = build(same_shape, mode)
    assert second.layout_reused and second.root_infeasible
    assert second.prop_z == {} and products == []
    (layout,) = model.row_rule._layouts.values()
    assert layout.properties is None


def single_fifo(monkeypatch):
    """Put every propagator class in tier 0, so the store runs one FIFO."""
    classes = [Propagator]
    for cls in classes:  # grows while it is walked
        classes += cls.__subclasses__()
        if "priority" in vars(cls):
            monkeypatch.setattr(cls, "priority", 0)


def roster_pools():
    """The 50 criterion-7 rosters (gen seed 4242; the first 25 are the
    toy-cwa pool) and the 25 held-out ones (gen seed 1201)."""
    return [roster_model(inst, rules)
            for seed, count in ((4242, 50), (1201, 25))
            for inst, rules in gen_toy_rosters(seed, count)]


@pytest.mark.parametrize("mode", ["decomp", "wa", "cwa"])
def test_tiers_move_no_root_domain_and_no_search(mode, monkeypatch):
    models = fuzz_models() + (roster_pools() if mode != "decomp" else [])
    tiered = [root_and_search(build(model, mode)) for model in models]
    single_fifo(monkeypatch)
    for model, want in zip(models, tiered):
        assert root_and_search(build(model, mode)) == want, f"{model.name} {mode}"
