"""The planted random fuzz set: models sat by construction
(``generators.gen_planted``), so unlike the criterion-4 fuzz set, where most
models are unsat, nearly every one of them can show pruning.

Criteria 4 (soundness against ``brute_dc``, where it finishes within its
cap) and 5 (the modes nest pointwise) run on it, and each model's root grid
under each mode must equal the one pinned in ``planted_roots.json``.  The
pins were computed while ``wa`` still posted uncrossed measuring automata
next to its count-group equalities; they show that those automata pruned
nothing there.
"""

import json
import os
import time

import pytest

from conftest import planted_models
from matrixcp.model import MODES, root_prune
from matrixcp.oracle import CapExceeded, brute_dc

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "planted_roots.json")


def grid_text(grid):
    """A root grid as pinned: rows split by ' / ', cells by spaces, each
    cell its value indices; None (refuted) stays None."""
    if grid is None:
        return None
    return " / ".join(" ".join("".join(map(str, sorted(d))) for d in row)
                      for row in grid)


@pytest.fixture(scope="module")
def planted_roots():
    """Per model: its exact supports (None when unsat, "cap" when
    ``brute_dc`` gave up) and its root grid under each mode."""
    t0 = time.monotonic()
    out = []
    for m in planted_models():
        try:
            support = brute_dc(m, cap=200_000)
        except CapExceeded:
            support = "cap"
        out.append((m, support, {mode: root_prune(m, mode) for mode in MODES}))
    return out, time.monotonic() - t0


def test_every_planted_model_is_sat(planted_roots):
    roots, _ = planted_roots
    assert len(roots) == 94
    finished = [s for _, s, _ in roots if s != "cap"]
    assert None not in finished
    assert len(finished) >= 85  # 89 when written


def test_planted_root_pruning_is_sound(planted_roots):
    roots, built_in = planted_roots
    gaps = dict.fromkeys(MODES, 0)
    for m, support, doms in roots:
        if support == "cap":
            continue
        for mode in MODES:
            dm = doms[mode]
            assert dm is not None, f"{m.name} {mode} failed on a sat model"
            for r in range(m.n_rows):
                for k in range(m.n_cols):
                    assert support[r][k] <= dm[r][k], (
                        f"{m.name} {mode} pruned a supported value at "
                        f"({r},{k})")
                    gaps[mode] += len(dm[r][k] - support[r][k])
    # The set shows pruning: decomp and wa keep 14 unsupported values and
    # cwa 11 when written.
    assert gaps["decomp"] >= gaps["wa"] > gaps["cwa"]
    assert built_in < 60.0


def test_planted_modes_nest_pointwise(planted_roots):
    roots, _ = planted_roots
    for m, _, doms in roots:
        for strong, weak in (("wa", "decomp"), ("cwa", "wa")):
            ds, dw = doms[strong], doms[weak]
            if ds is None:
                continue
            assert dw is not None, (
                f"{m.name}: {weak} failed at root but {strong} did not")
            for r in range(m.n_rows):
                for k in range(m.n_cols):
                    assert ds[r][k] <= dw[r][k], (
                        f"{m.name}: {strong} kept a value {weak} pruned")


def test_planted_roots_match_their_pins(planted_roots):
    roots, _ = planted_roots
    with open(PINS) as f:
        pins = json.load(f)
    got = {m.name: {mode: grid_text(doms[mode]) for mode in MODES}
           for m, _, doms in roots}
    assert got.keys() == pins.keys()
    for name, want in pins.items():
        assert got[name] == want, name
