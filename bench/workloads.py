"""Instance families of the benchmark and the evidence for their verdicts.

Every workload solves a fixed pool of instances drawn from a generator seed
(default 4242, held-out 1201).  The expected verdict of every pool instance
is stored in ``expected.json`` next to this file, and each verdict rests on
evidence that does not come from the propagation engine:

- a ``sat`` answer is accepted only with a grid that passes
  ``oracle.check_solution``;
- an unsatisfiable toy roster is proved by its overload count: the demand
  for one shift (or for the working group) over the horizon exceeds
  nurses x the per-row occurrence cap;
- a reduction's answer is decided by brute force over the source problem.

Run this file to rewrite ``expected.json`` from that evidence:
``python3 bench/workloads.py``.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass
from itertools import combinations, product

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

DEFAULT_GEN_SEED = 4242
HELD_OUT_GEN_SEED = 1201
GEN_SEEDS = (DEFAULT_GEN_SEED, HELD_OUT_GEN_SEED)

sys.path.insert(0, SRC)
from matrixcp import generators, roster  # noqa: E402
from matrixcp.model import solve  # noqa: E402
from matrixcp.oracle import check_solution  # noqa: E402

if not os.path.abspath(roster.__file__).startswith(SRC + os.sep):
    raise ImportError(f"matrixcp must come from {SRC}, not {roster.__file__}")


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # key of the instance pool in expected.json
    mode: str
    size: int    # instances solved: the first ``size`` of the pool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("toy-cwa", "toy", "cwa", 25),
        Workload("toy-wa", "toy", "wa", 25),
        Workload("reductions-decomp", "reductions", "decomp", 30),
    )
}

SAT_PROPS, SAT_CLAUSES, SAT_COUNT = 5, 21, 14
COVER_UNIVERSE, COVER_SETS, COVER_COUNT = 12, 14, 8
HIT_VERTICES, HIT_EDGES, HIT_K, HIT_COUNT = 10, 12, 3, 8


@dataclass
class Instance:
    name: str
    model: object
    source: tuple  # (kind, data) for the independent evidence
    evidence: str | None = None  # set by check_fixture


# -- source problems ---------------------------------------------------------


def _toy_sources(gen_seed, count):
    return [("toy", (inst, rules))
            for inst, rules in roster.gen_toy_rosters(gen_seed, count)]


def _reduction_sources(gen_seed):
    """3-SAT near the phase transition, exact cover with a planted cover in
    about half of the families, and hitting set; all seeded."""
    rng = random.Random(gen_seed)
    out = []
    for _ in range(SAT_COUNT):
        clauses = [
            [p if rng.random() < 0.5 else -p
             for p in rng.sample(range(1, SAT_PROPS + 1), 3)]
            for _ in range(SAT_CLAUSES)
        ]
        out.append(("3sat", clauses))
    for _ in range(COVER_COUNT):
        family = []
        if rng.random() < 0.5:
            elems = list(range(1, COVER_UNIVERSE + 1))
            rng.shuffle(elems)
            while elems:
                k = rng.randint(1, 3)
                family.append(set(elems[:k]))
                elems = elems[k:]
        while len(family) < COVER_SETS:
            family.append(
                set(rng.sample(range(1, COVER_UNIVERSE + 1), rng.randint(2, 3)))
            )
        rng.shuffle(family)
        out.append(("cover", family))
    for _ in range(HIT_COUNT):
        edges = [set(rng.sample(range(HIT_VERTICES), rng.randint(2, 3)))
                 for _ in range(HIT_EDGES)]
        out.append(("hitting", edges))
    return out


def _compile(idx, source):
    kind, data = source
    if kind == "toy":
        inst, rules = data
        return Instance(inst.name, roster.roster_model(inst, rules), source)
    if kind == "3sat":
        model = generators.gen_3sat(data, SAT_PROPS)
    elif kind == "cover":
        model = generators.gen_exact_cover(data, COVER_UNIVERSE)
    else:
        model = generators.gen_hitting_set(HIT_VERTICES, data, HIT_K,
                                           variant="sum")
    return Instance(f"{idx:03d}_{model.name}", model, source)


def pool_sources(family, gen_seed, count):
    if family == "toy":
        return _toy_sources(gen_seed, count)
    return _reduction_sources(gen_seed)[:count]


def load_expected(path, family, gen_seed):
    with open(path) as fh:
        table = json.load(fh)
    try:
        return table[family][str(gen_seed)]
    except KeyError:
        raise SystemExit(
            f"{path} has no verdicts for {family} at generator seed {gen_seed}"
        ) from None


def setup(workload, gen_seed, count, expected_path):
    """Generate and compile the first ``count`` pool instances and load
    their expected verdicts: the part of a run timed as ``setup_s``."""
    sources = pool_sources(workload.family, gen_seed, count)
    instances = [_compile(i, s) for i, s in enumerate(sources)]
    expected = load_expected(expected_path, workload.family, gen_seed)
    return instances, expected


# -- evidence independent of the engine ---------------------------------------


def _toy_overloaded(inst, rules):
    days, n = inst.n_days, inst.n_nurses
    groups = [((s,), rules.shifts[s].occ_hi) for s in range(inst.n_shifts)]
    groups.append((tuple(range(inst.n_shifts - 1)), rules.work.occ_hi))
    return any(
        sum(inst.cover[d][s] for d in range(days) for s in shifts)
        > n * min(cap, days)
        for shifts, cap in groups
    )


def _sat_decide(clauses):
    return any(
        all(any(bits[abs(lit) - 1] == (lit > 0) for lit in c) for c in clauses)
        for bits in product((False, True), repeat=SAT_PROPS)
    )


def _cover_decide(family):
    universe = frozenset(range(1, COVER_UNIVERSE + 1))
    return any(
        sum(len(s) for s in picked) == COVER_UNIVERSE
        and frozenset().union(*picked) == universe
        for r in range(1, len(family) + 1)
        for picked in combinations(family, r)
    )


def _hitting_decide(edges):
    return any(all(set(p) & e for e in edges)
               for p in combinations(range(HIT_VERTICES), HIT_K))


def evidence(source):
    """The verdict that evidence outside the engine proves: "sat" or
    "unsat" by brute force for reductions, "unsat" by the overload count for
    toy rosters, None when nothing is proved before solving."""
    kind, data = source
    if kind == "toy":
        return "unsat" if _toy_overloaded(*data) else None
    decide = {"3sat": _sat_decide, "cover": _cover_decide,
              "hitting": _hitting_decide}[kind]
    return "sat" if decide(data) else "unsat"


def grid_ok(model, grid):
    index = {v: j for j, v in enumerate(model.values)}
    return check_solution(model, [[index[v] for v in row] for row in grid])


class WrongVerdict(Exception):
    """The engine's answer, the fixture and the evidence disagree."""


def check_fixture(instances, expected):
    """Compute each instance's evidence once and check that the fixture
    agrees with it; runs outside the timed region."""
    for inst in instances:
        inst.evidence = evidence(inst.source)
        want = expected.get(inst.name)
        if want is None:
            raise WrongVerdict(f"{inst.name}: no expected verdict")
        if inst.evidence not in (None, want):
            raise WrongVerdict(
                f"{inst.name}: proved {inst.evidence}, fixture says {want}")


def check_verdict(inst, expected, status, grid):
    """Raise WrongVerdict unless the answer is the expected one and the
    evidence supports it.  Timeouts are not verdicts and pass through."""
    want = expected[inst.name]
    if status == "timeout":
        return
    if status != want:
        raise WrongVerdict(f"{inst.name}: answered {status}, expected {want}")
    if status == "sat" and not grid_ok(inst.model, grid):
        raise WrongVerdict(f"{inst.name}: sat grid fails check_solution")
    if status == "unsat" and inst.evidence != "unsat":
        raise WrongVerdict(f"{inst.name}: unsat without independent proof")


def _fixture_verdict(inst):
    proved = evidence(inst.source)
    if proved is not None:
        return proved
    # A toy roster without an overload proof counts as sat only with a grid.
    out = solve(inst.model, mode="cwa")
    if out.status != "sat" or not grid_ok(inst.model, out.grid):
        raise SystemExit(f"{inst.name}: no evidence for a verdict")
    return "sat"


def write_expected(path=EXPECTED_PATH):
    table = {}
    sizes = {}
    for w in WORKLOADS.values():
        sizes[w.family] = max(sizes.get(w.family, 0), w.size)
    for family, size in sizes.items():
        for gen_seed in GEN_SEEDS:
            instances = [_compile(i, s) for i, s in
                         enumerate(pool_sources(family, gen_seed, size))]
            table.setdefault(family, {})[str(gen_seed)] = {
                inst.name: _fixture_verdict(inst) for inst in instances
            }
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    write_expected()
