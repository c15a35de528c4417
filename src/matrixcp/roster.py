"""Nurse rostering front end and benchmark harness.

A roster is an N x D matrix over shifts 1..S where S is the off-duty shift.
Instance files give per-day per-shift coverage lower bounds; case files give
per-row occurrence and stretch-length rules.  The row rule compiles to one
automaton (stretch filters) carrying one counting resource per shift plus one
for the working-shift group, so occurrence bounds ride along as resource
bounds and feed the aggregate count conditions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .automata import (
    WeightedDfa,
    build_gcc_weights,
    check_fields,
    check_once,
    clean_lines,
    stretch_length_dfa,
)
from .model import MatrixModel, solve
from .oracle import check_solution


@dataclass
class ShiftRule:
    occ_lo: int = 0
    occ_hi: int = 10**9
    stretch_lo: int = 1
    stretch_hi: int | None = None


@dataclass
class CaseRules:
    """Hard per-row rules: one entry per shift plus the working-shift group."""

    shifts: list = field(default_factory=list)  # ShiftRule per shift 1..S
    work: ShiftRule = field(default_factory=ShiftRule)


@dataclass
class NspInstance:
    n_nurses: int
    n_days: int
    n_shifts: int
    cover: list  # n_days x n_shifts lower bounds
    name: str = ""


def check_roster(n, d, s, cover=None, lines=None):
    """Raise ValueError unless n nurses, d days and s shifts make a roster
    (at least 1 nurse, 1 day and 2 shifts, the last one off duty) and
    ``cover``, if given, holds d days of s coverage lower bounds, none below
    0.  A day's error starts with its line from ``lines`` (one number per
    day) if given, else with the day, counted from 1."""
    if n < 1 or d < 1 or s < 2:
        raise ValueError(f"a roster needs at least 1 nurse, 1 day and 2 "
                         f"shifts (one off duty), not {n} x {d} x {s}")
    if cover is not None and len(cover) != d:
        raise ValueError(f"expected {d} days of coverage, found {len(cover)}")
    for j, day in enumerate(cover or ()):
        where = f"line {lines[j]}" if lines else f"day {j + 1}"
        if len(day) != s:
            raise ValueError(f"{where}: expected {s} coverage bounds, one "
                             f"per shift, found {len(day)}")
        if min(day) < 0:
            raise ValueError(f"{where}: coverage bound {min(day)} is below 0")


def _ints(toks):
    """The integers of the numbered tokens ``toks``; a token that is not one
    raises ValueError naming its line."""
    out = []
    for no, tok in toks:
        try:
            out.append(int(tok))
        except ValueError:
            raise ValueError(f"line {no}: expected an integer, "
                             f"found {tok!r}") from None
    return out


def parse_nsp(text, name=""):
    """Instance file: header ``N D S`` then D coverage lines of S integers
    (lower bounds per day and shift), as ``check_roster`` requires them.
    Preference lines after that are ignored."""
    toks = [(no, tok) for no, ln in clean_lines(text) for tok in ln.split()]
    if len(toks) < 3:
        raise ValueError("instance header must give N D S")
    n, d, s = _ints(toks[:3])
    try:
        check_roster(n, d, s)
    except ValueError as exc:
        raise ValueError(f"line {toks[0][0]}: {exc}") from exc
    body = toks[3:3 + d * s]
    if len(body) < d * s:
        raise ValueError("instance file is missing coverage entries")
    cover = [_ints(body[j * s:(j + 1) * s]) for j in range(d)]
    check_roster(n, d, s, cover, [body[j * s][0] for j in range(d)])
    return NspInstance(n, d, s, cover, name=name)


def dump_nsp(inst):
    lines = [f"{inst.n_nurses} {inst.n_days} {inst.n_shifts}"]
    for row in inst.cover:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


RULE_FIELDS = {
    "WORK": "occ_lo occ_hi stretch_lo stretch_hi",
    "SHIFT": "s occ_lo occ_hi stretch_lo stretch_hi",
}


def parse_rule_line(parts, rules):
    """Set the rule that one split ``WORK`` or ``SHIFT`` line gives.

    ``WORK`` sets the working-shift group's rule in ``rules``, ``SHIFT s``
    that of shift s in 1..S; stretch_hi may be '-' for unbounded.  Returns
    what the line sets, ``WORK`` or ``SHIFT s``.  Raises ValueError on a line
    without exactly its ``RULE_FIELDS``, naming a shift out of range, with
    an occurrence bound below 0, or with an occurrence or stretch-length
    interval that holds no value.
    """
    tag = parts[0]
    check_fields(parts, RULE_FIELDS[tag])
    lo, hi, slo, shi = parts[-4:]
    rule = ShiftRule(int(lo), int(hi), int(slo),
                     None if shi == "-" else int(shi))
    if rule.occ_lo > rule.occ_hi:
        raise ValueError(f"empty occurrence interval: {' '.join(parts)}")
    if rule.occ_lo < 0:
        raise ValueError(f"occurrence bound {rule.occ_lo} is below 0: "
                         f"{' '.join(parts)}")
    if rule.stretch_hi is not None and rule.stretch_hi < max(rule.stretch_lo, 1):
        raise ValueError(f"empty stretch-length interval: {' '.join(parts)}")
    if tag == "WORK":
        rules.work = rule
        return tag
    s, n_shifts = int(parts[1]), len(rules.shifts)
    if not 1 <= s <= n_shifts:
        raise ValueError(f"SHIFT {s} out of range 1..{n_shifts}")
    rules.shifts[s - 1] = rule
    return f"SHIFT {s}"


def parse_case(text, n_shifts):
    """Case file: one ``WORK`` line plus one ``SHIFT`` line per shift, as
    ``parse_rule_line`` reads them."""
    rules = CaseRules(shifts=[ShiftRule() for _ in range(n_shifts)])
    seen = {}
    for no, ln in clean_lines(text):
        parts = ln.split()
        try:
            if parts[0] not in RULE_FIELDS:
                raise ValueError(f"unknown case line: {ln}")
            check_once(seen, parse_rule_line(parts, rules), no)
        except ValueError as exc:
            raise ValueError(f"line {no}: {exc}") from exc
    return rules


def dump_case(rules):
    def tok(x):
        return "-" if x is None else str(x)

    w = rules.work
    lines = [f"WORK {w.occ_lo} {w.occ_hi} {w.stretch_lo} {tok(w.stretch_hi)}"]
    for s, r in enumerate(rules.shifts, start=1):
        lines.append(
            f"SHIFT {s} {r.occ_lo} {r.occ_hi} {r.stretch_lo} {tok(r.stretch_hi)}"
        )
    return "\n".join(lines) + "\n"


def roster_model(inst, rules):
    """Compile an instance plus case rules into a matrix model.

    Shifts are external values 1..S (S = off duty); working shifts are
    1..S-1.  Stretch-length rules become row automaton filters; occurrence
    rules become counting resources; coverage becomes per-column cardinality
    lower bounds.  The wa/cwa modes tie the occurrence resources to the
    column counts, and cwa also measures, per shift, occurrence counts,
    words of length up to two, and stretch count and length (the default
    property set).  Rows are interchangeable, so they are lex-ordered.  Raises ValueError unless the instance passes
    ``check_roster`` and the case gives rules for the instance's shifts.
    """
    N, D, S = inst.n_nurses, inst.n_days, inst.n_shifts
    check_roster(N, D, S, inst.cover)
    if len(rules.shifts) != S:
        raise ValueError(f"the case gives rules for {len(rules.shifts)} "
                         f"shifts, the instance has {S}")
    values = tuple(range(1, S + 1))
    alphabet = tuple(range(S))
    working = frozenset(range(S - 1))

    rule = WeightedDfa.plain(
        stretch_length_dfa(working, alphabet, rules.work.stretch_lo,
                           rules.work.stretch_hi)
    )
    for s in range(S):
        r = rules.shifts[s]
        if r.stretch_lo <= 1 and r.stretch_hi is None:
            continue
        filt = stretch_length_dfa({s}, alphabet, r.stretch_lo, r.stretch_hi)
        rule = rule.product(WeightedDfa.plain(filt), D)

    groups = [frozenset((s,)) for s in range(S)] + [working]
    bounds = [
        (min(rules.shifts[s].occ_lo, D), min(rules.shifts[s].occ_hi, D))
        for s in range(S)
    ]
    bounds.append((min(rules.work.occ_lo, D), min(rules.work.occ_hi, D)))
    rule = rule.product(build_gcc_weights(alphabet, groups, bounds), D)

    col_gcc = []
    for d in range(D):
        spec = {}
        for s in range(S):
            lo = inst.cover[d][s]
            if lo > 0:
                spec[s] = (lo, N)
        col_gcc.append(spec)

    return MatrixModel(
        N, D, values, rule,
        col_gcc=col_gcc,
        lex_rows=True,
        name=inst.name or f"roster_{N}x{D}",
    )


def default_toy_case(n_shifts):
    """A small seven-day case: modest occurrence windows, short stretches."""
    rules = CaseRules(shifts=[ShiftRule() for _ in range(n_shifts)])
    rules.work = ShiftRule(3, 5, 1, 4)
    for s in range(n_shifts - 1):
        rules.shifts[s] = ShiftRule(0, 4, 1, 3)
    if n_shifts >= 2:
        rules.shifts[n_shifts - 2] = ShiftRule(0, 3, 1, 2)  # scarce last shift
    rules.shifts[n_shifts - 1] = ShiftRule(2, 4, 1, 3)      # off-duty
    return rules


def gen_toy_rosters(seed, count, n_shifts=3, n_days=7, sizes=(5, 8)):
    """Deterministic toy suite mixing satisfiable and conflicted instances.

    Roughly 60% draw per-day coverage loose enough to admit rosters; the rest
    overload one shift group so the total demand exceeds what the occurrence
    rules allow, which is invisible to per-day reasoning.
    """
    rng = random.Random(seed)
    rules = default_toy_case(n_shifts)
    out = []
    for idx in range(count):
        n = rng.choice(sizes)
        make_unsat = rng.random() < 0.4
        cover = []
        for _ in range(n_days):
            day = [0] * n_shifts
            # coverage only for working shifts
            day[0] = rng.randint(1, max(1, n // 3))
            day[1] = rng.randint(0, 1)
            cover.append(day)
        if make_unsat:
            # Overload: demand more of the scarce shift than the occurrence
            # caps allow across the horizon.
            cap = n * rules.shifts[1].occ_hi
            need = cap + rng.randint(1, n_days)
            base, extra = divmod(need, n_days)
            for d in range(n_days):
                cover[d][1] = base + (1 if d < extra else 0)
        inst = NspInstance(
            n, n_days, n_shifts, cover,
            name=f"toy{idx:03d}_{'u' if make_unsat else 's'}",
        )
        out.append((inst, rules))
    return out


@dataclass
class BenchRecord:
    instance: str
    mode: str
    status: str
    elapsed: float
    nodes: int
    backtracks: int
    root_failure: bool


def check_modes(modes):
    """Raise a ValueError naming the first mode listed twice in ``modes``."""
    for i, mode in enumerate(modes):
        if mode in modes[:i]:
            raise ValueError(f"mode {mode!r} is repeated")


def run_bench(models, modes=("decomp", "wa", "cwa"), time_limit=180.0,
              node_limit=None):
    """Solve every model under every mode sequentially, each within
    ``time_limit`` seconds and ``node_limit`` search nodes (see ``solve``);
    returns records.

    Every sat outcome is re-checked against the model by the exact oracle
    before being reported.  A mode may be listed once (``check_modes``)."""
    check_modes(modes)
    records = []
    for model in models:
        for mode in modes:
            out = solve(model, mode=mode, time_limit=time_limit,
                        node_limit=node_limit)
            if out.status == "sat":
                idx = {v: j for j, v in enumerate(model.values)}
                internal = [[idx[v] for v in row] for row in out.grid]
                if not check_solution(model, internal):
                    raise RuntimeError(
                        f"solver returned a bad solution on {model.name}"
                    )
            records.append(
                BenchRecord(
                    model.name, mode, out.status, out.elapsed,
                    out.stats.nodes, out.stats.backtracks,
                    out.stats.root_failure,
                )
            )
    return records


def bench_tsv(records):
    lines = ["instance\tmode\tstatus\ttime\tnodes\tbacktracks\troot_fail"]
    for r in records:
        lines.append(
            f"{r.instance}\t{r.mode}\t{r.status}\t{r.elapsed:.3f}"
            f"\t{r.nodes}\t{r.backtracks}\t{int(r.root_failure)}"
        )
    return "\n".join(lines) + "\n"


def bench_summary(records):
    """Aligned per-mode table: status counts (``unsolved`` counts the
    searches a time limit or node budget stopped), then #Inst (solved), mean
    Time and mean #Bktk over the instances solved by every mode.

    Records come as ``run_bench`` makes them, each model's modes in turn.
    Models may share a name, so a record starts a new instance when its
    name differs from the previous record's or its mode already has a
    record in the current instance."""
    modes = []
    for r in records:
        if r.mode not in modes:
            modes.append(r.mode)
    insts = []  # per instance: mode -> record
    prev = None
    for r in records:
        if not insts or r.instance != prev or r.mode in insts[-1]:
            insts.append({})
        insts[-1][r.mode] = r
        prev = r.instance
    common = [
        rs for rs in insts
        if all(m in rs and rs[m].status in ("sat", "unsat") for m in modes)
    ]
    rows = []
    for m in modes:
        rs = [inst[m] for inst in insts if m in inst]
        sat = sum(1 for r in rs if r.status == "sat")
        uns = sum(1 for r in rs if r.status == "unsat")
        com = [inst[m] for inst in common]
        mean_t = sum(r.elapsed for r in com) / len(com) if com else 0.0
        mean_b = sum(r.backtracks for r in com) / len(com) if com else 0.0
        rows.append((m, str(sat), str(uns), str(len(rs) - sat - uns),
                     str(sat + uns), f"{mean_t:.3f}", f"{mean_b:.1f}"))
    head = ("mode", "sat", "unsat", "unsolved", "#Inst", "Time", "#Bktk")
    widths = [
        max(len(head[c]), *(len(r[c]) for r in rows)) if rows else len(head[c])
        for c in range(len(head))
    ]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*head)]
    lines.extend(fmt.format(*r) for r in rows)
    return "\n".join(lines) + "\n"
