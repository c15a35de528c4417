"""matrixcp benchmark: seeded workloads, time to verdict, per-layer trace.

Usage (from the repository root):

    python3 bench/run.py --workload toy-cwa --seed 1 --seconds 20 --trace 0

One run sets up a workload's instance pool (timed several times as
``setup_s``), solves one instance untimed to warm up, then solves the pool
in a closed loop, one instance after another in an order shuffled by
``--seed``, in whole passes until ``--seconds`` have elapsed (at least two
passes).  Each instance is timed by wall clock around
``matrixcp.model.solve``, so the time to build the model counts.  A speed
probe runs before each solve and each set-up, and every time is reported at
reference speed: wall time divided by the mean time of the probes around it
over the reference (``speed.py``).  Raw wall times go to standard error.
The median and tail are Harrell-Davis estimates over the instances.  Every
verdict is checked against evidence independent of the engine (see
``workloads.py``); a wrong verdict exits with code 3 and prints no result.

With ``--trace 0`` the last line of output holds the end-to-end metrics.
With ``--trace 1`` the first half of the time is measured untraced (at least
one pass), then one traced pass calls ``build``, ``Store.propagate`` and
``search`` in place of ``solve`` with every layer's entry points wrapped
(``tracing.py``); the last line holds the per-layer metrics and the spans
are written to ``bench/out/spans-<workload>-seed<seed>.csv.gz``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback

import workloads as W
import speed
import tracing
from matrixcp.engine import search
from matrixcp.model import build, root_prune, solve

# Well above the slowest pool instance (about 3 s on a 2-vCPU virtual
# machine).  The engine checks its deadline only between search nodes, so a
# limit can overrun.
SAFETY_LIMIT_S = 60.0
SETUP_REPEATS = 11
MIN_PASSES = 2  # untraced passes at the least; a traced run makes one
TAIL_BEYOND = 10  # verdict_tail_s: highest percentile with 10 instances beyond
OUT_DIR = os.path.join(W.HERE, "out")

clock = time.perf_counter


class Measurement:
    """The solves of a closed-loop run, each with its instance, start and
    wall time; the speed probes taken between them (``speed.py``); and the
    outcome counts."""

    def __init__(self, n):
        self.n = n
        self.solves = []
        self.probes = speed.Probes()
        self.nodes = [None] * n
        self.attempted = 0
        self.failed = 0

    def record(self, i, start, seconds):
        self.solves.append((i, start, seconds))

    def at_reference(self):
        """(instance, seconds at reference speed) of each solve."""
        around = self.probes.factor_around
        return [(i, seconds / around(start, start + seconds))
                for i, start, seconds in self.solves]

    def _means(self, solves):
        times = [[] for _ in range(self.n)]
        for i, seconds in solves:
            times[i].append(seconds)
        return [statistics.fmean(ts) for ts in times if ts]

    def wall(self):
        """Each solved instance's mean wall time."""
        return self._means((i, seconds) for i, _, seconds in self.solves)

    def per_instance(self):
        """Each solved instance's mean time at reference speed."""
        return self._means(self.at_reference())


def _solve_checked(inst, mode, expected, solver):
    """Run one instance through ``solver``; returns (seconds, status, nodes).
    A wrong verdict raises WrongVerdict; any other exception is a failure."""
    t0 = clock()
    try:
        status, grid, nodes = solver(inst.model, mode)
    except Exception:  # noqa: BLE001 - one broken instance must not end the run
        traceback.print_exc(file=sys.stderr)
        return clock() - t0, "error", 0
    dt = clock() - t0
    W.check_verdict(inst, expected, status, grid)
    return dt, status, nodes


def _plain_solver(model, mode):
    out = solve(model, mode=mode, time_limit=SAFETY_LIMIT_S)
    return out.status, out.grid, out.stats.nodes


def timed_pass(m, instances, order, mode, expected, solver,
               before=lambda i: None):
    """Solve ``instances`` in ``order`` into ``m``, probing before each."""
    for i in order:
        gc.collect()  # each solve starts from the same collector state
        m.probes.take()
        before(i)
        start = clock()
        dt, status, nodes = _solve_checked(instances[i], mode, expected,
                                           solver)
        m.record(i, start, dt)
        m.attempted += 1
        if status in ("timeout", "error"):
            m.failed += 1
        if m.nodes[i] is None:
            m.nodes[i] = nodes
    m.probes.take()


def closed_loop(instances, mode, expected, rng, seconds, min_passes):
    """Solve the instances one after another in passes, each in a freshly
    shuffled order.  A pass is always finished, so every instance is timed
    equally often; after ``min_passes`` passes another starts only if one as
    long as the last still ends within ``seconds``."""
    m = Measurement(len(instances))
    t_end = clock() + seconds
    passes = 0
    while True:
        order = list(range(len(instances)))
        rng.shuffle(order)
        t_pass = clock()
        timed_pass(m, instances, order, mode, expected, _plain_solver)
        passes += 1
        now = clock()
        if passes >= min_passes and now + (now - t_pass) > t_end:
            return m


def root_pruned_values(instances, mode):
    """Cell values removed by root propagation, summed over instances; a
    root-refuted instance counts all of its cell values."""
    total = 0
    for inst in instances:
        model = inst.model
        initial = [[len(model.cell_domain(i, k)) for k in range(model.n_cols)]
                   for i in range(model.n_rows)]
        pruned = root_prune(model, mode)
        for i, row in enumerate(initial):
            for k, size in enumerate(row):
                total += size - (0 if pruned is None else len(pruned[i][k]))
    return total


def metric(value, unit):
    return {"value": value, "unit": unit}


def hd_quantile(xs, p, steps=64):
    """Harrell-Davis estimate of the ``p`` quantile of ``xs``: the mean of
    the order statistics weighted by the Beta((n+1)p, (n+1)(1-p)) mass over
    their ranks.  Where instance times form clusters, a plain order
    statistic jumps from one instance to another with a few percent of
    noise; this estimate moves smoothly."""
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                        - log_beta)

    weights = []
    for k in range(n):  # Simpson's rule over rank k's share of [0, 1]
        h = 1 / (n * steps)
        xs_k = [k / n + j * h for j in range(steps + 1)]
        weights.append(h / 3 * sum(
            (1 if j in (0, steps) else 4 if j % 2 else 2) * density(x)
            for j, x in enumerate(xs_k)))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(m, instances, mode, setup_s):
    per = m.per_instance()
    n = len(per)
    # the quantile at the rank with TAIL_BEYOND instances beyond it
    tail = (hd_quantile(per, (n - TAIL_BEYOND - 1) / (n - 1))
            if n > TAIL_BEYOND else max(per))
    return {
        "solve_s": metric(sum(per), "s"),
        "verdict_p50_s": metric(hd_quantile(per, 0.5), "s"),
        "verdict_tail_s": metric(tail, "s"),
        "solved_ratio": metric((m.attempted - m.failed) / m.attempted, "1"),
        "search_nodes": metric(sum(m.nodes), "count"),
        "root_pruned_values": metric(root_pruned_values(instances, mode),
                                     "count"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(setup_s, "s"),
    }


class TracedSolver:
    """``solve`` spelled out as build, root propagation and search, with a
    span around each and the engine's counters summed."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.stats = dict.fromkeys(
            ("vars", "nodes", "backtracks", "failures", "propagations",
             "root_refuted"), 0)

    def __call__(self, model, mode):
        t, st = self.tracer, self.stats
        with t.span("bench.solve"):
            with t.span("model.build"):
                b = build(model, mode)
            st["vars"] += len(b.store.domains)
            if not b.root_infeasible:
                with t.span("engine.root"):
                    root = b.store.propagate()
            if b.root_infeasible or root == "failed":
                st["failures"] += 1
                st["root_refuted"] += 1
                st["propagations"] += b.store.propagation_count
                return "unsat", None, 0
            with t.span("engine.search"):
                res = search(b.store, b.branch_vars,
                             time_limit=SAFETY_LIMIT_S)
        for key in ("nodes", "backtracks", "failures", "propagations"):
            st[key] += getattr(res.stats, key)
        grid = b.grid_of(res.solution) if res.solution is not None else None
        return res.status, grid, res.stats.nodes


def per_layer(tracer, solver, traced, untraced):
    """Per-layer metrics of the traced pass; its times are brought to
    reference speed by the probes of that pass."""
    totals = tracer.totals()
    counts = tracer.counts
    f = traced.probes.factor()
    seconds = lambda name: totals.get(name, (0, 0.0))[1] / f  # noqa: E731
    calls = lambda name: totals.get(name, (0, 0.0))[0]  # noqa: E731
    out = {}

    def put(name, value, unit):
        out[name] = metric(value, unit)

    for cname in tracing.PROPAGATOR_CLASSES:
        key = f"propagators.{cname}"
        n = calls(key)
        put(f"{key}.calls", n, "count")
        put(f"{key}.s", seconds(key), "s")
        put(f"{key}.removals", counts.get(f"{key}.removals", 0), "count")
        put(f"{key}.useful_ratio",
            counts.get(f"{key}.useful", 0) / n if n else 0.0, "1")
    put("automata.product_calls", calls("automata.product"), "count")
    put("automata.product_s", seconds("automata.product"), "s")
    put("automata.product_states", counts.get("automata.product_states", 0),
        "count")
    put("automata.cross_fallbacks", counts.get("automata.cross_fallbacks", 0),
        "count")
    put("model.build_s", seconds("model.build"), "s")
    put("model.vars", solver.stats["vars"], "count")
    put("model.propagators", counts.get("model.propagators", 0), "count")
    put("model.achievable_totals_s", seconds("model.achievable_totals"), "s")
    put("model.measuring_automata_s", seconds("model.measuring_automata"), "s")
    search_s = seconds("engine.search")
    self_s = search_s - tracer.child_seconds("engine.search",
                                             "propagators.") / f
    put("engine.root_s", seconds("engine.root"), "s")
    put("engine.search_s", search_s, "s")
    put("engine.search_self_s", self_s, "s")
    put("engine.undo_s", seconds("engine.undo"), "s")
    for key in ("nodes", "backtracks", "failures", "propagations",
                "root_refuted"):
        put(f"engine.{key}", solver.stats[key], "count")
    put("roster.compile_s", seconds("setup:roster.compile"), "s")
    put("trace.overhead_s",
        seconds("bench.solve") - sum(untraced.per_instance()), "s")
    put("bench.wall_solve_s", sum(untraced.wall()), "s")
    put("bench.probe_s", statistics.fmean(untraced.probes.seconds), "s")
    return out


def traced_pass(args, wl, count, instances, expected, rng):
    """One traced set-up (for ``roster.compile_s``) and one traced pass."""
    tracer = tracing.Tracer()
    solver = TracedSolver(tracer)
    traced = Measurement(len(instances))
    with tracing.installed(tracer):
        W.setup(wl, args.gen_seed, count, args.expected)
        order = list(range(len(instances)))
        rng.shuffle(order)
        timed_pass(traced, instances, order, wl.mode, expected, solver,
                   before=lambda i: setattr(tracer, "instance", i))
        tracer.instance = -1
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(
        OUT_DIR, f"spans-{wl.name}-seed{args.seed}.csv.gz"))
    return tracer, solver, traced


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="seeds the order in which instances are solved")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gen-seed", type=int, default=W.DEFAULT_GEN_SEED,
                    help=f"instance generator seed (held-out: "
                         f"{W.HELD_OUT_GEN_SEED})")
    ap.add_argument("--instances", type=int, default=None,
                    help="solve only the first N pool instances (smoke runs)")
    ap.add_argument("--expected", default=W.EXPECTED_PATH,
                    help="expected-verdict fixture")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    wl = W.WORKLOADS[args.workload]
    count = min(args.instances or wl.size, wl.size)
    rng = random.Random(args.seed)

    speed.probe()  # warm-up
    setups = Measurement(1)
    for _ in range(SETUP_REPEATS):
        gc.collect()  # garbage of the previous set-up is not this one's cost
        setups.probes.take()
        t0 = clock()
        instances, expected = W.setup(wl, args.gen_seed, count, args.expected)
        setups.record(0, t0, clock() - t0)
    setups.probes.take()
    setup_s = statistics.median(t for _, t in setups.at_reference())
    gc.freeze()  # the pool stays alive; keep it out of every collection
    try:
        W.check_fixture(instances, expected)
        _solve_checked(instances[0], wl.mode, expected, _plain_solver)
        if args.trace:
            m = closed_loop(instances, wl.mode, expected, rng,
                            args.seconds / 2, 1)
            tracer, solver, traced = traced_pass(
                args, wl, count, instances, expected, rng)
        else:
            m = closed_loop(instances, wl.mode, expected, rng, args.seconds,
                            MIN_PASSES)
    except W.WrongVerdict as exc:
        print(f"wrong verdict: {exc}", file=sys.stderr)
        return 3

    print(f"wall: solve {sum(m.wall()):.4f} s, passes "
          f"{m.attempted // len(instances)}, setup "
          f"{statistics.median(s for _, _, s in setups.solves):.5f} s; "
          f"mean probe {statistics.fmean(m.probes.seconds) * 1000:.3f} ms "
          f"(reference {speed.REFERENCE_S * 1000:g} ms)", file=sys.stderr)
    if args.trace:
        metrics = per_layer(tracer, solver, traced, m)
        attempted = m.attempted + traced.attempted
        failed = m.failed + traced.failed
    else:
        metrics = end_to_end(m, instances, wl.mode, setup_s)
        attempted, failed = m.attempted, m.failed
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
