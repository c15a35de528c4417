"""Command line interface: solve model files, generate instances, run the
rostering benchmark, and query the brute-force oracle."""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import canonical, generators, oracle, roster
from .model import MODES, solve


def _at_least(least, kind=int):
    """An argparse type: a number of type ``kind`` of at least ``least``."""

    def count(text):
        value = kind(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, not {value}")
        return value

    return count


def _modes(text):
    """An argparse type: a comma-separated list of filtering modes."""
    modes = tuple(text.split(","))
    for mode in modes:
        if mode not in MODES:
            raise argparse.ArgumentTypeError(
                f"unknown mode {mode!r}; modes are {', '.join(MODES)}")
    return modes


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path):
    """Parse the model file at ``path``; a FormatError names the file."""
    try:
        return canonical.parse_model(_read(path))
    except canonical.FormatError as exc:
        raise canonical.FormatError(f"{path}: {exc}") from exc


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _grid_text(grid):
    return "\n".join(" ".join(str(v) for v in row) for row in grid) + "\n"


def cmd_solve(args):
    model = _load(args.model)
    out = solve(model, mode=args.mode, time_limit=args.time_limit)
    s = out.stats
    print(f"status {out.status}")
    print(
        f"stats nodes={s.nodes} backtracks={s.backtracks} "
        f"failures={s.failures} root_failure={int(s.root_failure)} "
        f"propagations={s.propagations} time={out.elapsed:.3f}s"
    )
    if out.grid is not None:
        sys.stdout.write(_grid_text(out.grid))
    return {"sat": 0, "unsat": 1}.get(out.status, 2)


def cmd_oracle(args):
    model = _load(args.model)
    if args.count:
        sols = oracle.brute_solutions(model, cap=args.cap)
        print(f"status {'sat' if sols else 'unsat'}")
        print(f"solutions {len(sols)}")
        return 0 if sols else 1
    status, grid = oracle.brute_solve(model, cap=args.cap)
    print(f"status {status}")
    if grid is not None:
        sys.stdout.write(_grid_text([[model.values[v] for v in row]
                                     for row in grid]))
    return 0 if status == "sat" else 1


def _random_clauses(rng, n_props, n_clauses):
    clauses = []
    for _ in range(n_clauses):
        size = rng.randint(1, 3)
        lits = set()
        while len(lits) < size:
            p = rng.randint(1, n_props)
            lits.add(p if rng.random() < 0.5 else -p)
        clauses.append(lits)
    return clauses


def cmd_gen(args):
    rng = random.Random(args.seed)
    kind = args.kind
    if kind == "roster":
        pairs = roster.gen_toy_rosters(
            args.seed, 1, n_shifts=args.shifts, n_days=args.days,
            sizes=(args.nurses,),
        )
        inst, rules = pairs[0]
        _write(args.out, canonical.dump_roster(inst, rules))
        return 0
    if kind == "random":
        model = generators.gen_random(
            args.seed, args.rows, args.cols, args.values,
            n_states=args.states, n_resources=args.resources,
            tightness=args.tightness,
        )
    elif kind == "3sat":
        model = generators.gen_3sat(
            _random_clauses(rng, args.props, args.clauses), args.props
        )
    elif kind == "exactcover":
        family = []
        for _ in range(args.sets):
            size = rng.randint(1, args.universe)
            family.append(set(rng.sample(range(1, args.universe + 1), size)))
        model = generators.gen_exact_cover(family, args.universe)
    elif kind in ("3dm-dc", "3dm-bc"):
        triples = [
            (rng.randrange(args.size), rng.randrange(args.size),
             rng.randrange(args.size))
            for _ in range(args.triples)
        ]
        gen = (generators.gen_3dm_dc if kind == "3dm-dc"
               else generators.gen_3dm_bc)
        model = gen(triples, args.size)
    elif kind == "hitting":
        edges = []
        for _ in range(args.edges):
            size = rng.randint(1, args.vertices)
            edges.append(set(rng.sample(range(args.vertices), size)))
        model = generators.gen_hitting_set(
            args.vertices, edges, args.k, variant=args.variant
        )
    else:
        raise SystemExit(f"unknown generator {kind!r}")
    _write(args.out, canonical.dump_model(model))
    return 0


def cmd_bench(args):
    if args.dir is not None:
        paths = sorted(
            p for p in os.listdir(args.dir)
            if os.path.isfile(os.path.join(args.dir, p))
        )
        models = [_load(os.path.join(args.dir, p)) for p in paths]
        for p, m in zip(paths, models):
            if not m.name:
                m.name = p
    else:
        pairs = roster.gen_toy_rosters(args.seed, args.toy)
        models = [roster.roster_model(inst, rules) for inst, rules in pairs]
    records = roster.run_bench(models, modes=args.modes,
                               time_limit=args.time_limit)
    tsv = roster.bench_tsv(records)
    _write(args.out, tsv)
    if args.out not in (None, "-"):
        sys.stdout.write(tsv)
    sys.stdout.write("\n" + roster.bench_summary(records))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="matrixcp",
        description="Propagation and search for matrix models with "
        "weighted-automaton rows and cardinality columns.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    positive, nonnegative = _at_least(1), _at_least(0)
    seconds = _at_least(0, float)

    p = sub.add_parser("solve", help="solve a model file")
    p.add_argument("model", help="model file path or - for stdin")
    p.add_argument("--mode", choices=MODES, default="wa")
    p.add_argument("--time-limit", type=seconds, default=180.0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="brute-force solve a model file")
    p.add_argument("model")
    p.add_argument("--cap", type=positive, default=10_000_000,
                   help="search-node budget guard")
    p.add_argument("--count", action="store_true",
                   help="count all solutions instead of finding one")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate an instance as a model file")
    p.add_argument("kind", choices=(
        "3sat", "exactcover", "3dm-dc", "3dm-bc", "hitting", "random",
        "roster"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--rows", type=positive, default=4)
    p.add_argument("--cols", type=positive, default=4)
    p.add_argument("--values", type=positive, default=3)
    p.add_argument("--states", type=positive, default=3)
    p.add_argument("--resources", type=nonnegative, default=1)
    p.add_argument("--tightness", type=float, default=0.4)
    p.add_argument("--props", type=positive, default=3)
    p.add_argument("--clauses", type=positive, default=4)
    p.add_argument("--sets", type=positive, default=4)
    p.add_argument("--universe", type=positive, default=3)
    p.add_argument("--size", type=positive, default=2, help="coordinate set size")
    p.add_argument("--triples", type=positive, default=4)
    p.add_argument("--vertices", type=positive, default=4)
    p.add_argument("--edges", type=nonnegative, default=3)
    p.add_argument("--k", type=positive, default=2)
    p.add_argument("--variant", choices=("gcc", "sum"), default="gcc")
    p.add_argument("--nurses", type=positive, default=5)
    p.add_argument("--days", type=positive, default=7)
    p.add_argument("--shifts", type=_at_least(2), default=3,
                   help="shifts per day, the off shift included")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "bench",
        help="benchmark model files from a directory, or generated toys",
    )
    p.add_argument("dir", nargs="?", default=None,
                   help="directory of model files; omit to generate toys")
    p.add_argument("--toy", type=positive, default=50, help="toy instance count")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--modes", type=_modes, default=",".join(MODES))
    p.add_argument("--time-limit", type=seconds, default=180.0)
    p.add_argument("--out", default=None, help="TSV output path")
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    # Exit 1 means unsat to solve and oracle, so bad input exits 3.  A
    # FormatError names its file (see _load), an OSError names it itself.
    try:
        return args.func(args)
    except oracle.CapExceeded as exc:  # only the oracle command raises it
        print(f"matrixcp oracle: {args.model}: {exc}", file=sys.stderr)
    except (canonical.FormatError, OSError) as exc:
        print(f"matrixcp {args.cmd}: {exc}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
