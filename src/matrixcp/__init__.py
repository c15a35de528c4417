"""Constraint propagation and search for matrix models.

Rows of a variable matrix follow a weighted regular rule, columns obey
cardinality bounds.  The package provides the propagation engine, exact
oracles, hard-instance generators, and a rostering front end.
"""

from .automata import (
    AutomatonError,
    CostMatrices,
    Dfa,
    WeightedDfa,
    build_gcc_weights,
    build_sliding_word_counter,
    build_stretch_count,
    build_stretch_length_bounds,
    build_word_occurrence,
    dump_automaton,
    parse_automaton,
    sequence_window_dfa,
    stretch_length_dfa,
    universal_dfa,
)

from .engine import Inconsistent, Store, search
from .model import (
    MatrixModel,
    StretchCountProp,
    StretchLengthProp,
    WordProp,
    build,
    default_properties,
    root_prune,
    solve,
)
from .oracle import (
    CapExceeded,
    brute_dc,
    brute_solutions,
    brute_solve,
    check_solution,
    encode_matrix_dfa,
    regular2_dc,
    regular2_support,
)
from .canonical import dump_model, dump_roster, parse_model
from .roster import (
    CaseRules,
    NspInstance,
    ShiftRule,
    gen_toy_rosters,
    parse_case,
    parse_nsp,
    roster_model,
    run_bench,
)

__all__ = [
    "AutomatonError",
    "CapExceeded",
    "CaseRules",
    "CostMatrices",
    "Dfa",
    "Inconsistent",
    "MatrixModel",
    "NspInstance",
    "ShiftRule",
    "Store",
    "StretchCountProp",
    "StretchLengthProp",
    "WeightedDfa",
    "WordProp",
    "brute_dc",
    "brute_solutions",
    "brute_solve",
    "build",
    "build_gcc_weights",
    "build_sliding_word_counter",
    "build_stretch_count",
    "build_stretch_length_bounds",
    "build_word_occurrence",
    "check_solution",
    "default_properties",
    "dump_automaton",
    "dump_model",
    "dump_roster",
    "encode_matrix_dfa",
    "gen_toy_rosters",
    "parse_automaton",
    "parse_case",
    "parse_model",
    "parse_nsp",
    "regular2_dc",
    "regular2_support",
    "root_prune",
    "roster_model",
    "run_bench",
    "search",
    "sequence_window_dfa",
    "solve",
    "stretch_length_dfa",
    "universal_dfa",
]

__version__ = "0.1.0"
