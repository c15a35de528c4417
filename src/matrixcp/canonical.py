"""Line-oriented text format for matrix models and roster instances.

A model file looks like:

    MATRIX 3 4 3
    VALUES -1 0 1
    NAME example
    DOMAIN 0 2 0 1         # cell (0,2) restricted to external values {0, 1}
    COL_GCC 1 0 0 2        # column 1: value 0 occurs 0..2 times
    COL_SUM 3 -1 3         # column 3: cell sum between -1 and 3
    LEX 1                  # order the rows lexicographically
    PROPERTY word 2 2      # property specs; sets are comma-joined values
    PROPERTY stretchcount 1,2
    PROPERTY stretchlen 2
    ROW_DFA
    wdfa 2 0
    alphabet 0 1 2
    ...
    END

A roster file instead starts with ROSTER and compiles through the rostering
front end:

    ROSTER 5 7 3           # nurses, days, shifts (shift 3 = off duty)
    NAME week1
    COVER 2 1 0            # one line per day: per-shift coverage lower bounds
    ...
    WORK 3 5 1 4           # occurrence interval, stretch-length interval
    SHIFT 1 0 4 1 3        # same per shift; '-' means unbounded
    SHIFT 2 0 3 1 2
    SHIFT 3 2 4 1 3

Blank lines and '#' comments are ignored, and a NAME line's words are
joined with single spaces, so the writers reject a name that would read back
changed (``name_line``).  DOMAIN/COL_GCC/COL_SUM/PROPERTY
use external values; the ROW_DFA block (the dump_automaton format) runs over
the internal indices 0..V-1 of the ascending VALUES table.  Files without
PROPERTY lines get the default property set, which the cwa mode measures;
a file whose one PROPERTY line is ``PROPERTY none`` gets no property.  A
property given twice, or ``PROPERTY none`` next to another PROPERTY line,
is an error naming the line.  No line declares which value group a
row-rule resource counts: the groups are read off the rule
(``WeightedDfa.count_groups``).
"""

from __future__ import annotations

from .automata import (
    AutomatonError,
    check_fields,
    check_once,
    clean_lines,
    dump_automaton,
    parse_automaton,
)
from .model import (
    MatrixModel,
    StretchCountProp,
    StretchLengthProp,
    WordProp,
    check_property,
)
from .roster import (
    RULE_FIELDS,
    CaseRules,
    NspInstance,
    ShiftRule,
    check_roster,
    dump_case,
    parse_rule_line,
    roster_model,
)


class FormatError(ValueError):
    """Malformed model text."""


# The fields after each model line's tag (see ``check_fields``).
MODEL_FIELDS = {
    "MATRIX": "rows cols values",
    "VALUES": "value ...",
    "NAME": "name ...",
    "DOMAIN": "row col value ...",
    "COL_GCC": "col value lo hi",
    "COL_SUM": "col lo hi",
    "LEX": "flag",
    "PROPERTY": "kind set ...",
    "ROW_DFA": "",
    "END": "",
}


def name_line(name):
    """The ``NAME`` line of ``name``.  A reader strips a ``#`` comment and
    joins the line's words with single spaces, so a name with ``#``, a line
    break, or leading, trailing or repeated whitespace would read back
    changed: ValueError names it."""
    if "#" in name or " ".join(name.split()) != name:
        raise ValueError(f"name {name!r} does not read back from a NAME "
                         "line: it has '#', a line break, or leading, "
                         "trailing or repeated whitespace")
    return f"NAME {name}"


def _property_line(prop, values):
    """The ``PROPERTY`` line of ``prop`` over the ascending ``values``."""
    sets = [",".join(str(values[v]) for v in sorted(vs)) for vs in
            (prop.pattern if isinstance(prop, WordProp) else (prop.vhat,))]
    kind = {WordProp: "word", StretchCountProp: "stretchcount",
            StretchLengthProp: "stretchlen"}[type(prop)]
    return f"PROPERTY {kind} " + " ".join(sets)


def dump_model(model):
    lines = [f"MATRIX {model.n_rows} {model.n_cols} {model.n_values}"]
    lines.append("VALUES " + " ".join(str(v) for v in model.values))
    if model.name:
        lines.append(name_line(model.name))
    full = frozenset(range(model.n_values))
    if model.cell_domains is not None:
        for i in range(model.n_rows):
            for k in range(model.n_cols):
                dm = model.cell_domains[i][k]
                if dm != full:
                    ext = " ".join(str(model.values[v]) for v in sorted(dm))
                    lines.append(f"DOMAIN {i} {k} {ext}")
    for k in range(model.n_cols):
        for v in sorted(model.col_gcc[k]):
            lo, hi = model.col_gcc[k][v]
            lines.append(f"COL_GCC {k} {model.values[v]} {lo} {hi}")
    for k in range(model.n_cols):
        if model.col_sums[k] is not None:
            lo, hi = model.col_sums[k]
            lines.append(f"COL_SUM {k} {lo} {hi}")
    if model.lex_rows:
        lines.append("LEX 1")
    if model.properties == []:
        lines.append("PROPERTY none")
    for prop in model.properties or []:
        lines.append(_property_line(prop, model.values))
    lines.append("ROW_DFA")
    lines.append(dump_automaton(model.row_rule).rstrip("\n"))
    lines.append("END")
    return "\n".join(lines) + "\n"


def dump_roster(inst, rules):
    lines = [f"ROSTER {inst.n_nurses} {inst.n_days} {inst.n_shifts}"]
    if inst.name:
        lines.append(name_line(inst.name))
    for day in inst.cover:
        lines.append("COVER " + " ".join(str(x) for x in day))
    return "\n".join(lines) + "\n" + dump_case(rules)


def _parse_roster(lines):
    rules = None
    name = ""
    cover = []
    cover_lines = []
    seen = {}  # what a line sets -> the number of the line that set it
    for no, ln in lines:
        parts = ln.split()
        tag = parts[0]
        try:
            if tag == "ROSTER":
                check_once(seen, tag, no)
                check_fields(parts, "nurses days shifts")
                n, d, s = (int(x) for x in parts[1:])
                check_roster(n, d, s)
                rules = CaseRules(shifts=[ShiftRule() for _ in range(s)])
            elif tag == "NAME":
                check_fields(parts, MODEL_FIELDS[tag])
                check_once(seen, tag, no)
                name = " ".join(parts[1:])
            elif tag == "COVER":
                cover.append([int(x) for x in parts[1:]])
                cover_lines.append(no)
            elif tag in RULE_FIELDS:
                check_once(seen, parse_rule_line(parts, rules), no)
            else:
                raise ValueError(f"unknown roster line: {ln}")
        except ValueError as exc:
            raise FormatError(f"line {no}: {exc}") from exc
    try:
        check_roster(n, d, s, cover, cover_lines)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    inst = NspInstance(n, d, s, cover, name=name)
    return roster_model(inst, rules)


def parse_model(text):
    """Parse canonical text; roster files are compiled to their matrix model."""
    lines = clean_lines(text)
    if not lines:
        raise FormatError("empty model text")
    if lines[0][1].split()[0] == "ROSTER":
        return _parse_roster(lines)
    header = None
    values = None
    name = ""
    doms = []
    gcc = []
    sums = []
    lex = False
    props = []
    rule = None
    seen = {}  # what a line sets -> the number of the line that set it
    i = 0
    while i < len(lines):
        no, ln = lines[i]
        parts = ln.split()
        tag = parts[0]
        try:
            if tag in MODEL_FIELDS and parts != ["PROPERTY", "none"]:
                check_fields(parts, MODEL_FIELDS[tag])
            if tag in ("MATRIX", "VALUES", "NAME", "LEX", "ROW_DFA"):
                check_once(seen, tag, no)
            if tag == "MATRIX":
                header = (int(parts[1]), int(parts[2]), int(parts[3]))
                if header[0] < 1 or header[1] < 1:
                    raise ValueError(f"a matrix needs at least one row and "
                                     f"one column: {ln}")
            elif tag == "VALUES":
                values = tuple(int(x) for x in parts[1:])
            elif tag == "NAME":
                name = " ".join(parts[1:])
            elif tag == "DOMAIN":
                r, k = int(parts[1]), int(parts[2])
                check_once(seen, f"DOMAIN of cell ({r}, {k})", no)
                doms.append((no, r, k, [int(x) for x in parts[3:]]))
            elif tag == "COL_GCC":
                k, v = int(parts[1]), int(parts[2])
                check_once(seen, f"COL_GCC of value {v} in column {k}", no)
                gcc.append((no, k, v, (int(parts[3]), int(parts[4]))))
            elif tag == "COL_SUM":
                k = int(parts[1])
                check_once(seen, f"COL_SUM of column {k}", no)
                sums.append((no, k, (int(parts[2]), int(parts[3]))))
            elif tag == "LEX":
                if parts[1] not in ("0", "1"):
                    raise ValueError(f"LEX takes 0 or 1: {ln}")
                lex = parts[1] == "1"
            elif tag == "PROPERTY":
                props.append((no, parts[1], parts[2:]))
            elif tag == "ROW_DFA":
                j = i + 1
                while j < len(lines) and lines[j][1].split()[0] != "END":
                    j += 1
                if j == len(lines):
                    raise ValueError("ROW_DFA block missing END")
                block, i = lines[i + 1:j], j
                no, end = lines[j]  # errors from here on name the END line
                check_fields(end.split(), MODEL_FIELDS["END"])
                try:
                    rule = parse_automaton(block)
                except AutomatonError as exc:
                    # It names the block's lines by their file line numbers.
                    raise FormatError(str(exc)) from exc
            elif tag == "ROSTER":
                raise ValueError(f"a roster file starts with its ROSTER "
                                 f"line: {ln}")
            else:
                raise FormatError(f"line {no}: unknown line: {ln}")
        except ValueError as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(f"line {no}: {exc}") from exc
        i += 1
    if header is None or values is None or rule is None:
        raise FormatError("model needs MATRIX, VALUES and ROW_DFA sections")
    R, K, V = header
    if V != len(values):
        raise FormatError("MATRIX value count disagrees with the VALUES table")
    idx = {v: j for j, v in enumerate(values)}

    def to_idx(no, ext):
        if ext not in idx:
            raise FormatError(f"line {no}: value {ext} not in the VALUES table")
        return idx[ext]

    def in_range(no, what, i, n):
        if not 0 <= i < n:
            raise FormatError(f"line {no}: {what} {i} out of range 0..{n - 1}")
        return i

    cell_domains = None
    if doms:
        cell_domains = [[frozenset(range(V)) for _ in range(K)] for _ in range(R)]
        for no, r, k, ext in doms:
            r, k = in_range(no, "row", r, R), in_range(no, "column", k, K)
            cell_domains[r][k] = frozenset(to_idx(no, e) for e in ext)
    col_gcc = [{} for _ in range(K)]
    for no, k, v, b in gcc:
        col_gcc[in_range(no, "column", k, K)][to_idx(no, v)] = b
    col_sums = [None] * K
    for no, k, b in sums:
        col_sums[in_range(no, "column", k, K)] = b

    def parse_set(no, tok):
        return frozenset(to_idx(no, int(x)) for x in tok.split(","))

    properties = None
    if props:
        properties = []
        for no, kind, args in props:
            try:
                if kind == "none":
                    if args or len(props) > 1:
                        raise ValueError("PROPERTY none takes no set and "
                                         "is the only PROPERTY line")
                    continue
                if kind == "word":
                    prop = WordProp(tuple(parse_set(no, a) for a in args))
                elif kind in ("stretchcount", "stretchlen"):
                    if len(args) != 1:
                        raise ValueError(f"PROPERTY {kind} takes one set, "
                                         f"not {len(args)}")
                    prop = (StretchCountProp if kind == "stretchcount"
                            else StretchLengthProp)(parse_set(no, args[0]))
                else:
                    raise ValueError(f"unknown property kind {kind!r}")
                check_property(prop, V)
                check_once(seen, _property_line(prop, values), no)
            except ValueError as exc:
                if isinstance(exc, FormatError):
                    raise
                raise FormatError(f"line {no}: {exc}") from exc
            properties.append(prop)
    try:
        return MatrixModel(
            R, K, values, rule,
            col_gcc=col_gcc,
            col_sums=col_sums,
            cell_domains=cell_domains,
            properties=properties,
            lex_rows=lex,
            name=name,
        )
    except ValueError as exc:
        raise FormatError(f"invalid model: {exc}") from exc
