import re
from pathlib import Path

import pytest

from matrixcp.automata import (
    build_gcc_weights,
    parse_automaton,
    stretch_length_dfa,
)
from matrixcp.canonical import FormatError, dump_model, dump_roster, parse_model
from matrixcp.generators import gen_hitting_set, gen_random
from matrixcp.model import (
    MatrixModel,
    StretchCountProp,
    StretchLengthProp,
    WordProp,
    solve,
)
from matrixcp.oracle import brute_dc
from matrixcp.roster import gen_toy_rosters, roster_model

SAT_2X2 = """\
MATRIX 2 2 2
VALUES 0 1
ROW_DFA
wdfa 1 0
alphabet 0 1
accept 0
resources 1
bound 0 0 2
trans 0 0 0
trans 0 1 0 0:1
END
"""


def full_featured_model():
    rule = build_gcc_weights((0, 1, 2), groups=[{1}, {2}], bounds=[(0, 3), (0, 2)])
    return MatrixModel(
        2, 3, (-1, 0, 5), rule,
        col_gcc=[{1: (0, 1)}, {}, {2: (1, 2)}],
        col_sums=[None, (-2, 5), None],
        cell_domains=[[{0, 1, 2}, {1}, {0, 2}], [{0, 1, 2}] * 3],
        properties=[
            WordProp((frozenset({1}), frozenset({1, 2}))),
            StretchCountProp(frozenset({2})),
            StretchLengthProp(frozenset({0})),
        ],
        lex_rows=True,
        name="featured",
    )


class TestModelRoundTrip:
    def test_dump_parse_dump_is_identity(self):
        for m in (full_featured_model(), gen_random(12, 3, 4, 3),
                  gen_hitting_set(3, [{0, 1}, {1, 2}], 2, variant="sum")):
            text = dump_model(m)
            again = dump_model(parse_model(text))
            assert again == text

    def test_parsed_model_keeps_semantics(self):
        m = full_featured_model()
        back = parse_model(dump_model(m))
        assert back.values == m.values
        assert back.col_gcc == m.col_gcc
        assert back.col_sums == m.col_sums
        assert back.cell_domains == m.cell_domains
        assert back.row_rule.count_groups() == m.row_rule.count_groups() == (
            (frozenset({1}), 0), (frozenset({2}), 1))
        assert back.lex_rows == m.lex_rows

    @pytest.mark.parametrize("mode", ["wa", "cwa"])
    def test_roster_model_round_trips_with_its_count_groups(self, mode):
        m = roster_model(*gen_toy_rosters(4242, 3)[2])  # sat after search
        back = parse_model(dump_model(m))
        assert back.row_rule.count_groups() == m.row_rule.count_groups()
        assert len(m.row_rule.count_groups()) == 4
        a, b = ((o.status, o.stats.nodes, o.stats.backtracks, o.stats.propagations)
                for o in (solve(m, mode), solve(back, mode)))
        assert a == b and a[0] == "sat" and a[1] > 0

    def test_parsed_model_solves_identically(self):
        m = gen_random(99, 2, 3, 2)
        back = parse_model(dump_model(m))
        assert brute_dc(back) == brute_dc(m)

    def test_domains_use_external_values(self):
        m = full_featured_model()
        text = dump_model(m)
        assert "DOMAIN 0 1 0" in text       # internal {1} is external 0
        assert "COL_GCC 2 5 1 2" in text    # internal 2 is external 5

    def test_default_properties_stay_implicit(self):
        m = gen_random(4, 2, 2, 2)
        assert m.properties is None
        assert "PROPERTY" not in dump_model(m)

    @pytest.mark.parametrize("name", [
        "week#1  two", "week#1", "week  two", " week", "week ", "week\ntwo",
        "week\ttwo", "week\u2028two"])
    def test_name_that_would_read_back_changed_rejected(self, name):
        m = gen_random(1, 2, 2, 2)
        m.name = name
        with pytest.raises(ValueError, match="does not read back"):
            dump_model(m)
        inst, rules = gen_toy_rosters(8, 1)[0]
        inst.name = name
        with pytest.raises(ValueError, match="does not read back"):
            dump_roster(inst, rules)

    def test_name_with_single_spaces_reads_back(self):
        m = gen_random(1, 2, 2, 2)
        m.name = "week 1, two-3"
        assert parse_model(dump_model(m)).name == "week 1, two-3"
        inst, rules = gen_toy_rosters(8, 1)[0]
        inst.name = "week 1"
        assert parse_model(dump_roster(inst, rules)).name == "week 1"


class TestParseErrors:
    def test_empty_text(self):
        with pytest.raises(FormatError):
            parse_model("")

    def test_unknown_directive_carries_line_number(self):
        text = dump_model(gen_random(1, 2, 2, 2)) + "WIDGET 1\n"
        with pytest.raises(FormatError, match=r"line \d+"):
            parse_model(text)

    def test_missing_row_dfa(self):
        with pytest.raises(FormatError, match="ROW_DFA"):
            parse_model("MATRIX 1 1 2\nVALUES 0 1\n")

    def test_missing_end(self):
        text = dump_model(gen_random(1, 2, 2, 2)).replace("\nEND\n", "\n")
        with pytest.raises(FormatError, match="END"):
            parse_model(text)

    def test_value_count_mismatch(self):
        text = dump_model(gen_random(1, 2, 2, 2)).replace(
            "MATRIX 2 2 2", "MATRIX 2 2 3")
        with pytest.raises(FormatError, match="VALUES"):
            parse_model(text)

    @pytest.mark.parametrize("line, message", [
        ("COL_GCC 9 1 2 2", "column 9"),
        ("COL_SUM 9 5 5", "column 9"),
        ("DOMAIN 5 0 1", "row 5"),
    ])
    def test_out_of_range_index_names_its_line(self, line, message):
        text = SAT_2X2.replace("ROW_DFA", line + "\nROW_DFA")
        assert solve(parse_model(SAT_2X2)).status == "sat"
        with pytest.raises(FormatError, match=f"line 3: {message}"):
            parse_model(text)

    def test_countgroup_line_names_its_line(self):
        # Count groups are read off the rule, so a line declaring one is
        # unknown rather than silently ignored, even where it is true.
        text = SAT_2X2.replace("ROW_DFA", "COUNTGROUP 0 1\nROW_DFA")
        with pytest.raises(FormatError,
                           match="^line 3: unknown line: COUNTGROUP 0 1$"):
            parse_model(text)

    @pytest.mark.parametrize("line, fields", [
        ("DOMAIN 0 1", "row col value ..."),
        ("COL_GCC 0 1", "col value lo hi"),
        ("COL_SUM 0 1", "col lo hi"),
        ("LEX", "flag"),
        ("LEX 1 1", "flag"),
        ("VALUES", "value ..."),
        ("PROPERTY word", "kind set ..."),
        ("NAME", "name ..."),
    ], ids=["DOMAIN", "COL_GCC", "COL_SUM", "LEX", "LEX-long", "VALUES",
            "PROPERTY", "NAME"])
    def test_short_line_names_its_fields(self, line, fields):
        text = SAT_2X2.replace("ROW_DFA", line + "\nROW_DFA")
        with pytest.raises(FormatError,
                           match=f"line 3: .*{fields}: {line}$"):
            parse_model(text)

    def test_short_header_names_its_fields(self):
        with pytest.raises(FormatError,
                           match="line 1: .*rows cols values: MATRIX 2 2$"):
            parse_model(SAT_2X2.replace("MATRIX 2 2 2", "MATRIX 2 2"))

    @pytest.mark.parametrize("old, new, no, message", [
        ("trans 0 0 0", "trans 0 0", 9,
         "trans needs fields state symbol target [resource:cost ...]: "
         "trans 0 0"),
        ("bound 0 0 2", "bound 0 0", 8,
         "bound needs fields resource lo hi: bound 0 0"),
        ("END", "poscost 0 1 3\nEND", 11,
         "poscost needs fields state symbol position resource:cost ...: "
         "poscost 0 1 3"),
        ("wdfa 1 0", "wdfa 1 0 7", 4,
         "wdfa needs fields states start: wdfa 1 0 7"),
        ("bound 0 0 2", "bound 5 0 2", 8, "resource 5 out of range 0..0"),
        ("trans 0 0 0", "trans 0 0 0\ntrans 0 0 0 0:5", 10,
         "transition (0, 0) already set on line 9"),
        ("bound 0 0 2", "bound 0 0 2\nbound 0 1 1", 9,
         "bound of resource 0 already set on line 8"),
        ("trans 0 0 0", "trans 0 0 5", 9, "state 5 out of range 0..0"),
        ("trans 0 0 0", "trans 0 7 0", 9, "symbol 7 not in the alphabet"),
        ("trans 0 0 0", "trans 3 0 0", 9, "state 3 out of range 0..0"),
        ("accept 0", "accept 4", 6, "state 4 out of range 0..0"),
        ("END", "poscost 0 9 0 0:1\nEND", 11, "symbol 9 not in the alphabet"),
        ("END", "poscost 5 0 0 0:1\nEND", 11, "state 5 out of range 0..0"),
        ("END", "poscost 0 0 -1 0:1\nEND", 11,
         "position -1 is negative: poscost 0 0 -1 0:1"),
        ("ROW_DFA", "ROW_DFA junk", 3, "ROW_DFA takes no fields: ROW_DFA junk"),
        ("END", "END junk", 11, "END takes no fields: END junk"),
        ("resources 1", "resources 0", 8,
         "resource 0 named, but the automaton declares no resources"),
        ("resources 1\nbound 0 0 2", "resources 0", 9,
         "resource 0 named, but the automaton declares no resources"),
    ], ids=["trans", "bound", "poscost", "wdfa", "bound-resource",
            "trans-repeated", "bound-repeated", "trans-target", "trans-symbol",
            "trans-state", "accept-state", "poscost-symbol", "poscost-state",
            "poscost-position", "ROW_DFA-field", "END-field",
            "bound-no-resources", "cost-no-resources"])
    def test_row_dfa_error_names_its_line(self, old, new, no, message):
        text = SAT_2X2.replace(old, new)
        with pytest.raises(FormatError,
                           match=f"^line {no}: {re.escape(message)}$"):
            parse_model(text)

    @pytest.mark.parametrize("line, message", [
        ("MATRIX 2 2 2", "MATRIX already set on line 1"),
        ("VALUES 0 1", "VALUES already set on line 2"),
        ("NAME a\nNAME b", "NAME already set on line 3"),
        ("LEX 1\nLEX 0", "LEX already set on line 3"),
        ("DOMAIN 0 1 1\nDOMAIN 0 1 0", "DOMAIN of cell (0, 1) already set on line 3"),
        ("COL_GCC 1 0 0 1\nCOL_GCC 1 0 1 2",
         "COL_GCC of value 0 in column 1 already set on line 3"),
        ("COL_SUM 0 0 1\nCOL_SUM 0 1 2", "COL_SUM of column 0 already set on line 3"),
        ("LEX 2", "LEX takes 0 or 1: LEX 2"),
        ("PROPERTY stretchcount 1 0", "PROPERTY stretchcount takes one set, not 2"),
        ("PROPERTY stretchlen 0,1", "the stretch set holds every value"),
        ("PROPERTY stretchlen ,", "invalid literal"),
        ("PROPERTY word 1 0,1\nPROPERTY word 1 1,0",
         "PROPERTY word 1 0,1 already set on line 3"),
    ], ids=["MATRIX", "VALUES", "NAME", "LEX", "DOMAIN", "COL_GCC", "COL_SUM",
            "LEX-flag", "stretchcount-sets", "stretchlen-full", "set-empty",
            "PROPERTY"])
    def test_bad_or_repeated_line_named(self, line, message):
        text = SAT_2X2.replace("ROW_DFA", line + "\nROW_DFA")
        no = 2 + line.count("\n") + 1
        with pytest.raises(FormatError, match=f"^line {no}: .*{re.escape(message)}"):
            parse_model(text)

    def test_second_row_dfa_rejected(self):
        text = SAT_2X2 + "ROW_DFA\nwdfa 1 0\nalphabet 0 1\naccept 0\nEND\n"
        with pytest.raises(FormatError,
                           match="^line 12: ROW_DFA already set on line 3$"):
            parse_model(text)

    def test_empty_matrix_rejected(self):
        with pytest.raises(FormatError, match="at least one row"):
            parse_model(SAT_2X2.replace("MATRIX 2 2 2", "MATRIX 2 0 2"))

    @pytest.mark.parametrize("header, extra", [
        ("MATRIX -1 4 2", "DOMAIN 0 0 1\nDOMAIN 0 1 0\n"),
        ("MATRIX 0 4 2", ""),
    ], ids=["negative-rows-with-domains", "no-rows"])
    def test_matrix_header_sizes_checked(self, header, extra):
        text = SAT_2X2.replace("MATRIX 2 2 2", header).replace(
            "ROW_DFA", extra + "ROW_DFA")
        with pytest.raises(FormatError, match=f"^line 1: a matrix needs at "
                           f"least one row and one column: {header}$"):
            parse_model(text)

    def test_unknown_external_value(self):
        text = dump_model(gen_random(1, 2, 2, 2)) + "COL_GCC 0 9 0 1\n"
        with pytest.raises(FormatError, match="9"):
            parse_model(text)


class TestRosterFiles:
    def test_round_trip_compiles_to_same_model(self):
        inst, rules = gen_toy_rosters(8, 1)[0]
        direct = roster_model(inst, rules)
        via_text = parse_model(dump_roster(inst, rules))
        assert dump_model(via_text) == dump_model(direct)

    def test_comments_allowed(self):
        inst, rules = gen_toy_rosters(8, 1)[0]
        text = "# weekly toy\n" + dump_roster(inst, rules)
        m = parse_model(text)
        assert m.n_rows == inst.n_nurses

    def test_cover_line_count_checked(self):
        inst, rules = gen_toy_rosters(8, 1)[0]
        text = dump_roster(inst, rules)
        lines = [ln for ln in text.splitlines() if not ln.startswith("COVER")]
        with pytest.raises(FormatError,
                           match="^expected 7 days of coverage, found 0$"):
            parse_model("\n".join(lines) + "\n")

    @pytest.mark.parametrize("cover, no, message", [
        ("COVER 1 0\nCOVER -1 0\n", 3, "coverage bound -1 is below 0"),
        ("COVER 1 0\nCOVER 1 0 0\n", 3,
         "expected 2 coverage bounds, one per shift, found 3"),
    ], ids=["negative", "too-long"])
    def test_bad_cover_line_named(self, cover, no, message):
        text = "ROSTER 2 2 2\n" + cover + "WORK 1 3 1 -\n"
        with pytest.raises(FormatError, match=f"^line {no}: {message}$"):
            parse_model(text)

    def test_shift_out_of_range(self):
        inst, rules = gen_toy_rosters(8, 1)[0]
        text = dump_roster(inst, rules) + "SHIFT 9 0 1 1 -\n"
        with pytest.raises(FormatError, match="SHIFT 9"):
            parse_model(text)

    @pytest.mark.parametrize("extra, message", [
        ("NAME b\n", "NAME already set on line"),
        ("WORK 3 5 1 4\n", "WORK already set on line"),
        ("SHIFT 2 0 3 1 2\n", "SHIFT 2 already set on line"),
        ("WORK 5 3 1 4\n", "empty occurrence interval: WORK 5 3 1 4"),
        ("ROSTER 2 1 2\n", "ROSTER already set on line 1$"),
        ("NAME\n", "NAME needs fields name ...: NAME$"),
        ("WORK -3 -1 1 -\n", "occurrence bound -3 is below 0: WORK -3 -1 1 -$"),
        ("SHIFT 1 -1 3 1 -\n",
         "occurrence bound -1 is below 0: SHIFT 1 -1 3 1 -$"),
    ], ids=["NAME", "WORK", "SHIFT", "WORK-interval", "ROSTER", "NAME-empty",
            "WORK-negative", "SHIFT-negative"])
    def test_bad_or_repeated_line_named(self, extra, message):
        # The toy roster's own file already sets NAME, WORK and every SHIFT.
        inst, rules = gen_toy_rosters(8, 1)[0]
        text = dump_roster(inst, rules) + extra
        no = len(text.splitlines())
        with pytest.raises(FormatError, match=f"^line {no}: {message}"):
            parse_model(text)

    @pytest.mark.parametrize("text, no", [
        ("NAME wk\nROSTER 2 1 2\nCOVER 1 0\nWORK 0 1 1 -\n", 2),
        ("# toy\nNAME wk\n\nROSTER 2 1 2\nCOVER 1 0\n", 4),
        (SAT_2X2 + "ROSTER 2 1 2\n", 12),
    ], ids=["after-NAME", "after-comment", "in-a-model"])
    def test_roster_line_not_first_named(self, text, no):
        with pytest.raises(FormatError, match=f"^line {no}: a roster file "
                           "starts with its ROSTER line: ROSTER 2 1 2$"):
            parse_model(text)

    def test_no_line_order_escapes_format_error(self):
        inst, rules = gen_toy_rosters(8, 1)[0]
        lines = dump_roster(inst, rules).splitlines()
        for i in range(1, len(lines)):
            moved = [lines[i]] + lines[:i] + lines[i + 1:]
            with pytest.raises(FormatError):
                parse_model("\n".join(moved) + "\n")

    @pytest.mark.parametrize("text, no, fields", [
        ("ROSTER 2 2\n", 1, "nurses days shifts"),
        ("ROSTER 2 1 2\nCOVER 1 0\nWORK 1 3 1\n", 3,
         "occ_lo occ_hi stretch_lo stretch_hi"),
        ("ROSTER 2 1 2\nCOVER 1 0\nSHIFT 1 0 3 1\n", 3,
         "s occ_lo occ_hi stretch_lo stretch_hi"),
    ], ids=["ROSTER", "WORK", "SHIFT"])
    def test_short_line_names_its_fields(self, text, no, fields):
        line = text.splitlines()[no - 1]
        with pytest.raises(FormatError, match=f"line {no}: .*{fields}: {line}"):
            parse_model(text)

    @pytest.mark.parametrize("text", [
        "ROSTER 2 1 0\nCOVER\n",
        "ROSTER 2 1 1\nCOVER 1\n",
        "ROSTER -1 1 2\nCOVER 1 0\n",
        "ROSTER 2 0 2\n",
    ], ids=["no-shifts", "one-shift", "no-nurses", "no-days"])
    def test_header_sizes_checked(self, text):
        with pytest.raises(FormatError, match="^line 1: a roster needs at least "
                           r"1 nurse, 1 day and 2 shifts \(one off duty\)"):
            parse_model(text)

    def test_dashes_mean_unbounded(self):
        text = (
            "ROSTER 2 3 2\n"
            "COVER 1 0\nCOVER 1 0\nCOVER 0 0\n"
            "WORK 1 3 1 -\n"
            "SHIFT 1 0 3 1 -\n"
            "SHIFT 2 0 3 1 -\n"
        )
        m = parse_model(text)
        assert (m.n_rows, m.n_cols, m.n_values) == (2, 3, 2)


def readme_automaton_block():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("### Automaton block")[1]
    return section.split("```")[1]


def test_readme_automaton_block_parses_as_documented():
    # Inline comments are ignored, and the missing transitions reject.
    block = readme_automaton_block()
    alone = parse_automaton(block)
    in_model = parse_model(f"MATRIX 1 1 2\nVALUES 0 1\nROW_DFA\n{block}END\n")
    for wd in (alone, in_model.row_rule):
        assert list(wd.resource_bounds) == [(0, 4)]
        assert wd.accepts_within_bounds((1,))
        assert wd.run_weighted((1,))[1] == (2,)
        assert not wd.accepts_within_bounds((0,))
        assert not wd.accepts_within_bounds((1, 1))
    assert solve(in_model).grid == [[1]]
