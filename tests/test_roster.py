import pytest

from matrixcp.cli import main
from matrixcp.model import root_prune, solve
from matrixcp.oracle import brute_solve, check_solution
from matrixcp.roster import (
    BenchRecord,
    CaseRules,
    NspInstance,
    ShiftRule,
    bench_summary,
    bench_tsv,
    default_toy_case,
    dump_case,
    dump_nsp,
    gen_toy_rosters,
    parse_case,
    parse_nsp,
    roster_model,
    run_bench,
)

TINY_NSP = """\
3 4 3
1 0 1
1 1 0
1 0 1
1 0 0
"""

TINY_CASE = """\
WORK 1 3 1 2
SHIFT 1 0 3 1 -
SHIFT 2 0 2 1 2
SHIFT 3 1 3 1 3
"""


def tiny_pair():
    inst = parse_nsp(TINY_NSP, name="tiny")
    rules = parse_case(TINY_CASE, inst.n_shifts)
    return inst, rules


class TestNspFormat:
    def test_parse_fields(self):
        inst = parse_nsp(TINY_NSP, name="t")
        assert (inst.n_nurses, inst.n_days, inst.n_shifts) == (3, 4, 3)
        assert inst.cover[1] == [1, 1, 0]
        assert inst.name == "t"

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n2 1 2\n\n1 0  # one early shift\n"
        inst = parse_nsp(text)
        assert inst.cover == [[1, 0]]

    def test_round_trip(self):
        inst = parse_nsp(TINY_NSP)
        assert parse_nsp(dump_nsp(inst)).cover == inst.cover

    def test_truncated_file_rejected(self):
        with pytest.raises(ValueError):
            parse_nsp("3 4 3\n1 0 1\n")

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            parse_nsp("2 5\n")

    @pytest.mark.parametrize("text, message", [
        ("1 1 -2\n", r"line 1: a roster needs at least 1 nurse, 1 day and 2 "
         r"shifts \(one off duty\), not 1 x 1 x -2"),
        ("2 1 3\n-1 0 0\n", "line 2: coverage bound -1 is below 0"),
        ("# two days\n2 2 3\n1 0 0\n1 -3 0\n",
         "line 4: coverage bound -3 is below 0"),
        ("x 1 2\n", "line 1: expected an integer, found 'x'"),
        ("2 1 2\n1 x\n", "line 2: expected an integer, found 'x'"),
    ], ids=["negative-shifts", "negative-cover", "negative-cover-named",
            "non-integer-header", "non-integer-cover"])
    def test_bad_shape_or_cover_named(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_nsp(text)


class TestCaseFormat:
    def test_parse_fields(self):
        rules = parse_case(TINY_CASE, 3)
        assert rules.work == ShiftRule(1, 3, 1, 2)
        assert rules.shifts[0] == ShiftRule(0, 3, 1, None)
        assert rules.shifts[2] == ShiftRule(1, 3, 1, 3)

    def test_round_trip(self):
        rules = parse_case(TINY_CASE, 3)
        assert parse_case(dump_case(rules), 3) == rules

    def test_shift_out_of_range(self):
        with pytest.raises(ValueError):
            parse_case("SHIFT 4 0 1 1 -\n", 3)

    def test_unknown_line_rejected(self):
        with pytest.raises(ValueError):
            parse_case("REST 1 2\n", 3)

    def test_short_line_names_its_fields(self):
        with pytest.raises(ValueError, match="line 2: SHIFT needs fields "
                           "s occ_lo occ_hi stretch_lo stretch_hi"):
            parse_case("WORK 0 9 1 -\nSHIFT 1 0 3 1\n", 2)

    @pytest.mark.parametrize("text, message", [
        ("WORK 0 9 1 -\nSHIFT 1 0 3 1 -\nWORK 0 5 1 -\n",
         "line 3: WORK already set on line 1"),
        ("SHIFT 2 0 3 1 -\nSHIFT 2 0 2 1 2\n",
         "line 2: SHIFT 2 already set on line 1"),
        ("WORK 5 3 1 -\n", "line 1: empty occurrence interval: WORK 5 3 1 -"),
        ("SHIFT 1 0 3 4 2\n",
         "line 1: empty stretch-length interval: SHIFT 1 0 3 4 2"),
        ("SHIFT 1 0 3 0 0\n",
         "line 1: empty stretch-length interval: SHIFT 1 0 3 0 0"),
        ("WORK -3 -1 1 -\n",
         "line 1: occurrence bound -3 is below 0: WORK -3 -1 1 -"),
        ("WORK 0 9 1 -\nSHIFT 2 -2 3 1 -\n",
         "line 2: occurrence bound -2 is below 0: SHIFT 2 -2 3 1 -"),
    ], ids=["WORK-repeated", "SHIFT-repeated", "occurrence-empty",
            "stretch-empty", "stretch-zero", "WORK-negative", "SHIFT-negative"])
    def test_bad_line_named(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_case(text, 2)

    def test_unspecified_shift_defaults(self):
        rules = parse_case("WORK 0 9 1 -\n", 2)
        assert rules.shifts[0] == ShiftRule()


class TestRosterModel:
    def test_shape_and_values(self):
        inst, rules = tiny_pair()
        m = roster_model(inst, rules)
        assert (m.n_rows, m.n_cols) == (3, 4)
        assert m.values == (1, 2, 3)
        assert m.lex_rows
        # one count group per shift plus the working block, read off the rule
        assert m.row_rule.count_groups() == (
            (frozenset({0}), 0), (frozenset({1}), 1), (frozenset({2}), 2),
            (frozenset({0, 1}), 3))

    @pytest.mark.parametrize("inst, n_case, message", [
        (NspInstance(3, 2, 3, [[1, 0, 0]] * 2), 2,
         "the case gives rules for 2 shifts, the instance has 3"),
        (NspInstance(3, 2, 1, [[1]] * 2), 1, r"a roster needs at least "
         r"1 nurse, 1 day and 2 shifts \(one off duty\), not 3 x 2 x 1"),
    ], ids=["case-shift-count", "one-shift"])
    def test_bad_shift_count_rejected(self, inst, n_case, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            roster_model(inst, default_toy_case(n_case))

    @pytest.mark.parametrize("cover, message", [
        ([[1, 0, 0], [-1, 0, 0]], "day 2: coverage bound -1 is below 0"),
        ([[1, 0, 0]], "expected 2 days of coverage, found 1"),
        ([[1, 0, 0], [1, 0]], "day 2: expected 3 coverage bounds, one per "
         "shift, found 2"),
    ], ids=["negative", "short", "day-short"])
    def test_bad_coverage_rejected(self, cover, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            roster_model(NspInstance(3, 2, 3, cover), default_toy_case(3))

    def test_coverage_becomes_column_bounds(self):
        inst, rules = tiny_pair()
        m = roster_model(inst, rules)
        assert m.col_gcc[0] == {0: (1, 3), 2: (1, 3)}
        assert m.col_gcc[3] == {0: (1, 3)}

    def test_tiny_instance_solves_and_checks(self):
        inst, rules = tiny_pair()
        m = roster_model(inst, rules)
        st, grid = brute_solve(m)
        assert st == "sat"
        for mode in ("decomp", "wa", "cwa"):
            out = solve(m, mode=mode, time_limit=30)
            assert out.status == "sat"
            internal = [[v - 1 for v in row] for row in out.grid]
            assert check_solution(m, internal)

    def test_overloaded_coverage_fails_at_root_with_measuring(self):
        # demand of shift 2 across the horizon exceeds every nurse's cap
        inst, rules = tiny_pair()
        inst.cover = [[1, 2, 0] for _ in range(inst.n_days)]
        m = roster_model(inst, rules)
        assert brute_solve(m)[0] == "unsat"
        assert root_prune(m, "wa") is None
        assert root_prune(m, "cwa") is None

    def test_stretch_rule_filters_rows(self):
        inst, rules = tiny_pair()
        rules.work = ShiftRule(2, 3, 2, 2)  # work spells exactly length-2 blocks
        m = roster_model(inst, rules)
        st, grid = brute_solve(m)
        if st == "sat":
            for row in grid:
                word = "".join("w" if v < 2 else "o" for v in row)
                runs = [len(p) for p in word.split("o") if p]
                assert all(r == 2 for r in runs)


class TestToySuite:
    def test_deterministic(self):
        a = gen_toy_rosters(3, 6)
        b = gen_toy_rosters(3, 6)
        assert [(i.name, i.cover) for i, _ in a] == [(i.name, i.cover) for i, _ in b]

    def test_count_and_sizes(self):
        out = gen_toy_rosters(1, 10, sizes=(5,))
        assert len(out) == 10
        assert all(i.n_nurses == 5 for i, _ in out)

    def test_names_mark_conflicted_instances(self):
        out = gen_toy_rosters(2, 20)
        tags = {i.name[-1] for i, _ in out}
        assert tags == {"s", "u"}

    def test_conflicted_instances_are_unsat_at_wa_root(self):
        for inst, rules in gen_toy_rosters(5, 12):
            if inst.name.endswith("u"):
                m = roster_model(inst, rules)
                assert root_prune(m, "wa") is None


class TestBenchHarness:
    def records(self):
        pairs = gen_toy_rosters(9, 2)
        models = [roster_model(i, r) for i, r in pairs]
        return run_bench(models, modes=("wa",), time_limit=20.0), models

    def test_one_record_per_model_and_mode(self):
        recs, models = self.records()
        assert len(recs) == len(models)
        assert {r.instance for r in recs} == {m.name for m in models}
        assert all(r.status in ("sat", "unsat", "timeout") for r in recs)

    def test_tsv_layout(self):
        recs, _ = self.records()
        text = bench_tsv(recs)
        lines = text.strip().split("\n")
        assert lines[0].split("\t") == [
            "instance", "mode", "status", "time", "nodes", "backtracks",
            "root_fail"]
        assert len(lines) == len(recs) + 1
        assert all(len(ln.split("\t")) == 7 for ln in lines[1:])

    def test_summary_lists_each_mode(self):
        recs = [
            BenchRecord("a", "decomp", "sat", 0.5, 10, 2, False),
            BenchRecord("a", "wa", "sat", 0.2, 4, 0, False),
            BenchRecord("b", "decomp", "timeout", 5.0, 100, 50, False),
            BenchRecord("b", "wa", "unsat", 0.1, 0, 0, True),
        ]
        text = bench_summary(recs)
        lines = text.strip().split("\n")
        assert "#Inst" in lines[0] and "Time" in lines[0] and "#Bktk" in lines[0]
        assert lines[1].split()[0] == "decomp"
        assert lines[2].split()[0] == "wa"
        # means are over the commonly solved instance (only "a")
        assert lines[1].split()[4] == "1"

    def test_summary_counts_budget_stops_unsolved(self):
        recs = [BenchRecord("a", "cwa", "budget", 0.1, 1, 0, False),
                BenchRecord("b", "cwa", "sat", 0.1, 3, 1, False)]
        head, cwa = (ln.split() for ln in bench_summary(recs).splitlines())
        counts = dict(zip(head, cwa))
        assert (counts["unsolved"], counts["#Inst"]) == ("1", "1")

    def test_summary_counts_models_that_share_a_name(self, tmp_path, capsys):
        # Both files are named random_7 by the generator.
        for extra in ([], ["--rows", "4", "--cols", "5"]):
            assert main(["gen", "random", "--seed", "7", "--out",
                         str(tmp_path / f"m{len(extra)}.txt")] + extra) == 0
        assert main(["bench", str(tmp_path), "--modes", "decomp"]) == 0
        out = capsys.readouterr().out
        tsv, summary = out.split("\n\n")
        rows = [ln.split("\t") for ln in tsv.splitlines()[1:]]
        assert [(r[0], r[2]) for r in rows] == [("m0.txt:random_7", "unsat"),
                                                ("m4.txt:random_7", "unsat")]
        head, decomp = (ln.split() for ln in summary.splitlines())
        counts = dict(zip(head, decomp))
        assert (counts["unsat"], counts["#Inst"]) == ("2", "2")

    def test_summary_counts_consecutive_records_that_share_a_name(self):
        # run_bench on two models that share a name yields these records;
        # each model is one instance, so the decomp row reads #Inst 2.
        recs = [BenchRecord("random_7", "decomp", "unsat", 0.0, 0, 0, True)] * 2
        head, decomp = (ln.split() for ln in bench_summary(recs).splitlines())
        counts = dict(zip(head, decomp))
        assert (counts["unsat"], counts["#Inst"]) == ("2", "2")

    def test_repeated_mode_rejected(self):
        inst, rules = gen_toy_rosters(9, 1)[0]
        with pytest.raises(ValueError, match="mode 'wa' is repeated"):
            run_bench([roster_model(inst, rules)], modes=("wa", "cwa", "wa"))

    def test_bad_solution_would_be_caught(self):
        # the harness re-checks sat answers against the exact oracle
        inst, rules = gen_toy_rosters(9, 1)[0]
        m = roster_model(inst, rules)
        recs = run_bench([m], modes=("wa",), time_limit=20.0)
        assert recs[0].status in ("sat", "unsat")
