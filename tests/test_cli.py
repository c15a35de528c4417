import re
from pathlib import Path

import pytest

from matrixcp.canonical import dump_model, parse_model
from matrixcp.cli import main
from matrixcp.generators import gen_3sat
from matrixcp.model import MatrixModel
from matrixcp.automata import build_gcc_weights


def write_model(path, model):
    path.write_text(dump_model(model))
    return str(path)


def sat_model():
    rule = build_gcc_weights((0, 1), groups=[{1}], bounds=[(1, 1)])
    return MatrixModel(2, 2, (0, 1), rule,
                       col_gcc=[{1: (1, 1)}, {1: (1, 1)}], name="perm2")


def unsat_model():
    return gen_3sat([(1, 1, 1), (-1, -1, -1)], 1)


class TestSolve:
    def test_sat_exit_code_and_grid(self, tmp_path, capsys):
        path = write_model(tmp_path / "m.txt", sat_model())
        rc = main(["solve", path, "--mode", "decomp"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "status sat" in out
        assert "stats nodes=" in out
        grid_lines = [ln for ln in out.splitlines() if ln and ln[0] in "01"]
        assert sorted(grid_lines) == ["0 1", "1 0"]

    def test_unsat_exit_code(self, tmp_path, capsys):
        path = write_model(tmp_path / "m.txt", unsat_model())
        rc = main(["solve", path, "--mode", "wa"])
        assert rc == 1
        assert "status unsat" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["decomp", "wa", "cwa"])
    def test_all_modes_accepted(self, tmp_path, capsys, mode):
        path = write_model(tmp_path / "m.txt", sat_model())
        assert main(["solve", path, "--mode", mode]) == 0
        capsys.readouterr()

    def test_one_value_model_solves_in_every_mode(self, tmp_path, capsys):
        # One value holds every cell, so no stretch property is posted.
        path = str(tmp_path / "one.txt")
        assert main(["gen", "random", "--seed", "3", "--rows", "2", "--cols",
                     "3", "--values", "1", "--out", path]) == 0
        for mode in ("decomp", "wa", "cwa"):
            assert main(["solve", path, "--mode", mode]) == 0, mode
            assert "status sat" in capsys.readouterr().out

    def test_node_limit_stops_with_status_budget(self, tmp_path, capsys):
        # The README model: four nodes under cwa, so one is not enough.
        path = str(tmp_path / "m.txt")
        assert main(["gen", "random", "--seed", "7", "--rows", "3", "--cols",
                     "4", "--values", "2", "--out", path]) == 0
        assert main(["solve", path, "--mode", "cwa", "--node-limit", "1"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("status budget\nstats nodes=1 ")
        assert main(["solve", path, "--mode", "cwa", "--node-limit", "4"]) == 0
        assert "status sat" in capsys.readouterr().out

    def test_crash_exits_4_with_its_traceback(self, tmp_path, capsys,
                                              monkeypatch):
        # Exit 1 means unsat, so an unexpected error must not exit 1.
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("matrixcp.cli.solve", crash)
        path = write_model(tmp_path / "m.txt", sat_model())
        assert main(["solve", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("Traceback")
        assert err.splitlines()[-1] == "RuntimeError: boom"

    def test_aggregate_words_flag(self, tmp_path, capsys):
        # Removed: every word of two or more symbols gets its per-position
        # conditions.
        path = write_model(tmp_path / "m.txt", sat_model())
        with pytest.raises(SystemExit) as exc:
            main(["solve", path, "--mode", "wa", "--aggregate-words"])
        assert exc.value.code == 2
        assert ("unrecognized arguments: --aggregate-words"
                in capsys.readouterr().err)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_session(first_line):
    """The commands of the README code block that starts at ``first_line``,
    each as an argument list with the output lines shown under it."""
    text = README.read_text(encoding="utf-8")
    block = text[text.index(first_line):]
    session = []
    for line in block[:block.index("```")].splitlines():
        if line.startswith("$ matrixcp "):
            session.append((line.split()[2:], []))
        else:
            session[-1][1].append(line)
    return session


def without_time(lines):
    return [re.sub(r" time=\S+", "", line) for line in lines]


class TestReadme:
    def test_solve_example_matches_a_real_run(self, tmp_path, capsys,
                                              monkeypatch):
        # Every field but the machine-dependent time must read as shown.
        monkeypatch.chdir(tmp_path)
        session = readme_session("$ matrixcp gen random")
        assert [argv[0] for argv, _ in session] == ["gen", "solve", "oracle"]
        for argv, shown in session:
            assert main(argv) == 0
            printed = capsys.readouterr().out.splitlines()
            assert without_time(printed) == without_time(shown), argv


class TestOracle:
    def test_sat_reports_grid(self, tmp_path, capsys):
        path = write_model(tmp_path / "m.txt", sat_model())
        rc = main(["oracle", path])
        out = capsys.readouterr().out
        assert rc == 0 and "status sat" in out

    def test_count_mode(self, tmp_path, capsys):
        path = write_model(tmp_path / "m.txt", sat_model())
        rc = main(["oracle", path, "--count"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "solutions 2" in out

    def test_unsat_exit(self, tmp_path, capsys):
        path = write_model(tmp_path / "m.txt", unsat_model())
        assert main(["oracle", path]) == 1
        capsys.readouterr()


class TestGen:
    @pytest.mark.parametrize("kind,extra", [
        ("3sat", ["--props", "2", "--clauses", "2"]),
        ("exactcover", ["--universe", "3", "--sets", "2"]),
        ("3dm-dc", ["--size", "2", "--triples", "2"]),
        ("3dm-bc", ["--size", "2", "--triples", "2"]),
        ("hitting", ["--vertices", "3", "--edges", "2", "--k", "1"]),
        ("random", ["--rows", "2", "--cols", "3", "--values", "2"]),
    ])
    def test_generated_files_parse_and_solve(self, tmp_path, capsys, kind, extra):
        out = tmp_path / "gen.txt"
        rc = main(["gen", kind, "--seed", "5", "--out", str(out)] + extra)
        assert rc == 0
        model = parse_model(out.read_text())
        assert model.n_rows >= 1
        rc = main(["oracle", str(out)])
        assert rc in (0, 1)
        capsys.readouterr()

    def test_gen_roster_emits_roster_format(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        rc = main(["gen", "roster", "--seed", "2", "--nurses", "4",
                   "--days", "5", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("ROSTER 4 5 3")
        model = parse_model(text)
        assert (model.n_rows, model.n_cols) == (4, 5)
        capsys.readouterr()

    def test_gen_to_stdout(self, capsys):
        rc = main(["gen", "3sat", "--seed", "1", "--props", "2",
                   "--clauses", "1"])
        out = capsys.readouterr().out
        assert rc == 0 and out.startswith("MATRIX ")


class TestBench:
    def test_directory_bench(self, tmp_path, capsys):
        write_model(tmp_path / "a.txt", sat_model())
        write_model(tmp_path / "b.txt", unsat_model())
        tsv = tmp_path / "out.tsv"
        rc = main(["bench", str(tmp_path), "--modes", "decomp,wa",
                   "--time-limit", "10", "--out", str(tsv)])
        out = capsys.readouterr().out
        assert rc == 0
        lines = tsv.read_text().strip().split("\n")
        assert lines[0].startswith("instance\tmode")
        assert len(lines) == 1 + 2 * 2
        assert "#Inst" in out and "#Bktk" in out
        assert "decomp" in out and "wa" in out

    def test_directory_rows_are_named_by_file(self, tmp_path, capsys):
        # a.txt and b.txt share the NAME perm2; c.txt has no NAME.
        write_model(tmp_path / "a.txt", sat_model())
        write_model(tmp_path / "b.txt", sat_model())
        unnamed = sat_model()
        unnamed.name = ""
        write_model(tmp_path / "c.txt", unnamed)
        assert main(["bench", str(tmp_path), "--modes", "decomp"]) == 0
        tsv = capsys.readouterr().out.split("\n\n")[0]
        names = [ln.split("\t")[0] for ln in tsv.splitlines()[1:]]
        assert names == ["a.txt:perm2", "b.txt:perm2", "c.txt"]

    def test_toy_bench(self, capsys):
        rc = main(["bench", "--toy", "2", "--seed", "3", "--modes", "wa",
                   "--time-limit", "20"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("toy00") >= 2
        assert "#Inst" in out

    def test_unknown_mode_fails_loudly(self, tmp_path, capsys):
        write_model(tmp_path / "a.txt", sat_model())
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(tmp_path), "--modes", "decomp,bogus"])
        assert exc.value.code == 2
        assert "argument --modes: unknown mode 'bogus'" in capsys.readouterr().err


class TestArgumentChecks:
    @pytest.mark.parametrize("argv", [
        ["gen", "hitting", "--vertices", "0"],
        ["gen", "exactcover", "--universe", "0"],
        ["gen", "3sat", "--props", "0"],
        ["gen", "3dm-bc", "--size", "0"],
        ["gen", "random", "--states", "0"],
        ["gen", "random", "--values", "0"],
        ["gen", "random", "--rows", "-1"],
        ["gen", "random", "--tightness", "-1"],
        ["gen", "random", "--tightness", "2"],
        ["gen", "random", "--tightness", "nan"],
        ["gen", "roster", "--nurses", "0"],
        ["gen", "roster", "--shifts", "1"],
        ["bench", "--modes", "foo"],
        ["bench", "--toy", "-2"],
        ["oracle", "m.txt", "--cap", "-5"],
        ["solve", "m.txt", "--time-limit", "-1"],
        ["bench", "--time-limit", "-1"],
        ["bench", "--toy", "2", "--modes", "wa,wa"],
        ["solve", "m.txt", "--node-limit", "0"],
    ])
    def test_degenerate_argument_exits_2_naming_it(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gen", "hitting", "--vertices", "1", "--edges", "0", "--k", "1"],
        ["gen", "exactcover", "--universe", "1", "--sets", "1"],
        ["gen", "3sat", "--props", "1", "--clauses", "1"],
        ["gen", "3dm-dc", "--size", "1", "--triples", "1"],
        ["gen", "random", "--values", "1", "--states", "1", "--rows", "1",
         "--cols", "1", "--resources", "0"],
        ["gen", "roster", "--nurses", "1", "--days", "1", "--shifts", "2"],
    ])
    def test_smallest_sizes_write_models_that_parse(self, tmp_path, argv):
        out = tmp_path / "m.txt"
        assert main(argv + ["--out", str(out)]) == 0
        parse_model(out.read_text())


class TestBadInput:
    """A file that cannot be read or solved exits 3, never 1 (unsat)."""

    MALFORMED = "MATRIX 1 1 2\nFOO 1\n"

    @pytest.mark.parametrize("cmd", ["solve", "oracle", "bench"])
    def test_malformed_file(self, tmp_path, capsys, cmd):
        (tmp_path / "bad.txt").write_text(self.MALFORMED)
        arg = tmp_path if cmd == "bench" else tmp_path / "bad.txt"
        assert main([cmd, str(arg)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"matrixcp {cmd}: {tmp_path / 'bad.txt'}: "
                       "line 2: unknown line: FOO 1"]

    @pytest.mark.parametrize("cmd", ["solve", "oracle", "bench"])
    def test_missing_file(self, tmp_path, capsys, cmd):
        missing = str(tmp_path / "missing")
        assert main([cmd, missing]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"matrixcp {cmd}: ") and missing in err[0]

    @pytest.mark.parametrize("count", [[], ["--count"]])
    def test_oracle_cap(self, tmp_path, capsys, count):
        path = write_model(tmp_path / "m.txt", gen_3sat(
            [(1, 2, 3), (-1, 2, -3), (1, -2, 3)], 3))
        assert main(["oracle", path, "--cap", "5", *count]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"matrixcp oracle: {path}: brute search exceeded 5 nodes"]
