"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def generated(tmp_path):
    """A small circuit written as a bookshelf instance."""
    rc = main(
        [
            "generate",
            "--cells",
            "80",
            "--name",
            "clic",
            "--seed",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    return tmp_path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--out", "x"])
        assert args.cells == 1000
        assert args.format == "bookshelf"


class TestGenerate:
    def test_bookshelf_files_written(self, generated):
        assert (generated / "clic.nodes").exists()
        assert (generated / "clic.nets").exists()
        assert (generated / "clic.blk").exists()

    def test_netd_format(self, tmp_path):
        rc = main(
            [
                "generate",
                "--cells",
                "50",
                "--name",
                "nd",
                "--out",
                str(tmp_path),
                "--format",
                "both",
            ]
        )
        assert rc == 0
        assert (tmp_path / "nd.net").exists()
        assert (tmp_path / "nd.are").exists()
        assert (tmp_path / "nd.nodes").exists()


class TestPartition:
    @pytest.mark.parametrize("engine", ["multilevel", "fm", "kway"])
    def test_engines_run(self, generated, engine, capsys):
        rc = main(
            [
                "partition",
                "--dir",
                str(generated),
                "--name",
                "clic",
                "--engine",
                engine,
                "--starts",
                "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cut" in out
        assert "block loads" in out

    def test_save_assignment(self, generated, tmp_path, capsys):
        save = tmp_path / "assignment.txt"
        rc = main(
            [
                "partition",
                "--dir",
                str(generated),
                "--name",
                "clic",
                "--save",
                str(save),
            ]
        )
        assert rc == 0
        lines = save.read_text().splitlines()
        assert lines
        assert all(line.split()[1] in ("0", "1") for line in lines)

    def test_cutoff_option(self, generated, capsys):
        rc = main(
            [
                "partition",
                "--dir",
                str(generated),
                "--name",
                "clic",
                "--engine",
                "fm",
                "--cutoff",
                "0.25",
            ]
        )
        assert rc == 0


class TestStats:
    def test_prints_profile(self, generated, capsys):
        rc = main(["stats", "--dir", str(generated), "--name", "clic"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fixed vertices" in out
        assert "|V|=" in out


class TestPlace:
    def test_place_and_derive(self, tmp_path, capsys):
        rc = main(
            [
                "place",
                "--cells",
                "120",
                "--name",
                "pl",
                "--seed",
                "2",
                "--suite-out",
                str(tmp_path / "suite"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "HPWL" in out
        assert (tmp_path / "suite").exists()
        nodes = list((tmp_path / "suite").glob("*.nodes"))
        assert len(nodes) >= 6


class TestEvaluate:
    def test_roundtrip_ok(self, generated, tmp_path, capsys):
        save = tmp_path / "assignment.txt"
        assert (
            main(
                [
                    "partition",
                    "--dir",
                    str(generated),
                    "--name",
                    "clic",
                    "--save",
                    str(save),
                ]
            )
            == 0
        )
        capsys.readouterr()
        rc = main(
            [
                "evaluate",
                "--dir",
                str(generated),
                "--name",
                "clic",
                "--assignment",
                str(save),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "fixture constraints : OK" in out
        assert "balance constraints : OK" in out

    def test_bad_block_rejected(self, generated, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("c0 7\n")
        rc = main(
            [
                "evaluate",
                "--dir",
                str(generated),
                "--name",
                "clic",
                "--assignment",
                str(bad),
            ]
        )
        assert rc == 2

    def test_missing_vertices_rejected(self, generated, tmp_path, capsys):
        partial = tmp_path / "partial.txt"
        partial.write_text("c0 0\n")
        rc = main(
            [
                "evaluate",
                "--dir",
                str(generated),
                "--name",
                "clic",
                "--assignment",
                str(partial),
            ]
        )
        assert rc == 2

    def test_infeasible_flagged(self, generated, tmp_path, capsys):
        from repro.io import read_bookshelf

        instance = read_bookshelf(generated, "clic")
        g = instance.graph
        lopsided = tmp_path / "lop.txt"
        lopsided.write_text(
            "\n".join(
                f"{g.vertex_name(v)} 0" for v in range(g.num_vertices)
            )
            + "\n"
        )
        rc = main(
            [
                "evaluate",
                "--dir",
                str(generated),
                "--name",
                "clic",
                "--assignment",
                str(lopsided),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "balance constraints : VIOLATED" in out


class TestExperiment:
    def test_table1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["experiment", "table1"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out


# Bad-input table: each case names the user error and the argv that makes
# it; {dir} is a generated instance directory, {tmp} the working
# directory, holding ``garbled.json`` (not JSON at all).
BAD_INPUT_CASES = {
    "missing .nodes file": ["stats", "--dir", "{dir}", "--name", "absent"],
    "missing --assignment file": [
        "evaluate", "--dir", "{dir}", "--name", "clic",
        "--assignment", "{tmp}/no_such_assignment.txt",
    ],
    "malformed trace JSON": ["trace", "summarize", "{tmp}/garbled.json"],
    "missing trace file": ["trace", "summarize", "{tmp}/no_such_trace.json"],
    "missing trace file, relative path": [
        "trace", "summarize", "./no_such_trace.json",
    ],
}


class TestBadInput:
    @pytest.mark.parametrize("case", sorted(BAD_INPUT_CASES))
    def test_one_line_error_and_exit_2(
        self, case, generated, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "garbled.json").write_text("{not json")
        argv = [
            arg.format(dir=generated, tmp=tmp_path)
            for arg in BAD_INPUT_CASES[case]
        ]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert "Traceback" not in captured.out + captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro: error: ")
