"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_perf_parsing(self):
        args = build_parser().parse_args(["sort", "--perf", "4,4,1,1"])
        assert args.perf.values == [4, 4, 1, 1]

    def test_bad_perf_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--perf", "a,b"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--perf", "0,1"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "0"], "argument --n: must be >= 1, got 0"),
            (["--block", "0"], "argument --block: must be >= 1, got 0"),
            (
                ["--n", "4096", "--memory", "100", "--block", "64"],
                "argument --memory: 100 items is less than 3 blocks of --block 64",
            ),
        ],
    )
    def test_invalid_sort_settings_are_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["sort", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"repro sort: error: {message}" in err
        assert "Traceback" not in err

    def test_memory_of_exactly_three_blocks_sorts(self, capsys):
        rc = main(["sort", "--n", "2000", "--perf", "1,1", "--memory", "192",
                   "--block", "64"])
        assert rc == 0 and "verified" in capsys.readouterr().out

    def test_bad_pivot_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--pivot-method", "bogus"])


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "uniform" in out and "staggered" in out

    def test_sort_small(self, capsys):
        rc = main(
            ["sort", "--n", "4000", "--perf", "1,2", "--memory", "512",
             "--block", "64", "--message", "256"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "verified" in out
        assert "S(max)" in out

    def test_sort_with_spill_dir(self, capsys, tmp_path):
        rc = main(
            ["sort", "--n", "2000", "--perf", "1,1", "--memory", "512",
             "--block", "64", "--spill-dir", str(tmp_path / "spill")]
        )
        assert rc == 0
        assert (tmp_path / "spill").is_dir()

    def test_sort_named_benchmark_and_myrinet(self, capsys):
        rc = main(
            ["sort", "--n", "2000", "--perf", "1,1", "--memory", "512",
             "--block", "64", "--benchmark", "zipf", "--link", "myrinet",
             "--pivot-method", "random"]
        )
        assert rc == 0

    def test_calibrate(self, capsys):
        rc = main(["calibrate", "--n", "8000", "--memory", "512", "--block", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "perf vector: [4, 4, 1, 1]" in out

    def test_table2(self, capsys):
        rc = main(["table2", "--sizes", "2000,4000", "--memory", "512", "--block", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "helmvige" in out and "rossweisse" in out

    def test_table3(self, capsys):
        rc = main(["table3", "--n", "8000", "--memory", "512", "--block", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ratio" in out

    def test_sweep(self, capsys):
        rc = main(
            ["sweep", "--n", "4000", "--sizes", "8,512", "--memory", "512",
             "--block", "64"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "512" in out
