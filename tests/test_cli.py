"""Command line behavior: formats, precedence, exit codes."""

import dataclasses
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gausscensus
from gausscensus import cli, criteria, montecarlo

from oracles import accepted_samples, same_value

HEADER = "k,l,samples,accepted,separable,classical,prob_sep,prob_classical,seed"


def run_cli(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCensusOutput:
    def test_csv_header_and_shape(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys, ["census", "--samples", "20000", "--seed", "5"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == HEADER
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[2] == "20000"
        assert cells[-1] == "5"

    def test_rerun_is_byte_identical(self, capsys) -> None:
        argv = ["census", "--samples", "30000", "--seed", "12"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_probabilities_survive_roundtrip(self, capsys) -> None:
        # 17 significant digits: the printed cell must reparse to the
        # exact double that produced it.
        _, out, _ = run_cli(
            capsys, ["census", "--samples", "20000", "--seed", "5"]
        )
        cells = out.splitlines()[1].split(",")
        for cell in (cells[6], cells[7]):
            value = float(cell)
            assert f"{value:.17g}" == cell

    def test_json_lines_parse(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys,
            ["census", "--samples", "20000", "--seed", "5", "--format", "json"],
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 1
        assert set(rows[0]) == set(cli.CENSUS_FIELDS)

    def test_table_format_keeps_field_order(self, capsys) -> None:
        _, out, _ = run_cli(
            capsys,
            ["census", "--samples", "20000", "--seed", "5", "--format", "table"],
        )
        assert out.splitlines()[0].split() == cli.CENSUS_FIELDS

    def test_stdout_carries_only_the_table(self, capsys) -> None:
        _, out, err = run_cli(
            capsys, ["census", "--samples", "80000", "--seed", "5"]
        )
        assert set(line.count(",") for line in out.splitlines()) == {8}
        assert "census:" in err

    def test_out_file_leaves_stdout_empty(self, capsys, tmp_path) -> None:
        target = tmp_path / "run.csv"
        code, out, _ = run_cli(
            capsys,
            ["census", "--samples", "20000", "--seed", "5", "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").splitlines()[0] == HEADER

    def test_unwritable_out_exits_one(self, capsys, tmp_path) -> None:
        target = tmp_path / "missing" / "run.csv"
        code, _, err = run_cli(
            capsys,
            ["census", "--samples", "1000", "--seed", "5", "--out", str(target)],
        )
        assert code == 1
        assert "output error" in err


class TestWorkersAndConfig:
    def test_worker_count_does_not_change_output(self, capsys) -> None:
        base = ["census", "--samples", "70000", "--seed", "3"]
        _, serial, _ = run_cli(capsys, base)
        _, parallel, _ = run_cli(capsys, base + ["--workers", "2"])
        assert serial == parallel

    def test_workers_env_variable(self, capsys, monkeypatch) -> None:
        monkeypatch.setenv(cli.ENV_WORKERS, "2")
        argv = ["census", "--samples", "70000", "--seed", "3"]
        code, out, _ = run_cli(capsys, argv)
        monkeypatch.delenv(cli.ENV_WORKERS)
        _, serial, _ = run_cli(capsys, argv)
        assert code == 0
        assert out == serial

    def test_invalid_workers_env_exits_64(self, capsys, monkeypatch) -> None:
        monkeypatch.setenv(cli.ENV_WORKERS, "many")
        code, _, err = run_cli(capsys, ["census", "--samples", "1000"])
        assert code == 64
        assert cli.ENV_WORKERS in err

    def test_config_file_supplies_values(self, capsys, tmp_path) -> None:
        conf = tmp_path / "run.conf"
        conf.write_text(
            "# small smoke run\nk = 12\nl = 6\nsamples = 20000\nseed = 9\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, ["census", "--config", str(conf)])
        assert code == 0
        cells = out.splitlines()[1].split(",")
        assert cells[0] == "12"
        assert cells[1] == "6"
        assert cells[2] == "20000"
        assert cells[-1] == "9"

    def test_flag_overrides_config(self, capsys, tmp_path) -> None:
        conf = tmp_path / "run.conf"
        conf.write_text("samples = 20000\nseed = 9\n", encoding="utf-8")
        _, out, _ = run_cli(
            capsys,
            ["census", "--config", str(conf), "--samples", "10000"],
        )
        cells = out.splitlines()[1].split(",")
        assert cells[2] == "10000"
        assert cells[-1] == "9"

    def test_config_beats_workers_env(self, capsys, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv(cli.ENV_WORKERS, "not-a-number")
        conf = tmp_path / "run.conf"
        conf.write_text("workers = 1\n", encoding="utf-8")
        code, _, _ = run_cli(
            capsys,
            ["census", "--samples", "1000", "--config", str(conf)],
        )
        assert code == 0

    def test_unknown_config_key_exits_64(self, capsys, tmp_path) -> None:
        conf = tmp_path / "run.conf"
        conf.write_text("quality = high\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["census", "--config", str(conf)])
        assert code == 64
        assert "unknown key" in err

    @pytest.mark.parametrize("argv,line", [
        (["fidelity-check", "--grid-points", "2"], "workers = 0"),
        (["fidelity-check", "--grid-points", "2"], "seed = -5"),
        (["fidelity-check", "--grid-points", "2"], "scale = 7"),
        (["census", "--samples", "1000"], "grid_size = 0"),
        (["census", "--samples", "1000"], "ks = 1,2"),
        (["census", "--samples", "1000"], "h = 0.1"),
    ])
    def test_config_key_of_another_command_exits_64(self, capsys, tmp_path, argv, line) -> None:
        # A key is the dest of one of the command's own flags; a setting
        # the command would not read is refused, not ignored.
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, argv + ["--config", str(conf)])
        assert (code, out) == (64, "")
        key = line.split(" =")[0]
        assert f"unknown key {key!r} for {argv[0]}" in err

    @pytest.mark.parametrize("line,flags,message", [
        ("metric = kubo_mori", ["--metric", "kubo_mori"], "invalid choice: 'kubo_mori'"),
        ("robust = trimmed_mean", ["--robust", "trimmed_mean"], "invalid choice: 'trimmed_mean'"),
        ("metric =", ["--metric"], "argument --metric: expected one"),
        ("robust =", ["--robust"], "argument --robust: expected one"),
        ("format = xml", ["--format", "xml"], "invalid choice: 'xml'"),
    ])
    def test_config_refuses_what_the_flag_refuses(self, capsys, tmp_path, line, flags,
                                                  message) -> None:
        # A config value goes through its flag's choices, and a list
        # flag with no value is refused rather than read as the default.
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n", encoding="utf-8")
        base = ["bures", "--samples", "1000"]
        for argv in (base + ["--config", str(conf)], base + flags):
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (64, ""), argv
            assert message in err, argv

    def test_flag_replaces_config_list(self, capsys, tmp_path) -> None:
        # A repeated flag on the command line replaces the config file's
        # list instead of adding to it.
        conf = tmp_path / "run.conf"
        conf.write_text("metric = maximal\n", encoding="utf-8")
        argv = ["bures", "--samples", "16384", "--seed", "2", "--metric", "kubo-mori"]
        code, out, err = run_cli(capsys, argv + ["--config", str(conf)])
        assert code == 0, err
        labels = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert labels == ["fisher", "kubo-mori:median", "kubo-mori:trimmed-mean"]
        assert run_cli(capsys, argv)[1] == out

    @pytest.mark.parametrize("lines,message", [
        ("metric = bures\nsamples = 1000\nmetric = maximal\n", "key 'metric' repeated"),
        ("samples = 1000\n\nsamples = 2000\n", "key 'samples' repeated"),
    ])
    def test_repeated_config_key_exits_64(self, capsys, tmp_path, lines, message) -> None:
        # A key is given once; a list goes on one line.
        conf = tmp_path / "run.conf"
        conf.write_text(lines, encoding="utf-8")
        code, out, err = run_cli(capsys, ["bures", "--seed", "2", "--config", str(conf)])
        assert (code, out) == (64, "")
        assert f"{conf}:3: {message} (first on line 1)" in err

    def test_empty_out_exits_64_before_sampling(self, capsys, tmp_path) -> None:
        # The flag and the config line go through the flag's own type.
        conf = tmp_path / "run.conf"
        conf.write_text("out =\n", encoding="utf-8")
        base = ["census", "--samples", "1000"]
        for argv in (base + ["--out", ""], base + ["--config", str(conf)]):
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (64, ""), argv
            assert "argument --out: output path is empty" in err, argv
            assert "samples," not in err and "solver failures" not in err, argv

    def test_malformed_config_line_exits_64(self, capsys, tmp_path) -> None:
        conf = tmp_path / "run.conf"
        conf.write_text("samples\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["census", "--config", str(conf)])
        assert code == 64
        assert "expected key=value" in err

    def test_missing_config_file_exits_64(self, capsys, tmp_path) -> None:
        code, _, err = run_cli(
            capsys, ["census", "--config", str(tmp_path / "absent.conf")]
        )
        assert code == 64
        assert "cannot read config file" in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys) -> None:
        code, _, _ = run_cli(capsys, ["tabulate"])
        assert code == 64

    def test_unknown_flag(self, capsys) -> None:
        code, _, _ = run_cli(capsys, ["census", "--quality", "high"])
        assert code == 64

    def test_negative_samples(self, capsys) -> None:
        code, _, _ = run_cli(capsys, ["census", "--samples", "-5"])
        assert code == 64

    @pytest.mark.parametrize("argv", [["census", "--samples", str(2**64 + 1)],
                                      ["table1", "--scale", "1e300"]])
    def test_samples_beyond_the_index_range(self, capsys, argv) -> None:
        code, out, err = run_cli(capsys, argv)
        assert code == 64
        assert out == ""
        assert "sample count must be at most 2**64" in err

    def test_zero_scale(self, capsys) -> None:
        for scale in ("0", "inf", "nan"):
            code, out, err = run_cli(capsys, ["table1", "--scale", scale])
            assert code == 64, scale
            assert out == ""
            assert "--scale must be positive and finite" in err

    def test_table1_seed_must_leave_room_for_every_row(self, capsys, monkeypatch) -> None:
        # Rows take seeds S to S+4, and each must fit in 64 bits.
        code, out, err = run_cli(capsys, ["table1", "--seed", str(2**64 - 1),
                                          "--scale", "0.001"])
        assert (code, out) == (64, "")
        assert ("table1 rows use seeds 18446744073709551615 to 18446744073709551619"
                in err)
        assert "--seed must be at most 18446744073709551611" in err
        seeds = []

        def sweep(cfgs, workers=1, progress=None):
            seeds.extend(cfg.seed for cfg in cfgs)
            return (result for result in ())

        monkeypatch.setattr(montecarlo, "run_classical_sweep", sweep)
        code, out, err = run_cli(capsys, ["table1", "--seed", str(2**64 - 5)])
        assert (code, out) == (0, HEADER + "\n"), err
        assert seeds == list(range(2**64 - 5, 2**64))

    def test_robust_none_needs_single_grid(self, capsys) -> None:
        code, _, err = run_cli(
            capsys,
            ["bures", "--samples", "1000", "--robust", "none"],
        )
        assert code == 64
        assert "--n-grids 1" in err

    @pytest.mark.parametrize("bounds", [["--k", "inf", "--l", "5"], ["--k", "10", "--l", "inf"],
                                        ["--k", "nan"]])
    def test_nonfinite_bounds(self, capsys, bounds) -> None:
        code, out, err = run_cli(capsys, ["census", "--samples", "2000"] + bounds)
        assert code == 64
        assert out == ""
        assert "k and l must be finite" in err

    def test_bad_grid_arguments(self, capsys) -> None:
        for flag, value in (("--grid-size", "0"), ("--grid-size", "-3"), ("--n-grids", "0")):
            code, out, err = run_cli(capsys, ["bures", "--samples", "2000", flag, value])
            assert code == 64, (flag, value)
            assert out == ""
            assert flag[2:].replace("-", "_") + " must be at least 1" in err

    @pytest.mark.parametrize("grid_range,message", [
        ("-1e308 1e308", "must be finite"),
        ("0 inf", "must be finite"),
        ("0 1e-12", "too narrow"),
    ])
    def test_bad_grid_range(self, capsys, tmp_path, grid_range, message) -> None:
        conf = tmp_path / "run.conf"
        conf.write_text(f"samples = 2000\ngrid_range = {grid_range}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, ["bures", "--config", str(conf)])
        assert code == 64
        assert out == ""
        assert message in err
        if grid_range.startswith("-"):
            return  # argparse would take the value for an option
        code, out, err = run_cli(capsys, ["bures", "--samples", "2000", "--grid-range",
                                          *grid_range.split()])
        assert code == 64
        assert out == ""
        assert message in err

    def test_grid_range_too_narrow_to_draw(self, capsys) -> None:
        # Five coordinates 1e-9 apart fit in a range of 4.4e-9, so the
        # census starts, but random_grid almost never draws them.
        code, out, err = run_cli(capsys, ["bures", "--samples", "20000", "--grid-range",
                                          "0", "4.4e-9"])
        assert code == 64
        assert out == ""
        assert "could not draw 5 grid coordinates" in err
        assert "[0.0, 4.4e-09]" in err

    @pytest.mark.parametrize("argv", [["census", "--k", "1e200", "--l", "5"],
                                      ["one-mode", "--ks", "1e200"]])
    def test_bounds_that_overflow_the_determinant(self, capsys, argv) -> None:
        code, out, err = run_cli(capsys, argv + ["--samples", "2000"])
        assert code == 64
        assert out == ""
        assert "determinant can overflow" in err

    @pytest.mark.parametrize("argv,message", [
        (["census", "--k", "1e77"], "max(k, l) = 1e+77 is above 5.23e+76, where a 2-mode "
                                    "determinant can overflow\n"),
        (["one-mode", "--ks", "1e200"], "max(k, l) = 1e+200 is above 9.48e+153, where a 1-mode "
                                        "determinant can overflow\n"),
    ], ids=["census", "one-mode"])
    def test_overflow_refusal_names_the_drivers_mode_count(self, capsys, argv, message) -> None:
        # Each driver checks the box against the bound of its own mode
        # count, so one-mode takes boxes that the two-mode commands refuse.
        code, out, err = run_cli(capsys, argv + ["--samples", "2000"])
        assert (code, out, err) == (64, "", message)
        code, out, _ = run_cli(capsys, ["one-mode", "--k", "1e77", "--samples", "10"])
        assert code == 0 and float(out.splitlines()[1].split(",")[0]) == 1e77

    @pytest.mark.parametrize("flags,message", [
        (["--h", "0"], "h must be positive and finite"),
        (["--h", "nan"], "h must be positive and finite"),
        (["--beta-range", "2", "nan"], "--beta-range must be finite"),
        (["--r-range", "0.1", "inf"], "--r-range must be finite"),
        (["--beta-range", "1e300", "1e301"], "math range error"),
    ])
    def test_fidelity_check_bad_input(self, capsys, flags, message) -> None:
        code, out, err = run_cli(capsys, ["fidelity-check", "--grid-points", "2"] + flags)
        assert code == 64
        assert out == ""
        assert message in err

    def test_empty_k_schedule(self, capsys, tmp_path) -> None:
        # "--ks ," and "ks =" parse to no k at all, which is refused
        # rather than read as the default schedule.
        conf = tmp_path / "run.conf"
        conf.write_text("ks =\n", encoding="utf-8")
        for argv in (["one-mode", "--ks", ","], ["one-mode", "--config", str(conf)]):
            code, out, err = run_cli(capsys, argv + ["--samples", "10"])
            assert (code, out) == (64, ""), argv
            assert "k schedule is empty" in err, argv

    @pytest.mark.parametrize("flag", ["--seed", "--workers"])
    def test_fidelity_check_takes_no_sampling_flags(self, capsys, flag) -> None:
        # fidelity-check draws no samples, so a seed or a worker count
        # would be read by nothing.
        code, out, err = run_cli(capsys, ["fidelity-check", "--grid-points", "2", flag, "2"])
        assert (code, out) == (64, "")
        assert f"unrecognized arguments: {flag} 2" in err

    def test_zero_workers(self, capsys) -> None:
        code, _, _ = run_cli(
            capsys, ["census", "--samples", "1000", "--workers", "0"]
        )
        assert code == 64


class TestOracleExit:
    def test_disagreement_exits_two_and_dumps_matrix(
        self, capsys, tmp_path, monkeypatch
    ) -> None:
        matrix = np.diag([2.0, 2.0, 3.0, 3.0])

        def boom(cfg, workers=1, progress=None):
            raise criteria.OracleDisagreementError(matrix, 1e-3, -2e-3)

        monkeypatch.setattr(montecarlo, "run_classical_census", boom)
        out_file = tmp_path / "res.csv"
        code, out, err = run_cli(
            capsys,
            ["census", "--samples", "1000", "--out", str(out_file)],
        )
        assert code == 2
        assert out == ""
        dump = tmp_path / "oracle-disagreement.txt"
        assert dump.exists()
        assert "0.001" in dump.read_text(encoding="utf-8")
        assert str(dump) in err

    def test_dump_follows_out_from_config(self, capsys, tmp_path, monkeypatch) -> None:
        def boom(cfg, workers=1, progress=None):
            raise criteria.OracleDisagreementError(np.eye(4), 1e-3, -2e-3)

        monkeypatch.setattr(montecarlo, "run_classical_census", boom)
        monkeypatch.chdir(tmp_path)
        results = tmp_path / "results"
        results.mkdir()
        conf = tmp_path / "run.conf"
        conf.write_text(f"out = {results / 'res.csv'}\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["census", "--config", str(conf)])
        assert code == 2
        dump = results / "oracle-disagreement.txt"
        assert dump.exists()
        assert not (tmp_path / "oracle-disagreement.txt").exists()
        assert str(dump) in err

    @pytest.mark.parametrize("workers", [
        "1",
        pytest.param("2", marks=pytest.mark.skipif(
            multiprocessing.get_start_method() != "fork",
            reason="pool workers see the patched oracle only when forked")),
    ])
    def test_table1_disagreement_dumps_the_first_flagged_row(
        self, capsys, tmp_path, monkeypatch, workers
    ) -> None:
        # The mirror oracle "disagrees" on the first accepted sample of
        # rows 3 and 5; the sweep stops at row 3's, in (row, block) order,
        # though at two workers later rows run beside it.
        targets = []
        for row in (3, 5):
            k, l, full = cli.TABLE1_ROWS[row - 1]
            cfg = montecarlo.SamplerConfig(k=k, l=l, samples=round(full * 0.002), seed=row)
            _, matrix, verdict = next(accepted_samples(cfg))
            targets.append((matrix, verdict))
        real = criteria.disagrees

        def disagrees(verdict, tol=criteria.DEFAULT):
            flagged = real(verdict, tol)
            for _, target in targets:
                row = np.ones(np.shape(verdict.physical), dtype=bool)
                for f in dataclasses.fields(verdict):
                    row &= same_value(getattr(verdict, f.name), getattr(target, f.name))
                flagged |= row
            return flagged

        monkeypatch.setattr(criteria, "disagrees", disagrees)
        out_file = tmp_path / "table1.csv"
        code, out, err = run_cli(capsys, ["table1", "--scale", "0.002", "--seed", "1",
                                          "--workers", workers, "--out", str(out_file)])
        assert code == 2
        assert out == ""
        assert not out_file.exists()
        assert re.findall(r"^row (\d+): accepted", err, re.M) == ["1", "2"]
        dump = (tmp_path / "oracle-disagreement.txt").read_text(encoding="utf-8")
        assert dump == criteria.format_disagreement(
            targets[0][0], targets[0][1].margin_sep, targets[0][1].margin_ppt)


class TestOtherSubcommands:
    def test_one_mode_schedule(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys,
            ["one-mode", "--samples", "20000", "--seed", "2",
             "--ks", "10,100"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(cli.ONE_MODE_FIELDS)
        ks = [line.split(",")[0] for line in lines[1:]]
        ls = [line.split(",")[1] for line in lines[1:]]
        assert ks == ["10", "100"]
        assert ls == ["5", "50"]

    def test_one_mode_zero_samples(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys, ["one-mode", "--k", "2", "--l", "1", "--samples", "0"]
        )
        assert code == 0
        assert out.splitlines() == [",".join(cli.ONE_MODE_FIELDS), "2,1,0,0,0,0,0,1"]

    def test_entropy_single_row(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys, ["entropy", "--samples", "20000", "--seed", "2"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(cli.ENTROPY_FIELDS)
        assert len(lines) == 2

    @pytest.mark.parametrize("command", ["entropy", "one-mode"])
    def test_progress_goes_to_stderr_only(self, capsys, monkeypatch, command) -> None:
        argv = [command, "--samples", "70000", "--seed", "3"]
        code, out, err = run_cli(capsys, argv)
        assert code == 0
        assert f"{command}: 70000/70000 samples, " in err
        monkeypatch.setattr(cli, "_progress_printer", lambda label, total: None)
        assert run_cli(capsys, argv)[:2] == (0, out)

    def test_bures_measure_labels(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys,
            ["bures", "--samples", "60000", "--seed", "7",
             "--metric", "bures", "--metric", "kubo-mori"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(cli.BURES_FIELDS)
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == [
            "fisher",
            "bures:median",
            "bures:trimmed-mean",
            "kubo-mori:median",
            "kubo-mori:trimmed-mean",
        ]

    @pytest.mark.parametrize("metrics", [["fisher"], ["fisher", "fisher"]])
    def test_bures_fisher_only_is_the_census_row(self, capsys, metrics) -> None:
        # With no kernel metric no grid is drawn and no sample discarded,
        # so the Fisher row is census's row bit for bit.
        box = ["--k", "15", "--l", "15", "--samples", "30000", "--seed", "1"]
        code, out, _ = run_cli(capsys, ["census", *box])
        assert code == 0
        census = dict(zip(*(line.split(",") for line in out.splitlines())))
        flags = [flag for m in metrics for flag in ("--metric", m)]
        code, out, _ = run_cli(capsys, ["bures", *box, *flags])
        assert code == 0
        header, *rows = out.splitlines()
        assert len(rows) == 1
        fisher = dict(zip(header.split(","), rows[0].split(",")))
        assert (fisher["measure"], fisher["discarded"]) == ("fisher", "0")
        for name in ("accepted", "separable", "classical", "prob_sep", "prob_classical"):
            assert fisher[name] == census[name], name

    def test_bures_robust_none_single_grid(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys,
            ["bures", "--samples", "40000", "--seed", "7",
             "--robust", "none", "--n-grids", "1"],
        )
        assert code == 0
        labels = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert labels == ["fisher", "bures:single"]

    def test_bures_repeated_robust_none(self, capsys, tmp_path) -> None:
        # A repeated choice is one choice, from the flags and from a
        # config file line alike.
        config = tmp_path / "run.cfg"
        config.write_text("robust = none, none\n")
        base = ["bures", "--samples", "40000", "--seed", "7", "--n-grids", "1"]
        for extra in (["--robust", "none", "--robust", "none"], ["--config", str(config)]):
            code, out, err = run_cli(capsys, base + extra)
            assert code == 0, err
            labels = [line.split(",")[0] for line in out.splitlines()[1:]]
            assert labels == ["fisher", "bures:single"], extra

    def test_fidelity_check_constant_ratio(self, capsys) -> None:
        code, out, err = run_cli(
            capsys, ["fidelity-check", "--grid-points", "2"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(cli.FIDELITY_FIELDS)
        assert len(lines) == 5
        spreads = {line.split(",")[4] for line in lines[1:]}
        assert len(spreads) == 1
        assert float(spreads.pop()) < 1e-3
        assert "relative spread" in err

    def test_table1_scaled_smoke(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys, ["table1", "--scale", "0.002", "--seed", "1"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == HEADER
        assert len(lines) == 6
        seeds = [line.split(",")[-1] for line in lines[1:]]
        assert seeds == ["1", "2", "3", "4", "5"]
        samples = [int(line.split(",")[2]) for line in lines[1:]]
        assert samples == [1000, 3800, 10400, 16200, 20000]

    def test_table1_empty_row_exits_one(self, capsys) -> None:
        # 10-sample rows accept nothing; that is an empty result, not a
        # usage mistake.
        code, _, err = run_cli(capsys, ["table1", "--scale", "0.00002"])
        assert code == 1
        assert "no samples accepted out of 10; increase --scale\n" in err
        # The sampling commands name their own budget flag; in a box of
        # side 0.5, det A <= 1/4, so no sample is physical.
        for command in ("census", "bures"):
            code, _, err = run_cli(capsys, [command, "--k", "0.5", "--l", "0.5",
                                            "--samples", "100"])
            assert code == 1, command
            assert err.endswith("; increase --samples\n"), command


# Each command's built-in defaults written out as flags, beside the
# settings it is run with; both command lines print the same bytes.
WRITTEN_DEFAULTS = {
    "census": ([], ["--k", "10", "--l", "5", "--samples", "100000", "--seed", "1",
                    "--workers", "1", "--format", "csv"]),
    "entropy": ([], ["--k", "10", "--l", "5", "--samples", "100000", "--seed", "1",
                     "--workers", "1", "--format", "csv"]),
    "one-mode": ([], ["--k", "10", "--l", "5", "--samples", "200000", "--seed", "1",
                      "--workers", "1", "--format", "csv"]),
    "fidelity-check": ([], ["--beta-range", "2", "6", "--r-range", "0.1", "0.9",
                            "--grid-points", "5", "--format", "csv"]),
    "bures": (["--samples", "16384"],
              ["--k", "15", "--l", "15", "--seed", "1", "--workers", "1",
               "--grid-size", "5", "--n-grids", "5", "--grid-range", "-2", "2",
               "--metric", "bures", "--robust", "median", "--robust", "trimmed-mean",
               "--format", "csv"]),
    "table1": (["--scale", "0.002"], ["--seed", "1", "--workers", "1", "--format", "csv"]),
}


@pytest.mark.parametrize("command", sorted(WRITTEN_DEFAULTS))
def test_defaults_written_out_change_nothing(command, capsys, monkeypatch) -> None:
    monkeypatch.delenv(cli.ENV_WORKERS, raising=False)
    given, defaults = WRITTEN_DEFAULTS[command]
    code, out, err = run_cli(capsys, [command, *given])
    assert code == 0, err
    assert out.count("\n") > 1
    assert run_cli(capsys, [command, *given, *defaults])[1] == out


def _fresh_python(probe: str, **env: str | None) -> str:
    # Runs probe in a fresh interpreter that imports this checkout's
    # package, with each of env's variables set, or removed where None;
    # returns its stripped stdout.
    src = str(Path(gausscensus.__file__).resolve().parent.parent)
    child = dict(os.environ)
    child["PYTHONPATH"] = os.pathsep.join(p for p in (src, child.get("PYTHONPATH")) if p)
    for name, value in env.items():
        if value is None:
            child.pop(name, None)
        else:
            child[name] = value
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestStartup:
    def test_cli_import_leaves_scipy_unloaded(self) -> None:
        # scipy.special and scipy.integrate take most of a fresh
        # process's start-up time and no census uses them, so the modules
        # that need them import them inside the function that calls them.
        probe = (
            "import sys, gausscensus.cli; "
            "print(sorted(m for m in ('scipy.special', 'scipy.integrate') if m in sys.modules))"
        )
        assert _fresh_python(probe) == "[]"

    @pytest.mark.parametrize("given,expected", [(None, "1"), ("3", "3")])
    def test_cli_import_defaults_blas_to_one_thread(self, given, expected) -> None:
        # The CLI sets OPENBLAS_NUM_THREADS to 1 unless the user set it.
        probe = "import os, gausscensus.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert _fresh_python(probe, OPENBLAS_NUM_THREADS=given) == expected

    def test_library_import_leaves_numpy_unloaded(self) -> None:
        # OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it,
        # so the CLI's default works only while nothing that loads before
        # cli.py (the package's __init__) imports numpy.  Importing the
        # library itself must leave BLAS threading to the user's code.
        probe = ("import os, sys, gausscensus; "
                 "print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)")
        assert _fresh_python(probe, OPENBLAS_NUM_THREADS=None) == "False False"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                        reason="needs /proc/self/task and at least two CPUs")
    def test_cli_import_starts_no_blas_thread(self) -> None:
        # On two or more CPUs OpenBLAS starts a worker thread when numpy
        # loads, unless it is held to one thread.
        probe = "import os, gausscensus.cli; print(len(os.listdir('/proc/self/task')))"
        assert _fresh_python(probe, OPENBLAS_NUM_THREADS=None) == "1"


GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

# Each golden's command line; the worker count goes in through
# GAUSSCENSUS_WORKERS, which fidelity-check, drawing no samples, does not
# read.  The table1 run holds the
# k=500 row, whose form-II solves fail on many physical samples; the
# census run is the widest box of the front-end checks, and the bures
# runs take the volume-element path with all three metrics, once as
# JSON lines to hold that format's key order.
CLI_GOLDENS = {
    "table1.csv": ["table1", "--scale", "0.002", "--seed", "100"],
    "entropy.csv": ["entropy", "--samples", "50000", "--seed", "3"],
    "census.csv": ["census", "--k", "1000", "--l", "1000", "--samples", "100000", "--seed", "5"],
    "bures.csv": ["bures", "--samples", "16384", "--seed", "2", "--metric", "bures",
                  "--metric", "kubo-mori", "--metric", "maximal"],
    "bures.jsonl": ["bures", "--samples", "16384", "--seed", "2", "--metric", "bures",
                    "--metric", "kubo-mori", "--metric", "maximal", "--format", "json"],
    "one-mode.csv": ["one-mode", "--ks", "5,10,20,100", "--samples", "200000", "--seed", "4"],
    "fidelity-check.csv": ["fidelity-check", "--grid-points", "3"],
}


def test_every_cli_golden_has_a_command() -> None:
    # Every golden file has a command line, and every subcommand has a
    # golden.
    assert sorted(CLI_GOLDENS) == sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(cli._COMMANDS) == sorted({argv[0] for argv in CLI_GOLDENS.values()})


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
def test_cli_output_matches_golden(name: str, workers: str) -> None:
    # A fresh process, as a user runs it; its stdout is the golden byte
    # for byte at any worker count.  A change that means to alter a
    # census result replaces the golden and says why.
    src = str(Path(gausscensus.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env[cli.ENV_WORKERS] = workers
    proc = subprocess.run(
        [sys.executable, "-m", "gausscensus.cli", *CLI_GOLDENS[name]],
        capture_output=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout == (GOLDEN / name).read_bytes()


def _as_config(argv: list[str]) -> str:
    # A command line's flags as config lines: each key is the flag's
    # dest, and a pair's or a repeated flag's values make one list.
    values: dict[str, list[str]] = {}
    for token in argv[1:]:
        if token.startswith("--"):
            current = values.setdefault(token[2:].replace("-", "_"), [])
        else:
            current.append(token)
    return "".join(f"{key} = {' '.join(v)}\n" for key, v in values.items())


@pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
def test_cli_golden_from_a_config_file(name, capsys, tmp_path, monkeypatch) -> None:
    # Flags and config lines are one parse path: the golden command with
    # every flag moved into a config file prints the golden byte for byte.
    monkeypatch.setenv(cli.ENV_WORKERS, "1")
    argv = CLI_GOLDENS[name]
    conf = tmp_path / "run.conf"
    conf.write_text(_as_config(argv), encoding="utf-8")
    code, out, err = run_cli(capsys, [argv[0], "--config", str(conf)])
    assert code == 0, err
    assert out.encode() == (GOLDEN / name).read_bytes()
