"""Tests for the `simulate` command-line interface."""

import os
import signal
from pathlib import Path

import pytest

import mimolink.simulate as sim
from mimolink import cli, pool
from mimolink.cli import main
from mimolink.simulate import CSV_COLUMNS

FAST_CFG = """
N_t = 2
N_r = 2
M_constellation = 16
n_pilot = 4
noise_power = [1e-4, 1e-2]
n_transmissions = 10
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text(FAST_CFG + f"output = {tmp_path / 'output.csv'}\n")
    return path


class TestCli:
    def test_successful_run_writes_csv(self, fast_config, tmp_path, capsys):
        assert main(["--config", str(fast_config)]) == 0
        out_path = tmp_path / "output.csv"
        lines = out_path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        assert "output.csv" in capsys.readouterr().out

    def test_flag_overrides_reach_the_records(self, fast_config, tmp_path):
        assert main([
            "--config", str(fast_config),
            "--seed", "123",
            "--detector", "kmeans",
            "--estimator", "lmmse",
            "--output", str(tmp_path / "other.csv"),
        ]) == 0
        lines = (tmp_path / "other.csv").read_text().splitlines()
        assert lines[1].endswith("kmeans,lmmse,123")

    def test_defaults_only_run_needs_no_config(self, tmp_path, monkeypatch, capsys):
        # a tiny override file keeps the default Table-sized run out of unit tests
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(FAST_CFG.replace("noise_power = [1e-4, 1e-2]\nn_transmissions = 10\n",
                                        "noise_power = [1e-3]\nn_transmissions = 2\n"))
        assert main(["--config", str(cfg)]) == 0
        assert Path(tmp_path / "output.csv").exists()

    def test_extract_file(self, fast_config, tmp_path):
        assert main([
            "--config", str(fast_config),
            "--extract", "snr_tx_db,bler",
            "--extract-output", str(tmp_path / "pair.csv"),
        ]) == 0
        lines = (tmp_path / "pair.csv").read_text().splitlines()
        assert lines[0] == "snr_tx_db,bler"
        assert len(lines) == 3

    def test_default_extract_path(self, fast_config, tmp_path):
        assert main(["--config", str(fast_config), "--extract", "ebn0_tx_db,ber"]) == 0
        assert (tmp_path / "output_extract.csv").exists()

    def test_bad_config_exits_nonzero_with_message(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("M_constellation = 15\n")
        assert main(["--config", str(cfg)]) != 0
        assert "Must be a power of two" in capsys.readouterr().err

    def test_missing_config_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.cfg")]) != 0
        assert "absent.cfg" in capsys.readouterr().err

    def test_unknown_extract_column_exits_before_the_sweep(self, fast_config, capsys):
        assert main(["--config", str(fast_config), "--extract", "bogus"]) != 0
        assert "bogus" in capsys.readouterr().err

    def test_repeated_extract_column_exits_2_before_the_sweep(self, fast_config, tmp_path, capsys):
        assert main(["--config", str(fast_config), "--extract", "bler,bler,snr_tx_db"]) == 2
        assert "column(s) selected more than once: bler" in capsys.readouterr().err
        assert not (tmp_path / "output.csv").exists()

    def test_extract_output_without_extract_exits_before_the_sweep(self, fast_config, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--config", str(fast_config), "--extract-output", str(tmp_path / "pair.csv")])
        assert exit_info.value.code != 0
        assert "--extract" in capsys.readouterr().err
        assert not (tmp_path / "pair.csv").exists()
        assert not (tmp_path / "output.csv").exists()

    @pytest.mark.parametrize("selection", [",", "", " , "])
    def test_empty_extract_selection_exits_before_the_sweep(self, fast_config, tmp_path, capsys, selection):
        assert main(["--config", str(fast_config), "--extract", selection]) != 0
        assert "no columns selected" in capsys.readouterr().err
        assert not (tmp_path / "output.csv").exists()

    @pytest.fixture
    def no_sweep(self, monkeypatch):
        def refuse(config):
            raise AssertionError("the sweep started")
        monkeypatch.setattr(cli, "run_sweep", refuse)

    @pytest.mark.parametrize("output", ["", ".", "..", "runs/"])
    def test_output_naming_no_file_exits_2_before_the_sweep(self, fast_config, tmp_path, monkeypatch,
                                                            capsys, no_sweep, output):
        monkeypatch.chdir(tmp_path)
        assert main(["--config", str(fast_config), "--output", output]) == 2
        assert capsys.readouterr().err == f"simulate: error: output = {output!r} names no file\n"
        fast_config.write_text(FAST_CFG + f"output = {output}\n")
        assert main(["--config", str(fast_config)]) == 2
        assert "output = " in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("flag, name", [("--output", "output"),
                                            ("--extract-output", "--extract-output")])
    @pytest.mark.parametrize("path, problem", [("", "names no file"), ("runs/", "names no file"),
                                               ("nodir/x.csv", "'nodir' is not a directory"),
                                               ("afile/x.csv", "'afile' is not a directory"),
                                               ("adir", "is a directory")])
    def test_bad_destination_exits_2_naming_it_before_the_sweep(self, fast_config, tmp_path, monkeypatch,
                                                                capsys, no_sweep, flag, name, path, problem):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        assert main(["--config", str(fast_config), "--extract", "bler", flag, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"simulate: error: {name} = {path!r}") and problem in err
        assert not list(tmp_path.rglob("*.csv")) and not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("extract_output", ["./out.csv", "out.csv", "sub/../out.csv", "{tmp}/out.csv"])
    def test_extract_output_at_the_output_path_exits_2_before_the_sweep(self, fast_config, tmp_path, monkeypatch,
                                                                        capsys, no_sweep, extract_output):
        """The extract would overwrite the CSV it was taken from."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        extract_output = extract_output.format(tmp=tmp_path)
        assert main(["--config", str(fast_config), "--output", "out.csv", "--extract", "bler",
                     "--extract-output", extract_output]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"simulate: error: --extract-output = {extract_output!r}") and "out.csv" in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_extract_output_in_the_working_directory(self, fast_config, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--config", str(fast_config), "--extract", "bler", "--extract-output", "pair.csv"]) == 0
        assert (tmp_path / "pair.csv").read_text().splitlines()[0] == "bler"

    def test_bad_detector_flag_is_the_config_error(self, fast_config, capsys, no_sweep):
        assert main(["--config", str(fast_config), "--detector", "foo"]) == 2
        assert capsys.readouterr().err == (
            "simulate: error: detector = 'foo'; expected one of ('ml', 'kmeans', 'dnn')\n")

    @pytest.mark.parametrize("flag, value, key", [("--seed", "7.5", "seed"), ("--seed", "-1", "seed"),
                                                  ("--estimator", "mmse", "estimator"),
                                                  ("--equalizer", "ZF", "equalizer")])
    def test_bad_flag_value_names_its_key(self, fast_config, capsys, no_sweep, flag, value, key):
        assert main(["--config", str(fast_config), flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"simulate: error: {key} ")

    def test_flags_are_read_as_config_text(self, fast_config, tmp_path):
        """--seed 1e3 is seed = 1e3 in the file, byte for byte."""
        assert main(["--config", str(fast_config), "--seed", "1e3", "--output", str(tmp_path / "flag.csv")]) == 0
        fast_config.write_text(FAST_CFG + f"seed = 1e3\noutput = {tmp_path / 'file.csv'}\n")
        assert main(["--config", str(fast_config)]) == 0
        flag_bytes = (tmp_path / "flag.csv").read_bytes()
        assert flag_bytes == (tmp_path / "file.csv").read_bytes()
        assert flag_bytes.splitlines()[1].endswith(b",1000")

    def test_seed_above_2_to_the_64_reaches_the_csv_exactly(self, fast_config, tmp_path):
        rows = {}
        for seed in (2**64, 2**64 + 1):
            out = tmp_path / f"seed{seed}.csv"
            assert main(["--config", str(fast_config), "--seed", str(seed), "--output", str(out)]) == 0
            lines = out.read_text().splitlines()[1:]
            assert all(line.endswith(f",{seed}") for line in lines)
            rows[seed] = [line.rsplit(",", 1)[0] for line in lines]
        # different streams, so the measures differ too
        assert rows[2**64] != rows[2**64 + 1]

    @pytest.mark.skipif(not hasattr(os, "fork") or pool.openblas_threads() is None,
                        reason="sweeps run in one process without os.fork and an OpenBLAS thread setter")
    def test_killed_worker_process_exits_2_without_traceback(self, fast_config, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        trial_links = sim._trial_links

        def killed_at_second_point(config, noise_power, noise_index, *args, **kwargs):
            if noise_index == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return trial_links(config, noise_power, noise_index, *args, **kwargs)

        monkeypatch.setattr(sim, "_trial_links", killed_at_second_point)
        fast_config.write_text(fast_config.read_text() + "workers = 2\n")
        assert main(["--config", str(fast_config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("simulate: error: the worker process for noise points [1] was killed by signal")
        assert "Traceback" not in err
        assert not (tmp_path / "output.csv").exists()
