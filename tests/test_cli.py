import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import odecf
from odecf.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    ConfigError,
    ExperimentConfig,
    config_echo,
    config_hash,
    emit_sweep_table,
    load_config,
    main,
)


@pytest.fixture
def raw_file(tmp_path):
    """Dense little interaction file that survives a 2-core filter."""
    rng = np.random.default_rng(0)
    lines = []
    for u in range(12):
        items = rng.choice(10, size=6, replace=False)
        for t, i in enumerate(items):
            lines.append(f"u{u:02d} i{i} {100 + t}")
    path = tmp_path / "raw.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def fast_overrides(raw_file, outdir, **extra):
    base = {
        "dataset": str(raw_file),
        "outdir": str(outdir),
        "k_core": "2",
        "dims": "8",
        "batch_size": "16",
        "max_epochs": "3",
        "allow_isolated_items": "true",
        "log_timing": "false",
        "seed": "7",
    }
    base.update({k: str(v) for k, v in extra.items()})
    return [f"{k}={v}" for k, v in base.items()]


class TestConfig:
    def test_defaults_follow_reference_protocol(self):
        cfg = ExperimentConfig()
        assert cfg.dims == 128
        assert cfg.learning_rate == 0.001
        assert cfg.max_epochs == 1000
        assert cfg.method == "euler"
        assert cfg.n_hops == 2
        assert cfg.t1 == 0.9
        assert cfg.k_core == 5

    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("dims = 16\nt1 = 0.8  # comment\n\nmethod = rk4\n")
        cfg = load_config(path, ["dims=32", "use_weights=true"])
        assert cfg.dims == 32 and cfg.t1 == 0.8
        assert cfg.method == "rk4" and cfg.use_weights is True

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            load_config(None, ["bogus=1"])

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="'dims'"):
            load_config(None, ["dims=many"])
        with pytest.raises(ConfigError, match="'use_weights'"):
            load_config(None, ["use_weights=maybe"])

    def test_missing_dataset_path_in_message(self):
        cfg = load_config(None, ["dataset=/nowhere/data.txt"])
        with pytest.raises(ConfigError, match="/nowhere/data.txt"):
            cfg.validate()

    def test_echo_round_trips_and_hash_is_stable(self):
        cfg = load_config(None, ["t1=0.85", "seed=9"])
        echoed = load_config(None, [line.replace(" = ", "=")
                                    for line in config_echo(cfg).splitlines()])
        assert echoed == cfg
        assert config_hash(cfg) == config_hash(echoed)
        assert config_hash(cfg) != config_hash(ExperimentConfig())


class TestRunExperiment:
    def test_pipeline_writes_everything(self, raw_file, tmp_path):
        outdir = tmp_path / "run"
        argv = ["train"]
        for pair in fast_overrides(raw_file, outdir):
            argv += ["--set", pair]
        assert main(argv) == EXIT_OK
        manifest = (outdir / "manifest.txt").read_text().split()
        assert manifest  # every listed artifact exists and is non-empty
        for name in manifest:
            target = outdir / name
            assert target.exists() and target.stat().st_size > 0
        log_lines = (outdir / "train_log.csv").read_text().splitlines()
        assert log_lines[0] == "epoch,loss,recall20,ndcg20,seconds"
        assert len(log_lines) == 4
        metrics = (outdir / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "mode,N,recall,ndcg,users"
        assert any(line.startswith("test,20,") for line in metrics)

    def test_byte_identical_reruns(self, raw_file, tmp_path):
        outputs = []
        for name in ("a", "b"):
            outdir = tmp_path / name
            argv = ["train"]
            for pair in fast_overrides(raw_file, outdir):
                argv += ["--set", pair]
            assert main(argv) == EXIT_OK
            outputs.append((
                (outdir / "train_log.csv").read_bytes(),
                (outdir / "metrics.csv").read_bytes(),
            ))
        assert outputs[0] == outputs[1]

    def test_lightgcn_and_gode_reports_are_comparable(self, raw_file, tmp_path):
        reports = {}
        for model in ("gode_cf", "lightgcn"):
            outdir = tmp_path / model
            argv = ["train"]
            for pair in fast_overrides(raw_file, outdir, model=model):
                argv += ["--set", pair]
            assert main(argv) == EXIT_OK
            lines = (outdir / "metrics.csv").read_text().splitlines()
            reports[model] = lines
        assert reports["gode_cf"][0] == reports["lightgcn"][0]
        assert len(reports["gode_cf"]) == len(reports["lightgcn"])

    def test_missing_dataset_exit_code_and_message(self, capsys):
        rc = main(["train", "--set", "dataset=/absent/file.txt"])
        assert rc == EXIT_CONFIG
        assert "/absent/file.txt" in capsys.readouterr().err

    def test_unknown_field_exit_code(self, raw_file, capsys):
        rc = main(["train", "--set", f"dataset={raw_file}", "--set", "no_such=1"])
        assert rc == EXIT_CONFIG
        assert "no_such" in capsys.readouterr().err


class TestPrepareAndEvaluate:
    def test_prepare_data_writes_split(self, raw_file, tmp_path):
        outdir = tmp_path / "prepared"
        rc = main(["prepare-data", "--input", str(raw_file), "--outdir", str(outdir),
                   "--set", "k_core=2"])
        assert rc == EXIT_OK
        for name in ("train.txt", "val.txt", "test.txt", "user_map.txt", "item_map.txt"):
            assert (outdir / name).stat().st_size > 0
        from odecf.data import read_split
        ds = read_split(outdir)
        assert ds.n_users == 12
        assert all(len(t) >= 1 for t in ds.train)

    def test_evaluate_checkpoint_matches_training_metrics(self, raw_file, tmp_path, capsys):
        outdir = tmp_path / "run"
        argv = ["train"]
        for pair in fast_overrides(raw_file, outdir):
            argv += ["--set", pair]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        eval_csv = tmp_path / "eval.csv"
        argv = ["evaluate", "--checkpoint", str(outdir), "--mode", "test",
                "--out", str(eval_csv)]
        for pair in fast_overrides(raw_file, outdir):
            argv += ["--set", pair]
        assert main(argv) == EXIT_OK
        test_rows = [l for l in (outdir / "metrics.csv").read_text().splitlines()
                     if l.startswith("test,")]
        eval_rows = [l for l in eval_csv.read_text().splitlines()[1:]]
        assert eval_rows == test_rows

    @staticmethod
    def train_then_evaluate(raw_file, outdir, capsys, **extra):
        overrides = []
        for pair in fast_overrides(raw_file, outdir.parent / "elsewhere", **extra):
            overrides += ["--set", pair]
        assert main(["train", "--outdir", str(outdir)] + overrides) == EXIT_OK
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(outdir)] + overrides) == EXIT_OK
        return capsys.readouterr().err

    def test_evaluate_after_train_outdir_has_no_config_note(self, raw_file, tmp_path, capsys):
        err = self.train_then_evaluate(raw_file, tmp_path / "run", capsys)
        assert "different config" not in err

    def test_unweighted_rerun_drops_stale_hop_weights(self, raw_file, tmp_path, capsys):
        outdir = tmp_path / "run"
        self.train_then_evaluate(raw_file, outdir, capsys, use_weights="true")
        assert (outdir / "hop_weights.txt").exists()
        self.train_then_evaluate(raw_file, outdir, capsys, use_weights="false")
        assert not (outdir / "hop_weights.txt").exists()


class TestSweep:
    def run_sweep_cli(self, raw_file, outdir, param, values, **extra):
        argv = ["sweep", "--param", param, "--values", values]
        for pair in fast_overrides(raw_file, outdir, max_epochs=2, **extra):
            argv += ["--set", pair]
        return main(argv)

    def test_t1_grid_produces_one_row_per_value(self, raw_file, tmp_path):
        outdir = tmp_path / "sweep_t1"
        grid = "0.7,0.75,0.8,0.85,0.9,0.95,1"
        assert self.run_sweep_cli(raw_file, outdir, "t1", grid) == EXIT_OK
        lines = (outdir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,recall20,ndcg20,epochs_to_best,seconds"
        assert len(lines) == 1 + 7
        assert len(list(outdir.glob("t1=*"))) == 7

    def test_weight_ablation_pair(self, raw_file, tmp_path):
        outdir = tmp_path / "sweep_w"
        assert self.run_sweep_cli(raw_file, outdir, "use_weights", "false,true") == EXIT_OK
        lines = (outdir / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_layer_sweep(self, raw_file, tmp_path):
        outdir = tmp_path / "sweep_hops"
        assert self.run_sweep_cli(raw_file, outdir, "n_hops", "1,2,3") == EXIT_OK
        assert len((outdir / "sweep.csv").read_text().splitlines()) == 4

    def test_parallel_runs_match_sequential(self, raw_file, tmp_path):
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert self.run_sweep_cli(raw_file, seq, "n_hops", "1,2") == EXIT_OK
        argv = ["sweep", "--param", "n_hops", "--values", "1,2", "--parallel", "2"]
        for pair in fast_overrides(raw_file, par, max_epochs=2):
            argv += ["--set", pair]
        assert main(argv) == EXIT_OK
        for sub in ("n_hops=1", "n_hops=2"):
            assert ((seq / sub / "train_log.csv").read_bytes()
                    == (par / sub / "train_log.csv").read_bytes())

    def test_empty_results_directory_errors(self, tmp_path, capsys):
        rc = main(["sweep", "--table-only", "--outdir", str(tmp_path / "void")])
        assert rc == EXIT_RUNTIME

    def test_malformed_run_directory_skipped_with_warning(self, raw_file, tmp_path, capsys):
        outdir = tmp_path / "sweep_bad"
        assert self.run_sweep_cli(raw_file, outdir, "t1", "0.8,0.9") == EXIT_OK
        broken = outdir / "t1=0.8"
        (broken / "metrics.csv").unlink()
        capsys.readouterr()
        assert emit_sweep_table(outdir).exists()
        err = capsys.readouterr().err
        assert "skipping" in err and "t1=0.8" in err
        lines = (outdir / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_bad_sweep_param(self, raw_file, tmp_path):
        rc = self.run_sweep_cli(raw_file, tmp_path / "s", "not_a_field", "1,2")
        assert rc == EXIT_CONFIG


class TestGradcheckVerb:
    def test_passes_and_prints_every_combo(self, capsys):
        rc = main(["gradcheck", "--seed", "2"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("max_rel_err") == 12 + 1
        assert "[OK]" in out


def test_output_root_env(tmp_path, monkeypatch, raw_file):
    monkeypatch.setenv("ODECF_OUTPUT_ROOT", str(tmp_path / "root"))
    argv = ["prepare-data", "--input", str(raw_file), "--outdir", "rel_out",
            "--set", "k_core=2"]
    assert main(argv) == EXIT_OK
    assert (tmp_path / "root" / "rel_out" / "train.txt").exists()


def test_module_entrypoint_help():
    paths = [str(Path(odecf.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))  # the odecf under test
    proc = subprocess.run([sys.executable, "-m", "odecf", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    for verb in ("prepare-data", "train", "evaluate", "sweep", "gradcheck"):
        assert verb in proc.stdout
