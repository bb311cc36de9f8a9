import numpy as np
import pytest

import odecf.evaluation
from odecf.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    ConfigError,
    ExperimentConfig,
    build_dataset,
    build_state,
    config_echo,
    config_hash,
    emit_sweep_table,
    load_checkpoint,
    load_config,
    main,
    read_checkpoint_meta,
    run_experiment,
    write_metrics_csv,
)
from odecf.evaluation import evaluate, rank_all
from odecf.model import final_embeddings

from conftest import BLAS_THREAD_VARIABLES, run_fresh
from test_train import damage_checkpoint


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
        with pytest.raises(ConfigError, match="'t1'.*as float"):
            load_config(None, ["t1=fast"])
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

    @pytest.mark.parametrize("name", ["sweep_param", "sweep_values", "exclude_validation_at_test",
                                      "allow_isolated_items"])
    def test_removed_field_exits_naming_it(self, raw_file, tmp_path, capsys, name):
        cfg_file = tmp_path / "old.cfg"
        cfg_file.write_text(f"dataset = {raw_file}\n{name} = true\n")
        assert main(["train", "--config", str(cfg_file)]) == EXIT_CONFIG
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("pair", ["model=lightgcn", "n_layers=3"])
    def test_model_and_layer_fields_exit_naming_them(self, raw_file, tmp_path, capsys, pair):
        argv = ["train"]
        for item in fast_overrides(raw_file, tmp_path / "run") + [pair]:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        assert repr(pair.split("=")[0]) in capsys.readouterr().err

    @pytest.mark.parametrize("pair, named", [
        ("l2_lambda=nan", "l2 coefficient"), ("l2_lambda=inf", "l2 coefficient"),
        ("learning_rate=inf", "learning rate"), ("init_std=inf", "'init_std'"),
        ("seed=-1", "seed"),
    ])
    def test_non_finite_rate_or_scale_and_negative_seed_are_config_errors(
            self, raw_file, tmp_path, capsys, pair, named):
        argv = ["train"]
        for item in fast_overrides(raw_file, tmp_path / "run") + [pair]:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("verb, args, named", [
        ("train", ["--set", "eval_n=a"], "'eval_n'"),
        ("train", ["--set", "eval_n=0"], "'eval_n'"),
        ("train", ["--set", "dataset="], "'dataset'"),
        ("train", ["--set", "k_core=0"], "'k_core'"),
        ("train", ["--set", "max_epochs=-1"], "max epochs"),
        ("train", ["--set", "dataset=#raw.txt"], "'dataset': '#raw.txt' has a '#'"),
        ("train", ["--set", "eval_n=10 #20"], "'eval_n': '10 #20' has a '#'"),
        ("train", ["--config", "bad.cfg"], "line 2: expected key=value"),
        ("train", ["--config", "absent.cfg"], "absent.cfg"),
        ("train", ["--set", "k_core"], "'k_core' is not key=value"),
        ("sweep", [], "--param"),
        ("sweep", ["--param", "t1", "--values", ""], "--values"),
        # config.txt strips values, so these would not read back (the file exists)
        ("train", ["--dataset", "raw.txt "], "'dataset': 'raw.txt ' has leading or trailing"),
        ("train", ["--outdir", "run "], "'outdir': 'run ' has leading or trailing"),
    ])
    def test_error_exits_naming_its_field_or_flag(self, raw_file, tmp_path, monkeypatch, capsys,
                                                  verb, args, named):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.cfg").write_text("dims = 8\nnot a pair\n")
        (tmp_path / "raw.txt ").write_bytes(raw_file.read_bytes())
        argv = [verb]
        for pair in fast_overrides(raw_file, tmp_path / "run"):
            argv += ["--set", pair]
        assert main(argv + args) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists() and not (tmp_path / "run ").exists()

    def test_hash_in_a_value_survives_config_txt(self, raw_file, tmp_path, capsys):
        dataset = tmp_path / "a#b" / "raw.txt"
        dataset.parent.mkdir()
        dataset.write_bytes(raw_file.read_bytes())
        outdir = tmp_path / "run#1"
        overrides = fast_overrides(dataset, outdir)
        assert main(["train"] + [arg for pair in overrides for arg in ("--set", pair)]) == EXIT_OK
        argv = ["evaluate", "--config", str(outdir / "config.txt"), "--checkpoint", str(outdir)]
        assert main(argv) == EXIT_OK
        assert "different config" not in capsys.readouterr().err
        assert load_config(outdir / "config.txt") == load_config(overrides=overrides)

    @pytest.mark.parametrize("argv", [[], ["evaluate", "--checkpoint", "run", "--mode", "bogus"]])
    def test_usage_error_is_a_config_error(self, capsys, argv):
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    def test_lightgcn_with_hop_weights_is_a_config_error(self, raw_file, tmp_path, capsys):
        argv = ["train"]
        for item in fast_overrides(raw_file, tmp_path / "run", method="lightgcn",
                                   use_weights="true"):
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        assert "hop weights" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


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
        assert sorted(manifest + ["manifest.txt"]) == sorted(p.name for p in outdir.iterdir())
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
        for method in ("euler", "lightgcn"):
            outdir = tmp_path / method
            argv = ["train"]
            for pair in fast_overrides(raw_file, outdir, method=method):
                argv += ["--set", pair]
            assert main(argv) == EXIT_OK
            lines = (outdir / "metrics.csv").read_text().splitlines()
            reports[method] = lines
        assert reports["euler"][0] == reports["lightgcn"][0]
        assert len(reports["euler"]) == len(reports["lightgcn"])

    def test_divergence_in_first_epoch_fails_without_checkpoint(self, raw_file, tmp_path,
                                                                capsys):
        outdir = tmp_path / "run"
        argv = ["train"]
        for pair in fast_overrides(raw_file, outdir, learning_rate="1e200"):
            argv += ["--set", pair]
        assert main(argv) == EXIT_RUNTIME
        assert "diverged in epoch 1" in capsys.readouterr().err
        assert not (outdir / "checkpoint.emb").exists()
        assert not (outdir / "metrics.csv").exists()

    @pytest.mark.parametrize("extra", [
        dict(max_epochs=6, patience=2),  # best epoch 3 of 5
        dict(max_epochs=5, method="rk4", use_weights="true", learning_rate=0.05),  # 2 of 5
        dict(max_epochs=4, method="lightgcn", learning_rate=0.1),  # 1 of 4
        dict(max_epochs=0),
    ], ids=["euler", "rk4-weighted", "lightgcn", "no-epochs"])
    def test_validation_rows_reuse_the_best_epochs_report(self, raw_file, tmp_path,
                                                          monkeypatch, capsys, extra):
        modes = []

        def counted(fe, ds, mode, *args, **kwargs):
            modes.append(mode)
            return rank_all(fe, ds, mode, *args, **kwargs)

        monkeypatch.setattr(odecf.evaluation, "rank_all", counted)
        cfg = load_config(overrides=fast_overrides(raw_file, tmp_path / "run",
                                                   eval_n="20,5,1", **extra))
        outdir = run_experiment(cfg)
        epochs = len((outdir / "train_log.csv").read_text().splitlines()) - 1
        best = int(read_checkpoint_meta(outdir)["epoch"])
        if epochs:
            assert best < epochs  # the reused report is not simply the last one
            assert modes == ["validation"] * epochs + ["test"]
        else:
            assert modes == ["validation", "test"]

        ds, _ = build_dataset(cfg)
        state = build_state(cfg, ds)
        state.e0, weights, _ = load_checkpoint(outdir)
        if weights is not None:
            state.hop_weights = weights
        fe = final_embeddings(state)
        n_values = cfg.eval_n_list()
        write_metrics_csv(tmp_path / "fresh.csv", [
            ("validation", evaluate(fe, ds, "validation", n_values)),
            ("test", evaluate(fe, ds, "test", n_values))])
        assert (outdir / "metrics.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()

    def test_item_seen_only_as_a_test_item_trains(self, raw_file, tmp_path):
        # u00's last interaction is the one line of item 'rare', so the split
        # makes it u00's test item and leaves it with no train edge
        raw_file.write_text(raw_file.read_text() + "u00 rare 999\n")
        outdir = tmp_path / "run"
        overrides = fast_overrides(raw_file, outdir, k_core=1)
        ds, _ = build_dataset(load_config(overrides=overrides))
        rare = ds.item_index["rare"]
        assert ds.test[ds.user_index["u00"]] == rare and rare not in ds.train_items
        assert main(["train"] + [arg for pair in overrides for arg in ("--set", pair)]) == EXIT_OK
        assert any(line.startswith("test,20,")
                   for line in (outdir / "metrics.csv").read_text().splitlines())

    def test_missing_dataset_exit_code_and_message(self, capsys):
        rc = main(["train", "--set", "dataset=/absent/file.txt"])
        assert rc == EXIT_CONFIG
        assert "/absent/file.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, columns", [("train", "user,item"),
                                               ("prepare-data", "user,time,time")])
    def test_bad_columns_is_a_config_error(self, raw_file, tmp_path, capsys, verb, columns):
        outdir = tmp_path / "run"
        argv = [verb, "--outdir", str(outdir)]
        for pair in fast_overrides(raw_file, outdir, columns=columns):
            argv += ["--set", pair]
        assert main(argv) == EXIT_CONFIG
        assert "'columns'" in capsys.readouterr().err
        assert not outdir.exists()

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
        users = [line.split("\t")[1] for line in (outdir / "user_map.txt").read_text().splitlines()]
        assert users == [str(u) for u in range(12)]
        train_users = {line.split()[0] for line in (outdir / "train.txt").read_text().splitlines()}
        assert train_users == set(users)

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

    def test_evaluate_under_another_config_prints_the_note(self, raw_file, tmp_path, capsys):
        outdir = tmp_path / "run"
        overrides = []
        for pair in fast_overrides(raw_file, outdir):
            overrides += ["--set", pair]
        assert main(["train"] + overrides) == EXIT_OK
        capsys.readouterr()
        argv = ["evaluate", "--checkpoint", str(outdir)] + overrides + ["--set", "t1=0.8"]
        assert main(argv) == EXIT_OK
        assert "checkpoint was trained under a different config" in capsys.readouterr().err

    def test_unweighted_rerun_drops_stale_hop_weights(self, raw_file, tmp_path, capsys):
        outdir = tmp_path / "run"
        self.train_then_evaluate(raw_file, outdir, capsys, use_weights="true")
        assert load_checkpoint(outdir)[1] is not None
        self.train_then_evaluate(raw_file, outdir, capsys, use_weights="false")
        assert load_checkpoint(outdir)[1] is None
        assert (outdir / "manifest.txt").read_text().split() == [
            "config.txt", "train_log.csv", "metrics.csv", "checkpoint.emb", "checkpoint_meta.txt"]

    def test_readme_train_then_evaluate_under_output_root(self, raw_file, tmp_path, monkeypatch,
                                                         capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("ODECF_OUTPUT_ROOT", "root")
        overrides = [arg for pair in fast_overrides(raw_file, "runs/base")
                     for arg in ("--set", pair)]
        assert main(["train", "--dataset", raw_file.name, "--outdir", "runs/base"]
                    + overrides) == EXIT_OK
        rows = [line.split(",") for line in
                (tmp_path / "root/runs/base/metrics.csv").read_text().splitlines()
                if line.startswith("test,")]
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", "runs/base", "--mode", "test"] + overrides
                    + ["--set", f"dataset={raw_file.name}"]) == EXIT_OK
        printed = capsys.readouterr()
        assert printed.out.splitlines()[:len(rows)] == [
            f"test recall@{n}={float(recall):.6f} ndcg@{n}={float(ndcg):.6f}"
            for _, n, recall, ndcg, _ in rows]
        assert "different config" not in printed.err

    @pytest.mark.parametrize("damage", ["truncated", "empty", "pickled", "text"])
    def test_evaluate_refuses_unreadable_checkpoint(self, raw_file, tmp_path, capsys, damage):
        outdir = tmp_path / "run"
        self.train_then_evaluate(raw_file, outdir, capsys)
        damage_checkpoint(outdir / "checkpoint.emb", damage)
        overrides = [arg for pair in fast_overrides(raw_file, tmp_path / "elsewhere")
                     for arg in ("--set", pair)]
        assert main(["evaluate", "--checkpoint", str(outdir)] + overrides) == EXIT_RUNTIME
        assert str(outdir / "checkpoint.emb") in capsys.readouterr().err


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
        assert lines[0] == "field,value,recall20,ndcg20,epochs_to_best,seconds"
        assert len(lines) == 1 + 7
        assert [line.split(",")[:2] for line in lines[1:]] == [["t1", str(float(v))] for v in grid.split(",")]
        assert len(list(outdir.glob("t1=*"))) == 7

    def test_weight_ablation_pair(self, raw_file, tmp_path):
        outdir = tmp_path / "sweep_w"
        assert self.run_sweep_cli(raw_file, outdir, "use_weights", "false,true") == EXIT_OK
        lines = (outdir / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_cutoffs_without_20_still_table(self, raw_file, tmp_path):
        """The table reads test N=20, which every run's metrics.csv carries."""
        outdir = tmp_path / "sweep_n10"
        assert self.run_sweep_cli(raw_file, outdir, "t1", "0.8,0.9", eval_n=10) == EXIT_OK
        lines = (outdir / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["t1", "0.8"], ["t1", "0.9"]]
        rows = (outdir / "t1=0.8" / "metrics.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [
            ["validation", "10"], ["validation", "20"], ["test", "10"], ["test", "20"]]

    def test_layer_sweep(self, raw_file, tmp_path):
        outdir = tmp_path / "sweep_hops"
        assert self.run_sweep_cli(raw_file, outdir, "n_hops", "1,2,3") == EXIT_OK
        assert len((outdir / "sweep.csv").read_text().splitlines()) == 4

    def test_one_worker_matches_two_workers(self, raw_file, tmp_path):
        one, two = tmp_path / "one", tmp_path / "two"
        assert self.run_sweep_cli(raw_file, one, "n_hops", "1,2") == EXIT_OK
        argv = ["sweep", "--param", "n_hops", "--values", "1,2", "--parallel", "2"]
        for pair in fast_overrides(raw_file, two, max_epochs=2):
            argv += ["--set", pair]
        assert main(argv) == EXIT_OK
        for sub in ("n_hops=1", "n_hops=2"):
            assert ((one / sub / "train_log.csv").read_bytes()
                    == (two / sub / "train_log.csv").read_bytes())

    def test_zero_workers_is_a_config_error(self, raw_file, tmp_path, capsys):
        argv = ["sweep", "--param", "n_hops", "--values", "1,2", "--parallel", "0"]
        for pair in fast_overrides(raw_file, tmp_path / "s", max_epochs=2):
            argv += ["--set", pair]
        assert main(argv) == EXIT_CONFIG
        assert "--parallel" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_value_with_a_path_separator_is_a_config_error(self, raw_file, tmp_path,
                                                           monkeypatch, capsys):
        # the second run would land in <outdir>/dataset=d/raw.txt, which the table never lists
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "raw.txt").write_bytes(raw_file.read_bytes())
        rc = self.run_sweep_cli(raw_file, tmp_path / "s", "dataset", "raw.txt,d/raw.txt")
        assert rc == EXIT_CONFIG
        assert "'d/raw.txt'" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("param, values, named", [
        ("dims", "4,0", "'dims'"),  # the dims=4 run would train before dims=0 failed
        ("t1", "0.9,0.90", "'0.90'"),  # both runs would write into t1=0.9 at once
    ])
    def test_every_run_is_checked_before_any_starts(self, raw_file, tmp_path, capsys,
                                                   param, values, named):
        argv = ["sweep", "--param", param, "--values", values, "--parallel", "2"]
        for pair in fast_overrides(raw_file, tmp_path / "s", max_epochs=2):
            argv += ["--set", pair]
        assert main(argv) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_empty_results_directory_errors(self, tmp_path, capsys):
        rc = main(["sweep", "--table-only", "--outdir", str(tmp_path / "void")])
        assert rc == EXIT_RUNTIME

    def test_malformed_run_directory_skipped_with_warning(self, raw_file, tmp_path, capsys):
        outdir = tmp_path / "sweep_bad"
        assert self.run_sweep_cli(raw_file, outdir, "t1", "0.8,0.9,1") == EXIT_OK
        broken = outdir / "t1=0.8"
        (broken / "metrics.csv").unlink()
        metrics = outdir / "t1=1.0" / "metrics.csv"
        metrics.write_text(metrics.read_text().replace("mode,N,", "mode,n,", 1))
        capsys.readouterr()
        assert emit_sweep_table(outdir).exists()
        err = capsys.readouterr().err
        assert "skipping" in err and "t1=0.8" in err
        assert "t1=1.0" in err and "unexpected metrics header" in err
        lines = (outdir / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_second_sweep_tables_only_its_own_runs(self, raw_file, tmp_path, capsys):
        outdir = tmp_path / "sweep_mixed"
        assert self.run_sweep_cli(raw_file, outdir, "t1", "0.8,0.9") == EXIT_OK
        assert self.run_sweep_cli(raw_file, outdir, "n_hops", "1") == EXIT_OK
        (outdir / "notes").mkdir()
        (outdir / "notes" / "config.txt").write_text("not a run\n")
        lines = (outdir / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["n_hops", "1"]]
        capsys.readouterr()
        # --table-only keeps every sweep, each row naming its field
        assert main(["sweep", "--table-only", "--outdir", str(outdir)]) == EXIT_OK
        lines = (outdir / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["n_hops", "1"], ["t1", "0.8"], ["t1", "0.9"]]
        assert "warning" not in capsys.readouterr().err

    def test_bad_sweep_param(self, raw_file, tmp_path, capsys):
        rc = self.run_sweep_cli(raw_file, tmp_path / "s", "not_a_field", "1,2")
        assert rc == EXIT_CONFIG
        rc = self.run_sweep_cli(raw_file, tmp_path / "s", "model", "gode_cf,lightgcn")
        assert rc == EXIT_CONFIG
        assert "'model'" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_method_sweep_tables_the_three_models(self, raw_file, tmp_path):
        outdir = tmp_path / "sweep_method"
        assert self.run_sweep_cli(raw_file, outdir, "method", "euler,rk4,lightgcn") == EXIT_OK
        lines = (outdir / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["method", "euler"], ["method", "lightgcn"], ["method", "rk4"]]

    def test_relative_output_root(self, raw_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("ODECF_OUTPUT_ROOT", "out")
        assert self.run_sweep_cli(raw_file, "runs", "t1", "0.8,0.9") == EXIT_OK
        base = tmp_path / "out" / "runs"
        assert sorted(p.name for p in base.glob("t1=*")) == ["t1=0.8", "t1=0.9"]
        assert len((base / "sweep.csv").read_text().splitlines()) == 3
        assert not (tmp_path / "out" / "out").exists()


class TestGradcheckVerb:
    def test_passes_and_prints_every_combo(self, capsys):
        rc = main(["gradcheck", "--seed", "2"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("max_rel_err") == 12 + 1
        assert "[OK]" in out

    def test_negative_seed_is_a_config_error(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err


def test_output_root_env(tmp_path, monkeypatch, raw_file):
    monkeypatch.setenv("ODECF_OUTPUT_ROOT", str(tmp_path / "root"))
    argv = ["prepare-data", "--input", str(raw_file), "--outdir", "rel_out",
            "--set", "k_core=2"]
    assert main(argv) == EXIT_OK
    assert (tmp_path / "root" / "rel_out" / "train.txt").exists()


@pytest.mark.parametrize("given, want", [(None, "1"), ("3", "3")])
def test_cli_defaults_to_one_blas_thread(given, want):
    code = f"import os, odecf.cli; print(*(os.environ[v] for v in {BLAS_THREAD_VARIABLES!r}))"
    out = run_fresh(["-c", code], **dict.fromkeys(BLAS_THREAD_VARIABLES, given))
    assert out.split() == [want] * 3


def test_module_entrypoint_help():
    out = run_fresh(["-m", "odecf", "--help"])
    for verb in ("prepare-data", "train", "evaluate", "sweep", "gradcheck"):
        assert verb in out
