"""Config handling, run directories, resume/replay, and the CLI."""

import hashlib
import json
import os
import struct

import numpy as np
import pytest

from tinynn import experiments
from tinynn.cli import main
from tinynn.errors import ConfigError, DataError
from tinynn.experiments import (
    BUDGETS,
    DEFAULT_SYNTH_HIDDEN,
    DEFAULT_WIDTHS,
    MNIST_FILES,
    Budget,
    ExperimentConfig,
    RunContext,
    RunResult,
    _SEED_COMPARISON,
    build_config,
    default_hidden,
    load_config_file,
    load_dataset,
    replay_manifest,
    resume_run,
    run_experiment,
)
from tinynn.rng import derive_seed


def tiny_sweep_config(out, seed=1):
    return ExperimentConfig(
        kind="synthetic-sweep",
        dataset="synthetic",
        hidden=(1, 2),
        trials=2,
        seed=seed,
        out=str(out),
        epochs=1,
        stds=(0.5,),
        sizes=(240,),
    ).validate()


def read_csv_rows(path):
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def file_bytes(path):
    with open(path, "rb") as f:
        return f.read()


class TestDefaults:
    def test_default_hidden_by_kind(self):
        assert default_hidden("synthetic-sweep") == DEFAULT_SYNTH_HIDDEN
        assert default_hidden("layer-size-sweep") == DEFAULT_WIDTHS
        assert default_hidden("ova-binary") == (1,)
        assert default_hidden("ova-ensemble") == (1,)

    def test_synthetic_sweep_budget(self):
        cfg = build_config(flag_values={"kind": "synthetic-sweep", "dataset": "synthetic"})
        assert cfg.hidden == DEFAULT_SYNTH_HIDDEN
        assert cfg.budget() == BUDGETS["synthetic"] == Budget(0.02, 2, 0)

    def test_layer_sweep_budget(self):
        cfg = build_config(flag_values={"kind": "layer-size-sweep", "dataset": "mnist"})
        assert cfg.hidden == DEFAULT_WIDTHS
        assert cfg.budget() == BUDGETS["layer-sweep"] == Budget(0.05, 70, 125)

    def test_ova_budgets_follow_dataset(self):
        conv = build_config(flag_values={"kind": "ova-binary", "dataset": "mnist"})
        assert conv.budget() == Budget(0.015, 5, 0)
        mlp = build_config(flag_values={"kind": "ova-binary", "dataset": "synthetic"})
        assert mlp.budget() == Budget(0.05, 20, 0)

    def test_explicit_values_win_over_resolution(self):
        cfg = build_config(
            flag_values={
                "kind": "layer-size-sweep",
                "dataset": "mnist",
                "learning_rate": 0.2,
                "epochs": 7,
                "subset": 123,
            }
        )
        assert cfg.budget() == Budget(0.2, 7, 123)

    def test_train_config_carries_resolved_budget(self):
        cfg = tiny_sweep_config("runs")
        tc = cfg.train_config()
        assert tc.learning_rate == cfg.budget().learning_rate
        assert tc.epochs == 1
        assert tc.seed == cfg.seed
        assert cfg.train_config(99).seed == 99


class TestBuildConfig:
    def test_flags_override_file(self):
        cfg = build_config(
            file_values={"kind": "synthetic-sweep", "dataset": "synthetic", "seed": "3"},
            flag_values={"seed": 7},
        )
        assert cfg.seed == 7

    def test_none_flags_do_not_mask_file_values(self):
        cfg = build_config(
            file_values={"kind": "synthetic-sweep", "dataset": "synthetic", "out": "elsewhere"},
            flag_values={"out": None},
        )
        assert cfg.out == "elsewhere"

    def test_data_dir_expands_to_both_layouts(self):
        cfg = build_config(
            flag_values={
                "kind": "ova-binary",
                "dataset": "mnist",
                "data_dir": "/data/root",
            }
        )
        assert cfg.mnist_dir == os.path.join("/data/root", "mnist")
        assert cfg.cifar_dir == os.path.join("/data/root", "cifar-10-batches-bin")

    def test_explicit_dir_beats_data_dir(self):
        cfg = build_config(
            flag_values={
                "kind": "ova-binary",
                "dataset": "mnist",
                "data_dir": "/data/root",
                "mnist_dir": "/special/mnist",
            }
        )
        assert cfg.mnist_dir == "/special/mnist"

    def test_list_coercions(self):
        cfg = build_config(
            flag_values={
                "kind": "synthetic-sweep",
                "dataset": "synthetic",
                "hidden": "1,10",
                "stds": "0.1,0.5",
                "sizes": "100,200",
            }
        )
        assert cfg.hidden == (1, 10)
        assert cfg.stds == (0.1, 0.5)
        assert cfg.sizes == (100, 200)

    def test_bad_int_named_in_error(self):
        with pytest.raises(ConfigError, match="trials must be an integer"):
            build_config(
                flag_values={
                    "kind": "synthetic-sweep",
                    "dataset": "synthetic",
                    "trials": "many",
                }
            )

    def test_bad_hidden_list(self):
        with pytest.raises(ConfigError, match="integer list"):
            build_config(
                flag_values={
                    "kind": "synthetic-sweep",
                    "dataset": "synthetic",
                    "hidden": "1,x",
                }
            )

    def test_kind_and_dataset_required(self):
        with pytest.raises(ConfigError, match="experiment kind"):
            build_config(flag_values={"dataset": "synthetic"})
        with pytest.raises(ConfigError, match="dataset"):
            build_config(flag_values={"kind": "synthetic-sweep"})

    def test_from_resolved_round_trip(self):
        cfg = tiny_sweep_config("runs", seed=5)
        rebuilt = ExperimentConfig.from_resolved(cfg.resolved())
        assert rebuilt.resolved() == cfg.resolved()

    def test_from_resolved_ignores_derived_keys(self):
        d = tiny_sweep_config("runs").resolved()
        d["comparison_subset"] = 125
        d["comparison_epochs"] = 70
        assert ExperimentConfig.from_resolved(d).kind == "synthetic-sweep"


class TestValidation:
    @pytest.mark.parametrize(
        "overrides,fragment",
        [
            ({"kind": "frobnicate"}, "unknown experiment"),
            ({"dataset": "imagenet"}, "unknown dataset"),
            ({"kind": "synthetic-sweep", "dataset": "mnist"}, "synthetic dataset"),
            ({"kind": "layer-size-sweep", "dataset": "synthetic"}, "image dataset"),
            ({"kind": "ova-binary", "dataset": "mnist", "hidden": (1, 2)}, "one hidden size"),
            ({"hidden": ()}, "hidden sizes"),
            ({"hidden": (0,)}, "hidden sizes"),
            ({"trials": 1}, "trials"),
            ({"subset": -1}, "subset"),
            ({"jobs": 0}, "jobs"),
            ({"aggregation": "vote"}, "unknown aggregation"),
            ({"learning_rate": 0.0}, "lr"),
            ({"learning_rate": 1.5}, "lr"),
            ({"epochs": 0}, "epochs"),
            ({"batch_size": 0}, "batch"),
            ({"kind": "ova-ensemble", "dataset": "synthetic"}, "image dataset"),
        ],
    )
    def test_rejects(self, overrides, fragment):
        base = {"kind": "synthetic-sweep", "dataset": "synthetic", "hidden": (1,)}
        base.update(overrides)
        with pytest.raises(ConfigError, match=fragment):
            ExperimentConfig(**base).validate()


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_text(text)
        return str(path)

    def test_sections_map_to_fields(self, tmp_path):
        path = self.write(
            tmp_path,
            "[experiment]\n"
            "kind = synthetic-sweep\n"
            "dataset = synthetic\n"
            "hidden = 1,2\n"
            "trials = 2\n"
            "stds = 0.5\n"
            "sizes = 240\n"
            "[training]\n"
            "epochs = 1\n"
            "lr = 0.05\n"
            "batch = 16\n"
            "[output]\n"
            "out = somewhere\n",
        )
        cfg = build_config(file_values=load_config_file(path))
        assert cfg.kind == "synthetic-sweep"
        assert cfg.hidden == (1, 2)
        assert cfg.stds == (0.5,)
        assert cfg.sizes == (240,)
        assert cfg.epochs == 1
        assert cfg.learning_rate == 0.05
        assert cfg.batch_size == 16
        assert cfg.out == "somewhere"

    def test_data_dir_key(self, tmp_path):
        path = self.write(
            tmp_path,
            "[experiment]\nkind = ova-binary\ndataset = mnist\n"
            "[data]\ndata_dir = /data/root\n",
        )
        cfg = build_config(file_values=load_config_file(path))
        assert cfg.mnist_dir == os.path.join("/data/root", "mnist")

    def test_unknown_key_is_an_error(self, tmp_path):
        path = self.write(tmp_path, "[experiment]\nkind = ova-binary\nfoo = 1\n")
        with pytest.raises(ConfigError, match=r"\[experiment\] foo"):
            load_config_file(path)

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config_file(str(tmp_path / "absent.ini"))

    def test_shipped_examples_parse_and_validate(self):
        import glob

        root = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
        paths = sorted(glob.glob(os.path.join(root, "*.ini")))
        assert len(paths) >= 6
        for path in paths:
            cfg = build_config(file_values=load_config_file(path))
            assert cfg.kind, path


class TestRunContext:
    def test_data_error_removes_only_what_the_run_created(self, tmp_path):
        cfg = ExperimentConfig(
            kind="ova-binary",
            dataset="mnist",
            hidden=(1,),
            out=str(tmp_path),
            mnist_dir=str(tmp_path / "empty"),
        ).validate()
        fresh = tmp_path / "new" / "run"
        with pytest.raises(DataError):
            run_experiment(cfg, str(fresh))
        assert sorted(os.listdir(tmp_path)) == []
        existing = tmp_path / "resumed"
        existing.mkdir()
        (existing / "config.json").write_text("{}\n")
        with pytest.raises(DataError):
            run_experiment(cfg, str(existing))
        assert (existing / "config.json").read_text() == "{}\n"

    def test_config_snapshot_written_once(self, tmp_path):
        cfg = tiny_sweep_config(tmp_path)
        ctx = RunContext(cfg, str(tmp_path / "run"))
        with open(ctx.path("config.json")) as f:
            assert json.load(f) == cfg.resolved()

    def test_register_records_sha256(self, tmp_path):
        cfg = tiny_sweep_config(tmp_path)
        ctx = RunContext(cfg, str(tmp_path / "run"))
        with open(ctx.path("x.csv"), "w") as f:
            f.write("payload\n")
        ctx.register("x.csv")
        expect = hashlib.sha256(b"payload\n").hexdigest()
        assert ctx.outputs["x.csv"] == expect

    def test_completed_cells_round_trip(self, tmp_path):
        cfg = tiny_sweep_config(tmp_path)
        run = str(tmp_path / "run")
        ctx = RunContext(cfg, run)
        with open(ctx.path("x.csv"), "w") as f:
            f.write("payload\n")
        ctx.register("x.csv")
        ctx.mark_cell("cell-a", ["x.csv"], {"value": 3})
        fresh = RunContext(cfg, run)
        done = fresh.completed_cells()
        assert done["cell-a"]["row"] == {"value": 3}

    def test_tampered_output_drops_the_cell(self, tmp_path):
        cfg = tiny_sweep_config(tmp_path)
        run = str(tmp_path / "run")
        ctx = RunContext(cfg, run)
        with open(ctx.path("x.csv"), "w") as f:
            f.write("payload\n")
        ctx.register("x.csv")
        ctx.mark_cell("cell-a", ["x.csv"])
        with open(ctx.path("x.csv"), "w") as f:
            f.write("tampered\n")
        assert RunContext(cfg, run).completed_cells() == {}

    def test_missing_output_drops_the_cell(self, tmp_path):
        cfg = tiny_sweep_config(tmp_path)
        run = str(tmp_path / "run")
        ctx = RunContext(cfg, run)
        with open(ctx.path("x.csv"), "w") as f:
            f.write("payload\n")
        ctx.register("x.csv")
        ctx.mark_cell("cell-a", ["x.csv"])
        os.remove(ctx.path("x.csv"))
        assert RunContext(cfg, run).completed_cells() == {}

    def test_manifest_contents(self, tmp_path):
        cfg = tiny_sweep_config(tmp_path)
        ctx = RunContext(cfg, str(tmp_path / "run"))
        with ctx.stage("work"):
            pass
        manifest = ctx.finish()
        with open(ctx.path("manifest.json")) as f:
            assert json.load(f) == manifest
        assert manifest["experiment"] == "synthetic-sweep"
        assert manifest["config"] == cfg.resolved()
        assert manifest["stages"][0]["name"] == "work"
        assert manifest["divergences"] == []

    def test_diverged_property(self, tmp_path):
        ok = RunResult(str(tmp_path), {"divergences": []})
        bad = RunResult(str(tmp_path), {"divergences": [{"width": 4}]})
        assert not ok.diverged
        assert bad.diverged


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    return run_experiment(tiny_sweep_config(out))


class TestSyntheticSweepRun:
    def test_layout(self, sweep_run):
        names = set(os.listdir(sweep_run.run_dir))
        assert {"config.json", "progress.jsonl", "manifest.json", "grid.csv"} <= names
        for cell in ("std0.5_n240_h1", "std0.5_n240_h2"):
            assert "%s_trials.csv" % cell in names
            assert "%s_summary.csv" % cell in names

    def test_grid_rows(self, sweep_run):
        rows = read_csv_rows(os.path.join(sweep_run.run_dir, "grid.csv"))
        assert len(rows) == 6
        assert {r["hidden"] for r in rows} == {"1", "2"}
        assert {r["metric"] for r in rows} == {"accuracy", "sensitivity", "specificity"}
        for r in rows:
            assert 0.0 <= float(r["mean"]) <= 1.0
            assert r["n"] == "2"

    def test_manifest_hashes_match_files(self, sweep_run):
        for name, digest in sweep_run.manifest["outputs"].items():
            path = os.path.join(sweep_run.run_dir, name)
            assert hashlib.sha256(file_bytes(path)).hexdigest() == digest

    def test_details_expose_rows(self, sweep_run):
        assert len(sweep_run.details["rows"]) == 2
        assert not sweep_run.diverged


class TestResume:
    def test_resume_skips_verified_cells(self, sweep_run, tmp_path):
        src = sweep_run.run_dir
        run = tmp_path / "interrupted"
        run.mkdir()
        with open(os.path.join(src, "progress.jsonl")) as f:
            first_line = f.readline()
        cell = json.loads(first_line)["cell"]
        keep = ["config.json", "%s_trials.csv" % cell, "%s_summary.csv" % cell]
        for name in keep:
            (run / name).write_bytes(file_bytes(os.path.join(src, name)))
        (run / "progress.jsonl").write_text(first_line)

        before = os.stat(run / ("%s_trials.csv" % cell)).st_mtime_ns
        result = resume_run(str(run))
        assert os.stat(run / ("%s_trials.csv" % cell)).st_mtime_ns == before
        for name in os.listdir(src):
            if name.endswith(".csv"):
                assert file_bytes(run / name) == file_bytes(
                    os.path.join(src, name)
                ), name
        assert result.manifest["config"] == sweep_run.manifest["config"]

    def test_resume_without_config_is_an_error(self, tmp_path):
        with pytest.raises(ConfigError, match="config.json"):
            resume_run(str(tmp_path))


class TestReplay:
    def test_replay_reproduces_outputs_bit_exactly(self, sweep_run, tmp_path):
        manifest_path = os.path.join(sweep_run.run_dir, "manifest.json")
        result = replay_manifest(manifest_path, out=str(tmp_path / "replayed"))
        assert result.run_dir != sweep_run.run_dir
        assert result.manifest["outputs"] == sweep_run.manifest["outputs"]
        for name in sweep_run.manifest["outputs"]:
            assert file_bytes(os.path.join(result.run_dir, name)) == file_bytes(
                os.path.join(sweep_run.run_dir, name)
            ), name


def idx_images_bytes(images):
    images = np.asarray(images, np.uint8)
    head = struct.pack(">IIII", 0x00000803, len(images), 28, 28)
    return head + images.tobytes()


def idx_labels_bytes(labels):
    labels = np.asarray(labels, np.uint8)
    return struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes()


@pytest.fixture(scope="module")
def tiny_mnist_dir(tmp_path_factory):
    """A 120-train/40-test random image set in the standard file layout."""
    root = tmp_path_factory.mktemp("mnist")
    rng = np.random.default_rng(7)
    train = rng.integers(0, 256, size=(120, 28, 28), dtype=np.uint8)
    test = rng.integers(0, 256, size=(40, 28, 28), dtype=np.uint8)
    blobs = {
        MNIST_FILES[0]: idx_images_bytes(train),
        MNIST_FILES[1]: idx_labels_bytes([i % 10 for i in range(120)]),
        MNIST_FILES[2]: idx_images_bytes(test),
        MNIST_FILES[3]: idx_labels_bytes([i % 10 for i in range(40)]),
    }
    for name, blob in blobs.items():
        (root / name).write_bytes(blob)
    return str(root)


# comparison.csv of the ova-ensemble run on tiny_mnist_dir, frozen from the
# version that loaded the dataset a second time for the comparison stage
COMPARISON_CSV = (
    "# tinynn csv v1\nkey,value\nensemble_correct,0.0\n"
    "single_width,16\nsingle_accuracy,0.1\n"
)


def tiny_image_config(kind, out, mnist_dir, hidden=(1, 2), jobs=1, batch=32):
    # OVA views on subset 40 hold only 8 rows, so those runs need batch <= 8
    return ExperimentConfig(
        kind=kind,
        dataset="mnist",
        hidden=hidden,
        trials=2,
        seed=0,
        out=str(out),
        epochs=1,
        subset=40,
        jobs=jobs,
        batch_size=batch,
        mnist_dir=mnist_dir,
    ).validate()


class TestLayerSizeSweepRun:
    def test_outputs_and_seeds(self, tiny_mnist_dir, tmp_path):
        cfg = tiny_image_config("layer-size-sweep", tmp_path, tiny_mnist_dir)
        result = run_experiment(cfg)
        rows = read_csv_rows(os.path.join(result.run_dir, "accuracy_vs_width.csv"))
        assert [r["width"] for r in rows] == ["1", "2"]
        for w in (1, 2):
            assert os.path.exists(os.path.join(result.run_dir, "width_%d.ckpt" % w))
            assert os.path.exists(os.path.join(result.run_dir, "loss_w%d.csv" % w))
            assert result.manifest["seeds"]["width-%d" % w] == derive_seed(0, w)

    def test_parallel_run_is_bit_identical(self, tiny_mnist_dir, tmp_path):
        serial = run_experiment(
            tiny_image_config("layer-size-sweep", tmp_path / "serial", tiny_mnist_dir)
        )
        parallel = run_experiment(
            tiny_image_config(
                "layer-size-sweep", tmp_path / "parallel", tiny_mnist_dir, jobs=2
            )
        )
        for name in ("accuracy_vs_width.csv", "width_1.ckpt", "width_2.ckpt"):
            assert file_bytes(os.path.join(serial.run_dir, name)) == file_bytes(
                os.path.join(parallel.run_dir, name)
            ), name

    def test_in_place_resume_recomputes_only_missing_widths(
        self, tiny_mnist_dir, tmp_path
    ):
        cfg = tiny_image_config("layer-size-sweep", tmp_path, tiny_mnist_dir)
        result = run_experiment(cfg)
        run = result.run_dir
        grid_before = file_bytes(os.path.join(run, "accuracy_vs_width.csv"))
        os.remove(os.path.join(run, "width_2.ckpt"))
        w1_before = os.stat(os.path.join(run, "width_1.ckpt")).st_mtime_ns

        resumed = resume_run(run)
        assert os.stat(os.path.join(run, "width_1.ckpt")).st_mtime_ns == w1_before
        assert os.path.exists(os.path.join(run, "width_2.ckpt"))
        assert file_bytes(os.path.join(run, "accuracy_vs_width.csv")) == grid_before
        assert resumed.manifest["outputs"] == result.manifest["outputs"]


class TestOvaRuns:
    def test_binary_layout(self, tiny_mnist_dir, tmp_path):
        cfg = tiny_image_config("ova-binary", tmp_path, tiny_mnist_dir, hidden=(1,), batch=8)
        result = run_experiment(cfg)
        assert len(result.details["reports"]) == 10
        rows = read_csv_rows(os.path.join(result.run_dir, "per_class.csv"))
        assert [r["class"] for r in rows] == [str(i) for i in range(10)]
        for i in range(10):
            assert os.path.exists(
                os.path.join(result.run_dir, "ensemble", "member_%d.ckpt" % i)
            )
            assert os.path.exists(os.path.join(result.run_dir, "loss_class_%d.csv" % i))
            assert result.manifest["seeds"]["member-%d" % i] == i
        assert os.path.exists(os.path.join(result.run_dir, "ensemble", "ensemble.json"))

    def test_ensemble_judgement_and_comparison(self, tiny_mnist_dir, tmp_path, monkeypatch):
        loads = []

        def counting_load(config):
            loads.append(config)
            return load_dataset(config)

        monkeypatch.setattr(experiments, "load_dataset", counting_load)
        cfg = tiny_image_config("ova-ensemble", tmp_path, tiny_mnist_dir, hidden=(1,), batch=8)
        result = run_experiment(cfg)
        assert len(loads) == 1  # the comparison stage reuses the loaded dataset
        with open(os.path.join(result.run_dir, "comparison.csv")) as f:
            assert f.read() == COMPARISON_CSV
        verdicts = read_csv_rows(os.path.join(result.run_dir, "verdicts.csv"))
        assert len(verdicts) == 40
        assert {r["verdict"] for r in verdicts} <= {
            "correct",
            "redundant",
            "no_positive",
            "wrong_single",
        }
        comparison = {
            r["key"]: r["value"]
            for r in read_csv_rows(os.path.join(result.run_dir, "comparison.csv"))
        }
        assert comparison["single_width"] == "16"
        assert result.details["comparison_width"] == 16
        assert result.manifest["seeds"]["comparison"] == derive_seed(0, _SEED_COMPARISON)
        outcome = result.details["outcome"]
        total = (
            outcome.fraction_correct
            + outcome.fraction_redundant
            + outcome.fraction_misclassified
        )
        assert total == pytest.approx(1.0)


class TestCli:
    def write_ini(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[experiment]\n"
            "kind = synthetic-sweep\n"
            "dataset = synthetic\n"
            "hidden = 1\n"
            "trials = 2\n"
            "seed = 1\n"
            "stds = 0.5\n"
            "sizes = 240\n"
            "[training]\n"
            "epochs = 1\n"
        )
        return str(path)

    def find_run_dir(self, out):
        kinds = os.listdir(out)
        assert len(kinds) == 1
        stamps = os.listdir(os.path.join(out, kinds[0]))
        assert len(stamps) == 1
        return os.path.join(out, kinds[0], stamps[0])

    def test_missing_kind_is_config_error(self, capsys):
        assert main(["--dataset", "synthetic"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_hidden_is_config_error(self, capsys):
        rc = main(
            ["--experiment", "synthetic-sweep", "--dataset", "synthetic", "--hidden", "1,x"]
        )
        assert rc == 1

    def test_unknown_experiment_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["--experiment", "frobnicate", "--dataset", "synthetic"])
        assert exc.value.code == 2

    def test_missing_data_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            [
                "--experiment",
                "ova-binary",
                "--dataset",
                "mnist",
                "--hidden",
                "1",
                "--mnist-dir",
                str(tmp_path / "empty"),
                "--out",
                str(out),
            ]
        )
        assert rc == 2
        assert "data error" in capsys.readouterr().err
        # the failed run leaves no run directory, nor the parents it made
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind,setting",
        [
            ("synthetic-sweep", "stds = 0.5,-1"),
            ("synthetic-sweep", "sizes = 240,0"),
            ("ova-binary", "synth_std = 0"),
            ("ova-binary", "synth_n = 7"),
        ],
    )
    def test_bad_synthetic_setting_is_config_error(self, kind, setting, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text(
            "[experiment]\nkind = %s\ndataset = synthetic\nhidden = 1\n%s\n"
            % (kind, setting)
        )
        out = tmp_path / "out"
        assert main(["--config", str(ini), "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_ova_ensemble_on_synthetic_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["--experiment", "ova-ensemble", "--dataset", "synthetic", "--out", str(out)])
        assert rc == 1
        assert "image dataset" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_run_with_flag_override(self, tmp_path, capsys):
        ini = self.write_ini(tmp_path)
        out = str(tmp_path / "cli-out")
        assert main(["--config", ini, "--out", out, "--seed", "2"]) == 0
        stdout = capsys.readouterr().out
        assert "run directory:" in stdout
        run = self.find_run_dir(out)
        with open(os.path.join(run, "manifest.json")) as f:
            manifest = json.load(f)
        assert manifest["config"]["seed"] == 2
        assert manifest["config"]["out"] == out

    def test_replay_flag_reproduces_grid(self, tmp_path):
        ini = self.write_ini(tmp_path)
        out_a = str(tmp_path / "a")
        assert main(["--config", ini, "--out", out_a]) == 0
        run_a = self.find_run_dir(out_a)
        out_b = str(tmp_path / "b")
        assert main(["--replay", os.path.join(run_a, "manifest.json"), "--out", out_b]) == 0
        run_b = self.find_run_dir(out_b)
        assert file_bytes(os.path.join(run_a, "grid.csv")) == file_bytes(
            os.path.join(run_b, "grid.csv")
        )

    def test_replay_malformed_manifest_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text("not json at all")
        assert main(["--replay", str(bad)]) == 2
        assert "data error" in capsys.readouterr().err

    def test_resume_without_config_is_config_error(self, tmp_path, capsys):
        missing = tmp_path / "nothing-here"
        missing.mkdir()
        assert main(["--resume", str(missing)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_divergent_run_exits_three(self, tmp_path, monkeypatch, capsys):
        from tinynn import cli

        fake = RunResult(
            str(tmp_path), {"divergences": [{"width": 4, "error": "loss diverged"}]}
        )
        monkeypatch.setattr(cli, "run_experiment", lambda config, run_dir=None: fake)
        rc = cli.main(["--experiment", "synthetic-sweep", "--dataset", "synthetic"])
        assert rc == 3
        assert "divergence" in capsys.readouterr().err
