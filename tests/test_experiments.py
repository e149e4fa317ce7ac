"""Config handling, run directories, resume/replay, and the CLI."""

import contextlib
import errno
import hashlib
import io
import json
import multiprocessing
import os
import struct
import subprocess
import sys
import tempfile
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tinynn
from tinynn import ensemble, experiments, layers, training
from tinynn.cli import main
from tinynn.errors import ConfigError, DataError, DivergenceError
from tinynn.experiments import (
    BUDGETS,
    DATASETS,
    DEFAULT_SYNTH_HIDDEN,
    DEFAULT_WIDTHS,
    KINDS,
    MNIST_FILES,
    POLICIES,
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


def tiny_sweep_config(out, seed=1, hidden=(1, 2), jobs=1):
    return ExperimentConfig(
        kind="synthetic-sweep",
        dataset="synthetic",
        hidden=hidden,
        trials=2,
        seed=seed,
        out=str(out),
        epochs=1,
        jobs=jobs,
        stds=(0.5,),
        sizes=(240,),
    ).validate()


def tiny_sweep_ini(directory):
    """A one-cell synthetic sweep's config file; returns its path."""
    path = os.path.join(directory, "run.ini")
    with open(path, "w") as f:
        f.write(
            "[experiment]\nkind = synthetic-sweep\ndataset = synthetic\nhidden = 1\n"
            "trials = 2\nseed = 1\nstds = 0.5\nsizes = 240\n[training]\nepochs = 1\n"
        )
    return path


class Stop(BaseException):
    """The process stopping (a kill or a ^C) at a chosen write."""


def stop_at_write(monkeypatch, name, limit, skip=0):
    """Make the files the library opens for writing whose names start with
    name (a temporary file's too) take limit bytes, then Stop, from the
    (skip + 1)-th such file on."""
    opened = [0]

    def stopping_open(path, mode="r", *args, **kwargs):
        f = open(path, mode, *args, **kwargs)
        if not ("w" in mode or "a" in mode) or not os.path.basename(path).startswith(name):
            return f
        opened[0] += 1
        if opened[0] <= skip:
            return f
        write, room = f.write, [limit]

        def partial_write(text):
            write(text[:room[0]])
            if len(text) > room[0]:
                raise Stop
            room[0] -= len(text)
            return len(text)

        f.write = partial_write
        return f

    # runs write through these modules: config, progress records and the
    # manifest; CSVs; checkpoints; ensemble.json
    for module in (experiments, training, layers, ensemble):
        monkeypatch.setattr(module, "open", stopping_open, raising=False)


def member_trains(monkeypatch, stop_at=None):
    """The classes of the members that start training, in order; with
    stop_at, the member of that class Stops as it starts."""
    started = []
    real_train = ensemble.train

    def recording_train(net, view, cfg):
        started.append(view.target_class)
        if view.target_class == stop_at:
            raise Stop
        return real_train(net, view, cfg)

    monkeypatch.setattr(ensemble, "train", recording_train)
    return started


def width_trains(monkeypatch, config):
    """The widths of a layer sweep's nets that start training, in order."""
    started = []
    widths = {derive_seed(config.seed, w): w for w in config.hidden}
    real_train = experiments.train

    def recording_train(net, data, cfg):
        started.append(widths[cfg.seed])
        return real_train(net, data, cfg)

    monkeypatch.setattr(experiments, "train", recording_train)
    return started


def interrupt_after_first_cell(src, run):
    """Copy a finished sweep's config and first cell into run, as a run cut
    after that cell; returns the cell's name."""
    run.mkdir()
    with open(os.path.join(src, "progress.jsonl")) as f:
        first_line = f.readline()
    cell = json.loads(first_line)["cell"]
    for name in ("config.json", "%s_trials.csv" % cell, "%s_summary.csv" % cell):
        (run / name).write_bytes(file_bytes(os.path.join(src, name)))
    (run / "progress.jsonl").write_text(first_line)
    return cell


def read_csv_rows(path):
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def file_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def stage_names(result):
    return [s["name"] for s in result.manifest["stages"]]


# manifest["outputs"] of the runs below, pinned so a change that must keep
# output bytes (CSV text, checkpoint layout) shows any drift file by file
SWEEP_OUTPUTS = {
    "grid.csv":
        "0d86a85750e0eb2d6078c1ad4806cef0683edfb924acb66f9aaa7a9c62f9c49e",
    "std0.5_n240_h1_summary.csv":
        "15dfbc1d6eb363714fd705a4a8751998392b744120d7299835bce23f4b41c104",
    "std0.5_n240_h1_trials.csv":
        "c39706eb22c0cbbd1763135fe08e98d42bfa6a86fda6c240e81790bdb7b35c4c",
    "std0.5_n240_h2_summary.csv":
        "b46b69643db691a2b7fdcaa281494b5ae10df0122cd1438f13af414c2dbe3804",
    "std0.5_n240_h2_trials.csv":
        "7f376101340d8272448ae4be4a5fcd7bb6c3cac6a2c1f2feb84445e5dd634d01",
}
# a cell SWEEP_OUTPUTS does not cover: its 200 training rows end in a
# partial batch of 8, three widths, three trials, dead-unit orientation on
PARTIAL_BATCH_OUTPUTS = {
    "grid.csv":
        "630203607aca24f46cce78edc8330a6ea2b4d6e807e1d601cd6423ced908d741",
    "std0.5_n250_h100_summary.csv":
        "8c333e542fae0991de1e7f4a68065245abc3728856ec06e869c19a50ce430fbd",
    "std0.5_n250_h100_trials.csv":
        "fba4560c98c8927dd3faa4d3acf423c8a149cc68177005bc6891d8c647d2fe1d",
    "std0.5_n250_h10_summary.csv":
        "cb5ffefb1a20369f5354d6ab488a17c75c9f488be963ee05caba98baa6016b52",
    "std0.5_n250_h10_trials.csv":
        "bd90b00d1a5e87e8f8750e45aa0ed8d6be1e805421b37de7b4bcda1e10a6a374",
    "std0.5_n250_h1_summary.csv":
        "3b2a76f2cb60d85d3a4105cf9c36b40a5c076a006ec7878ee7024f82bc5b4937",
    "std0.5_n250_h1_trials.csv":
        "a5793fbb7e5cb1d5744caae6e81772fc63b0fb4c3a7d5608c2a86b237694e8af",
}
LAYER_SWEEP_OUTPUTS = {
    "accuracy_vs_width.csv":
        "a6378acefce0fe003ca346efe6981a782f27db1476db0ca438cc07506eeeefa7",
    "loss_w1.csv":
        "446c999f008afac0dfff4bdb06b5ab726ace8c67c60d5fcca59f5f69430e1b69",
    "loss_w2.csv":
        "88c4997c458968690dac48d6a651c08581d54074ccd0415361fa77e117787d83",
    "width_1.ckpt":
        "ed17cecdf679a9e8ac9a9188b09aa0c029fc5d2f102774a187f58bcdd2a515c2",
    "width_2.ckpt":
        "b581c475876d2346622f0ef55770b5699d5b4a57d7feff3395f846277db2862b",
}
OVA_MEMBER_OUTPUTS = {
    "ensemble/ensemble.json":
        "1aa32cd0435814289c273acbdcfbfefb949adfda43c4b3906e190df61022272b",
    "ensemble/member_0.ckpt":
        "ad28f6d78ac872398afb4d5eb745586712ee4c3372737eb8b103c2c184f49eba",
    "ensemble/member_1.ckpt":
        "f5de41de275a5b3807e2219bde222dd50632a23e4bfa2d1544cd43183bd46af0",
    "ensemble/member_2.ckpt":
        "e470e80702b5ee5d5f1e98195ee19bc6b4ff1709e60dec5d4f1c8e9160d3186f",
    "ensemble/member_3.ckpt":
        "2a6a8d7322d0d51f7ee9a85fce84924df27361e9c94de4544254d90e5bb38ea9",
    "ensemble/member_4.ckpt":
        "685873451190ad2055ca5f22e005d35abff98a173ae367db4eaf2fbfb86e05e2",
    "ensemble/member_5.ckpt":
        "037705f279bf62387b06de9329f98113f4f928eba613dee2f302eb587c258c54",
    "ensemble/member_6.ckpt":
        "694aaf35870e0c5719377e528141505d06cd03b7395baea3973ec697b127bf84",
    "ensemble/member_7.ckpt":
        "8586b9261684fb292b02ac5458c4494ca90bd55bcf85617e64faee654b63508a",
    "ensemble/member_8.ckpt":
        "59a6a68ead29fe937fcf0888b77f2d95a9f4d3351136aa7577fad5241638e8bd",
    "ensemble/member_9.ckpt":
        "aaf70da0515c364ee64aa8e46a32a4a6620b0b4f028546c139a397ded3688599",
    "per_class.csv":
        "95a3aa5dc5c8ca81977605c27ff7beef6759ac39277691592693159fc60ec729",
}
# every member's one-epoch loss curve comes out the same on this data
OVA_MEMBER_OUTPUTS.update(
    ("loss_class_%d.csv" % i,
     "7a6a97b3a6adac186a6070227afe610d5b09640214051597364f5ad318d4159b")
    for i in range(10)
)
OVA_ENSEMBLE_OUTPUTS = {
    **OVA_MEMBER_OUTPUTS,
    "comparison.csv":
        "1fe2f4576fa0a7da89c3f232e25d84d9246bc1c4c45459c69d0fab842cf27a02",
    "summary.csv":
        "f5d15e7fae6be4c83f339ee2a251d1d775f0220c5f9ed972fceb43bafa8d7e6a",
    "verdicts.csv":
        "faaf310bb1b1fcb8975fd0ee53697340d1ec6e9b451626f72d87246ad98b473d",
}


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

    @pytest.mark.parametrize(
        "stored,fragment",
        [
            ({"hidden": [1.5, 2.9], "trials": 2.7}, "integer list"),
            ({"trials": 2.7}, "trials must be an integer"),
            ({"trials": True}, "trials must be an integer"),
            ({"hidden": [2, False]}, "integer list"),
            ({"synth_std": True}, "synth_std must be a number"),
            ({"stds": [0.5, True]}, "float list"),
            ({"trials": float("inf")}, "trials must be an integer"),
        ],
        ids=["floats-in-int-fields", "float-int", "bool-int", "bool-in-int-list",
             "bool-float", "bool-in-float-list", "inf-int"],
    )
    def test_from_resolved_rejects_non_integral_and_bool(self, stored, fragment):
        # a stored JSON number is never truncated or read as a flag's truth
        d = {"kind": "synthetic-sweep", "dataset": "synthetic", **stored}
        with pytest.raises(ConfigError, match=fragment):
            ExperimentConfig.from_resolved(d)

    def test_from_resolved_takes_integral_floats(self):
        d = {"kind": "synthetic-sweep", "dataset": "synthetic",
             "hidden": [2.0, 3], "trials": 4.0}
        cfg = ExperimentConfig.from_resolved(d)
        assert (cfg.hidden, cfg.trials) == ((2, 3), 4)
        assert isinstance(cfg.trials, int)


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
            # repeated grid values would give two cells one name
            ({"hidden": (1, 10, 1)}, "hidden repeats"),
            ({"sizes": (240, 240)}, "sizes repeats"),
            ({"stds": (0.5, 0.5)}, "stds repeats"),
            ({"stds": (0.1234567, 0.1234568)}, "stds repeats"),
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
        assert stage_names(sweep_run) == ["std0.5_n240_h1", "std0.5_n240_h2"]
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
        assert sweep_run.manifest["outputs"] == SWEEP_OUTPUTS
        for name, digest in sweep_run.manifest["outputs"].items():
            path = os.path.join(sweep_run.run_dir, name)
            assert hashlib.sha256(file_bytes(path)).hexdigest() == digest

    def test_partial_batch_cell_outputs(self, tmp_path):
        cfg = ExperimentConfig(
            kind="synthetic-sweep",
            dataset="synthetic",
            hidden=(1, 10, 100),
            trials=3,
            seed=3,
            out=str(tmp_path),
            stds=(0.5,),
            sizes=(250,),
        ).validate()
        assert run_experiment(cfg).manifest["outputs"] == PARTIAL_BATCH_OUTPUTS

    def test_details_expose_rows(self, sweep_run):
        assert len(sweep_run.details["rows"]) == 2
        assert not sweep_run.diverged


class TestResume:
    def test_resume_skips_verified_cells(self, sweep_run, tmp_path):
        src = sweep_run.run_dir
        run = tmp_path / "interrupted"
        cell = interrupt_after_first_cell(src, run)

        before = os.stat(run / ("%s_trials.csv" % cell)).st_mtime_ns
        result = resume_run(str(run))
        assert os.stat(run / ("%s_trials.csv" % cell)).st_mtime_ns == before
        for name in os.listdir(src):
            if name.endswith(".csv"):
                assert file_bytes(run / name) == file_bytes(
                    os.path.join(src, name)
                ), name
        assert result.manifest["config"] == sweep_run.manifest["config"]

    def test_resume_ignores_a_record_of_a_foreign_cell(self, sweep_run, tmp_path):
        # a verified record of a cell the run does not have adds no outputs:
        # the resumed manifest lists what a fresh run's does
        run = tmp_path / "interrupted"
        interrupt_after_first_cell(sweep_run.run_dir, run)
        digest = hashlib.sha256(file_bytes(run / "config.json")).hexdigest()
        foreign = {"cell": "w7", "outputs": {"config.json": digest}}
        with open(run / "progress.jsonl", "a") as f:
            f.write(json.dumps(foreign) + "\n")
        result = resume_run(str(run))
        assert result.manifest["outputs"] == sweep_run.manifest["outputs"]

    def test_resume_without_config_is_an_error(self, tmp_path):
        with pytest.raises(ConfigError, match="config.json"):
            resume_run(str(tmp_path))

    @pytest.mark.parametrize("kind,name,limit,skip,retrained", [
        pytest.param("synthetic-sweep", "config.json", 0, 0, None, id="config.json-0"),
        pytest.param("synthetic-sweep", "config.json", 64, 0, None, id="config.json-64"),
        pytest.param("synthetic-sweep", "progress.jsonl", 0, 0, None,
                     id="progress.jsonl-0"),
        # width 2's checkpoint half written
        pytest.param("layer-size-sweep", "width_2.ckpt", 100, 0, [2],
                     id="layer-size-sweep-width_2.ckpt-100"),
        # width 2's progress record torn
        pytest.param("layer-size-sweep", "progress.jsonl", 40, 1, [2],
                     id="layer-size-sweep-progress.jsonl-40-w2"),
        # member 3's checkpoint half written: its header and part of its body
        pytest.param("ova-binary", "member_3.ckpt", 100, 0, list(range(3, 10)),
                     id="ova-binary-member_3.ckpt-100"),
        # member 6's progress record torn
        pytest.param("ova-binary", "progress.jsonl", 40, 6, list(range(6, 10)),
                     id="ova-binary-progress.jsonl-40-member-6"),
        pytest.param("ova-binary", "ensemble.json", 30, 0, [],
                     id="ova-binary-ensemble.json-30"),
    ])
    def test_a_stop_at_a_write_resumes_or_exits_1(
        self, kind, name, limit, skip, retrained, tiny_mnist_dir, tmp_path,
        monkeypatch, capsys,
    ):
        # a stop partway through the config snapshot leaves no config.json,
        # so --resume is a configuration error, not a traceback; a stop after
        # it resumes to the clean run's outputs, and a layer sweep or a
        # one-vs-all run trains again only the widths or members it had not
        # recorded
        run = tmp_path / "run"
        if kind == "synthetic-sweep":
            config, pins = tiny_sweep_config(tmp_path), SWEEP_OUTPUTS
        elif kind == "layer-size-sweep":
            config = tiny_image_config(kind, tmp_path, tiny_mnist_dir)
            pins = LAYER_SWEEP_OUTPUTS
        else:
            config = tiny_image_config(kind, tmp_path, tiny_mnist_dir, hidden=(1,), batch=8)
            pins = OVA_MEMBER_OUTPUTS
        with monkeypatch.context() as m:
            stop_at_write(m, name, limit, skip)
            with pytest.raises(Stop):
                run_experiment(config, str(run))
        has_config = (run / "config.json").exists()
        if kind == "layer-size-sweep":
            started = width_trains(monkeypatch, config)
        else:
            started = member_trains(monkeypatch)
        code = main(["--resume", str(run)])
        if name == "config.json":
            assert not has_config and code == 1
            assert "no config.json" in capsys.readouterr().err
            return
        assert has_config and code == 0
        with open(run / "manifest.json") as f:
            assert json.load(f)["outputs"] == pins
        if retrained is not None:
            assert started == retrained

    def test_resume_reruns_a_torn_last_record(self, sweep_run, tmp_path):
        # a stop mid-append leaves the next cell's record unterminated: it
        # is dropped and that cell recomputed, and the file stays one
        # record per line
        src = sweep_run.run_dir
        run = tmp_path / "interrupted"
        interrupt_after_first_cell(src, run)
        with open(os.path.join(src, "progress.jsonl")) as f:
            records = f.read().splitlines()
        with open(run / "progress.jsonl", "a") as f:
            f.write(records[1][:len(records[1]) // 2])
        result = resume_run(str(run))
        assert result.manifest["outputs"] == sweep_run.manifest["outputs"]
        with open(run / "progress.jsonl") as f:
            assert [json.loads(line) for line in f] == [json.loads(r) for r in records]

    @pytest.mark.parametrize(
        "bad", ['{"cell": "std0.5', "5", '{"cell": "std0.5"}', '{"cell": 1, "outputs": {}}'],
        ids=["torn", "not-an-object", "no-outputs", "non-string-cell"],
    )
    def test_resume_bad_record_before_the_last_is_data_error(
        self, bad, sweep_run, tmp_path, capsys
    ):
        run = tmp_path / "interrupted"
        interrupt_after_first_cell(sweep_run.run_dir, run)
        text = (run / "progress.jsonl").read_text()
        (run / "progress.jsonl").write_text(bad + "\n" + text)
        assert main(["--resume", str(run)]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", [
        lambda r: r.pop("row"),
        lambda r: r.update(row=5),
        lambda r: r.update(row={}),
        lambda r: r["row"].update(n_ok=True),
        lambda r: r["row"]["metrics"].update(accuracy=[0.5]),
        # the right shape, but values that name another cell
        lambda r: r["row"].update(hidden=7, std=9.5),
        lambda r: r["row"].update(hidden=2),
        lambda r: r["row"].update(n_samples=480),
    ], ids=["no-row", "not-an-object", "no-keys", "bool-count", "short-metric",
            "foreign-cell", "next-cell-width", "other-size"])
    def test_resume_malformed_row_is_data_error(self, fault, sweep_run, tmp_path, capsys):
        # a skipped cell's row feeds the grid; its outputs still hash-match
        run = tmp_path / "interrupted"
        cell = interrupt_after_first_cell(sweep_run.run_dir, run)
        record = json.loads((run / "progress.jsonl").read_text())
        fault(record)
        (run / "progress.jsonl").write_text(json.dumps(record) + "\n")
        assert main(["--resume", str(run)]) == 2
        assert "malformed row in the record of cell %s" % cell in capsys.readouterr().err
        assert not (run / "grid.csv").exists()

    def test_resume_keeps_a_skipped_cells_divergence(self, tmp_path, monkeypatch, capsys):
        real = experiments.repeat_trials

        def one_diverged(*args):
            return replace(real(*args), divergences=1)

        monkeypatch.setattr(experiments, "repeat_trials", one_diverged)
        first = run_experiment(tiny_sweep_config(tmp_path, hidden=(1,)))
        monkeypatch.undo()
        assert first.manifest["divergences"] == [{"cell": "std0.5_n240_h1", "count": 1}]
        os.remove(os.path.join(first.run_dir, "manifest.json"))

        resumed = resume_run(first.run_dir)
        assert resumed.manifest["divergences"] == first.manifest["divergences"]
        assert resumed.diverged
        assert resumed.manifest["stages"] == []  # the cell was not rerun
        assert main(["--resume", first.run_dir]) == 3
        assert "divergence" in capsys.readouterr().err


class TestForkedCells:
    """Both sweeps run their cells through RunContext.run_cells, over
    config.jobs forked workers, with the serial run's outputs."""

    @pytest.fixture
    def fork_calls(self, monkeypatch):
        """(cells, jobs) of each fork_map call the runs make."""
        calls = []
        real = experiments.fork_map

        def recording(task, n, jobs):
            calls.append((n, jobs))
            return real(task, n, jobs)

        monkeypatch.setattr(experiments, "fork_map", recording)
        return calls

    def test_forked_sweep_outputs_and_stages(self, tmp_path, fork_calls):
        result = run_experiment(tiny_sweep_config(tmp_path, jobs=2))
        assert fork_calls == [(2, 2)]
        assert multiprocessing.active_children() == []
        assert result.manifest["outputs"] == SWEEP_OUTPUTS
        assert stage_names(result) == ["std0.5_n240_h1", "std0.5_n240_h2"]
        assert all(s["seconds"] > 0 for s in result.manifest["stages"])

    def test_forked_resume_skips_verified_cells(self, tmp_path, fork_calls):
        fresh = run_experiment(
            tiny_sweep_config(tmp_path / "fresh", hidden=(1, 2, 3), jobs=2)
        )
        run = tmp_path / "interrupted"
        cell = interrupt_after_first_cell(fresh.run_dir, run)
        mtimes = {n: os.stat(run / n).st_mtime_ns for n in os.listdir(run)}

        resumed = resume_run(str(run))
        assert fork_calls == [(3, 2), (2, 2)]
        assert multiprocessing.active_children() == []
        for name, mtime in mtimes.items():
            if name != "progress.jsonl":
                assert os.stat(run / name).st_mtime_ns == mtime, name
        assert stage_names(resumed) == ["std0.5_n240_h2", "std0.5_n240_h3"]
        assert cell == "std0.5_n240_h1"
        assert resumed.manifest["outputs"] == fresh.manifest["outputs"]
        for name in fresh.manifest["outputs"]:
            assert file_bytes(run / name) == file_bytes(
                os.path.join(fresh.run_dir, name)
            ), name


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


def random_mnist_dir(root, n_train, n_test):
    """Random images, labels cycling through the digits, in the standard
    file layout under root; returns root as a string."""
    rng = np.random.default_rng(7)
    train = rng.integers(0, 256, size=(n_train, 28, 28), dtype=np.uint8)
    test = rng.integers(0, 256, size=(n_test, 28, 28), dtype=np.uint8)
    blobs = {
        MNIST_FILES[0]: idx_images_bytes(train),
        MNIST_FILES[1]: idx_labels_bytes([i % 10 for i in range(n_train)]),
        MNIST_FILES[2]: idx_images_bytes(test),
        MNIST_FILES[3]: idx_labels_bytes([i % 10 for i in range(n_test)]),
    }
    for name, blob in blobs.items():
        (root / name).write_bytes(blob)
    return str(root)


@pytest.fixture(scope="module")
def tiny_mnist_dir(tmp_path_factory):
    """A 120-train/40-test random image set in the standard file layout."""
    return random_mnist_dir(tmp_path_factory.mktemp("mnist"), 120, 40)


# comparison.csv of the ova-ensemble run on tiny_mnist_dir with the
# comparison net's budget set to 40 rows, 2 epochs and lr 0.04
COMPARISON_CSV = (
    "# tinynn csv v1\nkey,value\nensemble_correct,0.0\n"
    "single_width,16\nsingle_accuracy,0.025\n"
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
        assert result.manifest["outputs"] == LAYER_SWEEP_OUTPUTS
        assert stage_names(result) == ["load-data", "w1", "w2"]

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
        assert multiprocessing.active_children() == []
        assert stage_names(parallel) == ["load-data", "w1", "w2"]

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
        assert resumed.manifest["seeds"] == result.manifest["seeds"]
        assert stage_names(resumed) == ["load-data", "w2"]

    def test_resume_keeps_a_skipped_widths_divergence_and_seed(
        self, tiny_mnist_dir, tmp_path, monkeypatch
    ):
        real_train = experiments.train

        def diverge_at_width_2(net, data, cfg):
            if cfg.seed == derive_seed(0, 2):
                raise DivergenceError("loss diverged at epoch 1, batch 1")
            return real_train(net, data, cfg)

        monkeypatch.setattr(experiments, "train", diverge_at_width_2)
        cfg = tiny_image_config("layer-size-sweep", tmp_path, tiny_mnist_dir)
        first = run_experiment(cfg)
        monkeypatch.undo()
        assert first.manifest["divergences"] == [
            {"width": 2, "error": "loss diverged at epoch 1, batch 1"}
        ]
        run = first.run_dir
        os.remove(os.path.join(run, "width_1.ckpt"))
        os.remove(os.path.join(run, "manifest.json"))

        resumed = resume_run(run)
        assert stage_names(resumed) == ["load-data", "w1"]
        assert resumed.manifest["divergences"] == first.manifest["divergences"]
        assert resumed.manifest["seeds"] == first.manifest["seeds"]
        assert resumed.diverged

    @pytest.mark.parametrize("edit", [{"width": 7}, {"width": 2}, {"diverged": 1}],
                             ids=["foreign-width", "next-width", "diverged-flag"])
    def test_resume_rejects_a_row_that_names_another_width(
        self, edit, tiny_mnist_dir, tmp_path, capsys
    ):
        # w1's record still hash-verifies, but its row names another width,
        # or a divergence its record does not hold
        cfg = tiny_image_config("layer-size-sweep", tmp_path, tiny_mnist_dir)
        run = run_experiment(cfg).run_dir
        progress = os.path.join(run, "progress.jsonl")
        with open(progress) as f:
            records = [json.loads(line) for line in f]
        assert records[0]["cell"] == "w1"
        records[0]["row"].update(edit)
        with open(progress, "w") as f:
            f.writelines(json.dumps(r) + "\n" for r in records)
        os.remove(os.path.join(run, "accuracy_vs_width.csv"))
        assert main(["--resume", run]) == 2
        assert "malformed row in the record of cell w1" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(run, "accuracy_vs_width.csv"))


class TestOvaRuns:
    def test_binary_layout(self, tiny_mnist_dir, tmp_path):
        cfg = tiny_image_config("ova-binary", tmp_path, tiny_mnist_dir, hidden=(1,), batch=8)
        result = run_experiment(cfg)
        assert len(result.details["per_class"]) == 10
        assert stage_names(result) == ["load-data"] + ["member-%d" % i for i in range(10)]
        rows = read_csv_rows(os.path.join(result.run_dir, "per_class.csv"))
        assert [r["class"] for r in rows] == [str(i) for i in range(10)]
        for i in range(10):
            assert os.path.exists(
                os.path.join(result.run_dir, "ensemble", "member_%d.ckpt" % i)
            )
            assert os.path.exists(os.path.join(result.run_dir, "loss_class_%d.csv" % i))
            assert result.manifest["seeds"]["member-%d" % i] == i
        assert os.path.exists(os.path.join(result.run_dir, "ensemble", "ensemble.json"))
        assert result.manifest["outputs"] == OVA_MEMBER_OUTPUTS

    def test_ensemble_judgement_and_comparison(self, tiny_mnist_dir, tmp_path, monkeypatch):
        loads = []

        def counting_load(config):
            loads.append(config)
            return load_dataset(config)

        trained = []
        real_train = experiments.train

        def recording_train(net, data, cfg):
            trained.append((len(data.train_indices), cfg.epochs, cfg.learning_rate))
            return real_train(net, data, cfg)

        scored = []
        real_predict = training.predict_scores

        def counting_predict(net, features, idx):
            scored.append(len(idx))
            return real_predict(net, features, idx)

        monkeypatch.setattr(experiments, "load_dataset", counting_load)
        monkeypatch.setattr(experiments, "train", recording_train)
        # members score through training.evaluate, a loaded ensemble's
        # through ensemble.member_scores
        monkeypatch.setattr(training, "predict_scores", counting_predict)
        monkeypatch.setattr(ensemble, "predict_scores", counting_predict)
        # the comparison net trains at the layer-sweep budget, which no other
        # stage of an ova-ensemble run reads; a small one keeps the test short
        monkeypatch.setitem(experiments.BUDGETS, "layer-sweep", Budget(0.04, 2, 40))
        cfg = tiny_image_config("ova-ensemble", tmp_path, tiny_mnist_dir, hidden=(1,), batch=8)
        result = run_experiment(cfg)
        assert len(loads) == 1  # the comparison stage reuses the loaded dataset
        assert trained == [(40, 2, 0.04)]  # the comparison net, at its budget
        # each member's test split is scored once, then the comparison net's
        assert scored == [40] * 11
        recorded = result.manifest["config"]
        assert (
            recorded["comparison_subset"], recorded["comparison_epochs"],
            recorded["comparison_lr"],
        ) == (40, 2, 0.04)
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
        assert result.manifest["outputs"] == OVA_ENSEMBLE_OUTPUTS

    def test_member_divergence_is_recorded(self, tiny_mnist_dir, tmp_path, monkeypatch,
                                           capsys):
        # the other members still train and are recorded; the files that
        # need every member are not written, and the run exits 3
        real_train = ensemble.train

        def diverge_on_class_1(net, view, cfg):
            if view.target_class == 1:
                raise DivergenceError("loss diverged at epoch 1, batch 1")
            return real_train(net, view, cfg)

        monkeypatch.setattr(ensemble, "train", diverge_on_class_1)
        out = tmp_path / "runs"
        assert main(image_argv("ova-binary", tiny_mnist_dir, str(out), "1", "8")) == 3
        assert "divergence" in capsys.readouterr().err
        (run_dir,) = (out / "ova-binary").iterdir()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["divergences"] == [{
            "class": 1,
            "error": "member for class 1 diverged: loss diverged at epoch 1, batch 1",
        }]
        assert manifest["outputs"] == {
            name: digest for name, digest in OVA_MEMBER_OUTPUTS.items()
            if name not in ("ensemble/ensemble.json", "per_class.csv",
                            "ensemble/member_1.ckpt", "loss_class_1.csv")
        }
        assert len(manifest["outputs"]) == 18

    def test_only_the_member_in_training_is_alive(self, tiny_mnist_dir, tmp_path,
                                                  monkeypatch):
        # a run holds one trained member at a time: each is written and
        # dropped before the next starts
        members = []
        alive = []
        real_train = ensemble.train

        def tracking_train(net, view, cfg):
            alive.append([i for i, ref in enumerate(members) if ref() is not None])
            members.append(weakref.ref(net))
            return real_train(net, view, cfg)

        monkeypatch.setattr(ensemble, "train", tracking_train)
        cfg = tiny_image_config("ova-binary", tmp_path, tiny_mnist_dir, hidden=(1,), batch=8)
        result = run_experiment(cfg)
        assert alive == [[]] * 10
        assert result.manifest["outputs"] == OVA_MEMBER_OUTPUTS

    def test_resume_trains_only_the_unfinished_members(self, tiny_mnist_dir, tmp_path,
                                                       monkeypatch):
        run = tmp_path / "run"
        cfg = tiny_image_config("ova-binary", tmp_path, tiny_mnist_dir, hidden=(1,), batch=8)
        with monkeypatch.context() as m:
            member_trains(m, stop_at=4)
            with pytest.raises(Stop):
                run_experiment(cfg, str(run))
        kept = {n: os.stat(run / "ensemble" / n).st_mtime_ns
                for n in os.listdir(run / "ensemble")}
        assert sorted(kept) == ["member_%d.ckpt" % i for i in range(4)]
        started = member_trains(monkeypatch)
        resumed = resume_run(str(run))
        assert started == list(range(4, 10))
        assert stage_names(resumed) == ["load-data"] + ["member-%d" % i for i in range(4, 10)]
        for name, mtime in kept.items():
            assert os.stat(run / "ensemble" / name).st_mtime_ns == mtime, name
        assert resumed.manifest["outputs"] == OVA_MEMBER_OUTPUTS
        assert [row["accuracy"] for row in resumed.details["per_class"]] == [
            float(r["accuracy"]) for r in read_csv_rows(run / "per_class.csv")
        ]

    @pytest.mark.parametrize("record", [
        {"cell": "member-3", "outputs": {}, "row": {"width": 1, "accuracy": 0.5}},
        {"cell": "member-3", "outputs": {}},
    ], ids=["comparison-row", "no-row-no-divergence"])
    def test_resume_rejects_a_record_that_does_not_fit_its_cell(
        self, record, tiny_mnist_dir, tmp_path, capsys
    ):
        # a member's row holds its metrics; only a record of a divergence
        # may hold none
        run = tmp_path / "run"
        cfg = tiny_image_config("ova-binary", tmp_path, tiny_mnist_dir, hidden=(1,), batch=8)
        RunContext(cfg, str(run))
        (run / "progress.jsonl").write_text(json.dumps(record) + "\n")
        assert main(["--resume", str(run)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "record of cell member-3" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("stop", ["comparison", "verdicts.csv"])
    def test_ensemble_resume_trains_only_what_is_not_recorded(
        self, stop, tiny_mnist_dir, tmp_path, monkeypatch
    ):
        # stopped as the comparison net starts, the run resumes to train it
        # alone; stopped after its cell is recorded, it trains nothing. The
        # skipped members are scored from their checkpoints, one at a time.
        monkeypatch.setitem(experiments.BUDGETS, "layer-sweep", Budget(0.04, 2, 40))
        run = tmp_path / "run"
        cfg = tiny_image_config("ova-ensemble", tmp_path, tiny_mnist_dir, hidden=(1,), batch=8)
        comparisons, stopping = [], [stop == "comparison"]
        real_train = experiments.train

        def comparison_train(net, data, cfg):
            comparisons.append(cfg.seed)
            if stopping[0]:
                raise Stop
            return real_train(net, data, cfg)

        monkeypatch.setattr(experiments, "train", comparison_train)
        with monkeypatch.context() as m:
            if stop == "verdicts.csv":
                stop_at_write(m, stop, 0)
            with pytest.raises(Stop):
                run_experiment(cfg, str(run))
        assert comparisons == [derive_seed(0, _SEED_COMPARISON)]
        comparisons.clear()
        stopping[0] = False
        started = member_trains(monkeypatch)
        loaded = []
        real_load = experiments.load_network

        def counting_load(path):
            loaded.append(os.path.basename(path))
            return real_load(path)

        monkeypatch.setattr(experiments, "load_network", counting_load)
        resumed = resume_run(str(run))
        assert started == []
        assert len(comparisons) == (1 if stop == "comparison" else 0)
        assert loaded == ["member_%d.ckpt" % i for i in range(10)]
        assert resumed.manifest["outputs"] == OVA_ENSEMBLE_OUTPUTS
        with open(run / "comparison.csv") as f:
            assert f.read() == COMPARISON_CSV

    def test_a_failed_write_exits_4_and_resumes(self, tiny_mnist_dir, tmp_path,
                                                monkeypatch, capsys):
        # a full disk at member 5's checkpoint: exit 4, no traceback, and the
        # directory resumes from member 5 to the clean run's outputs
        real_save = experiments.save_network

        def full_disk_at_member_5(net, path):
            if os.path.basename(path) == "member_5.ckpt":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
            real_save(net, path)

        out = str(tmp_path / "out")
        with monkeypatch.context() as m:
            m.setattr(experiments, "save_network", full_disk_at_member_5)
            assert main(image_argv("ova-binary", tiny_mnist_dir, out, "1", "8")) == 4
        err = capsys.readouterr().err
        assert "write error: cannot write" in err and "member_5.ckpt" in err
        assert os.strerror(errno.ENOSPC) in err and "Traceback" not in err
        (stamp,) = os.listdir(os.path.join(out, "ova-binary"))
        run = os.path.join(out, "ova-binary", stamp)
        started = member_trains(monkeypatch)
        assert main(["--resume", run]) == 0
        assert started == list(range(5, 10))
        with open(os.path.join(run, "manifest.json")) as f:
            assert json.load(f)["outputs"] == OVA_MEMBER_OUTPUTS

    def test_comparison_divergence_is_recorded(self, tiny_mnist_dir, tmp_path, monkeypatch):
        def diverge(net, data, cfg):
            raise DivergenceError("loss diverged at epoch 1, batch 1")

        monkeypatch.setattr(experiments, "train", diverge)
        cfg = tiny_image_config("ova-ensemble", tmp_path, tiny_mnist_dir, hidden=(1,), batch=8)
        result = run_experiment(cfg)
        assert result.diverged
        assert result.manifest["divergences"] == [
            {"comparison": 16, "error": "loss diverged at epoch 1, batch 1"}
        ]
        assert "verdicts.csv" in result.manifest["outputs"]
        assert "comparison.csv" not in result.manifest["outputs"]
        with open(os.path.join(result.run_dir, "manifest.json")) as f:
            assert json.load(f)["divergences"] == result.manifest["divergences"]


class TestCli:
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--experiment", "frobnicate", "--dataset", "synthetic"],
            ["--experiment", "synthetic-sweep", "--dataset", "synthetic", "--trials", "abc"],
            ["--experiment", "synthetic-sweep", "--dataset", "synthetic", "--frobnicate"],
        ],
        ids=["unknown-experiment", "non-integer-trials", "unknown-flag"],
    )
    def test_unknown_experiment_rejected_by_parser(self, argv, capsys):
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "--experiment" in capsys.readouterr().out

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
            ("synthetic-sweep", "stds ="),
            ("synthetic-sweep", "sizes ="),
            ("ova-binary", "synth_std = 0"),
            ("ova-binary", "synth_n = 7"),
            ("synthetic-sweep", "stds = 0.5,0.50"),
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

    @pytest.mark.parametrize(
        "text",
        [b"kind = synthetic-sweep\n",
         b"[experiment]\nkind = synthetic-sweep\nkind = ova-binary\n",
         b"[experiment]\nkind = synthetic-sweep\n[experiment]\ndataset = synthetic\n",
         b"[experiment]\nkind = synthetic-sweep\n  continued\nnot a key\n",
         b"[experiment]\nkind = \xff\n"],
        ids=["no-section-header", "repeated-key", "repeated-section", "no-separator",
             "not-utf-8"],
    )
    def test_malformed_config_file_is_config_error(self, text, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_bytes(text)
        out = tmp_path / "out"
        assert main(["--config", str(ini), "--out", str(out)]) == 1
        assert "config error: malformed config file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_path_under_a_file_is_config_error(self, out, tmp_path, capsys):
        (tmp_path / "afile").write_text("kept")
        argv = ["--config", tiny_sweep_ini(tmp_path), "--out", str(tmp_path / out)]
        assert main(argv) == 1
        assert "cannot create run directory" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["afile", "run.ini"]
        assert (tmp_path / "afile").read_text() == "kept"

    def test_config_error_mid_run_removes_the_run_directory(self, tmp_path, capsys):
        # the batch is checked against a training split only when a cell
        # trains, after config.json is written
        out = tmp_path / "out"
        argv = ["--config", tiny_sweep_ini(tmp_path), "--out", str(out), "--batch", "100000"]
        assert main(argv) == 1
        assert "exceeds training-set size" in capsys.readouterr().err
        assert not out.exists()

    def test_ova_ensemble_on_synthetic_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["--experiment", "ova-ensemble", "--dataset", "synthetic", "--out", str(out)])
        assert rc == 1
        assert "image dataset" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_run_with_flag_override(self, tmp_path, capsys):
        ini = tiny_sweep_ini(tmp_path)
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
        ini = tiny_sweep_ini(tmp_path)
        out_a = str(tmp_path / "a")
        assert main(["--config", ini, "--out", out_a]) == 0
        run_a = self.find_run_dir(out_a)
        out_b = str(tmp_path / "b")
        assert main(["--replay", os.path.join(run_a, "manifest.json"), "--out", out_b]) == 0
        run_b = self.find_run_dir(out_b)
        assert file_bytes(os.path.join(run_a, "grid.csv")) == file_bytes(
            os.path.join(run_b, "grid.csv")
        )

    @pytest.mark.parametrize(
        "text", ["not json at all", '{"x": 1}', "[1, 2]"],
        ids=["not-json", "no-config", "not-an-object"],
    )
    def test_replay_malformed_manifest_is_data_error(self, text, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text(text)
        assert main(["--replay", str(bad)]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["replay", "resume", "mnist-dir"])
    def test_unreadable_input_is_data_error(self, case, tmp_path, monkeypatch, capsys):
        # a directory where an input file is read: the manifest, the stored
        # config.json, the dataset's files. Nothing is left behind
        monkeypatch.chdir(tmp_path)
        if case == "replay":
            argv, named = ["--replay", "adir"], "adir"
            os.makedirs("adir")
        elif case == "resume":
            argv, named = ["--resume", "run"], os.path.join("run", "config.json")
            os.makedirs(named)
        else:
            argv = ["--experiment", "ova-binary", "--dataset", "mnist", "--hidden", "1",
                    "--mnist-dir", "mnist", "--out", "out"]
            named = os.path.join("mnist", MNIST_FILES[0])
            for name in MNIST_FILES:
                os.makedirs(os.path.join("mnist", name))
        before = tree_state(tmp_path)
        assert main(argv) == 2
        assert "data error: cannot read %s" % named in capsys.readouterr().err
        assert tree_state(tmp_path) == before

    def test_replay_incomplete_config_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text('{"config": {"kind": "synthetic-sweep"}}')
        assert main(["--replay", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["out", "mnist_dir", "kind"])
    def test_replay_non_string_text_is_config_error(
        self, field, tmp_path, monkeypatch, capsys
    ):
        # rejected while the config is read, before any run directory exists
        monkeypatch.chdir(tmp_path)
        config = dict(tiny_sweep_config("runs").resolved(), **{field: 5})
        (tmp_path / "manifest.json").write_text(json.dumps({"config": config}))
        assert main(["--replay", "manifest.json"]) == 1
        assert "%s must be a string" % field in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["manifest.json"]

    def test_resume_and_replay_take_no_run_flags(self, sweep_run, tmp_path, capsys):
        # a flag that would change the run is refused, not ignored, before
        # any file is touched; --replay still takes --out
        run = tmp_path / "interrupted"
        interrupt_after_first_cell(sweep_run.run_dir, run)
        before = tree_state(tmp_path)
        argv = ["--resume", str(run), "--epochs", "9", "--jobs", "2",
                "--experiment", "ova-binary"]
        assert main(argv) == 1
        assert "--experiment, --epochs, --jobs" in capsys.readouterr().err
        manifest = os.path.join(sweep_run.run_dir, "manifest.json")
        argv = ["--replay", manifest, "--out", str(tmp_path / "replayed"), "--seed", "3"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "--seed" in err and "--out" not in err
        assert tree_state(tmp_path) == before

    def test_resume_malformed_config_is_config_error(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        config = tiny_sweep_config(tmp_path).resolved()
        (run / "config.json").write_text(json.dumps(dict(config, hidden="x")))
        assert main(["--resume", str(run)]) == 1
        assert "config error" in capsys.readouterr().err

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


def image_argv(kind, mnist_dir, out, hidden, batch):
    """The CLI form of tiny_image_config."""
    return ["--experiment", kind, "--dataset", "mnist", "--mnist-dir", mnist_dir,
            "--hidden", hidden, "--subset", "40", "--epochs", "1", "--batch", batch,
            "--seed", "0", "--out", out]


# runs each argv of a JSON list through the CLI, then prints a JSON line
_CLI_RUNS = (
    "import json, sys\n"
    "from tinynn.cli import main\n"
    "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
    "print(json.dumps({'codes': codes, 'numpy.ma': 'numpy.ma' in sys.modules}))\n"
)


def cli_in_fresh_interpreter(argvs, **env):
    """Run each argv through tinynn.cli.main in one new interpreter, with env
    added to its environment; returns the exit codes and whether numpy.ma
    was imported by the end."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tinynn.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_RUNS, json.dumps(argvs)],
        env=dict(os.environ, **env, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["codes"], result["numpy.ma"]


def manifest_outputs(out):
    """{experiment: manifest outputs} of the one run of each kind under out."""
    found = {}
    for kind in os.listdir(out):
        (stamp,) = os.listdir(os.path.join(out, kind))
        with open(os.path.join(out, kind, stamp, "manifest.json")) as f:
            found[kind] = json.load(f)["outputs"]
    return found


class TestFreshInterpreter:
    def test_no_run_imports_numpy_ma(self, tiny_mnist_dir, tmp_path):
        # the first np.unique of a process imports numpy.ma (~20 ms and
        # 1.6 MB); nothing a run calls may bring that import back
        out = str(tmp_path / "out")
        codes, numpy_ma = cli_in_fresh_interpreter([
            ["--config", tiny_sweep_ini(tmp_path), "--out", out],
            image_argv("ova-binary", tiny_mnist_dir, out, "1", "8"),
        ])
        assert codes == [0, 0]
        assert not numpy_ma

    def test_outputs_do_not_depend_on_blas_threads(self, tiny_mnist_dir, tmp_path):
        # OpenBLAS's thread count could change GEMM summation order, which
        # replay does not record; at both counts the pinned bytes come out
        for threads in ("1", "2"):
            out = str(tmp_path / threads)
            codes, _ = cli_in_fresh_interpreter([
                image_argv("layer-size-sweep", tiny_mnist_dir, out, "1,2", "32"),
                image_argv("ova-binary", tiny_mnist_dir, out, "1", "8"),
            ], OPENBLAS_NUM_THREADS=threads)
            assert codes == [0, 0]
            assert manifest_outputs(out) == {
                "layer-size-sweep": LAYER_SWEEP_OUTPUTS, "ova-binary": OVA_MEMBER_OUTPUTS,
            }, "OPENBLAS_NUM_THREADS=%s" % threads


# ---------------------------------------------------------------------------
# the exit-code contract, as a property over generated inputs

# A generated case must never train anything big, so every value that sizes
# a run is tiny or invalid, and no case leaves one at its default: the flags
# below are always passed, and config files, manifests and stored configs
# all set stds, sizes and synth_n. Each pool lists its valid values three
# times over, so that some of the cases (about a quarter) get as
# far as a run.
def _pool(valid, bad):
    return st.sampled_from(valid * 3 + bad)


_SIZE_FLAGS = {
    "--hidden": _pool(["1", "1,2"], ["0", "x"]),
    "--trials": _pool(["2"], ["1", "two"]),
    "--epochs": _pool(["1"], ["0"]),
    "--subset": _pool(["40"], ["-1"]),
    "--batch": _pool(["8"], ["0", "100000"]),
    "--mnist-dir": _pool(["MNIST"], ["missing", "dirs"]),
}
_OTHER_FLAGS = {
    "--experiment": _pool(list(KINDS), ["frobnicate"]),
    "--dataset": _pool(list(DATASETS), ["imagenet"]),
    "--seed": _pool(["0", "7"], ["-3", "x"]),
    "--lr": _pool(["0.04"], ["0", "nan"]),
    "--jobs": _pool(["1", "2"], ["0"]),
    "--aggregation": _pool(list(POLICIES), ["vote"]),
    "--out": _pool(["out", "resumed"], ["afile", "afile/sub"]),
    "--frobnicate": st.just("1"),
}
# lines added to the [experiment] section of a config file that already
# sets kind, dataset, stds, sizes and synth_n
_INI_LINES = _pool(
    ["hidden = 1", "trials = 2", "seed = 3", "jobs = 2", "[training]\nepochs = 1",
     "[training]\nlr = 0.04", "[data]\nmnist_dir = MNIST", "[output]\nout = out"],
    ["kind = ova-binary", "stds = 0.5,0.50", "sizes = 7", "hidden = 0", "bogus = 1",
     "[bogus]", "[experiment]", "[training]\nbatch = 100000", "[data]\ndata_dir = no",
     "hidden = 1%", "no separator", "  continued"],
)
# a stored config, but for its kind and dataset
_STORED_CONFIG = {
    "hidden": [1], "trials": 2, "seed": 1, "epochs": 1, "stds": [0.5], "sizes": [240],
    "synth_n": 200, "subset": 40, "batch_size": 8, "out": "out", "mnist_dir": "MNIST",
}
_STORED_CHANGES = _pool(
    [("hidden", [1, 2]), ("jobs", 2), ("trials", 2.0), ("out", "resumed")],
    [("kind", "frobnicate"), ("kind", 5), ("dataset", "cifar10"), ("dataset", None),
     ("hidden", "x"), ("hidden", True), ("trials", 2.5), ("seed", True),
     ("epochs", 0), ("stds", []), ("batch_size", 100000), ("out", 5),
     ("out", "afile"), ("learning_rate", 2.0), ("mnist_dir", "missing")],
)
_SWEEP_ROW = {
    "std": 0.5, "n_samples": 240, "hidden": 1, "n_ok": 2,
    "metrics": {m: [0.5, 0.0] for m in ("accuracy", "sensitivity", "specificity")},
}
_PROGRESS_LINES = _pool(
    [json.dumps({"cell": "std0.5_n240_h1", "outputs": {}, "row": _SWEEP_ROW}),
     json.dumps({"cell": "w1", "outputs": {},
                 "row": {"width": 1, "accuracy": 0.5, "diverged": 0}}),
     json.dumps({"cell": "std0.5_n240_h1", "outputs": {"gone.csv": "00"}}), ""],
    [json.dumps({"cell": "std0.5_n240_h1", "outputs": {}}),
     json.dumps({"cell": "std0.5_n240_h1", "outputs": {}, "row": 5}),
     json.dumps({"cell": "w1", "outputs": {}, "row": {}}),
     json.dumps({"cell": "member-3", "outputs": {}, "row": {"width": 1, "accuracy": 0.5}}),
     json.dumps({"cell": "member-3", "outputs": {}}),
     json.dumps({"cell": 5, "outputs": {}}), "5", "not json",
     '{"cell": "std0.5_n240_h1", "outp'],
)
_KIND = st.sampled_from(KINDS)
_DATASET = _pool(["synthetic", "mnist"], ["cifar10"])


@st.composite
def _config_text(draw, stored):
    """The JSON of stored(a stored config), or now and then not such JSON."""
    text = draw(_pool([None], ["not json", "[1, 2]", "5"]))
    if text is None:
        config = {**_STORED_CONFIG, "kind": draw(_KIND), "dataset": draw(_DATASET)}
        config.update(draw(st.lists(_STORED_CHANGES, max_size=2)))
        text = json.dumps(stored(config))
    return text


@st.composite
def cli_cases(draw):
    """(argv, files): a command line and the files it reads, by path
    relative to the working directory. MNIST stands for a directory of
    generated MNIST-shaped files."""
    files = {
        "run.ini": "\n".join(
            ["[experiment]", "kind = " + draw(_KIND), "dataset = " + draw(_DATASET),
             "stds = 0.5", "sizes = 240", "synth_n = 200"]
            + draw(st.lists(_INI_LINES, max_size=3))
        ) + "\n",
        "manifest.json": draw(_config_text(lambda c: {"config": c})),
        "resumed/config.json": draw(_config_text(lambda c: c)),
        "resumed/progress.jsonl": "\n".join(draw(st.lists(_PROGRESS_LINES, max_size=3)))
        + draw(st.sampled_from(["\n", ""])),
        # directories where a manifest, a stored config or the data is read
        "adir/kept": "kept",
        "stored/config.json/kept": "kept",
        **{"dirs/%s/kept" % name: "kept" for name in MNIST_FILES},
    }
    mode = draw(st.sampled_from(["run", "replay", "resume"]))
    if mode == "replay":
        argv = ["--replay", draw(_pool(["manifest.json"], ["adir"]))]
        argv += draw(st.sampled_from([[], ["--out", "replayed"], ["--out", "afile"]]))
    elif mode == "resume":
        argv = ["--resume", draw(_pool(["resumed"], ["missing", "stored"]))]
    else:
        argv = ["--config", "run.ini"]
        for flag, values in _SIZE_FLAGS.items():
            argv += [flag, draw(values)]
        for flag in draw(st.lists(st.sampled_from(sorted(_OTHER_FLAGS)), max_size=3)):
            argv += [flag, draw(_OTHER_FLAGS[flag])]
    return argv, files


def tree_state(root):
    """Every directory and file under root, with file contents."""
    state = {}
    for dirpath, _, filenames in os.walk(root):
        state[os.path.relpath(dirpath, root)] = None
        for name in filenames:
            with open(os.path.join(dirpath, name), "rb") as f:
                state[os.path.relpath(os.path.join(dirpath, name), root)] = f.read()
    return state


class TestExitCodeContract:
    @pytest.fixture(scope="class")
    def mnist_dir(self, tmp_path_factory):
        # one test image per class keeps the per-image evaluation of each
        # case's members short; subset 40 still finds 4 training rows a class
        return random_mnist_dir(tmp_path_factory.mktemp("mnist"), 60, 10)

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=cli_cases())
    def test_every_input_maps_to_a_documented_exit(self, case, mnist_dir):
        """The exit is 0-4, stderr holds no traceback, and an exit of 1 or 2
        leaves the files as it found them, but for a resumed directory."""
        argv, files = case
        argv = [mnist_dir if a == "MNIST" else a for a in argv]
        stderr = io.StringIO()
        # ova-ensemble's comparison net trains at the layer-sweep budget,
        # which no flag sets; a small one keeps each case short
        small = Budget(0.04, 1, 40)
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as root, \
                mock.patch.dict(experiments.BUDGETS, {"layer-sweep": small}):
            os.chdir(root)
            try:
                for name, text in files.items():
                    os.makedirs(os.path.dirname(name) or ".", exist_ok=True)
                    with open(name, "w") as f:
                        f.write(text.replace("MNIST", mnist_dir))
                with open("afile", "w") as f:
                    f.write("kept")
                before = tree_state(root)
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(stderr):
                    rc = main(argv)
                after = tree_state(root)
            finally:
                os.chdir(cwd)
        assert rc in (0, 1, 2, 3, 4), (argv, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        if rc in (1, 2):
            if "--resume" in argv:
                resumed = argv[argv.index("--resume") + 1]
                for state in (before, after):
                    for key in [k for k in state if k.split(os.sep)[0] == resumed]:
                        del state[key]
            assert after == before, (argv, stderr.getvalue())
