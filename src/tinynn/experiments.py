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
from contextlib import nullcontext
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
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
    POLICIES,
    _member_seed,
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
    fork_map,
    repeat_trials,
    train,
    write_loss_curve_csv,
    write_summary_csv,
    write_trials_csv,
)

KINDS = ("synthetic-sweep", "layer-size-sweep", "ova-binary", "ova-ensemble")
DATASETS = ("synthetic", "mnist", "cifar10")

DEFAULT_WIDTHS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
DEFAULT_SYNTH_HIDDEN = (1, 10, 100)
DEFAULT_STDS = (0.1, 0.5, 1.0)
DEFAULT_SIZES = (1000, 10000, 100000)


@dataclass(frozen=True)
class Budget:
    """A default training budget. Its field names are the config fields it
    fills when a run does not set them."""

    learning_rate: float
    epochs: int
    subset: int = 0  # stratified cap on training rows; 0 is the full split


BUDGETS = {
    # Synthetic trial cells use a short budget on purpose: the reference
    # accuracy table reflects undertrained networks (single neuron ~0.70,
    # wider ~0.78-0.81), which two epochs at lr 0.02 reproduce. Fully
    # converged MLPs would all sit at the Bayes rate instead.
    "synthetic": Budget(0.02, 2),
    # Layer-size sweeps train every width to convergence on a small
    # stratified subset. Each net ends up fitting those samples outright, so
    # the measured accuracy reflects generalization from the sample count
    # rather than how far optimization got within the budget, and widening
    # the hidden layer moves it only marginally. The budget is part of the
    # resolved config and so lands in every manifest. ova-ensemble trains
    # its comparison net at it too.
    "layer-sweep": Budget(0.05, 70, 125),
    "conv-members": Budget(0.015, 5),
    "mlp-members": Budget(0.05, 20),
}

_SEED_DATA = 101
_SEED_COMPARISON = 103

MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)
CIFAR_FILES = tuple("data_batch_%d.bin" % i for i in range(1, 6)) + ("test_batch.bin",)


# ---------------------------------------------------------------------------
# config fields: each carries its INI location and the parser that coerces
# INI text and CLI flag values


def _text(name, value):
    return value


def _number(kind, what):
    def parse(name, value):
        try:
            return kind(value)
        except ValueError:
            raise ConfigError("%s must be %s, got %r" % (name, what, value))

    return parse


def _number_list(kind, what):
    def parse(name, value):
        if isinstance(value, tuple):
            return value
        try:
            return tuple(kind(p) for p in str(value).split(",") if p.strip() != "")
        except ValueError:
            raise ConfigError(
                "expected a comma-separated %s list, got %r" % (what, value)
            )

    return parse


_int, _float = _number(int, "an integer"), _number(float, "a number")
_int_list, _float_list = _number_list(int, "integer"), _number_list(float, "float")


def _setting(section, key, parse, default=MISSING):
    return field(default=default, metadata={"ini": (section, key), "parse": parse})


@dataclass
class ExperimentConfig:
    """Fully resolved run parameters; the manifest stores exactly this.

    learning_rate, epochs and subset left at None take the run's default
    budget from BUDGETS.
    """

    kind: str = _setting("experiment", "kind", _text)
    dataset: str = _setting("experiment", "dataset", _text)
    hidden: tuple = _setting("experiment", "hidden", _int_list)
    trials: int = _setting("experiment", "trials", _int, 100)
    seed: int = _setting("experiment", "seed", _int, 0)
    out: str = _setting("output", "out", _text, "runs")
    learning_rate: float = _setting("training", "lr", _float, None)
    batch_size: int = _setting("training", "batch", _int, TrainConfig.batch_size)
    epochs: int = _setting("training", "epochs", _int, None)
    subset: int = _setting("experiment", "subset", _int, None)
    jobs: int = _setting("experiment", "jobs", _int, 1)
    aggregation: str = _setting("experiment", "aggregation", _text, "redundant-error")
    stds: tuple = _setting("experiment", "stds", _float_list, DEFAULT_STDS)
    sizes: tuple = _setting("experiment", "sizes", _int_list, DEFAULT_SIZES)
    synth_std: float = _setting("experiment", "synth_std", _float, 1.0)
    synth_n: int = _setting("experiment", "synth_n", _int, 10000)
    mnist_dir: str = _setting("data", "mnist_dir", _text, None)
    cifar_dir: str = _setting("data", "cifar_dir", _text, None)

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
        # ova-ensemble's comparison net is the conv stack
        needs_images = ("layer-size-sweep", "ova-ensemble")
        if self.kind in needs_images and self.dataset == "synthetic":
            raise ConfigError("%s needs an image dataset" % self.kind)
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
        if self.aggregation not in POLICIES:
            raise ConfigError(
                "unknown aggregation %r (expected one of %s)"
                % (self.aggregation, ", ".join(POLICIES))
            )
        if self.learning_rate is not None and not (0.0 < self.learning_rate <= 1.0):
            raise ConfigError("lr must be in (0, 1], got %r" % (self.learning_rate,))
        if self.epochs is not None and self.epochs < 1:
            raise ConfigError("epochs must be >= 1, got %r" % (self.epochs,))
        if self.batch_size < 1:
            raise ConfigError("batch must be >= 1, got %r" % (self.batch_size,))
        if not all(s > 0 for s in (*self.stds, self.synth_std)):
            raise ConfigError(
                "stds and synth_std must be positive, got %r and %r"
                % (self.stds, self.synth_std)
            )
        if any(n < 2 or n % 2 for n in (*self.sizes, self.synth_n)):
            raise ConfigError(
                "sizes and synth_n must be even and >= 2, got %r and %r"
                % (self.sizes, self.synth_n)
            )
        return self

    def budget(self):
        """The run's default budget, overridden by the values it sets."""
        if self.kind == "synthetic-sweep":
            default = BUDGETS["synthetic"]
        elif self.kind == "layer-size-sweep":
            default = BUDGETS["layer-sweep"]
        elif self.dataset == "synthetic":
            default = BUDGETS["mlp-members"]
        else:
            default = BUDGETS["conv-members"]
        explicit = {
            f.name: getattr(self, f.name)
            for f in fields(Budget)
            if getattr(self, f.name) is not None
        }
        return replace(default, **explicit)

    def resolved(self):
        """Concrete values for every knob, as stored in the manifest."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d.update(asdict(self.budget()))
        d = {k: list(v) if isinstance(v, tuple) else v for k, v in d.items()}
        if self.kind == "ova-ensemble":
            comparison = BUDGETS["layer-sweep"]
            d["comparison_subset"] = comparison.subset
            d["comparison_epochs"] = comparison.epochs
            d["comparison_lr"] = comparison.learning_rate
        return d

    def train_config(self, seed=None):
        budget = self.budget()
        return TrainConfig(
            learning_rate=budget.learning_rate,
            epochs=budget.epochs,
            batch_size=self.batch_size,
            seed=self.seed if seed is None else seed,
        )

    @classmethod
    def from_resolved(cls, d):
        """Rebuild a config from a manifest snapshot (the replay path)."""
        kwargs = {f.name: d[f.name] for f in fields(cls) if f.name in d}
        kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in kwargs.items()}
        return cls(**kwargs).validate()


def default_hidden(kind):
    if kind == "synthetic-sweep":
        return DEFAULT_SYNTH_HIDDEN
    if kind == "layer-size-sweep":
        return DEFAULT_WIDTHS
    return (1,)


# ---------------------------------------------------------------------------
# config file parsing

# INI (section, key) -> config field; data_dir is no field of its own but
# expands into mnist_dir and cifar_dir in build_config
_INI_KEYS = {f.metadata["ini"]: f.name for f in fields(ExperimentConfig)}
_INI_KEYS[("data", "data_dir")] = "data_dir"


def load_config_file(path):
    """Read the sectioned key-value config format into a flat dict."""
    import configparser

    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError("config file %r not found or unreadable" % (path,))
    values = {}
    for section in parser.sections():
        for key in parser[section]:
            target = _INI_KEYS.get((section, key))
            if target is None:
                raise ConfigError(
                    "unknown config key [%s] %s in %r" % (section, key, path)
                )
            values[target] = parser[section][key]
    return values


def build_config(file_values=None, flag_values=None):
    """Merge config-file values and CLI flags (flags win) into a config.

    Both are keyed by config field, plus data_dir; strings are coerced by
    each field's parser.
    """
    merged = {}
    for source in (file_values or {}, flag_values or {}):
        merged.update((k, v) for k, v in source.items() if v is not None)
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
    parsers = {f.name: f.metadata["parse"] for f in fields(ExperimentConfig)}
    kwargs = {k: parsers[k](k, v) for k, v in merged.items()}
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


def _apply_subset(data, n):
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


def _train_width(data, config, width):
    """One sweep width; a divergence comes back as its message."""
    seed = derive_seed(config.seed, width)
    net = build_conv_net(
        tuple(data.feature_array.shape[1:]), width, data.class_count, seed
    )
    try:
        net, report = train(net, data, config.train_config(seed))
    except DivergenceError as e:
        return width, None, None, str(e)
    return width, net, report, None


def run_layer_size_sweep(config, run_dir):
    """One multi-class conv net per hidden width at the sweep budget."""
    ctx = RunContext(config, run_dir)
    done = ctx.completed_cells()
    with ctx.stage("load-data"):
        data = _apply_subset(load_dataset(config), config.budget().subset)
    rows = []
    todo = [w for w in config.hidden if ("w%d" % w) not in done]
    rows.extend(done[c]["row"] for c in done)

    def train_width(i):
        # a forked worker's stage record is dropped with the worker
        with ctx.stage("width-%d" % todo[i]):
            return _train_width(data, config, todo[i])

    results = []
    if todo:
        with ctx.stage("train-widths") if config.jobs > 1 else nullcontext():
            results = fork_map(train_width, len(todo), config.jobs)
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
        data = _apply_subset(full, config.budget().subset)
    h = config.hidden[0]
    cfg = config.train_config()
    for i in range(data.class_count):
        ctx.seeds["member-%d" % i] = _member_seed(config.seed, i)
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
    budget = BUDGETS["layer-sweep"]
    with ctx.stage("train-comparison"):
        comp_data = _apply_subset(full, budget.subset)
        comp_net = build_conv_net(
            tuple(comp_data.feature_array.shape[1:]), width, k, comp_seed
        )
        comp_cfg = TrainConfig(
            learning_rate=budget.learning_rate,
            epochs=budget.epochs,
            batch_size=config.batch_size,
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
