"""Config-driven experiment runners with reproducible, restartable outputs.

Every run writes into <out>/<experiment>/<timestamp>/: a resolved config
snapshot first, per-cell progress records as work completes, and a final
manifest listing every output file with its SHA-256. Replaying a manifest
reruns the recorded config and reproduces every CSV and checkpoint
bit-exactly; resuming a directory skips cells whose outputs already exist
and hash-match. A run that fails on its data or its configuration leaves
no directory behind.
All four kinds run their units as cells through RunContext.run_cells,
which forks them over the config's jobs and writes their outputs and
progress records in cell order: a sweep's cells, a layer sweep's widths,
and the one-vs-all members and ova-ensemble's comparison net.
"""

import hashlib
import json
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from datetime import datetime
from functools import partial

from . import __version__
from .datasets import (
    SyntheticSpec,
    generate_synthetic,
    load_cifar10,
    load_mnist,
    make_ova_views,
    stratified_subset,
)
from .ensemble import (
    POLICIES,
    _member_seed,
    evaluate as evaluate_ensemble,
    member_name,
    train_member,
    write_ensemble_json,
    write_outcome_summary_csv,
    write_verdicts_csv,
)
from .errors import (ConfigError, DataError, DataFormatError, DivergenceError, WriteError,
                     os_error_as)
from .layers import build_conv_net, build_mlp, load_network, save_network
from .rng import derive_seed
from .training import (
    TrainConfig,
    fork_map,
    predict_scores,
    repeat_trials,
    train,
    write_csv,
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
# config fields: each carries its INI location, the parser that coerces INI
# text, CLI flag text and stored values, and its CLI flag, choices and help


def _text(name, value):
    if not isinstance(value, str):
        raise ConfigError("%s must be a string, got %r" % (name, value))
    return value


def _coerce(kind, value):
    """value as kind. A bool, or a float that is not a whole number where an
    int is wanted, raises ValueError instead of being truncated."""
    if isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(value)
    return kind(value)


def _number(kind, what):
    def parse(name, value):
        try:
            return _coerce(kind, value)
        except (TypeError, ValueError):
            raise ConfigError("%s must be %s, got %r" % (name, what, value))

    return parse


def _number_list(kind, what):
    def parse(name, value):
        if not isinstance(value, (list, tuple)):
            value = [p for p in str(value).split(",") if p.strip() != ""]
        try:
            return tuple(_coerce(kind, p) for p in value)
        except (TypeError, ValueError):
            raise ConfigError(
                "expected a comma-separated %s list, got %r" % (what, value)
            )

    return parse


_int, _float = _number(int, "an integer"), _number(float, "a number")
_int_list, _float_list = _number_list(int, "integer"), _number_list(float, "float")


def _setting(section, key, parse, default=MISSING, flag=None, choices=None, help=None):
    """A config field; flag is its CLI option, None for an INI-only key."""
    return field(default=default, metadata=dict(
        ini=(section, key), parse=parse, flag=flag, choices=choices, help=help))


@dataclass
class ExperimentConfig:
    """Fully resolved run parameters; the manifest stores exactly this.

    learning_rate, epochs and subset left at None take the run's default
    budget from BUDGETS.
    """

    kind: str = _setting("experiment", "kind", _text, flag="--experiment",
                         choices=KINDS, help="what to run")
    dataset: str = _setting("experiment", "dataset", _text, flag="--dataset",
                            choices=DATASETS)
    hidden: tuple = _setting("experiment", "hidden", _int_list, flag="--hidden",
                             help="comma-separated hidden sizes, e.g. 1 or 16,128")
    trials: int = _setting("experiment", "trials", _int, 100, "--trials",
                           help="trial repetitions per sweep cell")
    seed: int = _setting("experiment", "seed", _int, 0, "--seed",
                         help="base seed for the whole run")
    out: str = _setting("output", "out", _text, "runs", "--out",
                        help="output root directory (default runs)")
    learning_rate: float = _setting("training", "lr", _float, None, "--lr")
    batch_size: int = _setting("training", "batch", _int, TrainConfig.batch_size, "--batch")
    epochs: int = _setting("training", "epochs", _int, None, "--epochs")
    subset: int = _setting(
        "experiment", "subset", _int, None, "--subset",
        help="per-run stratified cap on training rows; 0 means the full split")
    jobs: int = _setting("experiment", "jobs", _int, 1, "--jobs",
                         help="forked workers for sweep cells and OVA members")
    aggregation: str = _setting(
        "experiment", "aggregation", _text, "redundant-error", "--aggregation", POLICIES,
        "ensemble decision rule (non-default choices are diagnostics)")
    stds: tuple = _setting("experiment", "stds", _float_list, DEFAULT_STDS)
    sizes: tuple = _setting("experiment", "sizes", _int_list, DEFAULT_SIZES)
    synth_std: float = _setting("experiment", "synth_std", _float, 1.0)
    synth_n: int = _setting("experiment", "synth_n", _int, 10000)
    mnist_dir: str = _setting("data", "mnist_dir", _text, None, "--mnist-dir")
    cifar_dir: str = _setting("data", "cifar_dir", _text, None, "--cifar-dir")

    def validate(self):
        for f in fields(self):
            choices, value = f.metadata["choices"], getattr(self, f.name)
            if choices and value not in choices:
                raise ConfigError("unknown %s %r (expected one of %s)"
                                  % (f.metadata["flag"][2:], value, ", ".join(choices)))
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
        if self.learning_rate is not None and not (0.0 < self.learning_rate <= 1.0):
            raise ConfigError("lr must be in (0, 1], got %r" % (self.learning_rate,))
        if self.epochs is not None and self.epochs < 1:
            raise ConfigError("epochs must be >= 1, got %r" % (self.epochs,))
        if self.batch_size < 1:
            raise ConfigError("batch must be >= 1, got %r" % (self.batch_size,))
        if not self.stds or not self.sizes:
            raise ConfigError("stds and sizes must be non-empty lists")
        # each value names its cells and their files
        for name, values in (("hidden", self.hidden), ("sizes", self.sizes),
                             ("stds", ["%g" % s for s in self.stds])):
            if len(set(values)) != len(values):
                raise ConfigError("%s repeats a value, got %r" % (name, values))
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
        """Rebuild a config from a stored snapshot (the replay and resume
        paths); every value passes its field's parser, as a flag's would."""
        if not isinstance(d, dict):
            raise DataError("a stored config must be a JSON object, got %r" % (d,))
        return build_config(
            flag_values={f.name: d[f.name] for f in fields(cls) if f.name in d}
        )


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
    """Read the sectioned key-value config format into a flat dict. A file
    the INI parser rejects (no section header, a repeated key, bytes that
    are not UTF-8) is a configuration error."""
    import configparser

    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        items = [(s, k, v) for s in parser.sections() for k, v in parser[s].items()]
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError("malformed config file %r: %s" % (path, e))
    if not read:
        raise ConfigError("config file %r not found or unreadable" % (path,))
    values = {}
    for section, key, value in items:
        target = _INI_KEYS.get((section, key))
        if target is None:
            raise ConfigError(
                "unknown config key [%s] %s in %r" % (section, key, path)
            )
        values[target] = value
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


def _fits(value, template):
    """Whether a JSON value has the template's dicts and lists and, at each
    leaf, a value of the template leaf's type, or the template leaf itself
    where that is a value and not a type."""
    if isinstance(template, dict):
        return (isinstance(value, dict) and value.keys() == template.keys()
                and all(_fits(value[k], t) for k, t in template.items()))
    if isinstance(template, list):
        return (isinstance(value, list) and len(value) == len(template)
                and all(map(_fits, value, template)))
    if isinstance(template, type):
        return type(value) is template
    return type(value) is type(template) and value == template


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
        # --out may name a file, or a path under one
        with os_error_as(ConfigError, "create run directory", run_dir):
            os.makedirs(run_dir, exist_ok=True)
        self.run_dir = run_dir
        self.stages = []
        self.outputs = {}
        self.divergences = []
        self.seeds = {"base": config.seed}
        self._progress_path = os.path.join(run_dir, "progress.jsonl")
        if not os.path.exists(self.path("config.json")):
            self._write_json("config.json", config.resolved())

    def path(self, name):
        return os.path.join(self.run_dir, name)

    def _add_stage(self, name, seconds):
        self.stages.append({"name": name, "seconds": round(seconds, 6)})

    @contextmanager
    def stage(self, name):
        t0 = time.perf_counter()
        yield
        self._add_stage(name, time.perf_counter() - t0)

    def register(self, *names):
        for name in names:
            self.outputs[name] = _sha256_file(self.path(name))

    def write(self, name, writer, *args):
        """writer(path, *args) writes the named output, in a subdirectory
        of the run directory if the name has one; it is then hashed."""
        with os_error_as(WriteError, "write", self.path(name)) as path:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            writer(path, *args)
        self.register(name)

    def mark_cell(self, cell, names, row=None, divergence=None):
        """Append the cell's progress record; returns it."""
        entry = {"cell": cell, "outputs": {n: self.outputs[n] for n in names}}
        if row is not None:
            entry["row"] = row
        if divergence is not None:
            entry["divergence"] = divergence
        with os_error_as(WriteError, "write", self._progress_path) as path, open(path, "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
        return entry

    def completed_cells(self):
        """Verified progress records by cell; their outputs must hash-match.

        An unterminated last line is a record torn by a stop mid-append: it
        is dropped and cut from the file, so that its cell runs again and
        the next record starts on a line of its own.
        """
        done = {}
        if not os.path.exists(self._progress_path):
            return done
        with os_error_as(WriteError, "write", self._progress_path) as path, open(path, "rb+") as f:
            data = f.read()
            end = data.rfind(b"\n") + 1
            if end < len(data):
                f.truncate(end)
        for line in data[:end].splitlines():
            if not line.strip():
                continue
            entry = json.loads(line)
            if not (isinstance(entry, dict) and isinstance(entry.get("cell"), str)
                    and isinstance(entry.get("outputs"), dict)):
                raise DataError("%s: not a progress record: %r"
                                % (self._progress_path, line.decode()))
            ok = all(
                os.path.exists(self.path(n)) and _sha256_file(self.path(n)) == h
                for n, h in entry["outputs"].items()
            )
            if ok:
                done[entry["cell"]] = entry
        return done

    def run_cells(self, cells, work, write, row_template):
        """Run independent cells; returns their rows in cell order.

        cells maps names to work's argument. A cell whose progress record
        still hash-verifies is skipped; its outputs, row and divergence come
        from the record. A row that does not fit (_fits) row_template(name,
        whether the record holds a divergence), which holds the values that
        identify the cell, is a data error. A record of a cell not in cells
        adds nothing. The rest run as work(cell) through fork_map over
        config.jobs, each timed where it runs. Then, in the parent and in
        cell order, each gets its stage, write(name, result) writes its
        outputs and returns (output names, row, divergence or None), its
        progress record is appended and its result is dropped, so a serial
        run writes each cell before the next starts and holds one cell's
        result at a time.
        """
        done = self.completed_cells()
        for name in cells:
            if name in done:
                record = done[name]
                if not _fits(record.get("row"), row_template(name, "divergence" in record)):
                    raise DataError("%s: malformed row in the record of cell %s"
                                    % (self._progress_path, name))
                self.outputs.update(record["outputs"])
        todo = [name for name in cells if name not in done]

        def timed(i):
            t0 = time.perf_counter()
            result = work(cells[todo[i]])
            return todo[i], time.perf_counter() - t0, result

        for name, seconds, result in fork_map(timed, len(todo), self.config.jobs):
            self._add_stage(name, seconds)
            done[name] = self.mark_cell(name, *write(name, result))
            del result  # a serial run's next cell runs before the loop rebinds it
        self.divergences += [
            done[c]["divergence"] for c in cells if "divergence" in done[c]
        ]
        return [done[c].get("row") for c in cells]

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
        self._write_json("manifest.json", manifest)
        return manifest

    def _write_json(self, name, obj):
        """Write obj as the named JSON file through a temporary file renamed
        over it, so that a stop leaves the whole file or none."""
        with os_error_as(WriteError, "write", self.path(name)) as path:
            with open(path + ".tmp", "w") as f:
                json.dump(obj, f, indent=2, sort_keys=True)
                f.write("\n")
            os.replace(path + ".tmp", path)


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
        return load_mnist(*_require_files(config.mnist_dir, MNIST_FILES, "mnist"))
    paths = _require_files(config.cifar_dir, CIFAR_FILES, "cifar10")
    return load_cifar10(paths[:5], paths[5])


def _apply_subset(data, n):
    return stratified_subset(data, n) if n else data


# ---------------------------------------------------------------------------
# runners


def _run_synthetic_sweep(ctx, config):
    """The 3x3x3 grid: stds x sizes x hidden widths, trial-averaged."""
    cells = {
        "std%g_n%d_h%d" % (std, n, h): (std, n, h, derive_seed(config.seed, si, ni, h))
        for si, std in enumerate(config.stds)
        for ni, n in enumerate(config.sizes)
        for h in config.hidden
    }

    def work(cell):
        std, n, h, seed = cell
        return repeat_trials(
            lambda s: build_mlp(3, h, s),
            lambda s: generate_synthetic(SyntheticSpec(std=std, n_samples=n, seed=s)),
            config.train_config(seed),
            config.trials,
        )

    def write(name, summary):
        std, n, h, _ = cells[name]
        names = ["%s_trials.csv" % name, "%s_summary.csv" % name]
        ctx.write(names[0], write_trials_csv, summary)
        ctx.write(names[1], write_summary_csv, summary)
        row = {"std": std, "n_samples": n, "hidden": h,
               "metrics": {m: [v, summary.stds[m]] for m, v in summary.means.items()},
               "n_ok": summary.n_trials - summary.divergences}
        diverged = {"cell": name, "count": summary.divergences}
        return names, row, diverged if summary.divergences else None

    metrics = ("accuracy", "sensitivity", "specificity")

    def row_template(name, diverged):
        std, n, h, _ = cells[name]
        return {"std": std, "n_samples": n, "hidden": h, "n_ok": int,
                "metrics": {m: [float, float] for m in metrics}}

    grid_rows = ctx.run_cells(cells, work, write, row_template)
    ctx.write("grid.csv", write_csv, "std,n_samples,hidden,metric,mean,stddev,n", (
        ("%g" % row["std"], row["n_samples"], row["hidden"], m, *row["metrics"][m],
         row["n_ok"])
        for row in grid_rows
        for m in metrics
    ))
    return {"rows": grid_rows}


def _trained(train_cell):
    """The work of a layer-sweep or one-vs-all cell: the trained net and its
    report, or a divergence's message."""
    try:
        return train_cell()
    except DivergenceError as e:
        return str(e)


def _train_conv(data, width, cfg):
    """A multi-class conv net of width hidden units, seeded and trained at cfg."""
    net = build_conv_net(tuple(data.features.shape[1:]), width, data.class_count, cfg.seed)
    return train(net, data, cfg)


def _save_trained(ctx, names, result):
    """Write a trained net's loss curve and checkpoint as names; returns names."""
    net, report = result
    ctx.write(names[0], write_loss_curve_csv, report.loss_curve)
    ctx.write(names[1], lambda path: save_network(net, path))
    return names


def _run_layer_size_sweep(ctx, config):
    """One multi-class conv net per hidden width at the sweep budget; cell
    w<width> trains the net of that width."""
    with ctx.stage("load-data"):
        data = _apply_subset(load_dataset(config), config.budget().subset)
    cells = {}
    for w in config.hidden:
        ctx.seeds["width-%d" % w] = seed = derive_seed(config.seed, w)
        cells["w%d" % w] = partial(_train_conv, data, w, config.train_config(seed))

    def write(name, result):
        width = int(name[1:])
        if isinstance(result, str):
            row = {"width": width, "accuracy": None, "diverged": 1}
            return [], row, {"width": width, "error": result}
        names = _save_trained(ctx, ["loss_w%d.csv" % width, "width_%d.ckpt" % width], result)
        return names, {"width": width, "accuracy": result[1].accuracy, "diverged": 0}, None

    def row_template(name, diverged):
        return {"width": int(name[1:]), "accuracy": type(None) if diverged else float,
                "diverged": int(diverged)}

    rows = sorted(ctx.run_cells(cells, _trained, write, row_template), key=lambda r: r["width"])
    ctx.write("accuracy_vs_width.csv", write_csv, "width,accuracy,diverged", (
        (r["width"], "" if r["accuracy"] is None else r["accuracy"], r["diverged"])
        for r in rows
    ))
    return {"rows": rows}


_MEMBER_METRICS = ("accuracy", "sensitivity", "specificity")


def _run_ova(ctx, config):
    """Train the K one-vs-all members as cells member-0 ... member-K-1 and
    write their per-class binary metrics; ova-ensemble then judges the test
    split with them and compares against a single multi-class network of
    matching width, trained as one more cell, comparison.

    A member's write saves its checkpoint and loss curve and keeps its test
    scores; its row is its per-class metrics. The comparison net's row is
    its width and accuracy. A unit that diverged has no row, and what needs
    it is not written. Each network is dropped once written.
    """
    with ctx.stage("load-data"):
        full = load_dataset(config)
        data = _apply_subset(full, config.budget().subset)
    k, h, cfg = data.class_count, config.hidden[0], config.train_config()
    views = make_ova_views(data, k, config.seed)
    cells = {}
    for i in range(k):
        ctx.seeds["member-%d" % i] = seed = _member_seed(config.seed, i)
        cells["member-%d" % i] = partial(train_member, views[i], h, cfg, seed)
    if config.kind == "ova-ensemble":
        # equal-width single network: K members of width h have K*h hidden
        # units; compare against the next power of two, trained exactly like
        # a sweep cell of that width so the two desks' numbers are
        # commensurable
        width = 1 << (k * h - 1).bit_length()
        ctx.seeds["comparison"] = seed = derive_seed(config.seed, _SEED_COMPARISON)
        budget = BUDGETS["layer-sweep"]
        cells["comparison"] = partial(
            _train_conv, _apply_subset(full, budget.subset), width,
            replace(config.train_config(seed), learning_rate=budget.learning_rate,
                    epochs=budget.epochs),
        )
    scores = [None] * k

    def write(name, result):
        diverged = isinstance(result, str)
        if name == "comparison":
            if diverged:
                return [], None, {"comparison": width, "error": result}
            return [], {"width": width, "accuracy": result[1].accuracy}, None
        i = int(name[len("member-"):])
        if diverged:
            return [], None, {"class": i, "error": result}
        scores[i] = result[1].scores
        names = ["loss_class_%d.csv" % i, "ensemble/" + member_name(i)]
        row = {m: getattr(result[1], m) for m in _MEMBER_METRICS}
        return _save_trained(ctx, names, result), row, None

    def row_template(name, diverged):
        member_row = {m: float for m in _MEMBER_METRICS}
        row = {"width": width, "accuracy": float} if name == "comparison" else member_row
        return type(None) if diverged else row

    rows = ctx.run_cells(cells, _trained, write, row_template)
    per_class = rows[:k]
    if None in per_class:
        return {}
    ctx.write("per_class.csv", write_csv, "class,accuracy,sensitivity,specificity", (
        (i, *(row[m] for m in _MEMBER_METRICS)) for i, row in enumerate(per_class)
    ))
    seeds = [ctx.seeds["member-%d" % i] for i in range(k)]
    ctx.write("ensemble/ensemble.json", write_ensemble_json, seeds)
    details = {"per_class": per_class}
    if config.kind == "ova-binary":
        return details
    idx = data.test_indices
    with ctx.stage("evaluate"):
        # a fresh member's report holds its scores on the split the ensemble
        # is judged on; a skipped member's checkpoint is loaded and scored
        for i, member in enumerate(scores):
            if member is None:
                path = ctx.path("ensemble/" + member_name(i))
                scores[i] = predict_scores(load_network(path), data.features, idx)[:, 0]
        outcome = evaluate_ensemble(None, data, config.aggregation, scores)
    ctx.write("verdicts.csv", write_verdicts_csv, outcome, idx, data.labels_at(idx))
    ctx.write("summary.csv", write_outcome_summary_csv, outcome)
    comparison = rows[k]
    if comparison is not None:
        ctx.write("comparison.csv", write_csv, "key,value", [
            ("ensemble_correct", outcome.fraction_correct),
            ("single_width", comparison["width"]),
            ("single_accuracy", comparison["accuracy"]),
        ])
        details.update(outcome=outcome, comparison_width=comparison["width"],
                       comparison_accuracy=comparison["accuracy"])
    return details


# each runner runs its kind in a RunContext and returns the result's details
_RUNNERS = {
    "synthetic-sweep": _run_synthetic_sweep,
    "layer-size-sweep": _run_layer_size_sweep,
    "ova-binary": _run_ova,
    "ova-ensemble": _run_ova,
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
    """Run one experiment. If it fails on its data or its configuration
    (a batch larger than a training split, an output path under a file),
    the directories it created are removed; a directory that already
    existed (a resume) stays."""
    if run_dir is None:
        stamp = datetime.now().strftime("%Y%m%d-%H%M%S-%f")
        run_dir = os.path.join(config.out, config.kind, stamp)
    created = _missing_dirs(run_dir)
    try:
        ctx = RunContext(config, run_dir)
        details = _RUNNERS[config.kind](ctx, config)
        return RunResult(run_dir, ctx.finish(), details)
    except (ConfigError, DataError, DataFormatError):
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
    with os_error_as(DataError, "read", config_path), open(config_path) as f:
        config = ExperimentConfig.from_resolved(json.load(f))
    return run_experiment(config, run_dir)


def replay_manifest(manifest_path, out=None):
    """Re-run a manifest's recorded config; outputs come out bit-identical."""
    with os_error_as(DataError, "read", manifest_path), open(manifest_path) as f:
        manifest = json.load(f)
    if not isinstance(manifest, dict) or "config" not in manifest:
        raise DataError("%s is not a run manifest: no config object" % manifest_path)
    config = ExperimentConfig.from_resolved(manifest["config"])
    if out is not None:
        config = replace(config, out=out)
    return run_experiment(config)
