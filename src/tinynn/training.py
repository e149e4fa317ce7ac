"""Mini-batch SGD training, metrics, repeated-trial averaging, and the
forked map that trains independent networks in parallel.

Determinism contract: a run is a pure function of (network seed, config
seed, dataset); identical seeds give bit-identical trained parameters.
Batch shuffling, like every other random choice in the package, draws from
the package's own generator, never a library RNG.
"""

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError, DivergenceError
from .layers import DenseSpec, backward, forward
from .rng import Rng, derive_seed


@dataclass
class TrainConfig:
    """Hyperparameters for one training run.

    The learning rate and epoch count have no defaults: every caller passes
    the budget it trains at (the experiment runners take theirs from
    experiments.BUDGETS).
    """

    learning_rate: float
    epochs: int
    batch_size: int = 32
    seed: int = 0
    shuffle: bool = True
    orient_dead_units: bool = True

    def __post_init__(self):
        if not (0.0 < self.learning_rate <= 1.0):
            raise ConfigError(
                "learning_rate must be in (0, 1], got %r" % (self.learning_rate,)
            )
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1, got %r" % (self.batch_size,))
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1, got %r" % (self.epochs,))


@dataclass
class MetricsReport:
    """Accuracy plus binary sensitivity/specificity and raw confusion counts.

    Binary tasks store confusion as {"tp","tn","fp","fn"}; multi-class tasks
    store a KxK count matrix (rows true, columns predicted) and report
    macro-averaged sensitivity/specificity over the per-class reductions.
    """

    accuracy: float
    sensitivity: float
    specificity: float
    confusion: object
    loss_curve: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# losses


def _binary_ce_from_logits(z, labels):
    """Fused sigmoid cross-entropy from logits.

    Written in a sign-mirrored branch form: negating every logit and
    flipping every label negates the gradient bit-for-bit, which is what
    makes label-swapped training runs exact mirrors.
    """
    zf = z[:, 0]
    yf = labels.astype(np.float64)
    b = zf.shape[0]
    loss = float(np.mean(np.logaddexp(0.0, zf) - yf * zf))
    pos = zf >= 0
    g = np.empty_like(zf)
    sp = 1.0 / (1.0 + np.exp(-zf[pos]))
    g[pos] = (sp - yf[pos]) / b
    sn = 1.0 / (1.0 + np.exp(zf[~pos]))
    g[~pos] = -((sn - (1.0 - yf[~pos])) / b)
    return loss, g[:, None]


def _softmax_ce_from_logits(z, labels):
    """Fused softmax cross-entropy from logits via log-sum-exp."""
    b, k = z.shape
    if np.any((labels < 0) | (labels >= k)):
        raise DataError("labels must lie in [0, %d)" % k)
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    se = e.sum(axis=1, keepdims=True)
    rows = np.arange(b)
    loss = float(np.mean(np.log(se[:, 0]) + m[:, 0] - z[rows, labels]))
    grad = e / se
    grad[rows, labels] -= 1.0
    grad /= b
    return loss, grad


# ---------------------------------------------------------------------------
# optimization


def sgd_step(net, learning_rate):
    """params <- params - lr * grads, then clear the gradients."""
    for p, g in zip(net.params, net.grads):
        for k in p:
            p[k] -= learning_rate * g[k]
            g[k][:] = 0.0
    return net


def _orient_dead_relu_units(net, probe):
    """Sign-flip hidden dense ReLU units that never fire on a probe batch.

    Label-free and deterministic: with sign-symmetric init, a unit whose
    active half-space faces away from the data is unreachable by gradient
    descent; flipping its incoming weights points it back. Runs once before
    the first step.
    """
    _, cache = forward(net, probe, train=True)
    last = len(net.spec.layers) - 1
    for i, layer in enumerate(net.spec.layers):
        if i == last or not isinstance(layer, DenseSpec) or layer.activation != "relu":
            continue
        z = cache[i]["z"]
        dead = ~(z > 0.0).any(axis=0)
        if dead.any():
            net.params[i]["w"][:, dead] *= -1.0
            net.params[i]["b"][dead] *= -1.0


def train(net, data, cfg):
    """Train on the dataset's train split; returns (net, test-split report).

    Aborts with DivergenceError, naming the epoch and batch, the moment the
    loss stops being finite.
    """
    train_idx = data.train_indices
    n = len(train_idx)
    if n == 0:
        raise DataError("training split is empty")
    if cfg.batch_size > n:
        raise ConfigError(
            "batch_size %d exceeds training-set size %d" % (cfg.batch_size, n)
        )
    features = data.feature_array
    binary = net.spec.output_units == 1
    fused = _binary_ce_from_logits if binary else _softmax_ce_from_logits
    rng = Rng(derive_seed(cfg.seed))

    if cfg.orient_dead_units:
        probe = features[train_idx[: min(512, n)]]
        _orient_dead_relu_units(net, probe)

    curve = []
    order = train_idx.copy()
    # divergence is detected by the explicit finiteness check below, so the
    # intermediate overflow warnings on the way there are just noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(cfg.epochs):
            if cfg.shuffle:
                rng.shuffle(order)
            total = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                x = features[idx]
                y = data.labels_at(idx)
                _, cache = forward(net, x, train=True)
                loss, dz = fused(cache[-1]["z"], y)
                if not math.isfinite(loss):
                    raise DivergenceError(
                        "loss diverged at epoch %d, batch %d"
                        % (epoch + 1, start // cfg.batch_size + 1)
                    )
                backward(net, dz, cache)
                sgd_step(net, cfg.learning_rate)
                total += loss * len(idx)
            curve.append(total / n)

    report = evaluate(net, data)
    report.loss_curve = curve
    return net, report


def _binary_report(scores, labels, threshold):
    preds = scores > threshold
    actual = labels == 1
    tp = int(np.count_nonzero(preds & actual))
    tn = int(np.count_nonzero(~preds & ~actual))
    fp = int(np.count_nonzero(preds & ~actual))
    fn = int(np.count_nonzero(~preds & actual))
    total = tp + tn + fp + fn
    return MetricsReport(
        accuracy=(tp + tn) / total if total else 0.0,
        sensitivity=tp / (tp + fn) if tp + fn else 0.0,
        specificity=tn / (tn + fp) if tn + fp else 0.0,
        confusion={"tp": tp, "tn": tn, "fp": fp, "fn": fn},
    )


def _multiclass_report(preds, labels, k):
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    total = int(confusion.sum())
    acc = float(np.trace(confusion)) / total if total else 0.0
    sens, spec = [], []
    for c in range(k):
        tp = confusion[c, c]
        fn = confusion[c].sum() - tp
        fp = confusion[:, c].sum() - tp
        tn = total - tp - fn - fp
        sens.append(tp / (tp + fn) if tp + fn else 0.0)
        spec.append(tn / (tn + fp) if tn + fp else 0.0)
    return MetricsReport(
        accuracy=acc,
        sensitivity=float(np.mean(sens)),
        specificity=float(np.mean(spec)),
        confusion=confusion,
    )


def predict_scores(net, features, idx):
    """Forward a set of rows in fixed-size chunks; returns the raw outputs."""
    chunk = 64 if net.spec.input_shape.rank == 3 else 4096
    outs = []
    for start in range(0, len(idx), chunk):
        batch = features[idx[start:start + chunk]]
        out, _ = forward(net, batch)
        outs.append(out.array)
    return np.concatenate(outs, axis=0)


def evaluate(net, data, split="test", threshold=0.5):
    """Metrics on the dataset's held-out (or named) split."""
    idx = data.test_indices if split == "test" else data.train_indices
    if len(idx) == 0:
        raise DataError("%s split is empty" % split)
    out = predict_scores(net, data.feature_array, idx)
    labels = data.labels_at(idx)
    if net.spec.output_units == 1:
        return _binary_report(out[:, 0], labels, threshold)
    return _multiclass_report(out.argmax(axis=1), labels, out.shape[1])


# ---------------------------------------------------------------------------
# repeated trials

_SUMMARY_METRICS = ("accuracy", "sensitivity", "specificity")


@dataclass
class TrialSummary:
    """Per-metric mean/std over independently seeded trials."""

    means: dict
    stds: dict
    n_trials: int
    divergences: int
    trials: list  # per-trial {"trial", "accuracy", "sensitivity", "specificity"}


def repeat_trials(build_network, generate_data, cfg, n_trials):
    """Average metrics over independently seeded (data, init, run) trials.

    build_network(seed) and generate_data(seed) are called with derived
    per-trial seeds: fresh data draw and fresh parameters every trial.
    Divergent trials are recorded, excluded from the averages, and never
    fatal. Accumulation is in fixed trial order, so summaries do not depend
    on how trials are scheduled.
    """
    if n_trials < 2:
        raise ConfigError("n_trials must be >= 2, got %r" % (n_trials,))
    rows = []
    divergences = 0
    for t in range(n_trials):
        ts = derive_seed(cfg.seed, t)
        data = generate_data(derive_seed(ts, 0))
        net = build_network(derive_seed(ts, 1))
        run_cfg = replace(cfg, seed=derive_seed(ts, 2))
        try:
            _, report = train(net, data, run_cfg)
        except DivergenceError:
            divergences += 1
            continue
        rows.append(
            {
                "trial": t,
                "accuracy": report.accuracy,
                "sensitivity": report.sensitivity,
                "specificity": report.specificity,
            }
        )
    sums = {m: 0.0 for m in _SUMMARY_METRICS}
    sumsqs = {m: 0.0 for m in _SUMMARY_METRICS}
    for row in rows:
        for m in _SUMMARY_METRICS:
            sums[m] += row[m]
            sumsqs[m] += row[m] * row[m]
    n = len(rows)
    means = {m: (sums[m] / n if n else 0.0) for m in _SUMMARY_METRICS}
    stds = {
        m: (math.sqrt(max(0.0, sumsqs[m] / n - means[m] ** 2)) if n else 0.0)
        for m in _SUMMARY_METRICS
    }
    return TrialSummary(
        means=means, stds=stds, n_trials=n_trials, divergences=divergences,
        trials=rows,
    )


# ---------------------------------------------------------------------------
# parallel training

# The task reaches the workers through this module global, so that fork-based
# workers inherit it, and the dataset it closes over, instead of receiving
# them pickled per task.
_FORK_TASK = None


def _run_fork_task(i):
    return _FORK_TASK(i)


def fork_map(task, n, jobs):
    """[task(i) for i in range(n)], spread over min(jobs, n) forked worker
    processes when jobs > 1. Results come back in index order."""
    global _FORK_TASK
    if jobs <= 1 or not hasattr(os, "fork"):
        return [task(i) for i in range(n)]
    from multiprocessing import get_context

    _FORK_TASK = task
    try:
        with get_context("fork").Pool(min(jobs, n)) as pool:
            return pool.map(_run_fork_task, range(n))
    finally:
        _FORK_TASK = None


# ---------------------------------------------------------------------------
# CSV export

_CSV_VERSION = "# tinynn csv v1"


def write_trials_csv(path, summary):
    """Long-format per-trial metrics: trial,metric,value."""
    with open(path, "w") as f:
        f.write(_CSV_VERSION + "\n")
        f.write("trial,metric,value\n")
        for row in summary.trials:
            for m in _SUMMARY_METRICS:
                f.write("%d,%s,%r\n" % (row["trial"], m, row[m]))


def write_summary_csv(path, summary):
    """Aggregate metrics: metric,mean,std,n."""
    with open(path, "w") as f:
        f.write(_CSV_VERSION + "\n")
        f.write("metric,mean,std,n\n")
        for m in _SUMMARY_METRICS:
            f.write(
                "%s,%r,%r,%d\n"
                % (m, summary.means[m], summary.stds[m],
                   summary.n_trials - summary.divergences)
            )


def write_loss_curve_csv(path, curve):
    """Per-epoch mean training loss: epoch,mean_loss (1-based epochs)."""
    with open(path, "w") as f:
        f.write(_CSV_VERSION + "\n")
        f.write("epoch,mean_loss\n")
        for i, v in enumerate(curve):
            f.write("%d,%r\n" % (i + 1, v))
