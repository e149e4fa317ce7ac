"""Mini-batch SGD training, metrics, repeated-trial averaging, and the
forked map that runs independent units of work (sweep cells, ensemble
members) in parallel worker processes, yielding their results in order.

Determinism contract: a run is a pure function of (network seed, config
seed, dataset); identical seeds give bit-identical trained parameters.
Batch shuffling, like every other random choice in the package, draws from
the package's own generator, never a library RNG.

repeat_trials trains the T trials of a cell as stacks: every parameter,
feature, label and index array gains a leading trial axis, and one pass of
the same training loop steps a whole stack, one matmul per layer. A stack
holds every trial of a cell unless their data outgrows a fixed byte
budget; then the cell trains as several stacks in trial order. The trials
stay independent: each has its own data, init and shuffle streams from its
own derived seeds, its own divergence check and its own evaluation, and
its results equal those of training it alone, bit for bit.
"""

import math
import os
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .datasets import gather
from .errors import ConfigError, DataError, DivergenceError
from .layers import Network, _dense, _forward_images, backward, forward
from .rng import LANE_BLOCK, Rng, derive_seed

# rows per forward pass over flat input, in evaluation and in the dead-unit
# probe of a trial stack, so that their memory does not grow with the stack
_FLAT_CHUNK = 4096
# bytes of trial data one stack of repeat_trials may hold: a cell of many
# large trials trains as several stacks in turn, so that its memory does not
# grow with its trial count
_STACK_BYTES = 16 << 20


@dataclass
class TrainConfig:
    """Hyperparameters for one training run.

    The learning rate and epoch count have no defaults: every caller passes
    the budget it trains at. The library's caller is
    ExperimentConfig.train_config, which passes the config's resolved and
    validated lr, epochs and batch.
    """

    learning_rate: float
    epochs: int
    batch_size: int = 32
    seed: int = 0  # the shuffle stream's; a trial stack takes one per trial


@dataclass
class MetricsReport:
    """Accuracy plus binary sensitivity/specificity and raw confusion counts.

    Binary tasks store confusion as {"tp","tn","fp","fn"}; multi-class tasks
    store a KxK count matrix (rows true, columns predicted) and report
    macro-averaged sensitivity/specificity over the per-class reductions.
    A binary report keeps the test-split scores it counted, in split order.
    """

    accuracy: float
    sensitivity: float
    specificity: float
    confusion: object
    loss_curve: list = field(default_factory=list)
    scores: object = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------------------
# losses


def _binary_ce_from_logits(z, labels):
    """Fused sigmoid cross-entropy from logits [..., B, 1]; one mean loss
    per trial of a stack (a scalar for one network).

    Written in a sign-mirrored form, a where over z >= 0: negating every
    logit and flipping every label negates the gradient bit-for-bit, which
    is what makes label-swapped training runs exact mirrors.
    """
    zf = z[..., 0]
    yf = labels.astype(np.float64)
    b = zf.shape[-1]
    loss = np.mean(np.logaddexp(0.0, zf) - yf * zf, axis=-1)
    s = 1.0 / (1.0 + np.exp(np.minimum(zf, -zf)))  # as in tensor._sigmoid
    g = np.where(zf >= 0, (s - yf) / b, -((s - (1.0 - yf)) / b))
    return loss, g[..., None]


def _softmax_ce_from_logits(z, labels):
    """Fused softmax cross-entropy from logits via log-sum-exp."""
    b = len(z)
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


def sgd_step(net, grads, learning_rate):
    """params <- params - lr * grads for the gradients backward returned. A
    parameter with none (below a stopped pass) is left as it is: bit for bit
    what a +0.0 gradient gives, as p - lr * (+0.0) is p, -0.0 and NaN too."""
    for p, g in zip(net.params, grads):
        for k, v in g.items():
            p[k] -= learning_rate * v
    return net


def _orient_dead_relu_units(net, probe):
    """Sign-flip hidden ReLU units that never fire on a probe batch.

    Label-free and deterministic: with sign-symmetric init, a unit whose
    active half-space faces away from the data is unreachable by gradient
    descent; flipping its incoming weights points it back. Runs once before
    the first step; a stack's trials each judge their units on their own
    probe rows.

    Forward-only and cache-free: a conv net's image layers run per image as
    in evaluation (_probe_features, which may stop early with no unit to
    flip), then the hidden layer's pre-activations come from its input rows
    as forward computes them.
    """
    x = _probe_features(net, probe) if net.spec.image_layers else probe
    if x is None:
        return
    p = net.params[-2]
    dead = ~(_dense(x, p) > 0.0).any(axis=-2)
    if dead.any():
        flip = np.where(dead, -1.0, 1.0)
        p["w"] *= flip[..., None, :]
        p["b"] *= flip


def _probe_features(net, probe):
    """A conv net's probe rows after the image layers, or None once every
    hidden unit has fired. The rows run in chunks of 1, 2, 4, ... rows, and
    a unit has fired once z > 4 K 2**-53 (|x| @ |w| + |b|), K its fan-in:
    above the rounding of any summation order, so one GEMM over every row
    gives z > 0 too. Each image runs alone, so the chunks, concatenated,
    are the bytes of one call over every row."""
    p = net.params[-2]
    fired, chunks = False, []
    for k in range(len(probe).bit_length()):
        x = _forward_images(net, probe[2 ** k - 1:2 ** (k + 1) - 1])
        bound = np.abs(x) @ np.abs(p["w"]) + np.abs(p["b"])
        fired = fired | (_dense(x, p) > 4 * len(p["w"]) * 2.0 ** -53 * bound).any(axis=0)
        if fired.all():
            return None
        chunks.append(x)
    return np.concatenate(chunks)


def train(net, data, cfg):
    """Train on the dataset's train split; returns (net, test-split report).

    Aborts with DivergenceError, naming the epoch and batch, the moment the
    loss stops being finite.

    A trial stack (a network and a dataset with a leading trial axis, as
    repeat_trials builds them, and one seed per trial in cfg.seed) returns
    (net, one report per trial) instead. A trial whose loss stops being
    finite does not abort the others: its report is the DivergenceError,
    and its parameters are zeroed so that its lane stays finite.
    """
    train_idx = data.train_indices
    lanes = train_idx.shape[:-1]
    n = train_idx.shape[-1]
    if n == 0:
        raise DataError("training split is empty")
    if cfg.batch_size > n:
        raise ConfigError(
            "batch_size %d exceeds training-set size %d" % (cfg.batch_size, n)
        )
    features = data.features
    binary = net.spec.output_units == 1
    fused = _binary_ce_from_logits if binary else _softmax_ce_from_logits
    rngs = [Rng(derive_seed(seed)) for seed in (cfg.seed if lanes else (cfg.seed,))]
    # trial t gathers its rows from its own slice of a stack's arrays
    by_trial = (np.arange(lanes[0])[:, None],) if lanes else ()

    curve = []
    diverged = {}
    order = train_idx.copy()
    # divergence is detected by the explicit finiteness check below, so the
    # intermediate overflow warnings on the way there are just noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        probe = gather(features, by_trial + (train_idx[..., :min(512, n)],))
        if lanes:
            step = max(1, _FLAT_CHUNK // probe.shape[-2])
            for lo in range(0, lanes[0], step):
                part = slice(lo, lo + step)
                _orient_dead_relu_units(net.lane(part), probe[part])
        else:
            _orient_dead_relu_units(net, probe)
        for epoch in range(cfg.epochs):
            for rng, trial_order in zip(rngs, order.reshape(-1, n)):
                rng.shuffle(trial_order)
            total = np.zeros(lanes)
            for start in range(0, n, cfg.batch_size):
                idx = order[..., start:start + cfg.batch_size]
                x = gather(features, by_trial + (idx,))
                y = data.labels_at(idx)
                _, cache = forward(net, x, train=True)
                loss, dz = fused(cache[-1]["z"], y)
                bad = ~np.isfinite(loss)
                if bad.any():
                    error = DivergenceError(
                        "loss diverged at epoch %d, batch %d"
                        % (epoch + 1, start // cfg.batch_size + 1)
                    )
                    if not lanes:
                        raise error
                    for t in np.flatnonzero(bad):
                        diverged.setdefault(int(t), error)
                sgd_step(net, backward(net, dz, cache), cfg.learning_rate)
                cache = None  # freed before the next step's forward builds its own
                if bad.any():
                    for p in net.params:
                        for v in p.values():
                            v[bad] = 0.0
                total += loss * idx.shape[-1]
            curve.append(total / n)

    if not lanes:
        report = evaluate(net, data)
        report.loss_curve = [float(c) for c in curve]
        return net, report
    reports = []
    for t in range(lanes[0]):
        if t in diverged:
            reports.append(diverged[t])
            continue
        report = evaluate(net.lane(t), data.trial(t))
        report.loss_curve = [float(c[t]) for c in curve]
        reports.append(report)
    return net, reports


def _binary_report(scores, labels):
    preds = scores > 0.5  # a score of exactly 0.5 is negative
    actual = labels == 1
    tp = int(np.count_nonzero(preds & actual))
    tn = int(np.count_nonzero(~preds & ~actual))
    fp = int(np.count_nonzero(preds & ~actual))
    fn = int(np.count_nonzero(~preds & actual))
    total = tp + tn + fp + fn
    return MetricsReport(
        accuracy=(tp + tn) / total,
        sensitivity=tp / (tp + fn) if tp + fn else 0.0,
        specificity=tn / (tn + fp) if tn + fp else 0.0,
        confusion={"tp": tp, "tn": tn, "fp": fp, "fn": fn},
        scores=scores,
    )


def _multiclass_report(preds, labels, k):
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    total = int(confusion.sum())
    acc = float(np.trace(confusion)) / total
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
    """Forward rows idx of stored features in fixed-size chunks, each
    gathered as float64; returns the raw outputs."""
    # image rows pass the conv stack one at a time, so a chunk sizes only
    # the gathered input and the flat rows the dense layers take
    chunk = 64 if len(net.spec.input_shape) == 3 else _FLAT_CHUNK
    outs = []
    for start in range(0, len(idx), chunk):
        batch = gather(features, idx[start:start + chunk])
        out, _ = forward(net, batch)
        outs.append(out.array)
    return np.concatenate(outs, axis=0)


def evaluate(net, data):
    """Metrics on the dataset's held-out split."""
    idx = data.test_indices
    if len(idx) == 0:
        raise DataError("test split is empty")
    out = predict_scores(net, data.features, idx)
    labels = data.labels_at(idx)
    if net.spec.output_units == 1:
        return _binary_report(out[:, 0], labels)
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


class _TrialStack:
    """A group of a cell's trials as one stacked dataset and network: every
    array gains a leading trial axis. Filled one trial at a time, so that no
    trial's own dataset or network outlives its generation."""

    def __init__(self, data, net, n_trials):
        stacked = lambda a: np.empty((n_trials,) + a.shape, a.dtype)
        self.net = Network(
            net.spec, [{k: stacked(v) for k, v in p.items()} for p in net.params]
        )
        self.features = stacked(data.features)
        self.labels = stacked(data.labels)
        self.train_indices = stacked(data.train_indices)
        self.test_indices = stacked(data.test_indices)
        self.shuffle_seeds = []
        self._lane = np.arange(n_trials)[:, None]

    def put(self, data, net, shuffle_seed):
        """Copy the next trial's dataset, network and shuffle seed into the
        stack; True once the stack is full."""
        t = len(self.shuffle_seeds)
        self.features[t] = data.features
        self.labels[t] = data.labels
        self.train_indices[t] = data.train_indices
        self.test_indices[t] = data.test_indices
        for stacked, p in zip(self.net.params, net.params):
            for k in stacked:
                stacked[k][t] = p[k]
        self.shuffle_seeds.append(shuffle_seed)
        return len(self.shuffle_seeds) == len(self.labels)

    def labels_at(self, idx):
        """Trial t's labels at idx[t] for each t."""
        return self.labels[self._lane, idx]

    def trial(self, t):
        """Trial t's arrays, as evaluate reads them: no second partition check."""
        return SimpleNamespace(features=self.features[t],
                               test_indices=self.test_indices[t],
                               labels_at=self.labels[t].__getitem__)


def _trial_bytes(data, net):
    """A trial's share of a stack, with the copy of its training indices
    that train shuffles and the lane block its shuffle generator keeps."""
    arrays = [data.features, data.labels, data.train_indices, data.train_indices,
              data.test_indices] + [v for p in net.params for v in p.values()]
    return sum(a.nbytes for a in arrays) + LANE_BLOCK * np.dtype(np.uint64).itemsize


def repeat_trials(build_network, generate_data, cfg, n_trials):
    """Average metrics over independently seeded (data, init, run) trials.

    build_network(seed) (a dense Network) and generate_data(seed) (a
    LabeledDataset) are called with derived per-trial seeds: fresh data
    draw and fresh parameters every trial, in trial order, each of the
    first trial's shapes, as the sweep's closures fix them (validate checks
    n_trials >= 2). The trials train in stacks of as many as fit in
    _STACK_BYTES (see train), each on its own shuffle stream from its own
    derived seed, so a trial's results do not depend on which trials train
    beside it. Divergent trials are recorded, excluded from the averages,
    and never fatal. Accumulation is in fixed trial order.
    """
    rows = []
    for t in range(n_trials):
        ts = derive_seed(cfg.seed, t)
        data = generate_data(derive_seed(ts, 0))
        net = build_network(derive_seed(ts, 1))
        if t == 0:
            group = max(1, _STACK_BYTES // _trial_bytes(data, net))
        if t % group == 0:
            stack = _TrialStack(data, net, min(group, n_trials - t))
        if stack.put(data, net, derive_seed(ts, 2)):
            _, done = train(stack.net, stack, replace(cfg, seed=tuple(stack.shuffle_seeds)))
            rows += [  # a stack's reports, holding test scores, go with it
                {"trial": i, **{m: getattr(r, m) for m in _SUMMARY_METRICS}}
                for i, r in enumerate(done, t + 1 - len(done))
                if not isinstance(r, DivergenceError)
            ]
            stack = done = None  # freed before the next group is allocated
    divergences = n_trials - len(rows)
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
    """task(i) for i in range(n), yielded lazily in index order.

    The calls run in min(jobs, n) forked worker processes when that is more
    than one, else one at a time in this process as the results are taken.
    The workers stop once the iterator is exhausted or closed.
    """
    global _FORK_TASK
    if min(jobs, n) <= 1 or not hasattr(os, "fork"):
        for i in range(n):
            yield task(i)
        return
    from multiprocessing import get_context

    _FORK_TASK = task
    try:
        with get_context("fork").Pool(min(jobs, n)) as pool:
            yield from pool.imap(_run_fork_task, range(n))
    finally:
        _FORK_TASK = None


# ---------------------------------------------------------------------------
# CSV export: every CSV a run writes goes through write_csv


def write_csv(path, header, rows):
    """A version line, the header line, then each row's values as str(),
    comma-joined. str() of a float is its shortest round-trip repr."""
    with open(path, "w") as f:
        f.write("# tinynn csv v1\n%s\n" % header)
        f.writelines(",".join(map(str, row)) + "\n" for row in rows)


def write_trials_csv(path, summary):
    """Long-format per-trial metrics: trial,metric,value."""
    write_csv(path, "trial,metric,value", (
        (row["trial"], m, row[m]) for row in summary.trials for m in _SUMMARY_METRICS
    ))


def write_summary_csv(path, summary):
    """Aggregate metrics: metric,mean,std,n."""
    n = summary.n_trials - summary.divergences
    write_csv(path, "metric,mean,std,n", (
        (m, summary.means[m], summary.stds[m], n) for m in _SUMMARY_METRICS
    ))


def write_loss_curve_csv(path, curve):
    """Per-epoch mean training loss: epoch,mean_loss (1-based epochs)."""
    write_csv(path, "epoch,mean_loss", enumerate(curve, 1))
