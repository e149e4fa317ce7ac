"""One-vs-all ensembles: K independent binary networks and the aggregation
rule that turns their thresholded outputs into a multi-class verdict.

The default rule treats any sample with two or more positive responses as
misclassified (reported in its own "redundant" bucket); a sample is correct
only when exactly one member fires and it is the right one. Two alternative
aggregation policies exist purely as diagnostics and are off by default.
"""

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import make_ova_views
from .errors import DataError, DivergenceError
from .layers import build_conv_net, build_mlp, load_network, save_network
from .rng import _MASK64
from .training import predict_scores, train

POLICIES = ("redundant-error", "priority", "argmax")


@dataclass(frozen=True)
class Verdict:
    """Per-sample outcome.

    kind is one of "correct", "redundant", "no_positive", "wrong_single";
    positives is the sorted tuple of classes that fired; predicted is the
    single predicted class when there is one, else None.
    """

    kind: str
    positives: tuple
    predicted: object = None


def resolve_verdict(positive_set, true_label):
    """The redundancy-as-misclassification rule, a pure function of the
    positive set: exactly one positive that matches is correct, two or more
    are redundant, none is no_positive, one wrong is wrong_single."""
    positives = tuple(sorted(positive_set))
    if len(positives) == 0:
        return Verdict("no_positive", positives)
    if len(positives) >= 2:
        return Verdict("redundant", positives)
    only = positives[0]
    if only == true_label:
        return Verdict("correct", positives, only)
    return Verdict("wrong_single", positives, only)


@dataclass
class EnsembleOutcome:
    """Verdict tally over a test split.

    counts partition the samples exactly; the three fractions (correct,
    redundant, misclassified = no_positive + wrong_single) sum to 1 over the
    underlying counts. The headline accuracy is the correct fraction alone:
    redundant answers are errors in that accounting, just counted apart.
    """

    verdicts: list
    counts: dict
    n: int
    max_positive_set: int

    @property
    def fraction_correct(self):
        return self.counts["correct"] / self.n

    @property
    def fraction_redundant(self):
        return self.counts["redundant"] / self.n

    @property
    def fraction_misclassified(self):
        return (self.counts["no_positive"] + self.counts["wrong_single"]) / self.n


def outcome_from_positive_sets(positive_sets, true_labels, policy="redundant-error"):
    """Tally verdicts for precomputed positive sets (one iterable per sample)."""
    if policy not in POLICIES:
        raise DataError("unknown aggregation policy %r" % (policy,))
    verdicts = []
    counts = {"correct": 0, "redundant": 0, "no_positive": 0, "wrong_single": 0}
    max_set = 0
    for pos, true in zip(positive_sets, true_labels):
        positives = tuple(sorted(pos))
        max_set = max(max_set, len(positives))
        if policy == "redundant-error":
            v = resolve_verdict(positives, true)
        elif policy == "priority":
            # diagnostic only: first positive wins, redundancy hidden
            if positives:
                pred = positives[0]
                v = Verdict(
                    "correct" if pred == true else "wrong_single", positives, pred
                )
            else:
                v = Verdict("no_positive", positives)
        else:
            raise DataError("argmax policy needs raw scores; use evaluate()")
        verdicts.append(v)
        counts[v.kind] += 1
    return EnsembleOutcome(
        verdicts=verdicts, counts=counts, n=len(verdicts), max_positive_set=max_set
    )


@dataclass
class OvaEnsemble:
    """K trained binary members, one per class, sharing an input shape."""

    members: list
    threshold: float = 0.5
    class_names: list = None
    member_reports: list = field(default_factory=list)

    def __post_init__(self):
        if self.class_names is None:
            self.class_names = [str(i) for i in range(len(self.members))]
        if len(self.class_names) != len(self.members):
            raise DataError("one class name per member required")
        shapes = {tuple(m.spec.input_shape.dims) for m in self.members}
        if len(shapes) > 1:
            raise DataError("members disagree on input shape: %r" % (shapes,))


def _member_seed(base_seed, class_index):
    return (base_seed ^ class_index) & _MASK64


def _build_member(data, hidden_units, seed):
    shape = tuple(data.feature_array.shape[1:])
    if len(shape) == 3:
        return build_conv_net(shape, hidden_units, 1, seed)
    if len(shape) == 1:
        return build_mlp(shape[0], hidden_units, seed)
    raise DataError("features must be [N,C,H,W] or [N,D], got %r" % (shape,))


def _train_member(view, hidden_units, cfg, seed):
    net = _build_member(view.source, hidden_units, seed)
    try:
        return train(net, view, replace(cfg, seed=seed))
    except DivergenceError as e:
        raise DivergenceError(
            "member for class %d diverged: %s" % (view.target_class, e)
        )


# Worker-pool tasks are passed through this module global so that fork-based
# workers inherit the dataset instead of receiving it pickled per task.
_POOL_TASKS = None


def _train_member_at(i):
    return _train_member(*_POOL_TASKS[i])


def train_ensemble(data, hidden_units, cfg, class_names=None, jobs=1):
    """Train one binary network per class on its balanced view.

    Member i's seed is cfg.seed XOR i, used for init and for its training
    stream, so members are independent and can be trained in any order (or
    in parallel) with bit-identical results. Any member divergence aborts
    the ensemble, naming the class.
    """
    global _POOL_TASKS
    k = data.class_count
    if k < 2:
        raise DataError("need at least 2 classes, got %d" % k)
    views = make_ova_views(data, k, cfg.seed)
    tasks = [
        (views[i], hidden_units, cfg, _member_seed(cfg.seed, i)) for i in range(k)
    ]
    if jobs > 1 and hasattr(os, "fork"):
        from multiprocessing import get_context

        _POOL_TASKS = tasks
        try:
            with get_context("fork").Pool(min(jobs, k)) as pool:
                results = pool.map(_train_member_at, range(k))
        finally:
            _POOL_TASKS = None
    else:
        results = [_train_member(*task) for task in tasks]
    members = [net for net, _ in results]
    reports = [rep for _, rep in results]
    return OvaEnsemble(
        members=members, class_names=class_names, member_reports=reports
    )


def predict(ensemble, features, indices=None):
    """Positive set per sample: members whose sigmoid output clears the
    threshold (strictly; an output of exactly 0.5 is a negative)."""
    if indices is None:
        indices = np.arange(features.shape[0] if hasattr(features, "shape")
                            else len(features))
    scores = member_scores(ensemble, features, indices)
    fired = scores > ensemble.threshold
    return [tuple(np.flatnonzero(row)) for row in fired]


def member_scores(ensemble, features, indices):
    """Raw sigmoid outputs, one column per member, rows aligned to indices."""
    cols = [
        predict_scores(net, features, indices)[:, 0] for net in ensemble.members
    ]
    return np.column_stack(cols)


def evaluate(ensemble, data, policy="redundant-error"):
    """Verdict tally over the dataset's full (unbalanced) test split."""
    idx = data.test_indices
    if len(idx) == 0:
        raise DataError("test split is empty")
    labels = data.labels_at(idx)
    scores = member_scores(ensemble, data.feature_array, idx)
    if policy == "argmax":
        # diagnostic only: ignores the threshold rule entirely
        preds = scores.argmax(axis=1)
        verdicts = []
        counts = {"correct": 0, "redundant": 0, "no_positive": 0, "wrong_single": 0}
        fired = scores > ensemble.threshold
        max_set = int(fired.sum(axis=1).max()) if len(idx) else 0
        for pred, true, row in zip(preds, labels, fired):
            kind = "correct" if pred == true else "wrong_single"
            verdicts.append(Verdict(kind, tuple(np.flatnonzero(row)), int(pred)))
            counts[kind] += 1
        return EnsembleOutcome(verdicts, counts, len(verdicts), max_set)
    pos_sets = [tuple(np.flatnonzero(row)) for row in scores > ensemble.threshold]
    return outcome_from_positive_sets(pos_sets, labels, policy)


# ---------------------------------------------------------------------------
# persistence: a directory of member checkpoints plus a manifest


def save_ensemble(ensemble, dirpath):
    os.makedirs(dirpath, exist_ok=True)
    names = []
    for i, net in enumerate(ensemble.members):
        name = "member_%d.ckpt" % i
        save_network(net, os.path.join(dirpath, name))
        names.append(name)
    manifest = {
        "class_names": ensemble.class_names,
        "threshold": ensemble.threshold,
        "seeds": [net.spec.seed for net in ensemble.members],
        "members": names,
    }
    with open(os.path.join(dirpath, "ensemble.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def load_ensemble(dirpath):
    with open(os.path.join(dirpath, "ensemble.json")) as f:
        manifest = json.load(f)
    members = [
        load_network(os.path.join(dirpath, name)) for name in manifest["members"]
    ]
    return OvaEnsemble(
        members=members,
        threshold=manifest["threshold"],
        class_names=manifest["class_names"],
    )


# ---------------------------------------------------------------------------
# CSV export


def write_verdicts_csv(path, outcome, test_indices, labels):
    """Per-sample rows: sample_index,true_label,positive_set,verdict."""
    with open(path, "w") as f:
        f.write("# tinynn csv v1\n")
        f.write("sample_index,true_label,positive_set,verdict\n")
        for i, v in enumerate(outcome.verdicts):
            pos = "|".join(str(c) for c in v.positives)
            f.write("%d,%d,%s,%s\n" % (test_indices[i], labels[i], pos, v.kind))


def write_outcome_summary_csv(path, outcome):
    """Aggregate counts, fractions, and the largest positive set seen."""
    with open(path, "w") as f:
        f.write("# tinynn csv v1\n")
        f.write("key,value\n")
        for k in ("correct", "redundant", "no_positive", "wrong_single"):
            f.write("count_%s,%d\n" % (k, outcome.counts[k]))
        f.write("n,%d\n" % outcome.n)
        f.write("fraction_correct,%r\n" % outcome.fraction_correct)
        f.write("fraction_redundant,%r\n" % outcome.fraction_redundant)
        f.write("fraction_misclassified,%r\n" % outcome.fraction_misclassified)
        f.write("max_positive_set,%d\n" % outcome.max_positive_set)
