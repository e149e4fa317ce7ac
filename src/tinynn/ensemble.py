"""One-vs-all ensembles: K independent binary networks and the aggregation
rule that turns their thresholded outputs into a multi-class verdict.

The default rule treats any sample with two or more positive responses as
misclassified (reported in its own "redundant" bucket); a sample is correct
only when exactly one member fires and it is the right one. Two alternative
aggregation policies exist purely as diagnostics and are off by default.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .layers import load_network, save_network
from .rng import _MASK64
from .training import predict_scores, write_csv

POLICIES = ("redundant-error", "priority", "argmax")
THRESHOLD = 0.5  # a member fires on a score above it
VERDICT_KINDS = ("correct", "redundant", "no_positive", "wrong_single")


@dataclass(frozen=True)
class Verdict:
    """Per-sample outcome.

    kind is one of VERDICT_KINDS;
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


def outcome_from_positive_sets(
    positive_sets, true_labels, policy="redundant-error", argmax=None
):
    """Tally verdicts for precomputed positive sets (one iterable per sample).

    policy is one of POLICIES, as ExperimentConfig.validate checks. argmax,
    each sample's highest-scoring member, is read by the argmax policy only;
    evaluate passes it for that policy.
    """
    verdicts = []
    counts = dict.fromkeys(VERDICT_KINDS, 0)
    max_set = 0
    for i, (pos, true) in enumerate(zip(positive_sets, true_labels)):
        positives = tuple(sorted(pos))
        max_set = max(max_set, len(positives))
        if policy == "redundant-error":
            v = resolve_verdict(positives, true)
        else:
            # diagnostics only, both hide redundancy: priority takes the
            # first positive, argmax the top score whatever the threshold
            if policy == "argmax":
                pred = int(argmax[i])
            else:
                pred = positives[0] if positives else None
            if pred is None:
                v = Verdict("no_positive", positives)
            else:
                kind = "correct" if pred == true else "wrong_single"
                v = Verdict(kind, positives, pred)
        verdicts.append(v)
        counts[v.kind] += 1
    return EnsembleOutcome(
        verdicts=verdicts, counts=counts, n=len(verdicts), max_positive_set=max_set
    )


@dataclass
class OvaEnsemble:
    """K trained binary members, one per class, sharing an input shape."""

    members: list
    threshold: float = THRESHOLD
    class_names: list = None

    def __post_init__(self):
        if self.class_names is None:
            self.class_names = [str(i) for i in range(len(self.members))]
        if len(self.class_names) != len(self.members):
            raise DataError("one class name per member required")
        shapes = {m.spec.input_shape for m in self.members}
        if len(shapes) > 1:
            raise DataError("members disagree on input shape: %r" % (shapes,))


def _member_seed(base_seed, class_index):
    """Class class_index's member seed, for its init and its training stream."""
    return (base_seed ^ class_index) & _MASK64


def member_scores(ensemble, features, indices):
    """Raw sigmoid outputs, one column per member, rows aligned to indices."""
    cols = [
        predict_scores(net, features, indices)[:, 0] for net in ensemble.members
    ]
    return np.column_stack(cols)


def evaluate(ensemble, data, policy="redundant-error", scores=None):
    """Verdict tally over the dataset's full (unbalanced) test split; scores,
    each member's outputs on it, spare their forwards when already at hand.
    Given scores, ensemble is read only for its threshold, and None stands
    for an ensemble at the default one."""
    idx = data.test_indices
    if len(idx) == 0:
        raise DataError("test split is empty")
    scores = (member_scores(ensemble, data.features, idx) if scores is None
              else np.column_stack(scores))
    threshold = THRESHOLD if ensemble is None else ensemble.threshold
    pos_sets = [tuple(np.flatnonzero(row)) for row in scores > threshold]
    argmax = scores.argmax(axis=1) if policy == "argmax" else None
    return outcome_from_positive_sets(pos_sets, data.labels_at(idx), policy, argmax)


# ---------------------------------------------------------------------------
# persistence: a directory of member checkpoints plus a manifest


def member_name(i):
    """Member i's checkpoint file in an ensemble directory."""
    return "member_%d.ckpt" % i


def write_ensemble_json(path, seeds, class_names=None, threshold=THRESHOLD):
    """The ensemble directory's manifest for members seeded seeds, by class;
    class names default to the class indices."""
    if class_names is None:
        class_names = [str(i) for i in range(len(seeds))]
    manifest = {
        "class_names": class_names,
        "threshold": threshold,
        "seeds": seeds,
        "members": [member_name(i) for i in range(len(seeds))],
    }
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def save_ensemble(ensemble, dirpath):
    """Write one checkpoint per member plus ensemble.json; returns the names
    of the files written, relative to dirpath."""
    os.makedirs(dirpath, exist_ok=True)
    names = [member_name(i) for i in range(len(ensemble.members))]
    for net, name in zip(ensemble.members, names):
        save_network(net, os.path.join(dirpath, name))
    write_ensemble_json(
        os.path.join(dirpath, "ensemble.json"),
        [net.spec.seed for net in ensemble.members],
        ensemble.class_names,
        ensemble.threshold,
    )
    return names + ["ensemble.json"]


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
    write_csv(path, "sample_index,true_label,positive_set,verdict", (
        (i, y, "|".join(map(str, v.positives)), v.kind)
        for i, y, v in zip(test_indices, labels, outcome.verdicts)
    ))


def write_outcome_summary_csv(path, outcome):
    """Aggregate counts, fractions, and the largest positive set seen."""
    rows = [("count_" + k, outcome.counts[k]) for k in VERDICT_KINDS]
    rows += [(k, getattr(outcome, k)) for k in (
        "n", "fraction_correct", "fraction_redundant", "fraction_misclassified",
        "max_positive_set",
    )]
    write_csv(path, "key,value", rows)
