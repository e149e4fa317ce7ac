"""End-to-end reproduction of the headline results, one test per claim.

Each test prints the values it judged, so a red run shows the measured
numbers next to the required band. The MNIST and CIFAR runs train at full
or near-full scale and take tens of minutes each on one core; they skip
when the data files are absent. Everything is seeded, so reruns reproduce
these numbers exactly.
"""

import os
import time

import numpy as np
import pytest

from tinynn.datasets import load_cifar10
from tinynn.ensemble import resolve_verdict
from tinynn.experiments import (
    ExperimentConfig,
    replay_manifest,
    run_experiment,
)
from tinynn.layers import build_conv_net, build_mlp, forward, backward
from tinynn.rng import Rng

from reference import cross_entropy_loss


def file_bytes(path):
    with open(path, "rb") as f:
        return f.read()


# --------------------------------------------------------------------------
# criterion 1: analytic gradients match central finite differences


def _randomize_head(net, rng):
    # the output head initializes to zero; give it small weights so one
    # backward pass carries signal into every layer
    head = net.params[-1]
    rng.fill_uniform(head["w"].reshape(-1), -0.5, 0.5)
    rng.fill_uniform(head["b"], -0.1, 0.1)


def _loss(net, x, labels):
    out, _ = forward(net, x)
    loss, _ = cross_entropy_loss(out, labels)
    return loss


def _worst_rel_error(net, x, labels, n_coords, rng, eps=1e-5):
    out, cache = forward(net, x, train=True)
    _, dz = cross_entropy_loss(out, labels)
    backward(net, dz, cache)
    grads = [{k: v.copy() for k, v in g.items()} for g in net.grads]
    coords = [
        (li, key, j)
        for li, p in enumerate(net.params)
        for key, arr in p.items()
        for j in range(arr.size)
    ]
    picked = [coords[rng.randbelow(len(coords))] for _ in range(n_coords)]
    worst = 0.0
    for li, key, j in picked:
        flat = net.params[li][key].reshape(-1)
        old = flat[j]
        flat[j] = old + eps
        lp = _loss(net, x, labels)
        flat[j] = old - eps
        lm = _loss(net, x, labels)
        flat[j] = old
        numeric = (lp - lm) / (2.0 * eps)
        analytic = grads[li][key].reshape(-1)[j]
        rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
        worst = max(worst, rel)
    return worst


def test_criterion_1_gradient_checks_against_finite_differences():
    """Every layer kind, 5 seeds x >=200 sampled parameters, rel err < 1e-4,
    under one minute."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = Rng(1000 + seed)
        conv = build_conv_net((1, 12, 12), 3, 4, seed)
        _randomize_head(conv, rng)
        x = np.empty((3, 1, 12, 12))
        rng.fill_uniform(x.reshape(-1), -1.0, 1.0)
        labels = np.array([rng.randbelow(4) for _ in range(3)])
        worst = max(worst, _worst_rel_error(conv, x, labels, 150, rng))

        mlp = build_mlp(6, 7, seed)
        _randomize_head(mlp, rng)
        xm = np.empty((8, 6))
        rng.fill_uniform(xm.reshape(-1), -1.0, 1.0)
        ym = np.array([rng.randbelow(2) for _ in range(8)])
        worst = max(worst, _worst_rel_error(mlp, xm, ym, 57, rng))
    elapsed = time.perf_counter() - t0
    print("gradient check: worst rel err %.3g over 5 seeds x 207 params, %.1fs"
          % (worst, elapsed))
    assert worst < 1e-4
    assert elapsed < 60.0


# --------------------------------------------------------------------------
# criterion 2: the synthetic accuracy table at n=10^4


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    cfg = ExperimentConfig(
        kind="synthetic-sweep",
        dataset="synthetic",
        hidden=(1, 10, 100),
        trials=100,
        seed=0,
        out=str(tmp_path_factory.mktemp("acc-synth")),
        stds=(1.0,),
        sizes=(10000,),
    ).validate()
    return run_experiment(cfg)


def test_criterion_2_synthetic_table_bands(synth_run):
    """Mean accuracy over 100 trials: one neuron 0.70+-0.04, ten and one
    hundred neurons 0.78+-0.03; sensitivity and specificity within 0.02."""
    rows = {r["hidden"]: r["metrics"] for r in synth_run.details["rows"]}
    for h, (lo, hi) in ((1, (0.66, 0.74)), (10, (0.75, 0.81)), (100, (0.75, 0.81))):
        mean = rows[h]["accuracy"][0]
        sens = rows[h]["sensitivity"][0]
        spec = rows[h]["specificity"][0]
        print("hidden %3d: accuracy %.4f (band %.2f-%.2f), sens %.4f spec %.4f"
              % (h, mean, lo, hi, sens, spec))
        assert lo <= mean <= hi, "hidden %d mean %.4f outside [%.2f, %.2f]" % (
            h, mean, lo, hi)
        assert abs(sens - spec) <= 0.02, "hidden %d sens/spec gap %.4f" % (
            h, abs(sens - spec))
    assert not synth_run.diverged


# --------------------------------------------------------------------------
# criteria 3-5 share one full-scale MNIST ensemble run


def mnist_config(data_root, **overrides):
    base = dict(
        kind="ova-ensemble",
        dataset="mnist",
        hidden=(1,),
        seed=0,
        mnist_dir=os.path.join(data_root, "mnist"),
    )
    base.update(overrides)
    return ExperimentConfig(**base).validate()


@pytest.fixture(scope="module")
def mnist_ensemble_run(mnist_paths, data_root, tmp_path_factory):
    cfg = mnist_config(data_root, out=str(tmp_path_factory.mktemp("acc-ens")))
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def mnist_subset_run(mnist_paths, data_root, tmp_path_factory):
    cfg = mnist_config(
        data_root,
        kind="ova-binary",
        subset=12000,
        out=str(tmp_path_factory.mktemp("acc-sub")),
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def mnist_sweep_run(mnist_paths, data_root, tmp_path_factory):
    cfg = mnist_config(
        data_root,
        kind="layer-size-sweep",
        hidden=(16, 128, 1024),
        out=str(tmp_path_factory.mktemp("acc-sweep")),
    )
    return run_experiment(cfg)


def test_criterion_3_per_digit_accuracy_bands(mnist_ensemble_run):
    """All ten single-neuron one-vs-all networks reach 0.92 on the full
    test split; at least five reach 0.97."""
    accs = [rep.accuracy for rep in mnist_ensemble_run.details["reports"]]
    print("per-digit:", " ".join("%.4f" % a for a in accs))
    for c, acc in enumerate(accs):
        assert acc >= 0.92, "class %d accuracy %.4f < 0.92" % (c, acc)
    high = sum(a >= 0.97 for a in accs)
    print("classes at or above 0.97: %d" % high)
    assert high >= 5


def test_criterion_3_subset_variant_holds_090(mnist_subset_run):
    """The 12,000-sample training variant still clears 0.90 per class."""
    accs = [rep.accuracy for rep in mnist_subset_run.details["reports"]]
    print("per-digit (subset 12000):", " ".join("%.4f" % a for a in accs))
    for c, acc in enumerate(accs):
        assert acc >= 0.90, "class %d accuracy %.4f < 0.90" % (c, acc)


def test_criterion_4_ensemble_verdict_breakdown(mnist_ensemble_run):
    """Correct in [0.80, 0.88], redundant in [0.08, 0.17], remaining
    misclassification in [0.01, 0.06], positive sets never larger than 3."""
    outcome = mnist_ensemble_run.details["outcome"]
    correct = outcome.fraction_correct
    redundant = outcome.fraction_redundant
    wrong = outcome.fraction_misclassified
    print("ensemble: correct %.4f redundant %.4f misclassified %.4f max set %d"
          % (correct, redundant, wrong, outcome.max_positive_set))
    assert 0.80 <= correct <= 0.88
    assert 0.08 <= redundant <= 0.17
    assert 0.01 <= wrong <= 0.06
    assert outcome.max_positive_set <= 3


def test_criterion_5_width_plateau_and_ensemble_ordering(
    mnist_sweep_run, mnist_ensemble_run
):
    """At the default sweep budget: width 128 within 2 points of width
    1024, width 16 in [0.78, 0.86], and the ensemble's correct fraction
    strictly above the width-16 single network."""
    accs = {r["width"]: r["accuracy"] for r in mnist_sweep_run.details["rows"]}
    print("width accuracies: 16 %.4f, 128 %.4f, 1024 %.4f"
          % (accs[16], accs[128], accs[1024]))
    assert abs(accs[128] - accs[1024]) <= 0.02, (
        "width 128 vs 1024 gap %.4f" % abs(accs[128] - accs[1024]))
    assert 0.78 <= accs[16] <= 0.86, "width 16 accuracy %.4f" % accs[16]

    correct = mnist_ensemble_run.details["outcome"].fraction_correct
    single = mnist_ensemble_run.details["comparison_accuracy"]
    print("ensemble correct %.4f vs width-16 single %.4f" % (correct, single))
    assert correct > single


# --------------------------------------------------------------------------
# criterion 6: the decision rule against brute force


def _brute_force(positive, true_label):
    # independent restatement: a lone firing member decides; anything else
    # is its own failure kind
    if len(positive) == 0:
        return "no_positive", None
    if len(positive) > 1:
        return "redundant", None
    predicted = positive[0]
    return ("correct", predicted) if predicted == true_label else (
        "wrong_single", predicted)


def test_criterion_6_aggregation_matches_brute_force():
    """All 2^10 firing patterns x 10 true labels, exact match, under a
    second."""
    t0 = time.perf_counter()
    checked = 0
    for mask in range(1 << 10):
        positive = tuple(i for i in range(10) if mask >> i & 1)
        for label in range(10):
            kind, predicted = _brute_force(positive, label)
            verdict = resolve_verdict(positive, label)
            assert verdict.kind == kind, (positive, label, verdict)
            assert verdict.predicted == predicted, (positive, label, verdict)
            checked += 1
    elapsed = time.perf_counter() - t0
    print("verdicts checked: %d in %.3fs" % (checked, elapsed))
    assert checked == (1 << 10) * 10
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# criterion 7: CIFAR-10 at desk scale


@pytest.fixture(scope="module")
def cifar_subset_run(cifar_paths, data_root, tmp_path_factory):
    cfg = ExperimentConfig(
        kind="ova-binary",
        dataset="cifar10",
        hidden=(128,),
        subset=10000,
        seed=0,
        out=str(tmp_path_factory.mktemp("acc-cifar")),
        cifar_dir=os.path.join(data_root, "cifar-10-batches-bin"),
    ).validate()
    return run_experiment(cfg)


def test_criterion_7_cifar_subset_gate(cifar_subset_run, cifar_paths):
    """Width-128 members on a 10,000-sample subset each clear 0.80; the
    loaded dataset satisfies the format invariants."""
    accs = [rep.accuracy for rep in cifar_subset_run.details["reports"]]
    print("per-class (cifar subset):", " ".join("%.4f" % a for a in accs))
    for c, acc in enumerate(accs):
        assert acc >= 0.80, "class %d accuracy %.4f < 0.80" % (c, acc)

    data = load_cifar10(cifar_paths[:5], cifar_paths[5])
    assert data.class_count == 10
    assert tuple(data.feature_array.shape) == (60000, 3, 32, 32)
    assert len(data.train_indices) == 50000
    assert len(data.test_indices) == 10000
    feats = data.feature_array
    assert float(feats.min()) >= 0.0 and float(feats.max()) <= 1.0
    labels = data.labels_at(data.test_indices)
    assert sorted(set(int(v) for v in labels)) == list(range(10))


# --------------------------------------------------------------------------
# criterion 8: byte-exact replay


def test_criterion_8_replay_reproduces_runs_bit_exactly(
    synth_run, mnist_paths, data_root, tmp_path
):
    """Replaying a manifest reproduces every CSV and checkpoint byte for
    byte, for both a trial sweep and a run that writes checkpoints."""
    sweep_cfg = mnist_config(
        data_root,
        kind="layer-size-sweep",
        hidden=(4,),
        subset=600,
        epochs=1,
        out=str(tmp_path / "sweep"),
    )
    first = run_experiment(sweep_cfg)
    assert any(n.endswith(".ckpt") for n in first.manifest["outputs"])

    for source in (first, synth_run):
        manifest_path = os.path.join(source.run_dir, "manifest.json")
        replayed = replay_manifest(manifest_path, out=str(tmp_path / "replay"))
        assert replayed.manifest["outputs"] == source.manifest["outputs"]
        for name in source.manifest["outputs"]:
            assert file_bytes(os.path.join(replayed.run_dir, name)) == file_bytes(
                os.path.join(source.run_dir, name)
            ), name
        print("replayed %s: %d outputs identical"
              % (source.manifest["experiment"], len(source.manifest["outputs"])))
