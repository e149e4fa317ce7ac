"""What the benchmark under perfbench/ reads from the library.

The benchmark records spans by patching library functions by name, and a
target that no longer resolves reads as an absent span with value 0. This
checks every target still resolves, but for the retired ones, which must
not, without installing the tracer, plus the
calls the benchmark makes directly (perfbench/child.py, perfbench/inputs.py
and perfbench/selftest.py), with the outputs it checks, and the command
line conv-train passes to the CLI.
"""

import collections
import hashlib
import importlib.util
import os

import numpy as np
import pytest

from tinynn import cli, ensemble, layers, training
from tinynn.datasets import (
    LabeledDataset, SyntheticSpec, generate_synthetic, load_mnist, make_ova_views,
)
from tinynn.experiments import build_config
from tinynn.layers import build_conv_net, build_mlp, forward
from tinynn.rng import Rng
from tinynn.tensor import Tensor

from reference import randomize_head


def load_perfbench(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", name + ".py")
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = load_perfbench("tracing")
INPUTS = load_perfbench("inputs")


# targets of code the library no longer has. The one-vs-all runs train and
# write their members as cells, so the train_ensemble and save_ensemble
# spans read absent (0) by design; members build and train through the
# tinynn.experiments targets, which keep layers.build and training.train live
RETIRED = ("tinynn.experiments.train_ensemble", "tinynn.experiments.save_ensemble",
           "tinynn.ensemble.build_mlp", "tinynn.ensemble.build_conv_net",
           "tinynn.ensemble.train")


@pytest.mark.parametrize("target", [patch[0] for patch in TRACING.PATCHES])
def test_patch_target_resolves(target):
    if target in RETIRED:
        with pytest.raises(AttributeError):
            TRACING._resolve(target)
        return
    owner, attr = TRACING._resolve(target)
    assert callable(getattr(owner, attr))


def test_forward_output_has_array():
    out = forward(build_mlp(3, 2, seed=0), np.zeros((4, 3)))[0].array
    assert out.shape == (4, 1)


def test_dataset_from_tensor():
    data = LabeledDataset(
        Tensor(np.zeros((4, 1, 28, 28))), np.arange(4) % 2, 2,
        np.arange(4), np.zeros(0, np.int64),
    )
    assert data.feature_array.shape == (4, 1, 28, 28)


def generated_mnist(directory):
    """The conv-train inputs, written as IDX files and loaded; returns the
    dataset and the generated images."""
    train, test = INPUTS.conv_train_split(7)
    INPUTS.write_mnist_dir(directory, train, test)
    data = load_mnist(*(os.path.join(directory, n) for n in INPUTS.MNIST_FILES))
    return data, np.concatenate([train[0], test[0]])


def test_feature_array_rounds_back_to_the_idx_bytes(tmp_path):
    # perfbench/selftest.py reads the loaded images back this way
    data, images = generated_mnist(str(tmp_path))
    x = data.feature_array
    assert x.dtype == np.float64 and x.shape == (len(images), 1, 28, 28)
    np.testing.assert_array_equal(np.rint(x[:, 0] * 255.0).astype(np.uint8), images)


def small_outcome():
    # one correct, one redundant, one with no positive member
    return ensemble.outcome_from_positive_sets([(1,), (2, 0), ()], [1, 1, 0])


def test_write_verdicts_csv_text(tmp_path):
    path = str(tmp_path / "verdicts.csv")
    ensemble.write_verdicts_csv(path, small_outcome(), np.array([5, 6, 9]), np.array([1, 1, 0]))
    assert open(path).read() == (
        "# tinynn csv v1\n"
        "sample_index,true_label,positive_set,verdict\n"
        "5,1,1,correct\n"
        "6,1,0|2,redundant\n"
        "9,0,,no_positive\n"
    )


def test_write_outcome_summary_csv_text(tmp_path):
    path = str(tmp_path / "summary.csv")
    ensemble.write_outcome_summary_csv(path, small_outcome())
    assert open(path).read() == (
        "# tinynn csv v1\n"
        "key,value\n"
        "count_correct,1\n"
        "count_redundant,1\n"
        "count_no_positive,1\n"
        "count_wrong_single,0\n"
        "n,3\n"
        "fraction_correct,0.3333333333333333\n"
        "fraction_redundant,0.3333333333333333\n"
        "fraction_misclassified,0.3333333333333333\n"
        "max_positive_set,2\n"
    )


def conv_members():
    members = [build_conv_net((1, 28, 28), 2, 1, seed) for seed in (3, 4)]
    members[1].params[-1]["b"][0] = 1.0  # member 1 fires on every row
    return members


def test_save_and_load_ensemble(tmp_path):
    members = conv_members()
    d = str(tmp_path / "ens")
    ensemble.save_ensemble(ensemble.OvaEnsemble(members=members), d)
    assert sorted(os.listdir(d)) == ["ensemble.json", "member_0.ckpt", "member_1.ckpt"]
    loaded = ensemble.load_ensemble(d)
    assert loaded.class_names == ["0", "1"]
    assert loaded.threshold == 0.5
    for a, b in zip(members, loaded.members):
        assert b.spec.seed == a.spec.seed
        for pa, pb in zip(a.params, b.params):
            assert pa.keys() == pb.keys()
            for k in pa:
                np.testing.assert_array_equal(pa[k], pb[k])


def test_member_scores_and_evaluate(monkeypatch):
    ens = ensemble.OvaEnsemble(members=conv_members())
    rng = np.random.default_rng(0)
    data = LabeledDataset(
        Tensor(rng.random((6, 1, 28, 28))), np.arange(6) % 2, 2,
        np.arange(3), np.arange(3, 6),
    )
    idx = data.test_indices
    scores = ensemble.member_scores(ens, data.feature_array, idx)
    assert scores.shape == (3, 2)
    np.testing.assert_array_equal(scores[:, 0], 0.5)  # a zero head scores 0.5
    assert (scores[:, 1] > 0.5).all()
    # the benchmark captures the scores by patching member_scores by name
    calls = []
    monkeypatch.setattr(
        ensemble, "member_scores", lambda *a: calls.append(a) or scores
    )
    outcome = ensemble.evaluate(ens, data, policy="redundant-error")
    assert len(calls) == 1
    assert outcome.n == 3  # test labels 1, 0, 1; only member 1 fires
    assert outcome.counts == {
        "correct": 2, "redundant": 0, "no_positive": 0, "wrong_single": 1,
    }


def test_member_scores_match_on_the_bytes_and_their_float64_view(tmp_path):
    # the library scores the stored bytes; the benchmark may rescore the
    # same rows from feature_array
    data, _ = generated_mnist(str(tmp_path))
    members = conv_members()
    for i, net in enumerate(members):
        randomize_head(net, Rng(i))
        net.params[5]["b"][...] = 1.0  # every hidden unit live
    ens = ensemble.OvaEnsemble(members=members)
    idx = np.arange(0, len(data.labels), 7)
    stored = ensemble.member_scores(ens, data.features, idx)
    viewed = ensemble.member_scores(ens, data.feature_array, idx)
    assert data.features.dtype == np.uint8
    assert (stored.max(axis=0) > stored.min(axis=0)).all()  # the rows tell apart
    assert stored.tobytes() == viewed.tobytes()


def test_build_config_with_benchmark_keys():
    cfg = build_config(
        {}, {"kind": "ova-binary", "dataset": "mnist", "mnist_dir": "/m", "hidden": (3,)}
    )
    assert (cfg.kind, cfg.dataset, cfg.mnist_dir, cfg.hidden) == (
        "ova-binary", "mnist", "/m", (3,)
    )


def test_conv_train_argv_config():
    # conv-train's run is this command line through cli.main
    argv = INPUTS.conv_train_argv("/bench/mnist", 7, "/bench/out")
    cfg = build_config({}, vars(cli._parser().parse_args(argv)))
    assert (cfg.kind, cfg.dataset, cfg.mnist_dir, cfg.hidden) == (
        "ova-binary", "mnist", "/bench/mnist", (INPUTS.CONV_HIDDEN,)
    )
    assert (cfg.epochs, cfg.batch_size, cfg.seed, cfg.jobs, cfg.out) == (
        INPUTS.CONV_EPOCHS, 32, 7, 1, "/bench/out"
    )


def test_generate_synthetic_stream():
    d = generate_synthetic(SyntheticSpec(std=0.5, n_samples=10, seed=3))
    assert d.labels.tolist() == [0, 1, 1, 0, 0, 1, 0, 1, 0, 1]
    assert d.train_indices.tolist() == [0, 2, 3, 4, 5, 7, 8, 9]
    assert d.test_indices.tolist() == [1, 6]
    assert hashlib.sha256(d.feature_array.tobytes()).hexdigest() == (
        "bb668159ffc3961e946d2695a973aad940fd669554f159928f075f4cd137a1f2"
    )


def test_make_ova_views_stream():
    data = LabeledDataset(
        Tensor(np.zeros((12, 1, 4, 4))), np.arange(12) % 3, 3,
        np.arange(12), np.zeros(0, np.int64),
    )
    views = make_ova_views(data, 3, 5)
    assert [v.train_indices.tolist() for v in views] == [
        [10, 0, 7, 4, 1, 6, 9, 3],
        [7, 2, 8, 0, 4, 1, 10, 11],
        [8, 0, 2, 1, 3, 9, 11, 5],
    ]


def test_stacked_trials_call_the_patched_names(monkeypatch):
    # the tracer counts forward, backward and sgd_step where training looks
    # them up; a cell's trials train as one stack, so one step per batch
    # serves all three trials, and each trial is evaluated on its own. The
    # dead-unit probe computes its pre-activations without calling forward
    calls = collections.Counter()
    rows = []
    for name in ("forward", "backward", "sgd_step"):
        def counting(*args, _name=name, _real=getattr(training, name), **kwargs):
            if _name == "forward":
                mode = "train" if kwargs.get("train", False) else "eval"
                _name = "forward." + mode
                if mode == "train":
                    rows.append(len(args[1]))
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(training, name, counting)
    training.repeat_trials(
        lambda seed: build_mlp(3, 10, seed),
        lambda seed: generate_synthetic(SyntheticSpec(std=0.5, n_samples=250, seed=seed)),
        training.TrainConfig(learning_rate=0.02, epochs=2, seed=4),
        3,
    )
    steps = 2 * 7  # 200 training rows: six batches of 32 and one of 8 per epoch
    assert calls == {
        "forward.train": steps, "backward": steps, "sgd_step": steps,
        "forward.eval": 3,
    }
    assert set(rows) == {3}  # the tracer's rows attribute, len(x), is T


def test_tracer_reads_the_kernel_arguments(monkeypatch):
    # the tracer tags conv and pool spans and counts conv FLOPs from the
    # positional arguments of the kernels it patches, so a reordered
    # signature would silently corrupt the per-layer numbers. The image
    # layers call each kernel once per image, on a one-image batch
    calls = collections.defaultdict(list)
    for name in ("_conv2d", "_conv2d_input_grad", "_maxpool2d", "_maxpool2d_grad"):
        def recording(*args, _name=name, _real=getattr(layers, name), **kwargs):
            calls[_name].append((args, kwargs))
            return _real(*args, **kwargs)

        monkeypatch.setattr(layers, name, recording)
    n = 3
    net = build_conv_net((1, 8, 8), 2, 1, seed=0)
    # a zero head would stop backward above the image layers, and a row
    # whose hidden units are all silent would skip its image
    randomize_head(net, Rng(1))
    net.params[5]["b"][...] = 10.0
    out, cache = forward(net, np.random.default_rng(0).random((n, 1, 8, 8)), train=True)
    layers.backward(net, out.array - 1.0, cache)

    def tags(name, tag):
        return [tag(*call).split(".")[1] for call in calls[name]]

    assert tags("_conv2d", TRACING._conv_tag) == ["conv1", "conv2"] * n
    assert tags("_maxpool2d", TRACING._pool_tag("fwd")) == ["pool1", "pool2"] * n
    assert tags("_maxpool2d_grad", TRACING._pool_tag("bwd")) == ["pool2", "pool1"] * n
    # 2 N H W F C kh kw for the fixed stack's 5x5 convs on 8x8, then 4x4,
    # summed over the per-image calls
    conv1, conv2 = 2 * n * 8 * 8 * 32 * 1 * 25, 2 * n * 4 * 4 * 64 * 32 * 25
    fwd = [TRACING._conv_flops(args)["flop"] for args, _ in calls["_conv2d"]]
    assert fwd == [conv1 // n, conv2 // n] * n and sum(fwd) == conv1 + conv2
    dgrad = [TRACING._dgrad_flops(args)["flop"] for args, _ in calls["_conv2d_input_grad"]]
    assert dgrad == [conv2 // n] * n and sum(dgrad) == conv2
