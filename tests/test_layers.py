"""Network construction, shape inference, backprop vs finite differences
(reference.fd_check), and the checkpoint format and its parser's failures."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinynn import layers, tensor
from tinynn.datasets import LabeledDataset
from tinynn.errors import CheckpointError, DimensionError, StateError
from tinynn.layers import (
    Conv2DSpec,
    DenseSpec,
    FlattenSpec,
    MaxPool2DSpec,
    Network,
    NetworkSpec,
    backward,
    build_conv_net,
    build_mlp,
    forward,
    load_network,
    save_network,
)
from tinynn.rng import Rng
from tinynn.training import TrainConfig, evaluate, train

from reference import (
    EDGE_LOGITS,
    analytic_grads,
    cross_entropy_loss,
    fd_check,
    orient_on_every_row,
    randomize_head,
    unfused_grads,
)


def rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


def peak_bytes(fn, *args):
    """The tracemalloc peak of fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def conv_spec(input_shape=(1, 8, 8), **swap):
    """A small spec of the fixed conv stack over input_shape, with the
    layers named in swap replaced (None drops a layer)."""
    layers = dict(
        conv1=Conv2DSpec(2, 3, "relu"), pool1=MaxPool2DSpec(), conv2=Conv2DSpec(3, 3, "relu"),
        pool2=MaxPool2DSpec(), flatten=FlattenSpec(), hidden=DenseSpec(3, "relu"),
        head=DenseSpec(1, "sigmoid"),
    )
    layers.update(swap)
    return NetworkSpec(input_shape, [x for x in layers.values() if x is not None], seed=0)


# the message NetworkSpec names for any layer list but the two architectures
OTHER_ARCHITECTURE = r"over \[D\] input or .* over \[C,H,W\] input"

# specs every builder or NetworkSpec must refuse, and the message each names
REJECTED_SPECS = [
    ("odd-pool-dim", "even|odd", lambda: conv_spec((1, 5, 5))),
    ("conv-builder-indivisible", None, lambda: build_conv_net((1, 30, 30), 4, 10, seed=0)),
    ("conv-builder-rank-2", r"\[C,H,W\]", lambda: build_conv_net((28, 28), 4, 10, seed=0)),
    ("mlp-builder-no-input", ">= 1", lambda: build_mlp(0, 4, seed=0)),
    ("dense-on-unflattened", OTHER_ARCHITECTURE, lambda: conv_spec(flatten=None)),
    ("softmax-not-final", "softmax", lambda: NetworkSpec(
        (5,), [DenseSpec(4, "softmax"), DenseSpec(2, "softmax")], seed=0)),
    *[("conv-" + act, "conv activation",
       lambda act=act: conv_spec(conv1=Conv2DSpec(2, 3, act)))
      for act in ("sigmoid", "softmax", "tanh")],
    ("even-kernel", "odd", lambda: conv_spec(conv1=Conv2DSpec(4, 6, "relu"))),
    ("even-kernel-relu", "odd", lambda: conv_spec(conv2=Conv2DSpec(4, 4, "relu"))),
    ("conv-no-filters", ">= 1", lambda: conv_spec(conv1=Conv2DSpec(0, 3, "relu"))),
    ("dense-no-units", ">= 1", lambda: NetworkSpec(
        (5,), [DenseSpec(0, "relu"), DenseSpec(1, "sigmoid")], seed=0)),
    ("unknown-kind", OTHER_ARCHITECTURE, lambda: NetworkSpec((5,), ["dense"], seed=0)),
    ("dense-tanh", "hidden activation", lambda: NetworkSpec(
        (5,), [DenseSpec(2, "tanh"), DenseSpec(1, "sigmoid")], seed=0)),
    ("conv-on-flat", r"\[C,H,W\]", lambda: NetworkSpec(
        (5,), [Conv2DSpec(2, 3, "relu")], seed=0)),
    ("pool-on-flat", r"\[C,H,W\]", lambda: NetworkSpec((4,), [MaxPool2DSpec()], seed=0)),
    # train fits a one-unit head with sigmoid cross-entropy and a wider one
    # with softmax cross-entropy, so each head must be the one its loss fits
    ("softmax-one-unit-head", "1-unit head's activation must be sigmoid", lambda: NetworkSpec(
        (3,), [DenseSpec(2, "relu"), DenseSpec(1, "softmax")], seed=0)),
    ("sigmoid-three-unit-head", "3-unit head's activation must be softmax", lambda: NetworkSpec(
        (3,), [DenseSpec(2, "relu"), DenseSpec(3, "sigmoid")], seed=0)),
]

# a spec of each layer list NetworkSpec once took beside the two
# architectures, and the message each names
OTHER_ARCHITECTURES = [
    ("missing-pool", OTHER_ARCHITECTURE, lambda: conv_spec(pool1=None)),
    ("pool-first", OTHER_ARCHITECTURE, lambda: NetworkSpec((2, 8, 8), [
        MaxPool2DSpec(), Conv2DSpec(3, 3, "relu"), FlattenSpec(), DenseSpec(3, "relu"),
        DenseSpec(10, "softmax")], seed=0)),
    ("conv-without-relu", "conv activation", lambda: conv_spec(
        conv2=Conv2DSpec(4, 5, "none"))),
    ("hidden-sigmoid", "hidden activation", lambda: NetworkSpec(
        (5,), [DenseSpec(2, "sigmoid"), DenseSpec(1, "sigmoid")], seed=0)),
    ("hidden-none", "hidden activation", lambda: conv_spec(hidden=DenseSpec(3, "none"))),
    ("two-hidden-layers", OTHER_ARCHITECTURE, lambda: NetworkSpec(
        (5,), [DenseSpec(4, "relu"), DenseSpec(3, "relu"), DenseSpec(1, "sigmoid")], seed=0)),
    ("lone-dense", OTHER_ARCHITECTURE, lambda: NetworkSpec(
        (5,), [DenseSpec(4, "softmax")], seed=0)),
    ("flatten-over-flat", OTHER_ARCHITECTURE, lambda: NetworkSpec(
        (5,), [FlattenSpec(), DenseSpec(2, "relu"), DenseSpec(1, "sigmoid")], seed=0)),
]


class TestShapeInference:
    def test_conv_stack_shapes(self):
        net = build_conv_net((1, 28, 28), 7, 10, seed=0)
        assert [tuple(s) for s in net.spec.layer_shapes] == [
            (32, 28, 28),
            (32, 14, 14),
            (64, 14, 14),
            (64, 7, 7),
            (3136,),
            (7,),
            (10,),
        ]

    @pytest.mark.parametrize(
        "match,build", [case[1:] for case in REJECTED_SPECS],
        ids=[case[0] for case in REJECTED_SPECS],
    )
    def test_rejected(self, match, build):
        with pytest.raises(DimensionError, match=match):
            build()

    @pytest.mark.parametrize(
        "match,build", [case[1:] for case in OTHER_ARCHITECTURES],
        ids=[case[0] for case in OTHER_ARCHITECTURES],
    )
    def test_other_architectures_rejected(self, match, build):
        with pytest.raises(DimensionError, match=match):
            build()


def parameter_count(net):
    return sum(v.size for p in net.params for v in p.values())


class TestParameterCounts:
    @pytest.mark.parametrize(
        "hidden,want", [(1, 6), (10, 51), (100, 501)]
    )
    def test_mlp_counts(self, hidden, want):
        assert parameter_count(build_mlp(3, hidden, seed=0)) == want

    def test_conv_stack_counts(self):
        net = build_conv_net((1, 28, 28), 10, 10, seed=0)
        conv1 = 32 * (1 * 5 * 5) + 32
        conv2 = 64 * (32 * 5 * 5) + 64
        dense1 = 3136 * 10 + 10
        head = 10 * 10 + 10
        assert conv1 == 832
        assert conv2 == 51264
        assert parameter_count(net) == conv1 + conv2 + dense1 + head

    def test_count_matches_shape_walk(self):
        # three input channels; two 2x2 pools take 32x32 to 8x8
        net = build_conv_net((3, 32, 32), 5, 10, seed=1)
        conv1 = 32 * (3 * 5 * 5) + 32
        conv2 = 64 * (32 * 5 * 5) + 64
        dense1 = 64 * 8 * 8 * 5 + 5
        head = 5 * 10 + 10
        assert parameter_count(net) == conv1 + conv2 + dense1 + head


class TestInitialization:
    def test_hidden_weights_within_fan_in_bound(self):
        net = build_mlp(50, 30, seed=3)
        w = net.params[0]["w"]
        bound = np.sqrt(6.0 / 50)
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.5 * bound  # actually fills the range

    def test_biases_zero(self):
        net = build_conv_net((1, 8, 8), 4, 3, seed=4)
        for p in net.params:
            if p:
                assert not p["b"].any()

    def test_output_head_starts_at_zero(self):
        net = build_mlp(5, 7, seed=5)
        assert not net.params[-1]["w"].any()
        out, _ = forward(net, rand((4, 5), 0))
        np.testing.assert_array_equal(out.array, np.full((4, 1), 0.5))

    def test_seed_determines_parameters(self):
        a, b = build_mlp(6, 4, seed=9), build_mlp(6, 4, seed=9)
        c = build_mlp(6, 4, seed=10)
        np.testing.assert_array_equal(a.params[0]["w"], b.params[0]["w"])
        assert (a.params[0]["w"] != c.params[0]["w"]).any()


# networks over image input, each with its batch size: the fixed stack at
# several shapes, and smaller filter counts and kernel sizes
IMAGE_NETS = [
    (lambda: build_conv_net((1, 8, 8), 3, 10, seed=11), 5),
    (lambda: build_conv_net((1, 28, 28), 3, 10, seed=11), 1),
    (lambda: build_conv_net((1, 28, 28), 3, 10, seed=11), 65),
    (lambda: build_conv_net((3, 32, 32), 3, 10, seed=11), 1),
    (lambda: build_conv_net((3, 32, 32), 3, 10, seed=11), 65),
    (lambda: Network(NetworkSpec((2, 8, 8), [
        Conv2DSpec(3, 3, "relu"), MaxPool2DSpec(), Conv2DSpec(4, 5, "relu"), MaxPool2DSpec(),
        FlattenSpec(), DenseSpec(3, "relu"), DenseSpec(10, "softmax"),
    ], seed=11)), 5),
]
IMAGE_NET_IDS = ["stack8-5", "mnist-1", "mnist-65", "cifar-1", "cifar-65", "conv3-conv5-5"]


def prepared(make_net, n):
    """make_net's network with random biases and head, and n non-negative
    input rows, whose zero windows tie in a pool."""
    net = make_net()
    for i, p in enumerate(net.params):
        if p:
            p["b"][...] = 0.1 * rand(p["b"].shape, i)  # init leaves biases zero
    randomize_head(net, Rng(1))
    return net, np.maximum(rand((n,) + net.spec.input_shape, 12), 0.0)


# single-neuron conv nets (hidden width 1), each with its batch size
ONE_UNIT_NETS = [
    (lambda: build_conv_net((1, 28, 28), 1, 1, seed=11), 6),
    (lambda: build_conv_net((3, 32, 32), 1, 10, seed=11), 4),
    (lambda: build_conv_net((1, 8, 8), 1, 10, seed=11), 8),
]
ONE_UNIT_IDS = ["mnist-binary-6", "cifar-4", "stack8-8"]


def with_rows(make_net, n, pattern):
    """prepared()'s one-unit net with its hidden unit live on every row
    ("live"), silent on the rows whose pre-activation is at or below the
    batch median ("silent"), or behind the zero head a fresh net starts
    with ("dead"). Returns the net, its input rows, the forward output and
    cache, and the rows' hidden pre-activations."""
    net, x = prepared(make_net, n)
    hidden = len(net.spec.layers) - 2
    _, cache = forward(net, x, train=True)
    z = cache[hidden]["z"][:, 0]
    if pattern == "live":
        net.params[hidden]["b"] -= z.min() - 1.0
    elif pattern == "silent":
        net.params[hidden]["b"] -= np.median(z)
    else:
        for v in net.params[-1].values():
            v[...] = 0.0
    out, cache = forward(net, x, train=True)
    z = cache[hidden]["z"][:, 0]
    if pattern == "silent":
        assert 0 < (z > 0.0).sum() < n
    elif pattern == "live":
        assert (z > 0.0).all()
    return net, x, out, cache, z


class TestForward:
    def test_repeated_calls_bit_identical(self):
        net = build_conv_net((1, 8, 8), 3, 10, seed=11)
        randomize_head(net, Rng(1))
        x = rand((5, 1, 8, 8), 12)
        a, _ = forward(net, x)
        b, _ = forward(net, x)
        np.testing.assert_array_equal(a.array, b.array)

    @pytest.mark.parametrize("make_net,n", IMAGE_NETS, ids=IMAGE_NET_IDS)
    def test_eval_output_matches_train_output(self, make_net, n):
        # eval runs the conv stack per image and pools without winner
        # indices; its output must not differ by a bit
        net, x = prepared(make_net, n)
        a, _ = forward(net, x, train=False)
        b, cache = forward(net, x, train=True)
        assert cache is not None
        assert a.array.tobytes() == b.array.tobytes()

    def test_eval_memory_does_not_grow_with_the_conv_stack(self):
        # 64 MNIST-shaped rows: the batch kernels' whole-chunk arrays took
        # about 40 MB; per-image buffers and the [64, 3136] output take
        # about 4 MB, and evaluation keeps no training cache (conv2's input
        # alone would be 3.2 MB more)
        net = build_conv_net((1, 28, 28), 4, 1, seed=3)
        assert peak_bytes(forward, net, rand((64, 1, 28, 28), 4)) < 5 << 20

    def test_training_step_memory(self):
        # a batch-32 MNIST-shaped step holds its cache (about 3 MB: the conv
        # inputs, pool winners and ReLU masks) and one image's buffers (about
        # 4 MB); one whole-batch conv1 output (6.4 MB) more exceeds the bound
        net = build_conv_net((1, 28, 28), 1, 1, seed=3)
        randomize_head(net, Rng(2))  # a zero head would stop backward early
        x = rand((32, 1, 28, 28), 4)

        def step():
            out, cache = forward(net, x, train=True)
            backward(net, out.array - 1.0, cache)

        _, cache = forward(net, x, train=True)
        held = sum(a.nbytes for c in cache for a in c.values() if isinstance(a, np.ndarray))
        assert held + 32 * 32 * 28 * 28 * 8 > 8 << 20
        assert peak_bytes(step) < 8 << 20

    def test_softmax_head_rows_normalized(self):
        net = build_conv_net((1, 8, 8), 3, 10, seed=13)
        randomize_head(net, Rng(2))
        out, _ = forward(net, rand((6, 1, 8, 8), 14))
        np.testing.assert_allclose(out.array.sum(axis=1), np.ones(6), atol=1e-12)

    def test_sample_shape_mismatch(self):
        net = build_mlp(4, 2, seed=0)
        with pytest.raises(DimensionError, match="input shape"):
            forward(net, rand((3, 5), 0))

    def test_conv_cache_holds_no_column_matrix(self):
        # the kernel gradient recomputes its columns from the layer input,
        # so a conv layer caches nothing larger than its input or output
        net = build_conv_net((3, 8, 8), 3, 10, seed=11)
        n = 5
        _, cache = forward(net, rand((n, 3, 8, 8), 12), train=True)
        shapes = [net.spec.input_shape, *net.spec.layer_shapes]
        for i, layer in enumerate(net.spec.layers):
            if isinstance(layer, Conv2DSpec):
                bound = n * max(np.prod(shapes[i]), np.prod(shapes[i + 1]))
                assert all(a.size <= bound for a in cache[i].values())

    def test_eval_mode_has_no_cache(self):
        net = build_mlp(4, 2, seed=0)
        out, cache = forward(net, rand((3, 4), 0))
        assert cache is None


class TestBackwardState:
    def test_backward_without_cache(self):
        net = build_mlp(4, 2, seed=0)
        out, cache = forward(net, rand((3, 4), 0))
        _, dz = cross_entropy_loss(out, np.array([0, 1, 0]))
        with pytest.raises(StateError):
            backward(net, dz, cache)

    def test_backward_with_foreign_cache(self):
        net = build_mlp(4, 2, seed=0)
        other = build_conv_net((1, 8, 8), 2, 3, seed=1)
        _, cache = forward(other, rand((2, 1, 8, 8), 0), train=True)
        with pytest.raises(StateError):
            backward(net, np.zeros((2, 1)), cache)


def assert_grads_equal(got, want):
    """backward's gradients byte-equal to the reference's. A layer that a
    stopped pass leaves without gradients, which sgd_step skips, must have
    +0.0 ones in the reference, which p - lr * (+0.0) applies as a skip."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if not g:
            g = {k: np.zeros_like(v) for k, v in w.items()}
        assert g.keys() == w.keys()
        for k in w:
            assert g[k].tobytes() == w[k].tobytes(), k


class TestGradients:
    """Finite-difference agreement, layer kind by layer kind, and bit-for-bit
    agreement with the unfused reference backward."""

    @pytest.mark.parametrize("make_net,n", IMAGE_NETS, ids=IMAGE_NET_IDS)
    def test_grads_equal_unfused_reference(self, make_net, n):
        # a pool gates its ReLU conv's gradient at pooled size and the conv
        # input gradient stacks its taps; every gradient bit, signed zeros
        # included, must equal the unfused d * (z > 0) one
        net, x = prepared(make_net, n)
        for layer, p in zip(net.spec.layers, net.params):
            if isinstance(layer, Conv2DSpec):
                p["b"][0] = -1e3  # a dead filter, gated off everywhere
        out, cache = forward(net, x, train=True)
        d = rand(out.array.shape, 13)
        assert_grads_equal(backward(net, d, cache), unfused_grads(net, x, d))

    @pytest.mark.parametrize("pattern", ["live", "silent", "dead"])
    @pytest.mark.parametrize("make_net,n", ONE_UNIT_NETS, ids=ONE_UNIT_IDS)
    def test_zero_gradient_skips_equal_the_full_pass(self, make_net, n, pattern):
        # backward skips the conv work of a silent row's image and, below a
        # zero head, the whole pass, whose layers get no gradients; every
        # gradient must equal the reference's bit for bit
        net, x, out, cache, _ = with_rows(make_net, n, pattern)
        d = rand(out.array.shape, 13)
        got = backward(net, d, cache)
        assert_grads_equal(got, unfused_grads(net, x, d))
        if pattern == "dead":
            assert got[-1] and not any(got[:-1])

    @pytest.mark.parametrize(
        "make_net,n", IMAGE_NETS[:1] + IMAGE_NETS[5:] + ONE_UNIT_NETS[:1],
        ids=IMAGE_NET_IDS[:1] + IMAGE_NET_IDS[5:] + ONE_UNIT_IDS[:1],
    )
    def test_zero_images_first_equal_the_unfused_reference(self, make_net, n):
        # image 0 is blank and every conv bias negative, so each ReLU gate
        # shuts the image off: its conv gradients are +-0.0, -0.0 wherever
        # the gradient above was negative. Image 1's loss gradient is -0.0,
        # so the image pass skips it. Live images follow; the conv bias
        # sums, continued image by image, must equal the whole batch's bit
        # for bit, signed zeros included
        net, x = prepared(make_net, n)
        spec = net.spec
        for layer, p in zip(spec.layers, net.params):
            if isinstance(layer, Conv2DSpec):
                p["b"][...] = -np.abs(p["b"]) - 0.05
            elif isinstance(layer, DenseSpec) and layer is not spec.layers[-1]:
                p["b"] += 1.0  # hidden units fire on the blank image too
        x[0] = 0.0
        out, cache = forward(net, x, train=True)
        d = rand(out.array.shape, 13)
        d[1] = -0.0
        # the gradient reaching the image layers: image 0's has negative
        # entries, image 1's is zero
        g = d
        for i in range(len(spec.layers) - 1, spec.image_layers - 1, -1):
            if i < len(spec.layers) - 1 and spec.layers[i].activation == "relu":
                g = g * (cache[i]["z"] > 0.0)
            g = g @ net.params[i]["w"].T
        assert (g[0] < 0.0).any() and not g[1].any()
        assert_grads_equal(backward(net, d, cache), unfused_grads(net, x, d))

    @pytest.mark.parametrize("pattern", ["live", "silent", "dead"])
    def test_backward_takes_columns_for_live_images_only(self, monkeypatch, pattern):
        # the kernel gradient copies an image's columns only if its output
        # gradient is nonzero: once per conv for each row whose unit is on,
        # never below a zero head
        make_net, n = ONE_UNIT_NETS[0]
        net, _, out, cache, z = with_rows(make_net, n, pattern)
        calls = []
        real = tensor._Columns.__call__

        def counting(cols):
            calls.append(cols)
            return real(cols)

        monkeypatch.setattr(tensor._Columns, "__call__", counting)
        backward(net, out.array - 1.0, cache)
        live = 0 if pattern == "dead" else int((z > 0.0).sum())
        assert len(calls) == 2 * live

    @pytest.mark.parametrize("kind", ["edges", "nans"])
    @pytest.mark.parametrize("lanes", [(), (1,), (3,)], ids=["2d", "stack1", "stack3"])
    @pytest.mark.parametrize("m,n", [(1, 1), (5, 1), (32, 1), (1, 7), (6, 3), (32, 100)])
    def test_one_unit_input_grad_bytes_equal_matmul(self, lanes, m, n, kind):
        # a one-unit layer's input gradient is an outer product; its bytes
        # must equal matmul's on signed zeros, infinities and NaNs of both
        # signs, in either factor and in both at once
        rng = np.random.default_rng(m * 100 + n)
        values = (np.concatenate([EDGE_LOGITS, [1.5, -2.0, 5e-324, -1e308]])
                  if kind == "edges" else np.array([np.nan, -np.nan]))
        dz = rng.choice(values, size=lanes + (m, 1))
        wt = rng.choice(values, size=lanes + (n, 1)).swapaxes(-1, -2)
        with np.errstate(invalid="ignore", over="ignore"):
            assert layers._outer(dz, wt).tobytes() == (dz @ wt).tobytes()

    def test_dense_sigmoid_head_tight(self):
        # dense-only stack admits a tighter bound: no kinks in the path
        net = build_mlp(6, 8, seed=21)
        randomize_head(net, Rng(3))
        # soften the relu kink risk: keep preactivations away from zero
        x = rand((10, 6), 22) + 0.5
        labels = np.array([0, 1] * 5)
        fd_check(net, x, labels, n_params=len_params(net), rng=Rng(1), tol=1e-6)

    def test_dense_softmax_head_tight(self):
        spec = NetworkSpec(
            (5,), [DenseSpec(7, "relu"), DenseSpec(4, "softmax")], seed=23
        )
        net = Network(spec)
        randomize_head(net, Rng(4))
        x = rand((9, 5), 24)
        labels = np.array([0, 1, 2, 3, 0, 1, 2, 3, 2])
        fd_check(net, x, labels, n_params=len_params(net), rng=Rng(2), tol=1e-6)

    def test_conv_relu_pool_stack(self):
        net = build_conv_net((2, 8, 8), 4, 3, seed=25)
        randomize_head(net, Rng(5))
        x = rand((4, 2, 8, 8), 26)
        labels = np.array([0, 1, 2, 1])
        fd_check(net, x, labels, n_params=250, rng=Rng(3), tol=1e-4)

    def test_conv_sigmoid_binary_head(self):
        net = build_conv_net((1, 8, 8), 2, 1, seed=27)
        randomize_head(net, Rng(6))
        x = rand((5, 1, 8, 8), 28)
        labels = np.array([0, 1, 1, 0, 1])
        fd_check(net, x, labels, n_params=200, rng=Rng(4), tol=1e-4)

    def test_gradients_all_finite(self):
        net = build_conv_net((1, 8, 8), 3, 5, seed=29)
        randomize_head(net, Rng(7))
        x = rand((3, 1, 8, 8), 30)
        grads = analytic_grads(net, x, np.array([0, 2, 4]))
        for g in grads:
            for v in g.values():
                assert np.isfinite(v).all()


def len_params(net):
    return sum(v.size for p in net.params for v in p.values())


class TestImageBuffers:
    """The image layers' one-image scratch buffers are made once per
    architecture and shared by every pass; what a pass hands out is its own."""

    def test_training_and_evaluation_make_columns_once_per_conv(self, monkeypatch):
        made = []

        class Counting(tensor._Columns):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(tensor, "_Columns", Counting)
        monkeypatch.setattr(layers, "_Columns", Counting)
        layers._image_buffers.cache_clear()
        rng = np.random.default_rng(5)
        data = LabeledDataset(rng.integers(0, 256, (24, 1, 8, 8), dtype=np.uint8),
                              np.arange(24) % 2, 2, np.arange(16), np.arange(16, 24))
        net = build_conv_net((1, 8, 8), 2, 1, seed=3)
        conv1 = net.params[0]["w"].copy()
        # 3 epochs of 4 steps, the dead-unit probe, then the test split
        train(net, data, TrainConfig(learning_rate=0.05, epochs=3, batch_size=4))
        evaluate(net, data)
        assert not np.array_equal(net.params[0]["w"], conv1)  # backward reached conv1
        assert made == [(1, 8, 8, 5, 5), (32, 4, 4, 5, 5)]

    def test_passes_that_alternate_equal_each_pass_alone(self):
        # two networks of one architecture and one of another, each pass
        # byte-equal to that network's pass on freshly made buffers; every
        # step's output and gradients are held to the end
        nets = [prepared(lambda s=s, c=c: build_conv_net((c, 8, 8), 2, 1, seed=s), 3)
                for s, c in ((1, 1), (2, 1), (3, 3))]

        def step(net, x):
            out, cache = forward(net, x, train=True)
            return out.array, forward(net, x)[0].array, backward(net, out.array - 1.0, cache)

        alone = []
        for net, x in nets:
            layers._image_buffers.cache_clear()
            alone.append(step(net, x))
        order = [0, 2, 1, 0, 1, 2]
        steps = [forward(*nets[k], train=True) for k in order]
        evals = [forward(*nets[k])[0].array for k in order]
        grads = [backward(nets[k][0], out.array - 1.0, cache)
                 for k, (out, cache) in reversed(list(zip(order, steps)))][::-1]
        for k, (out, _), ev, g in zip(order, steps, evals, grads):
            assert out.array.tobytes() == alone[k][0].tobytes()
            assert ev.tobytes() == alone[k][1].tobytes()
            assert_grads_equal(g, alone[k][2])
        assert layers._image_buffers.cache_info().currsize == 1


class TestOrientation:
    def test_dead_hidden_units_are_flipped(self):
        net = build_mlp(3, 4, seed=31)
        # point two units away from an all-positive probe cloud
        net.params[0]["w"][:, 1] = -1.0
        net.params[0]["b"][1] = -0.5
        net.params[0]["w"][:, 3] = -2.0
        before = net.params[0]["w"].copy()
        probe = np.abs(rand((32, 3), 32)) + 0.1
        from tinynn.training import _orient_dead_relu_units

        _orient_dead_relu_units(net, probe)
        np.testing.assert_array_equal(net.params[0]["w"][:, 1], -before[:, 1])
        np.testing.assert_array_equal(net.params[0]["w"][:, 3], -before[:, 3])
        np.testing.assert_array_equal(net.params[0]["w"][:, 0], before[:, 0])
        np.testing.assert_array_equal(net.params[0]["w"][:, 2], before[:, 2])

    def test_live_units_untouched_and_head_never_flipped(self):
        net = build_mlp(3, 2, seed=33)
        head_before = net.params[-1]["w"].copy()
        probe = rand((64, 3), 34)
        from tinynn.training import _orient_dead_relu_units

        _orient_dead_relu_units(net, probe)
        np.testing.assert_array_equal(net.params[-1]["w"], head_before)

    def test_conv_probe_matches_train_forward(self):
        # the probe's per-image pass must judge the units exactly as the
        # training forward's hidden pre-activations would
        net = build_conv_net((1, 8, 8), 6, 1, seed=35)
        probe = rand((16, 1, 8, 8), 36)
        _, cache = forward(net, probe, train=True)
        dead = ~(cache[5]["z"] > 0.0).any(axis=0)
        assert dead.any() and not dead.all()
        before = net.params[5]["w"].copy()
        from tinynn.training import _orient_dead_relu_units

        _orient_dead_relu_units(net, probe)
        np.testing.assert_array_equal(net.params[5]["w"], np.where(dead, -before, before))

    def test_conv_probe_keeps_no_batch_caches(self):
        # a 64-row MNIST-shaped probe: the training forward's caches took
        # about 45 MB; the per-image pass takes a few
        net = build_conv_net((1, 28, 28), 4, 1, seed=3)
        probe = rand((64, 1, 28, 28), 4)
        from tinynn.training import _orient_dead_relu_units

        assert peak_bytes(_orient_dead_relu_units, net, probe) < 8 << 20

    @pytest.mark.parametrize("pattern", ["live", "silent", "dead"])
    @pytest.mark.parametrize(
        "make_net,n", IMAGE_NETS + ONE_UNIT_NETS, ids=IMAGE_NET_IDS + ONE_UNIT_IDS
    )
    def test_early_stop_probe_equals_the_full_probe(self, make_net, n, pattern):
        # the probe may stop once every unit of the one hidden ReLU layer
        # has a certified positive; its flips and every parameter bit must
        # equal those of the probe over every row
        net, x = prepared(make_net, n)
        _, cache = forward(net, x, train=True)
        z, b = cache[-2]["z"], net.params[-2]["b"]
        b -= {"live": z.min(axis=0) - 1.0, "silent": np.median(z, axis=0),
              "dead": z.max(axis=0) + 1.0}[pattern]
        want = Network(net.spec, [{k: v.copy() for k, v in p.items()} for p in net.params])
        orient_on_every_row(want, x)
        from tinynn.training import _orient_dead_relu_units

        _orient_dead_relu_units(net, x)
        for p, q in zip(net.params, want.params):
            for k in q:
                assert p[k].tobytes() == q[k].tobytes(), k

    @pytest.mark.parametrize("pattern,rows", [("live", 1), ("dead", 64)])
    def test_probe_forwards_rows_until_every_unit_fired(self, monkeypatch, pattern, rows):
        # a unit that fires on row 0 stops the probe after one row; a dead
        # unit takes every row, each forwarded once
        from tinynn import training

        net = build_conv_net((1, 28, 28), 1, 1, seed=3)
        probe = np.abs(rand((64, 1, 28, 28), 4))
        _, cache = forward(net, probe[:1], train=True)
        net.params[5]["b"][0] = b = 1.0 - cache[5]["z"][0, 0] if pattern == "live" else -1e6
        seen = []

        def counting(net, x):
            seen.append(len(x))
            return layers._forward_images(net, x)

        monkeypatch.setattr(training, "_forward_images", counting)
        training._orient_dead_relu_units(net, probe)
        assert sum(seen) == rows
        assert net.params[5]["b"][0] == (-b if pattern == "dead" else b)


class TestCheckpoint:
    def round_trip(self, net, tmp_path):
        path = str(tmp_path / "net.ckpt")
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.spec.layer_shapes == net.spec.layer_shapes
        assert loaded.spec.seed == net.spec.seed
        for a, b in zip(net.params, loaded.params):
            assert set(a) == set(b)
            for k in a:
                np.testing.assert_array_equal(a[k], b[k])
        return path

    def test_mlp_round_trip(self, tmp_path):
        self.round_trip(build_mlp(7, 3, seed=41), tmp_path)

    def test_loaded_network_holds_only_its_parameters(self, tmp_path):
        # a member loaded to judge keeps its parameters and nothing beside
        # them: no gradient buffers (they took as many bytes again)
        path = str(tmp_path / "net.ckpt")
        save_network(build_conv_net((1, 28, 28), 10, 10, seed=44), path)
        tracemalloc.start()
        try:
            net = load_network(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        params = sum(v.nbytes for p in net.params for v in p.values())
        assert params <= held < params + (16 << 10)

    def test_conv_round_trip(self, tmp_path):
        net = build_conv_net((1, 8, 8), 2, 4, seed=42)
        randomize_head(net, Rng(8))
        path = self.round_trip(net, tmp_path)
        # loaded network computes identical outputs
        x = rand((3, 1, 8, 8), 43)
        a, _ = forward(net, x)
        b, _ = forward(load_network(path), x)
        np.testing.assert_array_equal(a.array, b.array)

    def test_magic_checked(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        save_network(build_mlp(3, 2, seed=0), path)
        raw = bytearray(open(path, "rb").read())
        raw[0] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_network(path)

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "short.ckpt")
        save_network(build_mlp(3, 2, seed=0), path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-4])
        with pytest.raises(CheckpointError):
            load_network(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "long.ckpt")
        save_network(build_mlp(3, 2, seed=0), path)
        with open(path, "ab") as f:
            f.write(b"\x00" * 8)
        with pytest.raises(CheckpointError, match="trailing"):
            load_network(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        path = str(tmp_path / "nan.ckpt")
        save_network(build_mlp(3, 2, seed=1), path)
        raw = bytearray(open(path, "rb").read())
        raw[-8:] = struct.pack("<d", float("nan"))
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError):
            load_network(path)

    def test_unknown_layer_tag_rejected(self, tmp_path):
        path = str(tmp_path / "tag.ckpt")
        net = build_mlp(3, 2, seed=2)
        save_network(net, path)
        raw = bytearray(open(path, "rb").read())
        # header: magic(5) + rank u32 + dims + seed lo/hi + layer count, then
        # the first layer tag
        off = 5 + 4 + 4 * 1 + 8 + 4
        assert struct.unpack_from("<I", raw, off)[0] == 4  # dense tag
        struct.pack_into("<I", raw, off, 99)
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError, match="tag"):
            load_network(path)

    def test_header_layout(self, tmp_path):
        # magic, rank and dims, seed words, layer count, then per layer its
        # tag and spec fields (dense: units, activation code)
        path = str(tmp_path / "mlp.ckpt")
        save_network(build_mlp(3, 2, seed=5), path)
        raw = open(path, "rb").read()
        head = b"SENS1" + struct.pack("<9I", 1, 3, 5, 0, 2, 4, 2, 1, 4) + struct.pack(
            "<2I", 1, 2
        )
        assert raw[:len(head)] == head
        assert len(raw) == len(head) + 8 * (3 * 2 + 2 + 2 * 1 + 1)

    def test_unknown_activation_code_rejected(self, tmp_path):
        path = str(tmp_path / "act.ckpt")
        save_network(build_mlp(3, 2, seed=2), path)
        raw = bytearray(open(path, "rb").read())
        off = 5 + 4 + 4 * 1 + 8 + 4 + 8  # the first dense record's activation
        assert struct.unpack_from("<I", raw, off)[0] == 1  # relu
        struct.pack_into("<I", raw, off, 9)
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError, match="activation"):
            load_network(path)

    def test_conv_sigmoid_rejected(self, tmp_path):
        path = str(tmp_path / "conv.ckpt")
        save_network(build_conv_net((1, 8, 8), 2, 1, seed=2), path)
        raw = bytearray(open(path, "rb").read())
        # rank 3 and its dims, then the first record: tag, filters, kernel
        # size and the conv activation code
        off = 5 + 4 + 4 * 3 + 8 + 4 + 12
        assert struct.unpack_from("<I", raw, off)[0] == 1  # relu
        struct.pack_into("<I", raw, off, 2)  # sigmoid
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError, match="conv activation"):
            load_network(path)

    @pytest.mark.parametrize("off", [5 + 4, 5 + 4 + 4 * 1 + 8 + 4 + 4])
    def test_uninstantiable_spec_rejected(self, tmp_path, off):
        # a zero input dim, then zero hidden units
        path = str(tmp_path / "spec.ckpt")
        save_network(build_mlp(3, 2, seed=2), path)
        raw = bytearray(open(path, "rb").read())
        struct.pack_into("<I", raw, off, 0)
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError, match="not instantiable"):
            load_network(path)

    @pytest.mark.parametrize("off,was,code", [(33, 1, 0), (45, 2, 3)],
                             ids=["hidden-none", "head-softmax"])
    def test_mismatched_activation_rejected(self, tmp_path, off, was, code):
        # an MLP's hidden relu set to none, or its one-unit sigmoid head set
        # to softmax, which would output 1.0 on every row
        path = str(tmp_path / "act.ckpt")
        save_network(build_mlp(3, 2, seed=2), path)
        raw = bytearray(open(path, "rb").read())
        assert struct.unpack_from("<I", raw, off)[0] == was
        struct.pack_into("<I", raw, off, code)
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError, match="not instantiable"):
            load_network(path)

    def test_error_reports_byte_offset(self, tmp_path):
        path = str(tmp_path / "trunc.ckpt")
        save_network(build_mlp(3, 2, seed=3), path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:7])  # cut inside the header
        with pytest.raises(CheckpointError, match="offset|byte"):
            load_network(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises((CheckpointError, FileNotFoundError)):
            load_network(str(tmp_path / "absent.ckpt"))


@pytest.fixture(scope="module", params=["mlp", "conv"])
def saved_checkpoint(request, tmp_path_factory):
    """(file bytes, header length, a scratch path) of an MLP or conv
    checkpoint."""
    if request.param == "mlp":
        net = build_mlp(3, 2, seed=44)
    else:
        net = build_conv_net((1, 8, 8), 2, 1, seed=45)
    path = str(tmp_path_factory.mktemp("sens1") / "net.ckpt")
    save_network(net, path)
    raw = open(path, "rb").read()
    return raw, len(raw) - 8 * parameter_count(net), path


def load_bytes(path, raw):
    with open(path, "wb") as f:
        f.write(raw)
    return load_network(path)


def loads_or_rejects(path, raw):
    try:
        load_bytes(path, raw)
    except CheckpointError:
        pass


# small values reach the branches (rank, counts, tags, codes); any value can
# land anywhere
U32 = st.one_of(st.integers(0, 8), st.integers(0, 2**32 - 1))


class TestCheckpointParserProperties:
    """A damaged SENS1 file either loads or raises CheckpointError, never
    another exception."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncated_prefix_rejected(self, saved_checkpoint, data):
        raw, _, path = saved_checkpoint
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(CheckpointError):
            load_bytes(path, raw[:cut])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_header_byte_overwritten(self, saved_checkpoint, data):
        raw, head, path = saved_checkpoint
        off = data.draw(st.integers(0, head - 1))
        bad = bytearray(raw)
        bad[off] = data.draw(st.integers(0, 255))
        loads_or_rejects(path, bytes(bad))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_header_word_overwritten(self, saved_checkpoint, data):
        raw, head, path = saved_checkpoint
        # the header's u32 words follow the 5-byte magic
        off = 5 + 4 * data.draw(st.integers(0, (head - 5) // 4 - 1))
        bad = bytearray(raw)
        struct.pack_into("<I", bad, off, data.draw(U32))
        loads_or_rejects(path, bytes(bad))
