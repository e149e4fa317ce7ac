"""Network construction, shape inference, backprop vs finite differences,
and the checkpoint format.

Gradient checks perturb parameters by +-1e-5 and compare the central
difference of the loss against the analytic gradient with the symmetric
relative error |a - n| / max(1e-8, |a| + |n|).
"""

import struct

import numpy as np
import pytest

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
from tinynn.tensor import Shape

from reference import cross_entropy_loss


def rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


def randomize_head(net, seed):
    """Give the zero-initialized output head small nonzero weights so that
    gradient signal reaches every layer in one backward pass."""
    r = Rng(seed)
    head = net.params[-1]
    r.fill_uniform(head["w"].reshape(-1), -0.5, 0.5)
    r.fill_uniform(head["b"], -0.1, 0.1)


def loss_of(net, x, labels):
    out, _ = forward(net, x)
    loss, _ = cross_entropy_loss(out, labels)
    return loss


def analytic_grads(net, x, labels):
    out, cache = forward(net, x, train=True)
    _, dz = cross_entropy_loss(out, labels)
    backward(net, dz, cache)
    return [{k: v.copy() for k, v in g.items()} for g in net.grads]


def fd_check(net, x, labels, n_params, seed, tol, eps=1e-5):
    grads = analytic_grads(net, x, labels)
    coords = []
    for li, p in enumerate(net.params):
        for key, arr in p.items():
            coords.extend((li, key, j) for j in range(arr.size))
    r = Rng(seed)
    picked = (
        coords
        if len(coords) <= n_params
        else [coords[r.randbelow(len(coords))] for _ in range(n_params)]
    )
    worst = 0.0
    for li, key, j in picked:
        flat = net.params[li][key].reshape(-1)
        old = flat[j]
        flat[j] = old + eps
        lp = loss_of(net, x, labels)
        flat[j] = old - eps
        lm = loss_of(net, x, labels)
        flat[j] = old
        numeric = (lp - lm) / (2.0 * eps)
        a = grads[li][key].reshape(-1)[j]
        rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        worst = max(worst, rel)
        assert rel < tol, (
            "layer %d %s[%d]: analytic %r vs numeric %r (rel %r)"
            % (li, key, j, a, numeric, rel)
        )
    return worst


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

    def test_odd_pool_dim_rejected(self):
        with pytest.raises(DimensionError, match="even|odd"):
            NetworkSpec(
                Shape((1, 6, 6)),
                [Conv2DSpec(4, 3, "relu"), MaxPool2DSpec(), MaxPool2DSpec(),
                 MaxPool2DSpec()],
                seed=0,
            )

    def test_conv_builder_requires_divisible_dims(self):
        with pytest.raises(DimensionError):
            build_conv_net((1, 30, 30), 4, 10, seed=0)

    def test_dense_on_unflattened_rejected(self):
        with pytest.raises(DimensionError):
            NetworkSpec(
                Shape((1, 8, 8)), [Conv2DSpec(2, 3), DenseSpec(4)], seed=0
            )

    def test_softmax_only_on_final_dense(self):
        with pytest.raises(ValueError, match="softmax"):
            NetworkSpec(
                Shape((5,)),
                [DenseSpec(4, "softmax"), DenseSpec(2, "softmax")],
                seed=0,
            )

    def test_even_kernel_rejected_at_assembly(self):
        with pytest.raises(DimensionError):
            NetworkSpec(Shape((1, 8, 8)), [Conv2DSpec(4, 6)], seed=0)
        with pytest.raises(DimensionError):
            NetworkSpec(Shape((1, 8, 8)), [Conv2DSpec(4, 4, "relu")], seed=0)


class TestParameterCounts:
    @pytest.mark.parametrize(
        "hidden,want", [(1, 6), (10, 51), (100, 501)]
    )
    def test_mlp_counts(self, hidden, want):
        assert build_mlp(3, hidden, seed=0).parameter_count() == want

    def test_conv_stack_counts(self):
        net = build_conv_net((1, 28, 28), 10, 10, seed=0)
        conv1 = 32 * (1 * 5 * 5) + 32
        conv2 = 64 * (32 * 5 * 5) + 64
        dense1 = 3136 * 10 + 10
        head = 10 * 10 + 10
        assert conv1 == 832
        assert conv2 == 51264
        assert net.parameter_count() == conv1 + conv2 + dense1 + head

    def test_count_matches_shape_walk(self):
        net = build_conv_net((3, 32, 32), 5, 10, seed=1)
        walk = sum(v.size for p in net.params for v in p.values())
        assert net.parameter_count() == walk


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


class TestForward:
    def test_repeated_calls_bit_identical(self):
        net = build_conv_net((1, 8, 8), 3, 10, seed=11)
        randomize_head(net, 1)
        x = rand((5, 1, 8, 8), 12)
        a, _ = forward(net, x)
        b, _ = forward(net, x)
        np.testing.assert_array_equal(a.array, b.array)

    def test_eval_output_matches_train_output(self):
        # eval pools without winner indices; its output must not differ
        net = build_conv_net((1, 8, 8), 3, 10, seed=11)
        randomize_head(net, 1)
        x = np.maximum(rand((5, 1, 8, 8), 12), 0.0)  # zero windows tie in pool
        a, _ = forward(net, x, train=False)
        b, cache = forward(net, x, train=True)
        assert cache is not None
        np.testing.assert_array_equal(a.array, b.array)

    def test_softmax_head_rows_normalized(self):
        net = build_conv_net((1, 8, 8), 3, 10, seed=13)
        randomize_head(net, 2)
        out, _ = forward(net, rand((6, 1, 8, 8), 14))
        np.testing.assert_allclose(out.array.sum(axis=1), np.ones(6), atol=1e-12)

    def test_sample_shape_mismatch(self):
        net = build_mlp(4, 2, seed=0)
        with pytest.raises(DimensionError, match="input shape"):
            forward(net, rand((3, 5), 0))

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


class TestGradients:
    """Finite-difference agreement, layer kind by layer kind."""

    def test_dense_sigmoid_head_tight(self):
        # dense-only stack admits a tighter bound: no kinks in the path
        net = build_mlp(6, 8, seed=21)
        randomize_head(net, 3)
        # soften the relu kink risk: keep preactivations away from zero
        x = rand((10, 6), 22) + 0.5
        labels = np.array([0, 1] * 5)
        fd_check(net, x, labels, n_params=len_params(net), seed=1, tol=1e-6)

    def test_dense_softmax_head_tight(self):
        spec = NetworkSpec(
            Shape((5,)), [DenseSpec(7, "relu"), DenseSpec(4, "softmax")], seed=23
        )
        net = Network(spec)
        randomize_head(net, 4)
        x = rand((9, 5), 24)
        labels = np.array([0, 1, 2, 3, 0, 1, 2, 3, 2])
        fd_check(net, x, labels, n_params=len_params(net), seed=2, tol=1e-6)

    def test_conv_relu_pool_stack(self):
        net = build_conv_net((2, 8, 8), 4, 3, seed=25)
        randomize_head(net, 5)
        x = rand((4, 2, 8, 8), 26)
        labels = np.array([0, 1, 2, 1])
        fd_check(net, x, labels, n_params=250, seed=3, tol=1e-4)

    def test_conv_sigmoid_binary_head(self):
        net = build_conv_net((1, 8, 8), 2, 1, seed=27)
        randomize_head(net, 6)
        x = rand((5, 1, 8, 8), 28)
        labels = np.array([0, 1, 1, 0, 1])
        fd_check(net, x, labels, n_params=200, seed=4, tol=1e-4)

    def test_gradients_all_finite(self):
        net = build_conv_net((1, 8, 8), 3, 5, seed=29)
        randomize_head(net, 7)
        x = rand((3, 1, 8, 8), 30)
        grads = analytic_grads(net, x, np.array([0, 2, 4]))
        for g in grads:
            for v in g.values():
                assert np.isfinite(v).all()


def len_params(net):
    return sum(v.size for p in net.params for v in p.values())


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

    def test_conv_round_trip(self, tmp_path):
        net = build_conv_net((1, 8, 8), 2, 4, seed=42)
        randomize_head(net, 8)
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
