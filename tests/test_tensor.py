"""Tensor wrapper semantics plus loop-oracle checks of every kernel the
layers run.

The oracles are deliberately naive quadruple loops; the vectorized kernels
must agree with them to near machine precision.
"""

import math

import numpy as np
import pytest

from tinynn import layers, tensor
from tinynn.errors import DimensionError, NonFiniteError
from tinynn.layers import (
    Conv2DSpec,
    DenseSpec,
    FlattenSpec,
    MaxPool2DSpec,
    NetworkSpec,
    backward,
    build_conv_net,
    build_mlp,
    forward,
)
from tinynn.tensor import Tensor, check_dims

from reference import EDGE_LOGITS, two_branch_sigmoid


def rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


class TestShape:
    def test_basic_properties(self):
        # shapes are plain tuples of Python ints
        dims = check_dims(np.array([2, 3, 4]))
        assert dims == (2, 3, 4) and type(dims) is tuple
        assert all(type(d) is int for d in dims)
        assert Tensor(np.zeros((2, 3))).shape == (2, 3)
        shape = build_conv_net(np.array([1, 8, 8]), 2, 1, seed=0).spec.input_shape
        assert shape == (1, 8, 8) and all(type(d) is int for d in shape)
        assert build_mlp(np.int64(5), 4, seed=0).spec.input_shape == (5,)

    @pytest.mark.parametrize("dims", [(), (1, 2, 3, 4, 5), (0,), (3, -1)])
    def test_rejects_bad_dims(self, dims):
        message = "rank must be" if not 1 <= len(dims) <= 4 else "extents must be"
        with pytest.raises(DimensionError, match=message):
            check_dims(dims)
        with pytest.raises(DimensionError, match=message):
            build_conv_net(dims, 2, 1, seed=0)
        if len(dims) == 1:
            with pytest.raises(DimensionError, match=message):
                build_mlp(dims[0], 2, seed=0)


class TestTensor:
    def test_copies_input(self):
        src = np.ones((2, 2))
        t = Tensor(src)
        src[0, 0] = 99.0
        assert t.array[0, 0] == 1.0

    def test_read_only(self):
        t = Tensor([[1.0, 2.0]])
        with pytest.raises(ValueError):
            t.array[0, 0] = 5.0

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, float("nan")])
        with pytest.raises(NonFiniteError):
            Tensor([float("inf")])

    def test_scalar_promotes_to_rank_one(self):
        assert Tensor(3.5).shape == (1,)


class TestMatmul:
    def test_against_loop_oracle(self):
        # the dense layer's product, x[N,D] @ w[D,U]
        a, b = rand((7, 5), 0), rand((5, 4), 1)
        want = np.zeros((7, 4))
        for i in range(7):
            for j in range(4):
                for k in range(5):
                    want[i, j] += a[i, k] * b[k, j]
        got = layers._dense(a, {"w": b, "b": np.zeros(4)})
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def nhwc(a):
    """The same [N,C,H,W] values as a view of NHWC memory, the layout the
    conv kernels return."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def conv_oracle(x, w, b):
    """Direct quadruple-loop stride-1 same-padding cross-correlation."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((n, f, h, wd))
    for ni in range(n):
        for fi in range(f):
            for i in range(h):
                for j in range(wd):
                    acc = b[fi]
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                ii, jj = i + u - ph, j + v - pw
                                if 0 <= ii < h and 0 <= jj < wd:
                                    acc += x[ni, ci, ii, jj] * w[fi, ci, u, v]
                    out[ni, fi, i, j] = acc
    return out


class TestConv2D:
    @pytest.mark.parametrize("kh,kw", [(1, 1), (3, 3), (5, 5), (3, 5)])
    def test_against_loop_oracle(self, kh, kw):
        # C=1 is conv1's input; the NHWC view is the layout pooling hands conv2
        for n, c in [(2, 1), (2, 3), (1, 3)]:
            x = rand((n, c, 6, 7), 10)
            w = rand((4, c, kh, kw), 11)
            b = rand((4,), 12)
            want = conv_oracle(x, w, b)
            for layout in (np.asarray, nhwc):
                got = tensor._conv2d(layout(x), w, b)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_output_shape_matches_input(self):
        x, w = rand((1, 1, 9, 9), 0), rand((6, 1, 5, 5), 1)
        assert tensor._conv2d(x, w, np.zeros(6)).shape == (1, 6, 9, 9)


def conv_input_grad_oracle(dz, w):
    """Adjoint of conv_oracle in its input: every output pixel's upstream
    value flows back along each tap to the input pixel that tap read."""
    n, f, h, wd = dz.shape
    _, c, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((n, c, h, wd))
    for ni in range(n):
        for fi in range(f):
            for i in range(h):
                for j in range(wd):
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                ii, jj = i + u - ph, j + v - pw
                                if 0 <= ii < h and 0 <= jj < wd:
                                    out[ni, ci, ii, jj] += dz[ni, fi, i, j] * w[fi, ci, u, v]
    return out


class TestConv2DInputGrad:
    @pytest.mark.parametrize("layout", [np.asarray, nhwc])
    @pytest.mark.parametrize("kh,kw", [(1, 1), (3, 3), (5, 5), (3, 5)])
    def test_against_loop_oracle(self, kh, kw, layout):
        dz = rand((2, 4, 6, 7), 13)
        w = rand((4, 3, kh, kw), 14)
        got = tensor._conv2d_input_grad(layout(dz), w)
        assert got.shape == (2, 3, 6, 7)
        np.testing.assert_allclose(
            got, conv_input_grad_oracle(dz, w), rtol=0, atol=1e-12
        )


def conv_kernel_grad_oracle(x, dz, kh, kw):
    """Adjoint of conv_oracle in its kernel: each tap's gradient sums the
    upstream values times the input pixels that tap read."""
    n, c, h, wd = x.shape
    f = dz.shape[1]
    ph, pw = kh // 2, kw // 2
    out = np.zeros((f, c, kh, kw))
    for ni in range(n):
        for fi in range(f):
            for i in range(h):
                for j in range(wd):
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                ii, jj = i + u - ph, j + v - pw
                                if 0 <= ii < h and 0 <= jj < wd:
                                    out[fi, ci, u, v] += dz[ni, fi, i, j] * x[ni, ci, ii, jj]
    return out


class TestConv2DKernelGrad:
    @pytest.mark.parametrize("layout", [np.asarray, nhwc])
    @pytest.mark.parametrize("kh,kw", [(1, 1), (3, 3), (5, 5), (3, 5)])
    def test_against_loop_oracle(self, kh, kw, layout):
        x = rand((2, 3, 6, 7), 15)
        dz = rand((2, 4, 6, 7), 16)
        out = tensor._conv2d_kernel_grad(layout(dz), layout(x), kh, kw)
        assert out.shape == (4, 3, kh, kw)
        np.testing.assert_allclose(
            out, conv_kernel_grad_oracle(x, dz, kh, kw), rtol=0, atol=1e-12
        )


def pool_oracle(x):
    n, c, h, w = x.shape
    ho, wo = h // 2, w // 2
    out = np.zeros((n, c, ho, wo))
    idx = np.zeros((n, c, ho, wo), dtype=np.int64)
    for ni in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    vals = [
                        x[ni, ci, 2 * i, 2 * j],
                        x[ni, ci, 2 * i, 2 * j + 1],
                        x[ni, ci, 2 * i + 1, 2 * j],
                        x[ni, ci, 2 * i + 1, 2 * j + 1],
                    ]
                    best = 0
                    for k in range(1, 4):
                        if vals[k] > vals[best]:
                            best = k
                    out[ni, ci, i, j] = vals[best]
                    idx[ni, ci, i, j] = best
    return out, idx


def pool_grad_oracle(dz, idx, h, w):
    n, c, ho, wo = dz.shape
    out = np.zeros((n, c, h, w))
    for ni in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    k = idx[ni, ci, i, j]
                    out[ni, ci, 2 * i + k // 2, 2 * j + k % 2] = dz[ni, ci, i, j]
    return out


def relu_nhwc_input():
    """A pool input laid out as the conv stack produces it: ReLU output in
    NHWC memory viewed as [N,C,H,W], with all-zero windows (four-way ties)."""
    x = np.maximum(rand((3, 2, 8, 6), 23), 0.0)
    x[:, :, :2, :2] = 0.0
    x[1, 0, 4:6, 2:4] = 0.0
    x = nhwc(x)
    assert not x.flags.c_contiguous
    return x


POOL_INPUTS = (lambda: rand((3, 2, 8, 6), 20), relu_nhwc_input)


class TestMaxPool:
    def test_against_loop_oracle(self):
        for make in POOL_INPUTS:
            x = make()
            want, widx = pool_oracle(x)
            pooled, idx = tensor._maxpool2d(x)
            np.testing.assert_array_equal(pooled, want)
            assert idx.dtype == np.uint8
            np.testing.assert_array_equal(idx, widx)

    def test_ties_take_first_in_scan_order(self):
        # channel 0: four-way tie at 0; channel 1: three-way tie at 7
        x = np.array([[[[0.0, 0.0], [0.0, 0.0]], [[1.0, 7.0], [7.0, 7.0]]]])
        for layout in (np.asarray, nhwc):
            pooled, idx = tensor._maxpool2d(layout(x))
            np.testing.assert_array_equal(idx[0, :, 0, 0], [0, 1])
            np.testing.assert_array_equal(pooled[0, :, 0, 0], [0.0, 7.0])

    def test_only_2x2_stride_2(self):
        with pytest.raises(DimensionError, match="2x2"):
            NetworkSpec((1, 6, 6), [
                Conv2DSpec(2, 3, "relu"), MaxPool2DSpec(3, 3), Conv2DSpec(2, 3, "relu"),
                MaxPool2DSpec(), FlattenSpec(), DenseSpec(2, "relu"), DenseSpec(1, "sigmoid"),
            ], seed=0)

    def test_scatter_grad_inverts_pool(self):
        for make in POOL_INPUTS:
            x = make()
            pooled, idx = tensor._maxpool2d(x)
            dz = rand(pooled.shape, 22)
            back = tensor._maxpool2d_grad(dz, idx, 8, 6)
            assert back.shape == x.shape
            # every window routes its upstream value to exactly the winner
            np.testing.assert_allclose(
                back.sum(axis=(2, 3)), dz.sum(axis=(2, 3)), atol=1e-12
            )
            np.testing.assert_array_equal(back, pool_grad_oracle(dz, idx, 8, 6))


class TestPointwise:
    def test_relu_clamps_negatives(self):
        x = np.array([[-2.0, 0.0, 3.5]])
        np.testing.assert_array_equal(tensor._relu(x), [[0.0, 0.0, 3.5]])

    def test_relu_grad_zero_at_zero(self):
        # hidden pre-activations -1, 0 and 2 behind a head of ones: backward
        # passes the gradient through the third unit only
        net = build_mlp(1, 3, seed=0)
        net.params[0]["w"][...] = 0.0
        net.params[0]["b"][...] = [-1.0, 0.0, 2.0]
        net.params[1]["w"][...] = 1.0
        _, cache = forward(net, np.ones((1, 1)), train=True)
        np.testing.assert_array_equal(cache[0]["z"], [[-1.0, 0.0, 2.0]])
        grads = backward(net, np.ones((1, 1)), cache)
        np.testing.assert_array_equal(grads[0]["b"], [0.0, 0.0, 1.0])

    def test_sigmoid_known_values(self):
        got = tensor._sigmoid(np.array([0.0, 2.0, -2.0]))
        assert got[0] == 0.5
        assert got[1] == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-15)
        assert got[2] == pytest.approx(1.0 - got[1], abs=1e-15)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        got = tensor._sigmoid(np.array([-745.0, 745.0, -1e8, 1e8]))
        assert np.isfinite(got).all()
        assert got[0] >= 0.0 and got[1] <= 1.0

    @pytest.mark.parametrize("x", [
        EDGE_LOGITS, rand((1000,), 32) * 40.0, rand((4, 32, 1), 33) * 10.0,
    ], ids=["edges", "random", "stacked"])
    def test_sigmoid_bytes_equal_the_two_branch_form(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = tensor._sigmoid(x), two_branch_sigmoid(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_sigmoid_symmetry(self):
        z = rand((100,), 3)
        s, sn = tensor._sigmoid(z), tensor._sigmoid(-z)
        np.testing.assert_allclose(s + sn, np.ones_like(z), atol=1e-15)

    def test_softmax_rows_normalize(self):
        got = tensor._softmax_rows(rand((5, 7), 30))
        np.testing.assert_allclose(got.sum(axis=1), np.ones(5), atol=1e-12)
        assert (got > 0).all()

    def test_softmax_shift_invariant_and_stable(self):
        x = rand((3, 4), 31)
        a = tensor._softmax_rows(x)
        b = tensor._softmax_rows(x + 1000.0)
        np.testing.assert_allclose(a, b, atol=1e-12)
        huge = tensor._softmax_rows(np.array([[1e6, 0.0, -1e6]]))
        assert np.isfinite(huge).all()
