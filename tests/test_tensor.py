"""Tensor wrapper semantics plus loop-oracle checks of every kernel.

The oracles are deliberately naive quadruple loops; the vectorized kernels
must agree with them to near machine precision.
"""

import math

import numpy as np
import pytest

from tinynn import tensor
from tinynn.errors import DimensionError, NonFiniteError
from tinynn.tensor import Shape, Tensor


def rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


class TestShape:
    def test_basic_properties(self):
        s = Shape((2, 3, 4))
        assert s.rank == 3
        assert s.count == 24
        assert tuple(s) == (2, 3, 4)
        assert s[1] == 3

    def test_equality_and_hash(self):
        assert Shape((2, 3)) == Shape((2, 3))
        assert Shape((2, 3)) != Shape((3, 2))
        assert hash(Shape((5,))) == hash(Shape((5,)))

    @pytest.mark.parametrize("dims", [(), (1, 2, 3, 4, 5), (0,), (3, -1)])
    def test_rejects_bad_dims(self, dims):
        with pytest.raises(DimensionError):
            Shape(dims)


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
        assert Tensor(3.5).shape == Shape((1,))

    def test_from_flat_round_trip(self):
        t = Tensor.from_flat((2, 3), [1, 2, 3, 4, 5, 6])
        assert t.array[1, 2] == 6.0
        assert list(t.flat) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_from_flat_length_mismatch(self):
        with pytest.raises(DimensionError):
            Tensor.from_flat((2, 2), [1.0, 2.0, 3.0])

    def test_zeros(self):
        t = Tensor.zeros((3, 2))
        assert t.array.sum() == 0.0
        assert t.shape == Shape((3, 2))


class TestMatmul:
    def test_against_loop_oracle(self):
        a, b = rand((7, 5), 0), rand((5, 4), 1)
        want = np.zeros((7, 4))
        for i in range(7):
            for j in range(4):
                for k in range(5):
                    want[i, j] += a[i, k] * b[k, j]
        got = tensor.matmul(Tensor(a), Tensor(b)).array
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_inner_dim_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"Shape\(2, 3\).*Shape\(4, 2\)"):
            tensor.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_rank_check(self):
        with pytest.raises(DimensionError):
            tensor.matmul(Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros((2, 2))))


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
        x = rand((2, 3, 6, 7), 10)
        w = rand((4, 3, kh, kw), 11)
        b = rand((4,), 12)
        got = tensor.conv2d_forward(Tensor(x), Tensor(w), Tensor(b)).array
        np.testing.assert_allclose(got, conv_oracle(x, w, b), rtol=0, atol=1e-12)

    def test_output_shape_matches_input(self):
        out = tensor.conv2d_forward(
            Tensor(rand((1, 1, 9, 9), 0)),
            Tensor(rand((6, 1, 5, 5), 1)),
            Tensor(np.zeros(6)),
        )
        assert out.shape == Shape((1, 6, 9, 9))

    def test_even_kernel_rejected(self):
        with pytest.raises(DimensionError, match="odd"):
            tensor.conv2d_forward(
                Tensor(rand((1, 1, 4, 4), 0)),
                Tensor(rand((1, 1, 2, 2), 1)),
                Tensor(np.zeros(1)),
            )

    def test_channel_mismatch_named(self):
        with pytest.raises(DimensionError, match="channels"):
            tensor.conv2d_forward(
                Tensor(rand((1, 2, 4, 4), 0)),
                Tensor(rand((1, 3, 3, 3), 1)),
                Tensor(np.zeros(1)),
            )

    def test_bias_length_checked(self):
        with pytest.raises(DimensionError, match="bias"):
            tensor.conv2d_forward(
                Tensor(rand((1, 1, 4, 4), 0)),
                Tensor(rand((2, 1, 3, 3), 1)),
                Tensor(np.zeros(3)),
            )

    def test_only_same_padding(self):
        with pytest.raises(ValueError, match="same"):
            tensor.conv2d_forward(
                Tensor(rand((1, 1, 4, 4), 0)),
                Tensor(rand((1, 1, 3, 3), 1)),
                Tensor(np.zeros(1)),
                padding="valid",
            )


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


def nhwc(a):
    """The same [N,C,H,W] values as a view of NHWC memory, the layout the
    conv kernels return."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


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
            got, gidx = tensor.maxpool2d_forward(Tensor(x))
            np.testing.assert_array_equal(got.array, want)
            np.testing.assert_array_equal(gidx, widx)
            pooled, idx = tensor._maxpool2d(x, True)
            np.testing.assert_array_equal(pooled, want)
            np.testing.assert_array_equal(idx, widx)
            pooled, idx = tensor._maxpool2d(x, False)
            np.testing.assert_array_equal(pooled, want)
            assert idx is None

    def test_ties_take_first_in_scan_order(self):
        # channel 0: four-way tie at 0; channel 1: three-way tie at 7
        x = np.array([[[[0.0, 0.0], [0.0, 0.0]], [[1.0, 7.0], [7.0, 7.0]]]])
        for layout in (np.asarray, nhwc):
            pooled, idx = tensor._maxpool2d(layout(x), True)
            np.testing.assert_array_equal(idx[0, :, 0, 0], [0, 1])
            np.testing.assert_array_equal(pooled[0, :, 0, 0], [0.0, 7.0])
            pooled, _ = tensor._maxpool2d(layout(x), False)
            np.testing.assert_array_equal(pooled[0, :, 0, 0], [0.0, 7.0])
        _, idx = tensor.maxpool2d_forward(Tensor(x))
        np.testing.assert_array_equal(idx[0, :, 0, 0], [0, 1])

    def test_odd_dims_rejected(self):
        with pytest.raises(DimensionError, match="even"):
            tensor.maxpool2d_forward(Tensor(rand((1, 1, 5, 4), 0)))

    def test_only_2x2_stride_2(self):
        with pytest.raises(ValueError):
            tensor.maxpool2d_forward(Tensor(rand((1, 1, 4, 4), 0)), window=3)

    def test_scatter_grad_inverts_pool(self):
        for make in POOL_INPUTS:
            x = make()
            pooled, idx = tensor._maxpool2d(x, True)
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
        np.testing.assert_array_equal(
            tensor.relu(Tensor(x)).array, [[0.0, 0.0, 3.5]]
        )

    def test_relu_grad_zero_at_zero(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        np.testing.assert_array_equal(
            tensor.relu_grad(Tensor(x)).array, [[0.0, 0.0, 1.0]]
        )

    def test_sigmoid_known_values(self):
        got = tensor.sigmoid(Tensor([0.0, 2.0, -2.0])).array
        assert got[0] == 0.5
        assert got[1] == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-15)
        assert got[2] == pytest.approx(1.0 - got[1], abs=1e-15)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        got = tensor.sigmoid(Tensor([-745.0, 745.0, -1e8, 1e8])).array
        assert np.isfinite(got).all()
        assert got[0] >= 0.0 and got[1] <= 1.0

    def test_sigmoid_symmetry(self):
        z = rand((100,), 3)
        s = tensor.sigmoid(Tensor(z)).array
        sn = tensor.sigmoid(Tensor(-z)).array
        np.testing.assert_allclose(s + sn, np.ones_like(z), atol=1e-15)

    def test_softmax_rows_normalize(self):
        x = rand((5, 7), 30)
        got = tensor.softmax_rows(Tensor(x)).array
        np.testing.assert_allclose(got.sum(axis=1), np.ones(5), atol=1e-12)
        assert (got > 0).all()

    def test_softmax_shift_invariant_and_stable(self):
        x = rand((3, 4), 31)
        a = tensor.softmax_rows(Tensor(x)).array
        b = tensor.softmax_rows(Tensor(x + 1000.0)).array
        np.testing.assert_allclose(a, b, atol=1e-12)
        huge = tensor.softmax_rows(Tensor(np.array([[1e6, 0.0, -1e6]]))).array
        assert np.isfinite(huge).all()

    def test_softmax_needs_rank_two(self):
        with pytest.raises(DimensionError):
            tensor.softmax_rows(Tensor([1.0, 2.0]))


class TestAddScale:
    def test_elementwise_add(self):
        a, b = rand((3, 4), 40), rand((3, 4), 41)
        np.testing.assert_allclose(
            tensor.add(Tensor(a), Tensor(b)).array, a + b, atol=0
        )

    def test_bias_broadcast(self):
        a, b = rand((3, 4), 42), rand((4,), 43)
        np.testing.assert_allclose(
            tensor.add(Tensor(a), Tensor(b)).array, a + b, atol=0
        )

    def test_shape_mismatch_names_both(self):
        with pytest.raises(DimensionError, match=r"Shape\(3, 4\).*Shape\(2, 4\)"):
            tensor.add(Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4))))

    def test_scale(self):
        a = rand((2, 2), 44)
        np.testing.assert_allclose(tensor.scale(Tensor(a), -2.5).array, a * -2.5)

    def test_overflow_raises(self):
        big = Tensor(np.full((2, 2), 1e308))
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError):
                tensor.add(big, big)

    def test_rejects_bare_arrays(self):
        with pytest.raises(TypeError):
            tensor.matmul(np.zeros((2, 2)), Tensor(np.zeros((2, 2))))
