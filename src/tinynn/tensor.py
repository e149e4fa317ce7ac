"""Dense float64 tensors and the numerical kernels the layers run.

A Tensor is an immutable wrapper around a C-contiguous float64 ndarray of
rank <= 4 (batch x channel x height x width is the largest layout in use).
Shapes are plain tuples; check_dims holds the rank and extent rule that
Tensor construction and checkpoint headers share. Constructing a Tensor
verifies the values are finite; NaN or Inf is raised as NonFiniteError,
never passed on.

The raw ndarray kernels (_conv2d, _maxpool2d, ...) run on unwrapped arrays
for speed and rely on the training loop's divergence check instead of
per-op validation. Conv forward and its kernel gradient read tap-major
columns, [H,W,kh,kw,C] per image, that _Columns copies from a window view of
a zero-padded NHWC buffer one image at a time, so no whole-batch column
matrix is built or kept; the kernel gradient recomputes them from the layer
input. The input gradient is one stacked GEMM per image, its [HW,F] output
gradient times all kh*kw taps at once, whose per-tap products are
scatter-added in tap order into a padded buffer. Both gradient kernels skip
an image whose output gradient is all zero, as a silent hidden unit leaves
it: its terms are +-0.0 and would leave their +0.0 buffers unchanged. The
conv kernels return [N,C,H,W] views of NHWC memory, and the pool kernels
keep that layout, so the reshapes to [NHW, C] between them are free. A pool
records its winners as a uint8 map of window positions, one byte per
window.

Evaluation keeps no whole-batch arrays: _ImageConv and _image_pool run one
[H,W,C] image at a time through buffers made once per forward call. They
share the columns, the weight matrix (_weight_matrix) and the window max
(_window_max) with the batch kernels, so both paths give the same values
bit for bit.
"""

import numpy as np

from .errors import DimensionError, NonFiniteError

_MAX_RANK = 4


def check_dims(dims):
    """dims as a tuple of ints, rejecting rank outside 1..4 or an extent < 1."""
    dims = tuple(int(d) for d in dims)
    if not 1 <= len(dims) <= _MAX_RANK:
        raise DimensionError("rank must be 1..%d, got %r" % (_MAX_RANK, dims))
    if any(d < 1 for d in dims):
        raise DimensionError("extents must be >= 1, got %r" % (dims,))
    return dims


class Tensor:
    """Immutable float64 array; its shape is the array's shape tuple."""

    __slots__ = ("array",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, order="C")
        if arr.ndim == 0:
            arr = arr.reshape(1)
        check_dims(arr.shape)
        if not np.isfinite(arr).all():
            raise NonFiniteError("Tensor construction produced non-finite values")
        arr.flags.writeable = False
        self.array = arr

    @classmethod
    def _wrap(cls, arr):
        """Adopt a freshly computed contiguous float64 array without copying."""
        t = object.__new__(cls)
        arr.flags.writeable = False
        t.array = arr
        return t

    @property
    def shape(self):
        return self.array.shape

    def __repr__(self):
        return "Tensor(%r)" % (self.shape,)


# ---------------------------------------------------------------------------
# raw ndarray kernels


class _Columns:
    """Tap-major columns of one image at a time, through buffers made once.

    Fill `inp`, the [H,W,C] interior of a zero-padded NHWC buffer, then
    call: returns the image's column matrix [H*W, kh*kw*C], each row one
    output pixel's window, tap-major. The next call overwrites it.
    """

    def __init__(self, c, h, w, kh, kw):
        ph, pw = kh // 2, kw // 2
        padded = np.zeros((h + 2 * ph, w + 2 * pw, c))
        self.inp = padded[ph:ph + h, pw:pw + w]
        self.win = np.lib.stride_tricks.sliding_window_view(
            padded, (kh, kw), axis=(0, 1)
        ).transpose(0, 1, 3, 4, 2)
        self.buf = np.empty(self.win.shape)
        self.mat = self.buf.reshape(h * w, -1)

    def __call__(self):
        np.copyto(self.buf, self.win)
        return self.mat


def _weight_matrix(w):
    """w [F,C,kh,kw] as the [kh*kw*C, F] matrix tap-major columns multiply."""
    return w.transpose(2, 3, 1, 0).reshape(-1, w.shape[0])


def _conv2d(x, w, b):
    """Stride-1 same-padding cross-correlation.

    x [N,C,H,W], w [F,C,kh,kw] with odd kh,kw, b [F] -> [N,F,H,W], a view
    of NHWC memory. Each image's tap-major columns are multiplied by the
    kernel as [kh*kw*C, F].
    """
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    cols = _Columns(c, h, wd, kh, kw)
    wmat = _weight_matrix(w)
    out = np.empty((n, h, wd, f))
    for img, o in zip(x, out):
        cols.inp[...] = img.transpose(1, 2, 0)
        np.matmul(cols(), wmat, out=o.reshape(h * wd, f))
    out += b
    return out.transpose(0, 3, 1, 2)


class _ImageConv:
    """Same-padding conv of one image at a time through buffers made once.

    Call with an [H,W,C] image: it is copied into the padded input, one GEMM
    of its tap-major columns writes the [H*W, F] output, and the bias and
    (with relu) the ReLU are applied in place. Returns the output as
    [H,W,F]; the next call overwrites it.
    """

    def __init__(self, w, b, hw, relu):
        f, c, kh, kw = w.shape
        self.cols = _Columns(c, *hw, kh, kw)
        self.wmat = _weight_matrix(w)
        self.b = b
        self.relu = relu
        self.z = np.empty((hw[0] * hw[1], f))
        self.out = self.z.reshape(hw + (f,))

    def __call__(self, img):
        self.cols.inp[...] = img
        z = self.z
        np.matmul(self.cols(), self.wmat, out=z)
        z += self.b
        if self.relu:
            np.maximum(z, 0.0, out=z)
        return self.out


def _conv2d_kernel_grad(dz, x, kh, kw):
    """Gradient of same-padding conv w.r.t. its kh x kw kernel.

    dz [N,F,H,W] and the layer input x [N,C,H,W] give [F,C,kh,kw]: the sum
    over images of dz_n[HW,F]^T @ the image's tap-major columns. An image
    whose dz_n is all zero adds nothing to the +0.0 start and is skipped:
    no columns, no GEMM.
    """
    _, f, h, wd = dz.shape
    c = x.shape[1]
    cols = _Columns(c, h, wd, kh, kw)
    acc = np.zeros((f, kh * kw * c))
    for img, d in zip(x, dz.transpose(0, 2, 3, 1)):
        if not d.any():
            continue
        cols.inp[...] = img.transpose(1, 2, 0)
        acc += d.reshape(h * wd, f).T @ cols()
    return acc.reshape(f, kh, kw, c).transpose(0, 3, 1, 2)


def _conv2d_input_grad(dz, w):
    """Gradient of same-padding conv w.r.t. its input.

    dz [N,F,H,W], w [F,C,kh,kw] -> [N,C,H,W]. For each image one stacked
    GEMM, dz_n[HW,F] @ the taps [kh*kw,F,C], gives every tap's [HW,C]
    product; tap (i, j)'s is added, in row-major tap order, into the image's
    zero-padded NHWC buffer at offset (i, j). The gradient is the buffers'
    interior. An image whose dz_n is all zero keeps its +0.0 buffer and is
    skipped: no GEMM, no scatter.
    """
    n, f, h, wd = dz.shape
    _, c, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(kh * kw, f, c)
    prods = np.empty((kh * kw, h, wd, c))
    grad = np.zeros((n, h + 2 * ph, wd + 2 * pw, c))
    for g, d in zip(grad, dz.transpose(0, 2, 3, 1)):
        if not d.any():
            continue
        np.matmul(d.reshape(h * wd, f), taps, out=prods.reshape(kh * kw, h * wd, c))
        for (i, j), p in zip(np.ndindex(kh, kw), prods):
            g[i:i + h, j:j + wd] += p
    return grad[:, ph:ph + h, pw:pw + wd].transpose(0, 3, 1, 2)


# window positions in row-major scan order, the order winner indices use
_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def _window_max(v0, v1, v2, v3, out=None):
    """max(max(v0, v1), max(v2, v3)) of the four window positions' views:
    the one order both pool paths take, so ties and signed zeros resolve
    alike. Written into out when given."""
    out = np.maximum(v0, v1, out=out)
    return np.maximum(out, np.maximum(v2, v3), out=out)


def _image_pool(x, out):
    """2x2/stride-2 max pool of one [H,W,C] image into out [H/2,W/2,C];
    returns out."""
    return _window_max(*(x[a::2, b::2] for a, b in _WINDOW), out=out)


def _maxpool2d(x):
    """Non-overlapping 2x2/stride-2 max pool.

    Returns (pooled [N,C,H/2,W/2], winner), winner a uint8 [N,C,H/2,W/2]
    map of the window position 0..3 in row-major scan order, ties taking
    the first position as argmax would.
    """
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise DimensionError(
            "max pool needs even spatial dims, got %dx%d" % (h, w)
        )
    v0, v1, v2, v3 = (x[:, :, a::2, b::2] for a, b in _WINDOW)
    pooled = _window_max(v0, v1, v2, v3)
    # the winner is the count of leading positions that miss the max, so the
    # first maximum in scan order wins
    miss = v0 != pooled
    idx = miss.astype(np.uint8)
    for v in (v1, v2):
        miss &= v != pooled
        idx += miss
    return pooled, idx


def _maxpool2d_grad(dz, idx, h, w):
    """Scatter dz back through the recorded winner positions.

    The result is an [N,C,H,W] view of NHWC memory, the conv output layout.
    """
    n, c = dz.shape[:2]
    grad = np.empty((n, h, w, c)).transpose(0, 3, 1, 2)
    for k, (a, b) in enumerate(_WINDOW):
        grad[:, :, a::2, b::2] = np.where(idx == k, dz, 0.0)
    return grad


def _relu(x):
    return np.maximum(x, 0.0)


def _sigmoid(x):
    # exponentiates -|x| only, never a positive argument, and each side of
    # the where is the same IEEE arithmetic as a branch taken on x >= 0;
    # minimum(x, -x) is -|x| that returns a NaN with its own sign bit
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax_rows(x):
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)
