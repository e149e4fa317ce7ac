"""Dense float64 tensors and the numerical kernels built on them.

A Tensor is an immutable wrapper around a C-contiguous float64 ndarray of
rank <= 4 (batch x channel x height x width is the largest layout in use).
Every public operation returns a new Tensor and verifies the result is
finite; NaN or Inf anywhere is raised as NonFiniteError, never passed on.

The raw ndarray kernels (_conv2d, _maxpool2d, ...) are shared with the
layer implementations, which run on unwrapped arrays for speed and rely on
the training loop's divergence check instead of per-op validation. Conv
forward is im2col plus one GEMM; its input gradient is one small GEMM per
kernel tap, scatter-added into a padded buffer. The conv kernels return
[N,C,H,W] views of NHWC memory, and the pool kernels keep that layout, so
the reshapes to [NHW, C] between them are free.
"""

import numpy as np

from .errors import DimensionError, NonFiniteError

_MAX_RANK = 4


class Shape:
    """Ordered positive extents; rank at most 4."""

    __slots__ = ("dims",)

    def __init__(self, dims):
        dims = tuple(int(d) for d in dims)
        if len(dims) == 0 or len(dims) > _MAX_RANK:
            raise DimensionError("rank must be 1..%d, got %r" % (_MAX_RANK, dims))
        if any(d < 1 for d in dims):
            raise DimensionError("extents must be >= 1, got %r" % (dims,))
        self.dims = dims

    @property
    def rank(self):
        return len(self.dims)

    @property
    def count(self):
        n = 1
        for d in self.dims:
            n *= d
        return n

    def __eq__(self, other):
        return isinstance(other, Shape) and self.dims == other.dims

    def __hash__(self):
        return hash(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __getitem__(self, i):
        return self.dims[i]

    def __repr__(self):
        return "Shape(%s)" % (", ".join(str(d) for d in self.dims),)


def _check_finite(arr, op):
    if not np.isfinite(arr).all():
        raise NonFiniteError("%s produced non-finite values" % op)


class Tensor:
    """Immutable float64 array with shape metadata."""

    __slots__ = ("array",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, order="C")
        if arr.ndim == 0:
            arr = arr.reshape(1)
        Shape(arr.shape)  # validates rank and extents
        _check_finite(arr, "Tensor construction")
        arr.flags.writeable = False
        self.array = arr

    @classmethod
    def _wrap(cls, arr):
        """Adopt a freshly computed contiguous float64 array without copying."""
        t = object.__new__(cls)
        arr.flags.writeable = False
        t.array = arr
        return t

    @classmethod
    def zeros(cls, dims):
        return cls._wrap(np.zeros(Shape(dims).dims))

    @classmethod
    def from_flat(cls, dims, flat):
        shape = Shape(dims)
        arr = np.asarray(flat, dtype=np.float64)
        if arr.size != shape.count:
            raise DimensionError(
                "flat length %d does not fill %r" % (arr.size, shape)
            )
        return cls(arr.reshape(shape.dims))

    @property
    def shape(self):
        return Shape(self.array.shape)

    @property
    def flat(self):
        """Row-major flat read-only view of the data."""
        return self.array.reshape(-1)

    def __repr__(self):
        return "Tensor(%r)" % (self.shape,)


def _as_array(t):
    if isinstance(t, Tensor):
        return t.array
    raise TypeError("expected Tensor, got %r" % type(t).__name__)


# ---------------------------------------------------------------------------
# raw ndarray kernels


def _matmul(a, b):
    return a @ b


def _conv2d(x, w, b):
    """Stride-1 same-padding cross-correlation.

    x [N,C,H,W], w [F,C,kh,kw] with odd kh,kw, b [F] -> [N,F,H,W].
    Implemented as im2col + one GEMM; also returns the column matrix so the
    backward pass can reuse it for the kernel gradient.
    """
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    # win is [N,C,H,W,kh,kw]; columns ordered channel-major, window row-major
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * h * wd, c * kh * kw)
    out = cols @ w.reshape(f, -1).T
    out += b
    return out.reshape(n, h, wd, f).transpose(0, 3, 1, 2), cols


def _conv2d_input_grad(dz, w):
    """Gradient of same-padding conv w.r.t. its input.

    dz [N,F,H,W], w [F,C,kh,kw] -> [N,C,H,W]. Each kernel tap (i, j) sends
    dz through one GEMM, dz[NHW,F] @ w[:,:,i,j] -> [NHW,C], added into a
    zero-padded NHWC buffer at offset (i, j); the gradient is its interior.
    """
    n, f, h, wd = dz.shape
    _, c, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    dzmat = dz.transpose(0, 2, 3, 1).reshape(n * h * wd, f)
    taps = w.transpose(2, 3, 0, 1)
    grad = np.zeros((n, h + 2 * ph, wd + 2 * pw, c))
    for i in range(kh):
        for j in range(kw):
            grad[:, i:i + h, j:j + wd] += (dzmat @ taps[i, j]).reshape(n, h, wd, c)
    return grad[:, ph:ph + h, pw:pw + wd].transpose(0, 3, 1, 2)


# window positions in row-major scan order, the order winner indices use
_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def _maxpool2d(x, with_index):
    """Non-overlapping 2x2/stride-2 max pool.

    Returns (pooled [N,C,H/2,W/2], winner). With with_index, winner is an
    int64 [N,C,H/2,W/2] map of the window position 0..3 in row-major scan
    order, ties taking the first position as argmax would; otherwise None.
    """
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise DimensionError(
            "max pool needs even spatial dims, got %dx%d" % (h, w)
        )
    v0, v1, v2, v3 = (x[:, :, a::2, b::2] for a, b in _WINDOW)
    pooled = np.maximum(np.maximum(v0, v1), np.maximum(v2, v3))
    if not with_index:
        return pooled, None
    # the winner is the count of leading positions that miss the max, so the
    # first maximum in scan order wins
    miss = v0 != pooled
    idx = miss.astype(np.int64)
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


def _relu_grad(x):
    return (x > 0.0).astype(np.float64)


def _sigmoid(x):
    # two-branch form: never exponentiates a positive argument
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _softmax_rows(x):
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# public operations


def matmul(a, b):
    """Matrix product of two rank-2 tensors."""
    aa, ba = _as_array(a), _as_array(b)
    if aa.ndim != 2 or ba.ndim != 2:
        raise DimensionError(
            "matmul needs rank-2 operands, got %r x %r" % (a.shape, b.shape)
        )
    if aa.shape[1] != ba.shape[0]:
        raise DimensionError(
            "matmul inner dimensions differ: %r x %r" % (a.shape, b.shape)
        )
    out = _matmul(aa, ba)
    _check_finite(out, "matmul")
    return Tensor._wrap(out)


def conv2d_forward(input, kernels, bias, padding="same"):
    """Stride-1 'same' zero-padded cross-correlation plus per-filter bias."""
    if padding != "same":
        raise ValueError("only 'same' padding is supported, got %r" % (padding,))
    x, w, b = _as_array(input), _as_array(kernels), _as_array(bias)
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(
            "conv2d needs [N,C,H,W] input and [F,C,kh,kw] kernels, got %r and %r"
            % (input.shape, kernels.shape)
        )
    if w.shape[2] % 2 == 0 or w.shape[3] % 2 == 0:
        raise DimensionError("kernel dims must be odd, got %r" % (kernels.shape,))
    if x.shape[1] != w.shape[1]:
        raise DimensionError(
            "input channels %r do not match kernel channels %r"
            % (input.shape, kernels.shape)
        )
    if b.ndim != 1 or b.shape[0] != w.shape[0]:
        raise DimensionError(
            "bias shape %r does not match filter count %r" % (bias.shape, kernels.shape)
        )
    out, _ = _conv2d(x, w, b)
    out = np.ascontiguousarray(out)
    _check_finite(out, "conv2d_forward")
    return Tensor._wrap(out)


def maxpool2d_forward(input, window=2, stride=2):
    """2x2/stride-2 max pool; returns (pooled tensor, winner-index map)."""
    if window != 2 or stride != 2:
        raise ValueError("only window=2, stride=2 pooling is supported")
    x = _as_array(input)
    if x.ndim != 4:
        raise DimensionError("max pool needs [N,C,H,W], got %r" % (input.shape,))
    pooled, idx = _maxpool2d(x, True)
    pooled = np.ascontiguousarray(pooled)
    _check_finite(pooled, "maxpool2d_forward")
    idx.flags.writeable = False
    return Tensor._wrap(pooled), idx


def relu(t):
    return Tensor._wrap(_relu(_as_array(t)))


def relu_grad(t):
    """Derivative mask of relu: 1 where input > 0, else 0 (0 at exactly 0)."""
    return Tensor._wrap(_relu_grad(_as_array(t)))


def sigmoid(t):
    return Tensor._wrap(_sigmoid(_as_array(t)))


def softmax_rows(t):
    a = _as_array(t)
    if a.ndim != 2:
        raise DimensionError("softmax_rows needs rank-2 input, got %r" % (t.shape,))
    return Tensor._wrap(_softmax_rows(a))


def add(a, b):
    """Elementwise sum; rank-1 b broadcasts over the last axis of rank-2 a."""
    aa, ba = _as_array(a), _as_array(b)
    if aa.shape != ba.shape and not (
        aa.ndim == 2 and ba.ndim == 1 and aa.shape[1] == ba.shape[0]
    ):
        raise DimensionError("cannot add %r and %r" % (a.shape, b.shape))
    out = aa + ba
    _check_finite(out, "add")
    return Tensor._wrap(out)


def scale(t, factor):
    out = _as_array(t) * float(factor)
    _check_finite(out, "scale")
    return Tensor._wrap(out)
