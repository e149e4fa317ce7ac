"""Dense float64 tensors and the numerical kernels the layers run.

A Tensor is an immutable wrapper around a C-contiguous float64 ndarray of
rank <= 4 (batch x channel x height x width is the largest layout in use).
Shapes are plain tuples; check_dims holds the rank and extent rule that
Tensor construction and checkpoint headers share. Constructing a Tensor
verifies the values are finite; NaN or Inf is raised as NonFiniteError,
never passed on.

The raw ndarray kernels (_conv2d, _maxpool2d, ...) run on unwrapped arrays
for speed and rely on the training loop's divergence check instead of
per-op validation. Each takes an [N,...] batch and loops over its images,
so the layers call them with a one-image batch (N = 1), once per image, and
hand in the buffers they reuse, one set per architecture
(layers._image_buffers), as keyword-only arguments; a kernel makes
whatever buffer it is not given. Conv forward and its kernel gradient read
tap-major columns, [H,W,kh,kw,C] per image, that _Columns copies from a
window view of a zero-padded NHWC buffer; the kernel gradient recomputes
them from the layer input and adds each image's term into an accumulator
that successive calls continue. The input gradient is one GEMM per image
and tap, its [HW,F] output gradient times the tap's [F,C] weights,
scatter-added in tap order into a padded buffer. Both gradient kernels
skip an image whose output gradient is all zero, as a silent hidden unit
leaves it: its terms are +-0.0 and would leave their +0.0 buffers
unchanged. The conv kernels return [N,C,H,W] views of NHWC memory (_nhwc),
and the pool kernels keep that layout, so the reshapes to [NHW, C] between
them are free. A pool records its winners as a uint8 map of window
positions, one byte per window.
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


def _conv_taps(w):
    """w [F,C,kh,kw] as the [kh*kw, F, C] taps the input gradient multiplies."""
    f, c, kh, kw = w.shape
    return np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(kh * kw, f, c)


def _nhwc(shape, dtype=np.float64):
    """An empty array of shape [N,C,H,W], a view of NHWC memory."""
    n, c, h, w = shape
    return np.empty((n, h, w, c), dtype).transpose(0, 3, 1, 2)


def _conv2d(x, w, b, *, cols=None, wmat=None, out=None):
    """Stride-1 same-padding cross-correlation.

    x [N,C,H,W], w [F,C,kh,kw] with odd kh,kw, b [F] -> [N,F,H,W], a view
    of NHWC memory. Each image's tap-major columns are multiplied by the
    kernel as [kh*kw*C, F]. The buffers, made here when not given, are the
    columns (a _Columns for x's image shape and w's taps), the weight matrix
    (_weight_matrix(w)) and the output (an _nhwc array).
    """
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    cols = _Columns(c, h, wd, kh, kw) if cols is None else cols
    wmat = _weight_matrix(w) if wmat is None else wmat
    out = _nhwc((n, f, h, wd)) if out is None else out
    nhwc = out.transpose(0, 2, 3, 1)
    for img, o in zip(x, nhwc):
        cols.inp[...] = img.transpose(1, 2, 0)
        np.matmul(cols(), wmat, out=o.reshape(h * wd, f))
    nhwc += b
    return out


def _conv2d_kernel_grad(dz, x, kh, kw, *, cols=None, prod=None, acc=None):
    """Gradient of same-padding conv w.r.t. its kh x kw kernel.

    dz [N,F,H,W] and the layer input x [N,C,H,W] give [F,C,kh,kw]: the sum
    over images of dz_n[HW,F]^T @ the image's tap-major columns, each
    product written into prod [F, kh*kw*C] and added in image order into
    acc (a +0.0 start when not given), so calls on successive images
    continue one sum. An image whose dz_n is all zero adds nothing and is
    skipped: no columns, no GEMM. Buffers not given are made here.
    """
    _, f, h, wd = dz.shape
    c = x.shape[1]
    cols = _Columns(c, h, wd, kh, kw) if cols is None else cols
    prod = np.empty((f, kh * kw * c)) if prod is None else prod
    acc = np.zeros((f, kh * kw * c)) if acc is None else acc
    for img, d in zip(x, dz.transpose(0, 2, 3, 1)):
        if not d.any():
            continue
        cols.inp[...] = img.transpose(1, 2, 0)
        acc += np.matmul(d.reshape(h * wd, f).T, cols(), out=prod)
    return acc.reshape(f, kh, kw, c).transpose(0, 3, 1, 2)


def _conv2d_input_grad(dz, w, *, taps=None, prod=None, out=None):
    """Gradient of same-padding conv w.r.t. its input.

    dz [N,F,H,W], w [F,C,kh,kw] -> [N,C,H,W]. For each image and each tap
    (i, j) in row-major order, the GEMM dz_n[HW,F] @ w[:,:,i,j] writes its
    [HW,C] product into prod [H,W,C], which is added into the image's
    zero-padded NHWC buffer in out [N,H+kh-1,W+kw-1,C] at offset (i, j). The
    gradient is the buffers' interior. The taps are read from
    _conv_taps(w). An image whose dz_n is all zero keeps its +0.0 buffer and
    is skipped: no GEMM, no scatter. Buffers not given are made here.
    """
    n, f, h, wd = dz.shape
    _, c, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    taps = _conv_taps(w) if taps is None else taps
    prod = np.empty((h, wd, c)) if prod is None else prod
    out = np.empty((n, h + 2 * ph, wd + 2 * pw, c)) if out is None else out
    out[...] = 0.0
    for g, d in zip(out, dz.transpose(0, 2, 3, 1)):
        if not d.any():
            continue
        d = d.reshape(h * wd, f)
        for (i, j), t in zip(np.ndindex(kh, kw), taps):
            np.matmul(d, t, out=prod.reshape(h * wd, c))
            g[i:i + h, j:j + wd] += prod
    return out[:, ph:ph + h, pw:pw + wd].transpose(0, 3, 1, 2)


# window positions in row-major scan order, the order winner indices use
_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def _maxpool2d(x, *, out=None, idx=None, winners=True):
    """Non-overlapping 2x2/stride-2 max pool.

    Returns (pooled [N,C,H/2,W/2], winner), winner a uint8 [N,C,H/2,W/2]
    map of the window position 0..3 in row-major scan order, ties taking
    the first position as argmax would. The maximum is max(max(v0, v1),
    max(v2, v3)) of the four positions' views. out and idx are the buffers
    the two are written into, made here when not given; with winners=False
    the winner map is not computed and None is returned for it.
    """
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise DimensionError(
            "max pool needs even spatial dims, got %dx%d" % (h, w)
        )
    v0, v1, v2, v3 = (x[:, :, a::2, b::2] for a, b in _WINDOW)
    pooled = np.maximum(v0, v1, out=out)
    np.maximum(pooled, np.maximum(v2, v3), out=pooled)
    if not winners:
        return pooled, None
    # the winner is the count of leading positions that miss the max, so the
    # first maximum in scan order wins
    miss = v0 != pooled
    idx = np.empty_like(pooled, np.uint8) if idx is None else idx
    np.copyto(idx, miss)
    for v in (v1, v2):
        miss &= v != pooled
        idx += miss
    return pooled, idx


def _maxpool2d_grad(dz, idx, h, w, *, out=None):
    """Scatter dz back through the recorded winner positions.

    The result is an [N,C,H,W] view of NHWC memory, the conv output layout,
    written into out when given.
    """
    n, c = dz.shape[:2]
    grad = _nhwc((n, c, h, w)) if out is None else out
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
