"""Layer stack: declarative specs, parameter init, forward/backward, checkpoints.

NetworkSpec accepts exactly the two architectures the experiments use, and
its one walk over the layers makes every check and gives the shapes the
initializer and the checkpoint reader use:

- over flat [D] input, Dense(h, relu) then Dense(k, head) (build_mlp);
- over [C,H,W] input, Conv(f1, k1, relu), MaxPool(2, 2), Conv(f2, k2,
  relu), MaxPool(2, 2), Flatten, Dense(h, relu), Dense(k, head)
  (build_conv_net).

The head is a single sigmoid unit for k = 1 and a softmax for k > 1, since
train picks its loss from output_units alone. Input sizes, filter counts,
odd kernel sizes and the hidden width are free.

The image layers (the two conv and pool pairs and the flatten) run one
image at a time, forward and backward, in training as in evaluation,
through one-image buffers made once per architecture (_image_buffers) and
shared by every network of it; only the dense layers take the whole batch.
A training step's batch-sized arrays are the cache backward reads: the
conv inputs, the pool winners and the ReLU masks. The per-image gradients
continue the sums a whole-batch pass would take, so every value equals
that pass's, bit for bit (but for the bias gradient of a conv with a
single filter; see _backward_images).

A Network holds its spec and parameters only. backward() returns each
step's gradients as new arrays, which training.sgd_step applies, so a
loaded or trained network keeps no gradient buffers. The loss layer hands
backward() the gradient with respect to the final layer's pre-activation
logits (the fused softmax and sigmoid cross-entropy forms), so the output
activation's local derivative is never applied separately.

Trial stacks: the parameters of T same-shaped dense networks can carry a
leading trial axis (a dense w of [T, in, out], b of [T, out]). forward and
backward then take [T, batch, ...] arrays and run one matmul per layer for
all T; a network without that axis runs the same lines.
"""

import functools
import math
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import CheckpointError, DimensionError
from .rng import Rng
from .tensor import (
    Tensor,
    _Columns,
    _conv2d,
    _conv2d_input_grad,
    _conv2d_kernel_grad,
    _conv_taps,
    _maxpool2d,
    _maxpool2d_grad,
    _nhwc,
    _relu,
    _sigmoid,
    _softmax_rows,
    _weight_matrix,
    check_dims,
)

ACTIVATIONS = ("none", "relu", "sigmoid", "softmax")


@dataclass(frozen=True)
class Conv2DSpec:
    filters: int
    kernel_size: int
    activation: str


@dataclass(frozen=True)
class MaxPool2DSpec:
    window: int = 2
    stride: int = 2


@dataclass(frozen=True)
class FlattenSpec:
    pass


@dataclass(frozen=True)
class DenseSpec:
    units: int
    activation: str


# the layer kinds of the two architectures, by input rank
_ARCHITECTURES = {
    1: (DenseSpec, DenseSpec),
    3: (Conv2DSpec, MaxPool2DSpec, Conv2DSpec, MaxPool2DSpec, FlattenSpec, DenseSpec,
        DenseSpec),
}


class NetworkSpec:
    """Input shape plus one of the two layer lists (see the module
    docstring), checked in one walk.

    The layer kinds must match the input's rank first. Then, layer by layer,
    so the first faulty layer raises, the walk checks the layer's own fields
    and its input shape, and records its output shape (layer_shapes, no
    batch axis) and its parameters' {name: shape} in storage order
    (param_shapes).
    """

    def __init__(self, input_shape, layers, seed):
        self.input_shape = check_dims(input_shape)
        self.layers = list(layers)
        self.seed = int(seed)
        kinds = _ARCHITECTURES.get(len(self.input_shape), ())
        if tuple(map(type, self.layers)) != kinds:
            raise DimensionError(
                "layers must be Dense, Dense over [D] input or Conv2D, MaxPool2D, "
                "Conv2D, MaxPool2D, Flatten, Dense, Dense over [C,H,W] input; got %s "
                "over %r" % ([type(x).__name__ for x in self.layers], self.input_shape)
            )
        # the conv, pool and flatten layers, which run one image at a time
        self.image_layers = len(kinds) - 2
        self.layer_shapes, self.param_shapes = [], []
        cur = self.input_shape
        for i, spec in enumerate(self.layers):
            params = {}
            if isinstance(spec, Conv2DSpec):
                if spec.filters < 1 or spec.kernel_size < 1:
                    raise DimensionError("conv filters and kernel size must be >= 1")
                if spec.kernel_size % 2 == 0:
                    raise DimensionError("conv kernel size must be odd for same padding")
                if spec.activation != "relu":
                    raise DimensionError(
                        "conv activation must be relu, got %r" % (spec.activation,)
                    )
                k = spec.kernel_size
                params = {"w": (spec.filters, cur[0], k, k), "b": (spec.filters,)}
                cur = (spec.filters, cur[1], cur[2])
            elif isinstance(spec, MaxPool2DSpec):
                if spec.window != 2 or spec.stride != 2:
                    raise DimensionError("only 2x2/stride-2 pooling is supported")
                if cur[1] % 2 or cur[2] % 2:
                    raise DimensionError(
                        "pool input %dx%d has an odd dimension" % (cur[1], cur[2])
                    )
                cur = (cur[0], cur[1] // 2, cur[2] // 2)
            elif isinstance(spec, FlattenSpec):
                cur = (math.prod(cur),)
            else:  # Dense: the hidden layer, then the head
                if spec.units < 1:
                    raise DimensionError("dense units must be >= 1")
                head = i == len(self.layers) - 1
                want = "relu" if not head else "sigmoid" if spec.units == 1 else "softmax"
                if spec.activation != want:
                    raise DimensionError("%s activation must be %s, got %r" % (
                        "a %d-unit head's" % spec.units if head else "hidden",
                        want, spec.activation))
                params = {"w": (cur[0], spec.units), "b": (spec.units,)}
                cur = (spec.units,)
            self.layer_shapes.append(cur)
            self.param_shapes.append(params)

    @property
    def output_units(self):
        return self.layer_shapes[-1][0]


class Network:
    """A NetworkSpec and its parameters, one {name: array} dict per layer."""

    def __init__(self, spec, params=None):
        self.spec = spec
        self.params = params if params is not None else _init_params(spec)

    @property
    def lanes(self):
        """The leading trial axes of the parameters: () for one network,
        (T,) for a stack of T trials."""
        for p in self.params:
            if p:
                return p["b"].shape[:-1]
        return ()

    def lane(self, index):
        """The trials `index` (an int or a slice) of a stack, as a network
        that shares their parameters."""
        return Network(
            self.spec, [{k: v[index] for k, v in p.items()} for p in self.params]
        )


def _init_params(spec):
    """He-style uniform fan-in init, biases zero, from the spec's seed.

    The output head (final dense layer) starts at exactly zero instead, so a
    binary task and its label-swapped twin follow mirrored trajectories.
    """
    rng = Rng(spec.seed)
    params = []
    for i, shapes in enumerate(spec.param_shapes):
        p = {name: np.zeros(shape) for name, shape in shapes.items()}
        if p and i < len(spec.layers) - 1:
            # fan-in: weights per output unit
            bound = np.sqrt(6.0 / (p["w"].size // p["b"].size))
            rng.fill_uniform(p["w"].reshape(-1), -bound, bound)
        params.append(p)
    return params


def build_conv_net(input_shape, hidden_units, output_units, seed):
    """The fixed conv stack: 32 then 64 5x5 filters, each pooled 2x2, then a
    ReLU hidden layer of the given width and a probability head."""
    head = "softmax" if output_units > 1 else "sigmoid"
    spec = NetworkSpec(
        input_shape,
        [
            Conv2DSpec(32, 5, "relu"),
            MaxPool2DSpec(),
            Conv2DSpec(64, 5, "relu"),
            MaxPool2DSpec(),
            FlattenSpec(),
            DenseSpec(hidden_units, "relu"),
            DenseSpec(output_units, head),
        ],
        seed,
    )
    return Network(spec)


def build_mlp(input_dim, hidden_units, seed):
    """One ReLU hidden layer over flat input, single sigmoid output unit."""
    spec = NetworkSpec(
        (input_dim,),
        [DenseSpec(hidden_units, "relu"), DenseSpec(1, "sigmoid")],
        seed,
    )
    return Network(spec)


def _apply_activation(act, z):
    if act == "relu":
        return _relu(z)
    if act == "sigmoid":
        return _sigmoid(z)
    return _softmax_rows(z)


def _dense(x, p):
    """A dense layer's pre-activations for rows x [..., B, in]."""
    return x @ p["w"] + p["b"][..., None, :]


@functools.lru_cache(maxsize=1)
def _image_buffers(shape, *layers):
    """The one-image scratch buffers of the conv, pool, conv, pool layers
    over input shape [C,H,W], one dict per layer. The key is the
    architecture, so every pass of every network of one shape shares them:
    a pass must not start while another runs in the same process (threads)."""
    (c, h, w), bufs = shape, []
    for conv in layers[::2]:
        f, k = conv.filters, conv.kernel_size
        bufs.append({"cols": _Columns(c, h, w, k, k), "out": _nhwc((1, f, h, w)),
                     "prod": np.empty((f, k * k * c))})
        if len(bufs) > 1:  # conv2's input gradient
            bufs[-1]["in"] = {"prod": np.empty((h, w, c)),
                              "out": np.empty((1, h + k - 1, w + k - 1, c))}
        c, h, w = f, h // 2, w // 2
        bufs.append({"out": _nhwc((1, c, h, w)), "gate": np.empty((1, c, h, w))})
    return bufs


def _forward_images(net, x, cache=None):
    """The image layers (NetworkSpec.image_layers) one image at a time;
    returns their output for x [N,C,H,W] as a C-contiguous array, each
    image's row in [C,H,W] order.

    Each conv or pool layer runs its kernel on a one-image batch through
    the architecture's buffers (_image_buffers): a conv's columns and
    output, its ReLU applied in place, and a pool's output. A training pass
    (cache, a list, given) appends one dict per layer with what backward
    reads (see forward), batch-sized, each image writing its own slot: a
    conv's input, and a pool's winners and its conv's ReLU mask. Every
    value equals the kernels' on the whole batch.
    """
    spec = net.spec
    shapes = [spec.input_shape] + spec.layer_shapes
    n = len(x)
    train = cache is not None
    bufs = _image_buffers(spec.input_shape, *spec.layers[:4])
    wmat = {i: _weight_matrix(net.params[i]["w"]) for i in (0, 2)}
    kept = [{} for _ in bufs]
    if train:
        kept[0]["x"], kept[2]["x"] = x, _nhwc((n,) + shapes[2])
        for i in (1, 3):
            kept[i].update(idx=_nhwc((n,) + shapes[i + 1], np.uint8),
                           live=_nhwc((n,) + shapes[i + 1], bool))
        cache += kept + [{}]  # the flatten keeps nothing
    out = np.empty((n,) + shapes[5])
    for j in range(n):
        src = x[j:j + 1]
        for i in (0, 2):  # a conv, then its pool
            p, b, conv, pool = net.params[i], bufs[i], kept[i], kept[i + 1]
            if train and i:
                conv["x"][j:j + 1] = src
            src = _conv2d(src, p["w"], p["b"], cols=b["cols"], wmat=wmat[i], out=b["out"])
            np.maximum(src, 0.0, out=src)
            src, _ = _maxpool2d(src, out=bufs[i + 1]["out"], winners=train,
                                idx=pool["idx"][j:j + 1] if train else None)
            if train:
                np.greater(src, 0.0, out=pool["live"][j:j + 1])
        out[j].reshape(src.shape[1:])[...] = src[0]
    return out


def _backward_images(net, d, cache, grads):
    """backward through the image layers, one image at a time, from d
    [N, ...], the gradient at the flatten; sets each conv's gradients in
    grads.

    Scratch buffers are the architecture's (_image_buffers). An image whose
    d row is all zero is skipped. A pool gates its gradient with its conv's
    ReLU mask, then scatters it into the conv's output-gradient buffer:
    NHWC memory, rows 1.. of a [1 + H*W, F] array whose row 0 holds the
    running bias sums. Each conv's kernel and bias gradients continue one
    sum over the images, in the order numpy sums the whole batch: from
    +0.0, so a skipped image's +-0.0 terms would leave it unchanged, over
    (image, row, column) in turn. (A one-filter conv's whole-batch gradient
    is one contiguous block that numpy sums pairwise, which no per-image
    order matches.)
    """
    spec = net.spec
    shapes = [spec.input_shape] + spec.layer_shapes
    bufs = _image_buffers(spec.input_shape, *spec.layers[:4])
    acc, rows, scatter = {}, {}, {}
    for i in (0, 2):
        f, c, k, _ = spec.param_shapes[i]["w"]
        h, w = shapes[i + 1][1:]
        acc[i], rows[i] = np.zeros((f, k * k * c)), np.zeros((1 + h * w, f))
        grads[i] = {"w": acc[i].reshape(f, k, k, c).transpose(0, 3, 1, 2), "b": rows[i][0]}
        scatter[i] = rows[i][1:].reshape(1, h, w, f).transpose(0, 3, 1, 2)
    taps = _conv_taps(net.params[2]["w"])
    for j in range(len(d)):
        dj = d[j:j + 1]
        if not dj.any():
            continue
        dj = dj.reshape((1,) + shapes[4])
        for i in (2, 0):  # a pool, then its conv
            b, conv, pool, k = bufs[i], cache[i], cache[i + 1], spec.layers[i].kernel_size
            # the ReLU gate: d * False keeps a negative d's sign, as the
            # unfused d * (z > 0) does
            dj = np.multiply(dj, pool["live"][j:j + 1], out=bufs[i + 1]["gate"])
            dj = _maxpool2d_grad(dj, pool["idx"][j:j + 1], *shapes[i + 1][1:], out=scatter[i])
            rows[i][0] = np.add.reduce(rows[i], axis=0)
            _conv2d_kernel_grad(dj, conv["x"][j:j + 1], k, k, cols=b["cols"], prod=b["prod"],
                                acc=acc[i])
            if i:
                dj = _conv2d_input_grad(dj, net.params[i]["w"], taps=taps, **b["in"])


def forward(net, batch, train=False):
    """Run the stack; returns (output probabilities, cache for backward).

    Pure in (parameters, input): repeated calls give bit-identical outputs.
    The image layers run one image at a time (_forward_images), in training
    as in evaluation, and only the dense layers see the whole batch. With
    train=False no cache is kept. A trial stack takes a [T, batch, ...]
    array, trial t's rows forwarded through trial t.

    The cache keeps only what backward reads, one dict per layer. A conv
    keeps its input x. A pool keeps its uint8 winners and its conv's ReLU
    mask, "live", at pooled size: a window's winner passes its gradient
    through the ReLU exactly when the pooled value is > 0. The flatten
    keeps nothing, and a dense layer its input and pre-activation.
    """
    x = np.asarray(batch, dtype=np.float64)
    expect = net.spec.input_shape
    lanes = net.lanes
    if x.shape[:len(lanes)] != lanes or x.shape[len(lanes) + 1:] != expect:
        raise DimensionError(
            "batch shape %r does not match input shape %r" % (x.shape, expect)
        )
    cache = [] if train else None
    start = net.spec.image_layers
    if start:
        x = _forward_images(net, x, cache)
    for i, layer in enumerate(net.spec.layers[start:], start):
        z = _dense(x, net.params[i])
        if train:
            cache.append({"x": x, "z": z})
        x = _apply_activation(layer.activation, z)
    out = np.ascontiguousarray(x)
    return Tensor._wrap(out), cache


def backward(net, loss_grad, cache):
    """One step's parameter gradients from the loss gradient w.r.t. the
    output logits: a new list with one {name: array} dict per layer, empty
    for a layer without parameters. cache is forward's train=True cache of
    the same network, as train passes it.

    The head's activation is fused into loss_grad; the hidden layer's ReLU
    is differentiated here, and each conv's through its pool's cached mask
    (see forward). The dense layers take the whole batch; the image layers
    take it one image at a time (_backward_images), and their per-image
    gradients continue the sums the whole batch's would take, bit for bit.
    The lowest conv, or the hidden layer of an MLP, gets no input gradient.

    When the gradient entering a layer below the head is all zero (a zero
    head, or a hidden unit silent on every row), the pass stops and that
    layer and all below it get no gradients, which sgd_step skips. The full
    pass would give them +0.0 (sums of +-0.0 products added into +0.0
    starts), and p - lr * (+0.0) is p, bit for bit. The image pass skips,
    in the same way, each image whose own gradient is all zero.
    """
    grads = [{} for _ in cache]
    d = np.asarray(loss_grad)
    last = len(net.spec.layers) - 1
    for i in range(last, -1, -1):
        if i < last and not d.any():
            break
        if i < net.spec.image_layers:
            _backward_images(net, d, cache, grads)
            break
        c = cache[i]
        dz = d if i == last else d * (c["z"] > 0.0)
        grads[i] = {"w": c["x"].swapaxes(-1, -2) @ dz, "b": dz.sum(axis=-2)}
        if i > 0:
            wt = net.params[i]["w"].swapaxes(-1, -2)
            d = _outer(dz, wt) if wt.shape[-2] == 1 else dz @ wt
    return grads


def _outer(a, b):
    """a [..., M, 1] @ b [..., 1, N], bit for bit, without the non-BLAS loop
    matmul takes for it: each product added into +0.0 as that loop does,
    and a NaN of a taking precedence over one of b, as in its a * b."""
    d = a * b
    d += 0.0
    nan = np.isnan(a)
    return np.where(nan, a, d) if nan.any() else d


# ---------------------------------------------------------------------------
# checkpoint format SENS1: magic; the input rank and dims, the seed as two
# words and the layer count; one record per layer; then all parameters as
# little-endian f64 in layer order, row-major. A layer record is its tag
# followed by its spec's dataclass fields in declaration order, activations
# by code; every header value is a little-endian u32. The order of a spec's
# fields is therefore part of the format.

_MAGIC = b"SENS1"
_LAYER_TAGS = {Conv2DSpec: 1, MaxPool2DSpec: 2, FlattenSpec: 3, DenseSpec: 4}


def _u32(*vals):
    return struct.pack("<%dI" % len(vals), *vals)


def save_network(net, path):
    """Write the SENS1 checkpoint: spec header then raw parameters."""
    spec = net.spec
    seed = spec.seed & 0xFFFFFFFFFFFFFFFF
    head = [
        _MAGIC,
        _u32(len(spec.input_shape), *spec.input_shape),
        _u32(seed & 0xFFFFFFFF, seed >> 32, len(spec.layers)),
    ]
    for layer in spec.layers:
        record = asdict(layer)
        if "activation" in record:
            record["activation"] = ACTIVATIONS.index(record["activation"])
        head.append(_u32(_LAYER_TAGS[type(layer)], *record.values()))
    body = [v.astype("<f8").tobytes(order="C")
            for p in net.params for v in p.values()]
    with open(path, "wb") as f:
        f.write(b"".join(head))
        f.write(b"".join(body))


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.data):
            raise CheckpointError(
                "truncated checkpoint: needed %d bytes for %s at offset %d"
                % (n, what, self.pos)
            )
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]


def load_network(path):
    """Parse and validate a SENS1 checkpoint; returns a ready Network."""
    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data)
    magic = r.take(len(_MAGIC), "magic")
    if magic != _MAGIC:
        raise CheckpointError(
            "bad magic %r at offset 0, expected %r" % (magic, _MAGIC)
        )
    rank = r.u32("input rank")
    dims = [r.u32("input dim") for _ in range(rank)]
    seed_lo = r.u32("seed low word")
    seed_hi = r.u32("seed high word")
    n_layers = r.u32("layer count")
    kinds = {v: k for k, v in _LAYER_TAGS.items()}
    layers = []
    for _ in range(n_layers):
        tag = r.u32("layer tag")
        if tag not in kinds:
            raise CheckpointError(
                "unknown layer tag %d at offset %d" % (tag, r.pos - 4)
            )
        record = {f.name: r.u32(f.name) for f in fields(kinds[tag])}
        if "activation" in record:
            code = record["activation"]
            if code >= len(ACTIVATIONS):
                raise CheckpointError("unknown activation code %d" % code)
            record["activation"] = ACTIVATIONS[code]
        layers.append(kinds[tag](**record))
    try:
        spec = NetworkSpec(dims, layers, seed_lo | (seed_hi << 32))
    except DimensionError as e:
        raise CheckpointError("checkpoint spec is not instantiable: %s" % e)
    params = []
    for i, shapes in enumerate(spec.param_shapes):
        p = {}
        for name, shape in shapes.items():
            raw = r.take(8 * math.prod(shape), "layer %d %s" % (i, name))
            arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
            if not np.isfinite(arr).all():
                raise CheckpointError(
                    "non-finite parameter values in layer %d %s" % (i, name)
                )
            p[name] = arr
        params.append(p)
    if r.pos != len(data):
        raise CheckpointError(
            "checkpoint has %d trailing bytes at offset %d: parameter shapes "
            "do not match the stored spec" % (len(data) - r.pos, r.pos)
        )
    return Network(spec, params)
