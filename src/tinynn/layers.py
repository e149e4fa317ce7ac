"""Layer stack: declarative specs, parameter init, forward/backward, checkpoints.

Two builders cover every architecture in scope: a fixed two-conv stack with a
swept hidden width, and a one-hidden-layer MLP. Both end in a probability
head (softmax for multi-class, a single sigmoid unit for binary tasks).
NetworkSpec's one walk over the layers makes every check, and gives the
shapes the initializer and the checkpoint reader use.

The image layers (conv, pool and flatten over [C,H,W] input) run one image
at a time, forward and backward, in training as in evaluation, through
buffers made once per pass; only the dense layers take the whole batch. A
training step's batch-sized arrays are the cache backward reads: the conv
inputs, the pool winners and the ReLU masks. The per-image gradients
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

import math
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import CheckpointError, DimensionError, StateError
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
    activation: str = "none"


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
    activation: str = "none"


class NetworkSpec:
    """Input shape plus an ordered layer list, checked in one walk.

    Layer by layer, so the first faulty layer raises, the walk checks the
    layer's own fields, then its input shape, and records its output shape
    (layer_shapes, no batch axis) and its parameters' {name: shape} in
    storage order (param_shapes).
    """

    def __init__(self, input_shape, layers, seed):
        self.input_shape = check_dims(input_shape)
        self.layers = list(layers)
        self.seed = int(seed)
        if not self.layers:
            raise DimensionError("network needs at least one layer")
        self.layer_shapes, self.param_shapes = [], []
        # the conv, pool and flatten layers over [C,H,W] input before the
        # first dense layer, which evaluation runs one image at a time
        self.image_layers = 0
        image = len(self.input_shape) == 3
        cur = self.input_shape
        for i, spec in enumerate(self.layers):
            params = {}
            if isinstance(spec, Conv2DSpec):
                if spec.filters < 1 or spec.kernel_size < 1:
                    raise DimensionError("conv filters and kernel size must be >= 1")
                if spec.kernel_size % 2 == 0:
                    raise DimensionError("conv kernel size must be odd for same padding")
                # backward differentiates a conv layer from its input and ReLU mask only
                if spec.activation not in ("relu", "none"):
                    raise DimensionError(
                        "conv activation must be relu or none, got %r" % (spec.activation,)
                    )
                if len(cur) != 3:
                    raise DimensionError("conv needs [C,H,W] input, got %r" % (cur,))
                k = spec.kernel_size
                params = {"w": (spec.filters, cur[0], k, k), "b": (spec.filters,)}
                cur = (spec.filters, cur[1], cur[2])
            elif isinstance(spec, MaxPool2DSpec):
                if spec.window != 2 or spec.stride != 2:
                    raise DimensionError("only 2x2/stride-2 pooling is supported")
                if len(cur) != 3:
                    raise DimensionError("pool needs [C,H,W] input, got %r" % (cur,))
                if cur[1] % 2 or cur[2] % 2:
                    raise DimensionError(
                        "pool input %dx%d has an odd dimension" % (cur[1], cur[2])
                    )
                cur = (cur[0], cur[1] // 2, cur[2] // 2)
            elif isinstance(spec, FlattenSpec):
                cur = (math.prod(cur),)
            elif isinstance(spec, DenseSpec):
                if spec.units < 1:
                    raise DimensionError("dense units must be >= 1")
                if spec.activation not in ACTIVATIONS:
                    raise DimensionError("unknown activation %r" % (spec.activation,))
                if spec.activation == "softmax" and i != len(self.layers) - 1:
                    raise DimensionError("softmax is only valid on the final dense layer")
                if len(cur) != 1:
                    raise DimensionError(
                        "dense needs flat input, got %r (missing Flatten?)" % (cur,)
                    )
                params = {"w": (cur[0], spec.units), "b": (spec.units,)}
                cur = (spec.units,)
                image = False
            else:
                raise DimensionError("unknown layer spec %r" % (spec,))
            self.layer_shapes.append(cur)
            self.param_shapes.append(params)
            self.image_layers += image

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
    last = len(spec.layers) - 1
    for i, shapes in enumerate(spec.param_shapes):
        p = {name: np.zeros(shape) for name, shape in shapes.items()}
        if p and not (i == last and isinstance(spec.layers[i], DenseSpec)):
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
    if act == "softmax":
        return _softmax_rows(z)
    return z


def _dense(x, p):
    """A dense layer's pre-activations for rows x [..., B, in]."""
    return x @ p["w"] + p["b"][..., None, :]


def _forward_images(net, x, cache=None):
    """The image layers (NetworkSpec.image_layers) one image at a time;
    returns their output for x [N,C,H,W] as a C-contiguous array, each
    image's row in [C,H,W] order.

    Each conv or pool layer runs its kernel on a one-image batch through
    buffers made once per call: a conv's columns, weight matrix and output,
    its ReLU applied in place, and a pool's output. A training pass (cache,
    a list, given) appends one dict per layer with what backward reads (see
    forward), batch-sized, each image writing its own slot: a conv's input,
    a pool's winners and a ReLU's live mask. Every value equals the
    kernels' on the whole batch.
    """
    spec = net.spec
    shapes = [spec.input_shape] + spec.layer_shapes
    n = len(x)
    train = cache is not None
    stages = []
    for i, layer in enumerate(spec.layers[:spec.image_layers]):
        c = {}
        if train:
            cache.append(c)
        if isinstance(layer, FlattenSpec):  # only ever after the conv and pool layers
            continue
        shape = (n,) + shapes[i + 1]
        bufs = {"out": _nhwc((1,) + shape[1:])}
        if isinstance(layer, Conv2DSpec):
            k = layer.kernel_size
            bufs.update(cols=_Columns(*shapes[i], k, k), wmat=_weight_matrix(net.params[i]["w"]))
            gate = layer.activation == "relu" and not _pool_takes_relu(spec.layers, i + 1)
            if train:
                c["x"] = x if i == 0 else _nhwc((n,) + shapes[i])
        else:
            bufs["winners"] = train
            gate = _pool_takes_relu(spec.layers, i)
            if train:
                c["idx"] = _nhwc(shape, np.uint8)
        if train and gate:
            c["live"] = _nhwc(shape, bool)
        stages.append((i, layer, c, bufs))
    out = np.empty((n,) + shapes[spec.image_layers])
    for j in range(n):
        src = x[j:j + 1]
        for i, layer, c, bufs in stages:
            if isinstance(layer, Conv2DSpec):
                if train and i:
                    c["x"][j:j + 1] = src
                p = net.params[i]
                src = _conv2d(src, p["w"], p["b"], **bufs)
                if layer.activation == "relu":
                    np.maximum(src, 0.0, out=src)
            else:
                src, _ = _maxpool2d(src, idx=c["idx"][j:j + 1] if train else None, **bufs)
            if "live" in c:
                np.greater(src, 0.0, out=c["live"][j:j + 1])
        out[j].reshape(src.shape[1:])[...] = src[0]
    return out


def _backward_images(net, d, cache, grads):
    """backward through the image layers, one image at a time, from d
    [N, ...], the gradient at their output; sets each conv's gradients in
    grads.

    Buffers are made once per call, and only the layers down to the lowest
    conv run. An image whose d row is all zero is skipped. Each conv's
    kernel and bias gradients continue one sum over the images, in the
    order numpy sums the whole batch: from +0.0, so a skipped image's +-0.0
    terms would leave it unchanged. Below the top, a conv's output gradient
    is NHWC memory, summed over (image, row, column) in turn: row 0 of its
    buffer holds the running sums, the other rows the image's gradient. At
    the top it arrives as [C,H,W] rows, summed pairwise per image and
    filter. (A one-filter conv's whole-batch gradient is one contiguous
    block that numpy sums pairwise, which no per-image order matches.)
    """
    spec = net.spec
    shapes = [spec.input_shape] + spec.layer_shapes
    convs = [i for i in range(spec.image_layers) if spec.param_shapes[i]]
    top = spec.image_layers - isinstance(spec.layers[spec.image_layers - 1], FlattenSpec)
    low = convs[0] if convs else top
    state = {}
    for i in range(low, top):
        if i in convs:
            f, c, k, _ = spec.param_shapes[i]["w"]
            h, w = shapes[i + 1][1:]
            acc, rows = np.zeros((f, k * k * c)), np.zeros((1 + h * w * (i < top - 1), f))
            grads[i] = {"w": acc.reshape(f, k, k, c).transpose(0, 3, 1, 2), "b": rows[0]}
            s = {"cols": _Columns(c, h, w, k, k), "prod": np.empty(acc.shape),
                 "acc": acc, "rows": rows,
                 "gate": np.empty((1,) + shapes[i + 1]) if i == top - 1
                 else rows[1:].reshape(1, h, w, f).transpose(0, 3, 1, 2)}
            if i > low:
                s["in"] = {"taps": _conv_taps(net.params[i]["w"]),
                           "prod": np.empty((h, w, c)),
                           "out": np.empty((1, h + k - 1, w + k - 1, c))}
        else:
            # a pool scatters straight into the gradient buffer of a conv
            # below it, which has no ReLU gate of its own
            s = {"gate": np.empty((1,) + shapes[i + 1]),
                 "out": state[i - 1]["gate"] if i - 1 in convs else _nhwc((1,) + shapes[i])}
        state[i] = s
    for j in range(len(d)):
        dj = d[j:j + 1]
        if not dj.any():
            continue
        dj = dj.reshape((1,) + shapes[top])
        for i in range(top - 1, low - 1, -1):
            layer, c, s = spec.layers[i], cache[i], state[i]
            if "live" in c:
                # the ReLU gate: d * False keeps a negative d's sign, as the
                # unfused d * (z > 0) does
                dj = np.multiply(dj, c["live"][j:j + 1], out=s["gate"])
            if isinstance(layer, MaxPool2DSpec):
                dj = _maxpool2d_grad(dj, c["idx"][j:j + 1], *shapes[i][1:], out=s["out"])
                continue
            g, rows = s["gate"], s["rows"]
            if dj is not g:
                g[...] = dj
            if i < top - 1:
                rows[0] = np.add.reduce(rows, axis=0)
            else:
                rows[0] += np.add.reduce(g[0], axis=(1, 2))
            k = layer.kernel_size
            _conv2d_kernel_grad(g, c["x"][j:j + 1], k, k, cols=s["cols"], prod=s["prod"],
                                acc=s["acc"])
            if i > low:
                dj = _conv2d_input_grad(g, net.params[i]["w"], **s["in"])


def _pool_takes_relu(layers, i):
    """Whether layer i is a max pool right after a ReLU conv. Such a pool
    carries the conv's ReLU mask, at pooled size: a window's winner passes
    its gradient through the ReLU exactly when the pooled value is > 0."""
    return (
        0 < i < len(layers)
        and isinstance(layers[i], MaxPool2DSpec)
        and isinstance(layers[i - 1], Conv2DSpec)
        and layers[i - 1].activation == "relu"
    )


def forward(net, batch, train=False):
    """Run the stack; returns (output probabilities, cache for backward).

    Pure in (parameters, input): repeated calls give bit-identical outputs.
    The image layers run one image at a time (_forward_images), in training
    as in evaluation, and only the layers after them see the whole batch.
    With train=False no cache is kept. A trial stack takes a
    [T, batch, ...] array, trial t's rows forwarded through trial t.

    The cache keeps only what backward reads, one dict per layer. A conv
    keeps its input x; a pool keeps its uint8 winners. A ReLU's mask,
    "live", sits with the layer whose output gradient it gates: at pooled
    size with the pool that follows the conv (_pool_takes_relu), else at
    full size with the conv. A flatten over flat rows keeps their shape,
    and a dense layer its input, pre-activation and activation.
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
        if isinstance(layer, FlattenSpec):  # over rows that are flat already
            if train:
                cache.append({"in_shape": x.shape})
            x = x.reshape(x.shape[0], -1)
        else:  # Dense
            z = _dense(x, net.params[i])
            a = _apply_activation(layer.activation, z)
            if train:
                cache.append({"x": x, "z": z, "a": a})
            x = a
    out = np.ascontiguousarray(x)
    return Tensor._wrap(out), cache


def backward(net, loss_grad, cache):
    """One step's parameter gradients from the loss gradient w.r.t. the
    output logits: a new list with one {name: array} dict per layer, empty
    for a layer without parameters.

    The final layer's activation is fused into loss_grad; hidden activations
    are differentiated here, a conv's ReLU through its cached mask (see
    forward). The dense layers take the whole batch; the image layers take
    it one image at a time (_backward_images), and their per-image
    gradients continue the sums the whole batch's would take, bit for bit.
    No layer below the lowest conv gets an input gradient.

    When the gradient entering a layer below the head is all zero (a zero
    head, or a hidden unit silent on every row), the pass stops and that
    layer and all below it get no gradients, which sgd_step skips. The full
    pass would give them +0.0 (sums of +-0.0 products added into +0.0
    starts), and p - lr * (+0.0) is p, bit for bit. The image pass skips,
    in the same way, each image whose own gradient is all zero.
    """
    if cache is None:
        raise StateError("backward called without a forward cache (train=True)")
    if len(cache) != len(net.spec.layers):
        raise StateError("forward cache does not match the network's layers")
    grads = [{} for _ in cache]
    d = np.asarray(loss_grad)
    last = len(net.spec.layers) - 1
    for i in range(last, -1, -1):
        if i < last and not d.any():
            break
        if i < net.spec.image_layers:
            _backward_images(net, d, cache, grads)
            break
        layer = net.spec.layers[i]
        c = cache[i]
        if isinstance(layer, DenseSpec):
            dz = d if i == last else _activation_grad(layer.activation, d, c)
            grads[i] = {"w": c["x"].swapaxes(-1, -2) @ dz, "b": dz.sum(axis=-2)}
            if i > 0:
                wt = net.params[i]["w"].swapaxes(-1, -2)
                d = _outer(dz, wt) if wt.shape[-2] == 1 else dz @ wt
        else:  # a flatten over flat rows
            d = d.reshape(c["in_shape"])
    return grads


def _outer(a, b):
    """a [..., M, 1] @ b [..., 1, N], bit for bit, without the non-BLAS loop
    matmul takes for it: each product added into +0.0 as that loop does,
    and a NaN of a taking precedence over one of b, as in its a * b."""
    d = a * b
    d += 0.0
    nan = np.isnan(a)
    return np.where(nan, a, d) if nan.any() else d


def _activation_grad(act, d_out, c):
    if act == "relu":
        return d_out * (c["z"] > 0.0)
    if act == "sigmoid":
        a = c["a"]
        return d_out * a * (1.0 - a)
    if act == "none":
        return d_out
    raise StateError("softmax gradient is only available fused with the loss")


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
