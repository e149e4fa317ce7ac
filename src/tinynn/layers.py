"""Layer stack: declarative specs, parameter init, forward/backward, checkpoints.

Two builders cover every architecture in scope: a fixed two-conv stack with a
swept hidden width, and a one-hidden-layer MLP. Both end in a probability
head (softmax for multi-class, a single sigmoid unit for binary tasks).

Gradient convention: the loss layer hands backward() the gradient with
respect to the final layer's pre-activation logits (the fused softmax and
sigmoid cross-entropy forms), so the output activation's local derivative is
never applied separately.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, DimensionError, StateError
from .rng import Rng
from .tensor import (
    Shape,
    Tensor,
    _conv2d,
    _conv2d_input_grad,
    _maxpool2d,
    _maxpool2d_grad,
    _relu,
    _sigmoid,
    _softmax_rows,
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


def _validate_layer(spec):
    if isinstance(spec, Conv2DSpec):
        if spec.filters < 1 or spec.kernel_size < 1:
            raise DimensionError("conv filters and kernel size must be >= 1")
        if spec.kernel_size % 2 == 0:
            raise DimensionError("conv kernel size must be odd for same padding")
    elif isinstance(spec, MaxPool2DSpec):
        if spec.window != 2 or spec.stride != 2:
            raise DimensionError("only 2x2/stride-2 pooling is supported")
    elif isinstance(spec, DenseSpec):
        if spec.units < 1:
            raise DimensionError("dense units must be >= 1")
    elif not isinstance(spec, FlattenSpec):
        raise DimensionError("unknown layer spec %r" % (spec,))
    act = getattr(spec, "activation", "none")
    if act not in ACTIVATIONS:
        raise DimensionError("unknown activation %r" % (act,))


class NetworkSpec:
    """Input shape plus an ordered layer list; validated by shape inference."""

    def __init__(self, input_shape, layers, seed):
        self.input_shape = (
            input_shape if isinstance(input_shape, Shape) else Shape(input_shape)
        )
        self.layers = list(layers)
        self.seed = int(seed)
        if not self.layers:
            raise DimensionError("network needs at least one layer")
        for spec in self.layers:
            _validate_layer(spec)
        for i, spec in enumerate(self.layers):
            if getattr(spec, "activation", "none") == "softmax" and (
                i != len(self.layers) - 1 or not isinstance(spec, DenseSpec)
            ):
                raise DimensionError(
                    "softmax is only valid on the final dense layer"
                )
        self.layer_shapes = self._infer_shapes()

    def _infer_shapes(self):
        """Per-layer output shapes (sample shape, no batch axis)."""
        shapes = []
        cur = tuple(self.input_shape.dims)
        for spec in self.layers:
            if isinstance(spec, Conv2DSpec):
                if len(cur) != 3:
                    raise DimensionError(
                        "conv needs [C,H,W] input, got %r" % (cur,)
                    )
                cur = (spec.filters, cur[1], cur[2])
            elif isinstance(spec, MaxPool2DSpec):
                if len(cur) != 3:
                    raise DimensionError(
                        "pool needs [C,H,W] input, got %r" % (cur,)
                    )
                if cur[1] % 2 or cur[2] % 2:
                    raise DimensionError(
                        "pool input %dx%d has an odd dimension" % (cur[1], cur[2])
                    )
                cur = (cur[0], cur[1] // 2, cur[2] // 2)
            elif isinstance(spec, FlattenSpec):
                n = 1
                for d in cur:
                    n *= d
                cur = (n,)
            elif isinstance(spec, DenseSpec):
                if len(cur) != 1:
                    raise DimensionError(
                        "dense needs flat input, got %r (missing Flatten?)" % (cur,)
                    )
                cur = (spec.units,)
            shapes.append(cur)
        return shapes

    @property
    def output_units(self):
        return self.layer_shapes[-1][0]


class Network:
    """A NetworkSpec with instantiated parameters and gradient buffers."""

    def __init__(self, spec, params=None):
        self.spec = spec
        self.params = params if params is not None else _init_params(spec)
        self.grads = [
            {k: np.zeros_like(v) for k, v in p.items()} for p in self.params
        ]

    def parameter_count(self):
        return sum(v.size for p in self.params for v in p.values())


def _init_params(spec):
    """He-style uniform fan-in init, biases zero, from the spec's seed.

    The output head (final dense layer) starts at exactly zero instead, so a
    binary task and its label-swapped twin follow mirrored trajectories.
    """
    rng = Rng(spec.seed)
    params = []
    cur = tuple(spec.input_shape.dims)
    last = len(spec.layers) - 1
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, Conv2DSpec):
            c = cur[0]
            w = np.zeros((layer.filters, c, layer.kernel_size, layer.kernel_size))
            bound = np.sqrt(6.0 / (c * layer.kernel_size * layer.kernel_size))
            rng.fill_uniform(w.reshape(-1), -bound, bound)
            params.append({"w": w, "b": np.zeros(layer.filters)})
        elif isinstance(layer, DenseSpec):
            w = np.zeros((cur[0], layer.units))
            if i != last:
                bound = np.sqrt(6.0 / cur[0])
                rng.fill_uniform(w.reshape(-1), -bound, bound)
            params.append({"w": w, "b": np.zeros(layer.units)})
        else:
            params.append({})
        cur = spec.layer_shapes[i]
    return params


def build_conv_net(input_shape, hidden_units, output_units, seed):
    """The fixed conv stack: 32 then 64 5x5 filters, each pooled 2x2, then a
    ReLU hidden layer of the given width and a probability head."""
    shape = input_shape if isinstance(input_shape, Shape) else Shape(input_shape)
    if shape.rank != 3:
        raise DimensionError("expected [C,H,W] input, got %r" % (shape,))
    if shape[1] % 4 or shape[2] % 4:
        raise DimensionError(
            "spatial dims must be divisible by 4 for two pool stages, got %r"
            % (shape,)
        )
    head = "softmax" if output_units > 1 else "sigmoid"
    spec = NetworkSpec(
        shape,
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
    if input_dim < 1:
        raise DimensionError("input_dim must be >= 1, got %r" % (input_dim,))
    spec = NetworkSpec(
        Shape((input_dim,)),
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


def forward(net, batch, train=False):
    """Run the stack; returns (output probabilities, cache for backward).

    Pure in (parameters, input): repeated calls give bit-identical outputs.
    With train=False the cache is skipped to keep evaluation memory flat,
    and pooling records no winner indices.
    """
    x = batch.array if isinstance(batch, Tensor) else np.asarray(batch, dtype=np.float64)
    expect = tuple(net.spec.input_shape.dims)
    if x.shape[1:] != expect:
        raise DimensionError(
            "batch sample shape %r does not match input shape %r"
            % (x.shape[1:], expect)
        )
    cache = [] if train else None
    for i, layer in enumerate(net.spec.layers):
        if isinstance(layer, Conv2DSpec):
            p = net.params[i]
            z, cols = _conv2d(x, p["w"], p["b"])
            a = _apply_activation(layer.activation, z)
            if train:
                cache.append({"cols": cols, "z": z, "in_shape": x.shape})
            x = a
        elif isinstance(layer, MaxPool2DSpec):
            pooled, idx = _maxpool2d(x, train)
            if train:
                cache.append({"idx": idx, "in_hw": x.shape[2:]})
            x = pooled
        elif isinstance(layer, FlattenSpec):
            if train:
                cache.append({"in_shape": x.shape})
            x = x.reshape(x.shape[0], -1)
        else:  # Dense
            p = net.params[i]
            z = x @ p["w"] + p["b"]
            a = _apply_activation(layer.activation, z)
            if train:
                cache.append({"x": x, "z": z, "a": a})
            x = a
    out = np.ascontiguousarray(x)
    return Tensor._wrap(out), cache


def backward(net, loss_grad, cache):
    """Populate net.grads from the loss gradient w.r.t. output logits.

    The final layer's activation is fused into loss_grad; hidden activations
    are differentiated here. The input gradient of the first layer is never
    needed and is not computed.
    """
    if cache is None:
        raise StateError("backward called without a forward cache (train=True)")
    if len(cache) != len(net.spec.layers):
        raise StateError("forward cache does not match the network's layers")
    d = loss_grad.array if isinstance(loss_grad, Tensor) else np.asarray(loss_grad)
    last = len(net.spec.layers) - 1
    for i in range(last, -1, -1):
        layer = net.spec.layers[i]
        c = cache[i]
        if isinstance(layer, DenseSpec):
            if i == last:
                dz = d
            else:
                dz = _activation_grad(layer.activation, d, c)
            x = c["x"]
            np.matmul(x.T, dz, out=net.grads[i]["w"])
            np.sum(dz, axis=0, out=net.grads[i]["b"])
            if i > 0:
                d = dz @ net.params[i]["w"].T
        elif isinstance(layer, Conv2DSpec):
            dz = _activation_grad(layer.activation, d, c)
            n, f, h, w = dz.shape
            dzmat = dz.transpose(0, 2, 3, 1).reshape(n * h * w, f)
            gw = net.grads[i]["w"]
            np.matmul(dzmat.T, c["cols"], out=gw.reshape(f, -1))
            np.sum(dz, axis=(0, 2, 3), out=net.grads[i]["b"])
            if i > 0:
                d = _conv2d_input_grad(dz, net.params[i]["w"])
        elif isinstance(layer, MaxPool2DSpec):
            h, w = c["in_hw"]
            d = _maxpool2d_grad(d, c["idx"], h, w)
        else:  # Flatten
            d = d.reshape(c["in_shape"])
    return net.grads


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
# checkpoint format: magic, tagged layer records (little-endian u32 fields),
# then all parameters as little-endian f64 in layer order, row-major

_MAGIC = b"SENS1"
_LAYER_TAGS = {Conv2DSpec: 1, MaxPool2DSpec: 2, FlattenSpec: 3, DenseSpec: 4}
_ACT_CODES = {a: i for i, a in enumerate(ACTIVATIONS)}


def _u32(*vals):
    return struct.pack("<%dI" % len(vals), *vals)


def save_network(net, path):
    """Write the SENS1 checkpoint: spec header then raw parameters."""
    spec = net.spec
    head = [_MAGIC]
    head.append(_u32(spec.input_shape.rank, *spec.input_shape.dims))
    seed = spec.seed & 0xFFFFFFFFFFFFFFFF
    head.append(_u32(seed & 0xFFFFFFFF, seed >> 32))
    head.append(_u32(len(spec.layers)))
    for layer in spec.layers:
        tag = _LAYER_TAGS[type(layer)]
        if isinstance(layer, Conv2DSpec):
            head.append(_u32(tag, layer.filters, layer.kernel_size,
                             _ACT_CODES[layer.activation]))
        elif isinstance(layer, MaxPool2DSpec):
            head.append(_u32(tag, layer.window, layer.stride))
        elif isinstance(layer, FlattenSpec):
            head.append(_u32(tag))
        else:
            head.append(_u32(tag, layer.units, _ACT_CODES[layer.activation]))
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
    tags = {v: k for k, v in _LAYER_TAGS.items()}
    acts = {v: k for k, v in _ACT_CODES.items()}
    layers = []
    for _ in range(n_layers):
        tag = r.u32("layer tag")
        if tag not in tags:
            raise CheckpointError(
                "unknown layer tag %d at offset %d" % (tag, r.pos - 4)
            )
        kind = tags[tag]
        if kind is Conv2DSpec:
            f_, k_, a_ = r.u32("filters"), r.u32("kernel"), r.u32("activation")
            if a_ not in acts:
                raise CheckpointError("unknown activation code %d" % a_)
            layers.append(Conv2DSpec(f_, k_, acts[a_]))
        elif kind is MaxPool2DSpec:
            layers.append(MaxPool2DSpec(r.u32("window"), r.u32("stride")))
        elif kind is FlattenSpec:
            layers.append(FlattenSpec())
        else:
            u_, a_ = r.u32("units"), r.u32("activation")
            if a_ not in acts:
                raise CheckpointError("unknown activation code %d" % a_)
            layers.append(DenseSpec(u_, acts[a_]))
    try:
        spec = NetworkSpec(Shape(dims), layers, seed_lo | (seed_hi << 32))
    except DimensionError as e:
        raise CheckpointError("checkpoint spec is not instantiable: %s" % e)
    params = []
    cur = tuple(spec.input_shape.dims)
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, Conv2DSpec):
            shapes = {"w": (layer.filters, cur[0], layer.kernel_size,
                            layer.kernel_size), "b": (layer.filters,)}
        elif isinstance(layer, DenseSpec):
            shapes = {"w": (cur[0], layer.units), "b": (layer.units,)}
        else:
            shapes = {}
        p = {}
        for name, shp in shapes.items():
            n = 1
            for d in shp:
                n *= d
            raw = r.take(8 * n, "layer %d %s" % (i, name))
            arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shp)
            if not np.isfinite(arr).all():
                raise CheckpointError(
                    "non-finite parameter values in layer %d %s" % (i, name)
                )
            p[name] = arr
        params.append(p)
        cur = spec.layer_shapes[i]
    if r.pos != len(data):
        raise CheckpointError(
            "checkpoint has %d trailing bytes at offset %d: parameter shapes "
            "do not match the stored spec" % (len(data) - r.pos, r.pos)
        )
    return Network(spec, params)
