"""References the library is judged by: the probability-space
cross-entropy, which the fused logit losses in tinynn.training must match,
the boolean-mask two-branch sigmoid and fused binary cross-entropy, whose
bytes the library's np.where forms must equal,
the central finite-difference check of backward's gradients, the unfused
backward, which skips no zero gradient, whose gradients backward's must
equal bit for bit, the dead-unit probe over every row at once, whose flips
the early-stopping probe must equal, the trial-at-a-time repeat_trials
that the stacked one must equal, the scalar draws (next_float, uniform, randbelow, normal) that
the generator's bulk consumers must equal, and the one-step-at-a-time
xoshiro256++ that its blocks must equal.

Gradient checks perturb parameters by +-eps and compare the central
difference of the loss against the analytic gradient with the symmetric
relative error |a - n| / max(1e-8, |a| + |n|).
"""

import math
from dataclasses import replace

import numpy as np

from tinynn.errors import ConfigError, DataError, DivergenceError
from tinynn.layers import (
    Conv2DSpec,
    DenseSpec,
    MaxPool2DSpec,
    _apply_activation,
    _dense,
    _forward_images,
    backward,
    forward,
)
from tinynn.rng import derive_seed
from tinynn.tensor import _conv2d, _maxpool2d, _maxpool2d_grad
from tinynn.training import TrialSummary, train


def cross_entropy_loss(probs, labels):
    """Mean negative log-likelihood from output probabilities.

    probs is a Tensor or an array. Returns (loss, gradient w.r.t. the
    pre-activation logits): the fused (p - y)/B form for softmax rows,
    (s - y)/B for sigmoid scalars.
    """
    p = np.asarray(getattr(probs, "array", probs), dtype=np.float64)
    y = np.asarray(labels)
    if p.ndim != 2 or y.ndim != 1 or p.shape[0] != y.shape[0]:
        raise DataError(
            "probabilities %r and labels %r do not align" % (p.shape, y.shape)
        )
    b, k = p.shape
    if k == 1:
        if np.any((y != 0) & (y != 1)):
            raise DataError("binary labels must be 0 or 1")
        s = p[:, 0]
        yf = y.astype(np.float64)
        loss = float(-np.mean(yf * np.log(s) + (1.0 - yf) * np.log(1.0 - s)))
        grad = ((s - yf) / b)[:, None]
    else:
        if np.any((y < 0) | (y >= k)):
            raise DataError("labels must lie in [0, %d)" % k)
        loss = float(-np.mean(np.log(p[np.arange(b), y])))
        grad = p.copy()
        grad[np.arange(b), y] -= 1.0
        grad /= b
    return loss, grad


# logits at every edge of the two-branch form: signed zeros, infinities,
# NaNs of both signs, exp's underflow edge and far beyond it
EDGE_LOGITS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 1e8, -1e8]
)


def two_branch_sigmoid(x):
    """Sigmoid computed branch by branch through boolean masks: 1 / (1 +
    exp(-x)) where x >= 0, e / (1 + e) with e = exp(x) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def two_branch_binary_ce(z, labels):
    """The fused sigmoid cross-entropy of logits [..., B, 1], its gradient
    computed branch by branch through boolean masks."""
    zf = z[..., 0]
    yf = labels.astype(np.float64)
    b = zf.shape[-1]
    loss = np.mean(np.logaddexp(0.0, zf) - yf * zf, axis=-1)
    pos = zf >= 0
    g = np.empty_like(zf)
    sp = 1.0 / (1.0 + np.exp(-zf[pos]))
    g[pos] = (sp - yf[pos]) / b
    sn = 1.0 / (1.0 + np.exp(zf[~pos]))
    g[~pos] = -((sn - (1.0 - yf[~pos])) / b)
    return loss, g[..., None]


def randomize_head(net, rng):
    """Give the zero-initialized output head small nonzero weights, drawn
    from rng, so that gradient signal reaches every layer in one backward
    pass."""
    head = net.params[-1]
    rng.fill_uniform(head["w"].reshape(-1), -0.5, 0.5)
    rng.fill_uniform(head["b"], -0.1, 0.1)


def loss_of(net, x, labels):
    out, _ = forward(net, x)
    loss, _ = cross_entropy_loss(out, labels)
    return loss


def analytic_grads(net, x, labels):
    """backward's gradients, with +0.0 ones for the parameters of the layers
    a stopped pass leaves without."""
    out, cache = forward(net, x, train=True)
    _, dz = cross_entropy_loss(out, labels)
    grads = backward(net, dz, cache)
    return [{k: g.get(k, np.zeros_like(v)) for k, v in p.items()}
            for p, g in zip(net.params, grads)]


def fd_check(net, x, labels, n_params, rng, tol, eps=1e-5):
    """Assert every checked coordinate's relative error is below tol; returns
    the worst. A net with at most n_params parameters has all of them
    checked; otherwise n_params coordinates are drawn from rng, with
    replacement."""
    grads = analytic_grads(net, x, labels)
    coords = [
        (li, key, j)
        for li, p in enumerate(net.params)
        for key, arr in p.items()
        for j in range(arr.size)
    ]
    picked = (
        coords
        if len(coords) <= n_params
        else [coords[randbelow(rng, len(coords))] for _ in range(n_params)]
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


def conv_input_grad_per_tap(dz, w):
    """The conv input gradient as one GEMM per kernel tap and image,
    dz_n[HW,F] @ w[:,:,i,j], each added into a zero-padded NHWC buffer at
    offset (i, j) in row-major tap order."""
    n, f, h, wd = dz.shape
    _, c, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    grad = np.zeros((n, h + 2 * ph, wd + 2 * pw, c))
    for g, d in zip(grad, dz.transpose(0, 2, 3, 1)):
        dzmat = d.reshape(h * wd, f)
        for i in range(kh):
            for j in range(kw):
                g[i:i + h, j:j + wd] += (dzmat @ w[:, :, i, j]).reshape(h, wd, c)
    return grad[:, ph:ph + h, pw:pw + wd].transpose(0, 3, 1, 2)


def conv_kernel_grad_every_image(dz, x, kh, kw):
    """The conv kernel gradient [F,C,kh,kw] with no image skipped: for each
    image, dz_n[HW,F]^T @ its tap-major columns [HW, kh*kw*C], cut from a
    zero-padded NHWC copy, added in image order into a +0.0 start."""
    n, f, h, wd = dz.shape
    c = x.shape[1]
    ph, pw = kh // 2, kw // 2
    padded = np.pad(x.transpose(0, 2, 3, 1), ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    acc = np.zeros((f, kh * kw * c))
    for img, d in zip(padded, dz.transpose(0, 2, 3, 1)):
        win = np.lib.stride_tricks.sliding_window_view(img, (kh, kw), axis=(0, 1))
        cols = win.transpose(0, 1, 3, 4, 2).reshape(h * wd, kh * kw * c)
        acc += d.reshape(h * wd, f).T @ cols
    return acc.reshape(f, kh, kw, c).transpose(0, 3, 1, 2)


def unfused_grads(net, x, loss_grad):
    """backward's parameter gradients, computed without its fusions: every
    ReLU layer keeps its full-size pre-activation z and gates its output
    gradient with d * (z > 0), after any pool's winner scatter, the conv
    kernel gradient takes every image and the conv input gradient takes one
    GEMM per tap, and the pass runs to the first layer whatever its
    gradient. Hidden layers are ReLU or linear; the final layer's
    activation is fused into loss_grad, as backward takes it."""
    layers = net.spec.layers
    caches = []
    for layer, p in zip(layers, net.params):
        if isinstance(layer, Conv2DSpec):
            z = _conv2d(x, p["w"], p["b"])
            caches.append((x, z))
            x = np.maximum(z, 0.0) if layer.activation == "relu" else z
        elif isinstance(layer, MaxPool2DSpec):
            pooled, idx = _maxpool2d(x)
            caches.append((idx, x.shape[2:]))
            x = pooled
        elif isinstance(layer, DenseSpec):
            z = x @ p["w"] + p["b"]
            caches.append((x, z))
            x = np.maximum(z, 0.0) if layer.activation == "relu" else z
        else:  # Flatten
            caches.append(x.shape)
            x = x.reshape(len(x), -1)
    grads = [{} for _ in layers]
    d = np.asarray(loss_grad)
    for i in range(len(layers) - 1, -1, -1):
        layer, p, c = layers[i], net.params[i], caches[i]
        if isinstance(layer, (Conv2DSpec, DenseSpec)):
            x, z = c
            gated = layer.activation == "relu" and i < len(layers) - 1
            dz = d * (z > 0.0) if gated else d
            if isinstance(layer, Conv2DSpec):
                grads[i]["w"] = conv_kernel_grad_every_image(dz, x, *p["w"].shape[2:])
                grads[i]["b"] = dz.sum(axis=(0, 2, 3))
                d = conv_input_grad_per_tap(dz, p["w"])
            else:
                grads[i]["w"] = x.T @ dz
                grads[i]["b"] = dz.sum(axis=0)
                d = dz @ p["w"].T
        elif isinstance(layer, MaxPool2DSpec):
            idx, (h, w) = c
            d = _maxpool2d_grad(d, idx, h, w)
        else:
            d = d.reshape(c)
    return grads


def orient_on_every_row(net, probe):
    """The dead-unit probe with no early stop: every probe row runs the
    image layers in one call, then each hidden dense ReLU unit with no
    positive pre-activation on any row has its weights and bias negated."""
    spec = net.spec
    x = _forward_images(net, probe) if spec.image_layers else probe
    for i in range(spec.image_layers, len(spec.layers) - 1):
        layer = spec.layers[i]
        if not isinstance(layer, DenseSpec):
            continue
        z = _dense(x, net.params[i])
        if layer.activation == "relu":
            dead = ~(z > 0.0).any(axis=-2)
            if dead.any():
                flip = np.where(dead, -1.0, 1.0)
                net.params[i]["w"] *= flip[..., None, :]
                net.params[i]["b"] *= flip
        x = _apply_activation(layer.activation, z)


def repeat_trials_one_by_one(build_network, generate_data, cfg, n_trials):
    """repeat_trials as it ran before trials were stacked: each trial's
    network is trained alone, with the same derived seeds."""
    if n_trials < 2:
        raise ConfigError("n_trials must be >= 2, got %r" % (n_trials,))
    metrics = ("accuracy", "sensitivity", "specificity")
    rows = []
    divergences = 0
    for t in range(n_trials):
        ts = derive_seed(cfg.seed, t)
        data = generate_data(derive_seed(ts, 0))
        net = build_network(derive_seed(ts, 1))
        run_cfg = replace(cfg, seed=derive_seed(ts, 2))
        try:
            _, report = train(net, data, run_cfg)
        except DivergenceError:
            divergences += 1
            continue
        rows.append({"trial": t, **{m: getattr(report, m) for m in metrics}})
    sums = {m: 0.0 for m in metrics}
    sumsqs = {m: 0.0 for m in metrics}
    for row in rows:
        for m in metrics:
            sums[m] += row[m]
            sumsqs[m] += row[m] * row[m]
    n = len(rows)
    means = {m: (sums[m] / n if n else 0.0) for m in metrics}
    stds = {
        m: (math.sqrt(max(0.0, sumsqs[m] / n - means[m] ** 2)) if n else 0.0)
        for m in metrics
    }
    return TrialSummary(
        means=means, stds=stds, n_trials=n_trials, divergences=divergences,
        trials=rows,
    )


def next_float(rng):
    """One draw of rng as a uniform float in [0, 1) with 53-bit resolution."""
    return (rng.next_u64() >> 11) * (1.0 / (1 << 53))


def uniform(rng, low, high):
    return low + (high - low) * next_float(rng)


def randbelow(rng, n):
    """Uniform integer in [0, n) by top-bit rejection; exact, no modulo bias.
    Rng.shuffle's swaps follow it draw for draw."""
    if n <= 0:
        raise ValueError("randbelow needs n >= 1, got %r" % (n,))
    bits = (n - 1).bit_length()
    if bits == 0:
        return 0
    while True:
        r = rng.next_u64() >> (64 - bits)
        if r < n:
            return r


def normal(rng, mean=0.0, std=1.0):
    """Normal deviate via Box-Muller, generated in pairs; the spare waits in
    rng._spare_normal, where Rng.fill_normal takes it first and leaves its
    own."""
    z = rng._spare_normal
    if z is not None:
        rng._spare_normal = None
        return mean + std * z
    u1 = next_float(rng)
    if u1 == 0.0:
        u1 = 2.0 ** -53  # avoid log(0); smallest representable draw instead
    u2 = next_float(rng)
    r = math.sqrt(-2.0 * math.log(u1))
    theta = 2.0 * math.pi * u2
    rng._spare_normal = r * math.sin(theta)
    return mean + std * r * math.cos(theta)


def xoshiro_steps(state, n):
    """n xoshiro256++ steps from a four-word state, one at a time as in the
    reference C code; returns (the n outputs, the state after them)."""
    mask = (1 << 64) - 1

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & mask

    s = list(state)
    out = []
    for _ in range(n):
        out.append((rotl((s[0] + s[3]) & mask, 23) + s[0]) & mask)
        t = (s[1] << 17) & mask
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
    return out, s
