"""Probability-space cross-entropy: the reference the fused logit losses in
tinynn.training and the finite-difference gradient checks are judged by."""

import numpy as np

from tinynn.errors import DataError


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
