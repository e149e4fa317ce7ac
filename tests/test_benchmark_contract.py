"""What the benchmark under perfbench/ reads from the library.

The benchmark records spans by patching library functions by name, and a
target that no longer resolves reads as an absent span with value 0. This
checks every target still resolves, without installing the tracer, plus the
two calls the benchmark makes directly.
"""

import importlib.util
import os

import numpy as np
import pytest

from tinynn.datasets import LabeledDataset
from tinynn.layers import build_mlp, forward
from tinynn.tensor import Tensor


def load_tracing():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = load_tracing()


@pytest.mark.parametrize("target", [patch[0] for patch in TRACING.PATCHES])
def test_patch_target_resolves(target):
    owner, attr = TRACING._resolve(target)
    assert callable(getattr(owner, attr))


def test_forward_output_has_array():
    out = forward(build_mlp(3, 2, seed=0), np.zeros((4, 3)))[0].array
    assert out.shape == (4, 1)


def test_dataset_from_tensor():
    data = LabeledDataset(
        Tensor(np.zeros((4, 1, 28, 28))), np.arange(4) % 2, 2,
        np.arange(4), np.zeros(0, np.int64),
    )
    assert data.feature_array.shape == (4, 1, 28, 28)
