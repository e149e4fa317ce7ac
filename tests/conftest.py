import os
import shutil
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

DATA_ROOT = os.environ.get("TINYNN_DATA_DIR", "/root/data")

MNIST_NAMES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)
CIFAR_NAMES = tuple("data_batch_%d.bin" % i for i in range(1, 6)) + ("test_batch.bin",)


def pytest_configure(config):
    # hypothesis keeps its example database and constants under its home
    # directory, ./.hypothesis by default; the suite writes only to temp dirs
    config.hypothesis_home = tempfile.mkdtemp(prefix="tinynn-hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)


@pytest.fixture(scope="session")
def data_root():
    return DATA_ROOT


@pytest.fixture(scope="session")
def mnist_paths():
    d = os.path.join(DATA_ROOT, "mnist")
    paths = [os.path.join(d, n) for n in MNIST_NAMES]
    if not all(os.path.exists(p) for p in paths):
        pytest.skip("mnist files not present under %s" % d)
    return paths


@pytest.fixture(scope="session")
def cifar_paths():
    d = os.path.join(DATA_ROOT, "cifar-10-batches-bin")
    paths = [os.path.join(d, n) for n in CIFAR_NAMES]
    if not all(os.path.exists(p) for p in paths):
        pytest.skip("cifar-10 files not present under %s" % d)
    return paths
