"""Dataset construction: synthetic Gaussians, IDX and binary-batch image
parsers, stratified subsetting, and balanced one-vs-all views.

All features are float64 tensors; image pixels are scaled to [0, 1] by /255.
Datasets are immutable after construction. Views never copy features: they
hold index arrays into the source dataset's storage.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DataFormatError
from .rng import Rng, derive_seed
from .tensor import Tensor

_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801
_CIFAR_RECORD = 3073  # 1 label byte + 3 * 1024 channel-planar pixels


@dataclass(frozen=True)
class SyntheticSpec:
    """Two Gaussian clusters at +/-bias along every coordinate."""

    std: float
    n_samples: int
    seed: int
    mean: float = 0.0
    bias: float = 0.5
    dim: int = 3

    def __post_init__(self):
        if self.std <= 0:
            raise DataError("std must be positive, got %r" % (self.std,))
        if self.n_samples < 2 or self.n_samples % 2:
            raise DataError(
                "n_samples must be even and >= 2, got %r" % (self.n_samples,)
            )
        if self.dim < 1:
            raise DataError("dim must be >= 1, got %r" % (self.dim,))


class LabeledDataset:
    """Feature tensor, integer labels, and a disjoint train/test partition."""

    def __init__(self, features, labels, class_count, train_indices, test_indices):
        self.features = features
        self.labels = np.asarray(labels, dtype=np.int64)
        self.class_count = int(class_count)
        self.train_indices = np.asarray(train_indices, dtype=np.int64)
        self.test_indices = np.asarray(test_indices, dtype=np.int64)
        n = features.shape[0]
        if self.labels.shape != (n,):
            raise DataError(
                "labels length %d does not match %d samples" % (len(self.labels), n)
            )
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= class_count
        ):
            raise DataError(
                "labels must lie in [0, %d)" % class_count
            )
        both = np.concatenate([self.train_indices, self.test_indices])
        if len(np.unique(both)) != len(both) or len(both) != n or (
            both.size and (both.min() < 0 or both.max() >= n)
        ):
            raise DataError("train/test split must partition the sample indices")
        self.labels.flags.writeable = False
        self.train_indices.flags.writeable = False
        self.test_indices.flags.writeable = False

    @property
    def feature_array(self):
        return self.features.array

    def labels_at(self, idx):
        return self.labels[idx]


class BinaryTaskView:
    """A one-vs-all relabeling of a source dataset.

    Training indices are balanced (negatives undersampled to the positive
    count) and pre-shuffled; the test portion is the source's full, untouched
    test split so every evaluation sees the authentic class mixture.
    """

    def __init__(self, source, target_class, train_indices):
        self.source = source
        self.target_class = int(target_class)
        self.train_indices = np.asarray(train_indices, dtype=np.int64)
        self.train_indices.flags.writeable = False
        self.test_indices = source.test_indices
        self.class_count = 2

    @property
    def feature_array(self):
        return self.source.feature_array

    def labels_at(self, idx):
        return (self.source.labels[idx] == self.target_class).astype(np.int64)


def _stratified_split(labels, indices, train_fraction, rng):
    """Split index array by label, shuffled per class; returns sorted arrays."""
    train_parts, test_parts = [], []
    for c in np.unique(labels[indices]):
        cls = indices[labels[indices] == c]
        cls = cls.copy()
        rng.shuffle(cls)
        cut = int(len(cls) * train_fraction)
        train_parts.append(cls[:cut])
        test_parts.append(cls[cut:])
    return (
        np.sort(np.concatenate(train_parts)),
        np.sort(np.concatenate(test_parts)),
    )


def generate_synthetic(spec):
    """Draw the two-cluster Gaussian dataset with an attached 80/20 split.

    Coordinates are Normal(mean, std) draws in row-major order; the first
    half of the rows is shifted +bias and labeled 1, the second half -bias
    and labeled 0, and the rows are then shuffled. The split is stratified.
    """
    rng = Rng(derive_seed(spec.seed))
    n, d = spec.n_samples, spec.dim
    feats = np.empty((n, d))
    rng.fill_normal(feats.reshape(-1), spec.mean, spec.std)
    half = n // 2
    feats[:half] += spec.bias
    feats[half:] -= spec.bias
    labels = np.concatenate([np.ones(half, np.int64), np.zeros(n - half, np.int64)])
    perm = np.arange(n)
    rng.shuffle(perm)
    feats = np.ascontiguousarray(feats[perm])
    labels = labels[perm]
    train_idx, test_idx = _stratified_split(labels, np.arange(n), 0.8, rng)
    return LabeledDataset(Tensor._wrap(feats), labels, 2, train_idx, test_idx)


def export_synthetic_csv(data, path):
    """Write features and labels as x0,..,x{d-1},label rows."""
    feats = data.feature_array
    d = feats.shape[1]
    with open(path, "w") as f:
        f.write("# tinynn csv v1\n")
        f.write(",".join("x%d" % i for i in range(d)) + ",label\n")
        for row, lab in zip(feats, data.labels):
            f.write(",".join(repr(float(v)) for v in row) + ",%d\n" % lab)


# ---------------------------------------------------------------------------
# IDX (images/labels) parsing


def _idx_header(data, path, magic_want, n_dims):
    need = 4 * (1 + n_dims)
    if len(data) < need:
        raise DataFormatError(
            "%s: truncated header, %d bytes but %d needed at offset 0"
            % (path, len(data), need)
        )
    magic = struct.unpack(">I", data[:4])[0]
    if magic != magic_want:
        raise DataFormatError(
            "%s: bad magic 0x%08x at byte offset 0 (expected 0x%08x)"
            % (path, magic, magic_want)
        )
    dims = struct.unpack(">%dI" % n_dims, data[4:need])
    return dims, need


def _read_idx_images(path):
    with open(path, "rb") as f:
        data = f.read()
    (count, rows, cols), offset = _idx_header(data, path, _IDX_IMAGE_MAGIC, 3)
    if (rows, cols) != (28, 28):
        raise DataFormatError(
            "%s: expected 28x28 images, header says %dx%d" % (path, rows, cols)
        )
    want = count * rows * cols
    have = len(data) - offset
    if have != want:
        raise DataFormatError(
            "%s: payload is %d bytes at offset %d, header promises %d"
            % (path, have, offset, want)
        )
    return np.frombuffer(data, np.uint8, offset=offset).reshape(count, rows, cols)


def _read_idx_labels(path):
    with open(path, "rb") as f:
        data = f.read()
    (count,), offset = _idx_header(data, path, _IDX_LABEL_MAGIC, 1)
    have = len(data) - offset
    if have != count:
        raise DataFormatError(
            "%s: payload is %d bytes at offset %d, header promises %d"
            % (path, have, offset, count)
        )
    labels = np.frombuffer(data, np.uint8, offset=offset)
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        raise DataFormatError(
            "%s: label byte %d out of range at offset %d"
            % (path, labels[bad[0]], offset + bad[0])
        )
    return labels


def load_mnist(images_path, labels_path, test_images_path=None, test_labels_path=None):
    """Parse IDX image/label pairs into a dataset of [N,1,28,28] features.

    With only the first pair, every sample lands in the train split; with a
    test pair, the two files become the train and test partitions.
    """
    pairs = [(images_path, labels_path)]
    if test_images_path is not None:
        pairs.append((test_images_path, test_labels_path))
    blocks, label_blocks = [], []
    for ip, lp in pairs:
        images = _read_idx_images(ip)
        labels = _read_idx_labels(lp)
        if len(images) != len(labels):
            raise DataFormatError(
                "image count %d (%s) does not match label count %d (%s)"
                % (len(images), ip, len(labels), lp)
            )
        blocks.append(images)
        label_blocks.append(labels)
    feats = np.concatenate(blocks).astype(np.float64)[:, None, :, :]
    feats /= 255.0
    labels = np.concatenate(label_blocks).astype(np.int64)
    n_train = len(blocks[0])
    n = len(labels)
    return LabeledDataset(
        Tensor._wrap(feats), labels, 10,
        np.arange(n_train), np.arange(n_train, n),
    )


def mnist_image_payload(data, indices=None):
    """Re-serialize features to IDX pixel bytes (the round-trip check)."""
    feats = data.feature_array if indices is None else data.feature_array[indices]
    return np.rint(feats * 255.0).astype(np.uint8).tobytes()


def mnist_label_payload(data, indices=None):
    labels = data.labels if indices is None else data.labels[indices]
    return labels.astype(np.uint8).tobytes()


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches


def _read_cifar_batch(path):
    with open(path, "rb") as f:
        data = f.read()
    if len(data) == 0 or len(data) % _CIFAR_RECORD:
        raise DataFormatError(
            "%s: %d bytes is not a whole number of %d-byte records "
            "(remainder %d)" % (path, len(data), _CIFAR_RECORD,
                                len(data) % _CIFAR_RECORD)
        )
    records = np.frombuffer(data, np.uint8).reshape(-1, _CIFAR_RECORD)
    labels = records[:, 0]
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        raise DataFormatError(
            "%s: label byte %d out of range at offset %d (record %d)"
            % (path, labels[bad[0]], bad[0] * _CIFAR_RECORD, bad[0])
        )
    return records


def load_cifar10(batch_paths, test_path=None):
    """Parse 3073-byte-record batches into [N,3,32,32] features.

    batch_paths fill the train split, test_path the test split.
    """
    if isinstance(batch_paths, (str, bytes)):
        batch_paths = [batch_paths]
    if not batch_paths:
        raise DataError("no batch files given")
    blocks = [_read_cifar_batch(p) for p in batch_paths]
    n_train = sum(len(b) for b in blocks)
    if test_path is not None:
        blocks.append(_read_cifar_batch(test_path))
    records = np.concatenate(blocks)
    labels = records[:, 0].astype(np.int64)
    feats = records[:, 1:].astype(np.float64).reshape(-1, 3, 32, 32)
    feats /= 255.0
    n = len(labels)
    return LabeledDataset(
        Tensor._wrap(feats), labels, 10,
        np.arange(n_train), np.arange(n_train, n),
    )


def cifar_record_bytes(data, indices=None):
    """Re-serialize samples to 3073-byte records (the round-trip check)."""
    if indices is None:
        indices = np.arange(data.feature_array.shape[0])
    feats = data.feature_array[indices]
    labels = data.labels[indices]
    n = len(indices)
    out = np.empty((n, _CIFAR_RECORD), np.uint8)
    out[:, 0] = labels
    out[:, 1:] = np.rint(feats * 255.0).reshape(n, -1)
    return out.tobytes()


# ---------------------------------------------------------------------------
# subsetting and one-vs-all views


def stratified_subset(data, n):
    """A smaller dataset: the first per-class train samples, full test split.

    Class c's quota is n//K plus one for the first n%K classes, capped by
    availability; features of the kept rows are copied so the result is a
    self-contained dataset. Used by the --subset CLI flag.
    """
    if n < 1:
        raise DataError("subset size must be >= 1, got %r" % (n,))
    k = data.class_count
    n = min(n, len(data.train_indices))
    train_labels = data.labels_at(data.train_indices)
    keep = []
    for c in range(k):
        quota = n // k + (1 if c < n % k else 0)
        cls = data.train_indices[train_labels == c]
        keep.append(cls[:quota])
    keep = np.sort(np.concatenate(keep))
    sel = np.concatenate([keep, data.test_indices])
    feats = np.ascontiguousarray(data.feature_array[sel])
    labels = data.labels[sel]
    return LabeledDataset(
        Tensor._wrap(feats), labels, k,
        np.arange(len(keep)), np.arange(len(keep), len(sel)),
    )


def make_ova_views(data, k, balance_seed):
    """One balanced BinaryTaskView per class.

    Positives are every training sample of the target class; negatives are
    undersampled without replacement to the same count, per-class seeded, so
    views can be built or trained in any order. Selected indices are
    pre-shuffled. Test indices are the source's full test split.
    """
    if k != data.class_count:
        raise DataError(
            "k=%d but the dataset has %d classes" % (k, data.class_count)
        )
    train_idx = data.train_indices
    train_labels = data.labels_at(train_idx)
    views = []
    for target in range(k):
        rng = Rng(derive_seed(balance_seed, target))
        pos = train_idx[train_labels == target]
        if len(pos) == 0:
            raise DataError("class %d has no training samples" % target)
        pool = train_idx[train_labels != target].copy()
        if len(pool) < len(pos):
            raise DataError(
                "cannot balance class %d: %d positives but only %d negatives"
                % (target, len(pos), len(pool))
            )
        rng.shuffle(pool)
        selected = np.concatenate([pos, pool[: len(pos)]])
        rng.shuffle(selected)
        views.append(BinaryTaskView(data, target, selected))
    return views
