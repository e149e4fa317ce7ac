"""Dataset construction: synthetic Gaussians, IDX and binary-batch image
parsers, stratified subsetting, and balanced one-vs-all views.

Image features are stored as the uint8 bytes they were read in, [N,C,H,W];
synthetic features are float64. gather is the one place rows become
float64: it scales image bytes to [0, 1] by /255 as each batch is gathered.
Datasets are immutable after construction. Views never copy features: they
hold index arrays into the source dataset's storage.
"""

import os
import struct
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DataFormatError, os_error_as
from .rng import Rng, derive_seed
from .tensor import Tensor

_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801
_CIFAR_RECORD = 3073  # 1 label byte + 3 * 1024 channel-planar pixels


@dataclass(frozen=True)
class SyntheticSpec:
    """Two Gaussian clusters at +/-bias along every coordinate. A positive
    std and an even n_samples >= 2 are checked by ExperimentConfig.validate."""

    std: float
    n_samples: int
    seed: int
    mean: float = 0.0
    bias: float = 0.5
    dim: int = 3


def gather(features, idx):
    """features[idx] as float64: stored image bytes divided by 255, float64
    rows as they are. Each byte converts exactly and divides with one
    rounding, so the rows equal those of converting every byte up front."""
    rows = features[idx]
    return rows / 255.0 if rows.dtype == np.uint8 else rows


class LabeledDataset:
    """Stored features, integer labels, and a disjoint train/test partition,
    checked in O(n) by one bincount, after a length check and a range check
    that keeps a negative index from reaching bincount."""

    def __init__(self, features, labels, class_count, train_indices, test_indices):
        # a read-only view; a Tensor is unwrapped to its array
        self.features = (features.array if isinstance(features, Tensor) else features).view()
        self.features.flags.writeable = False
        self.labels = np.asarray(labels, dtype=np.int64)
        self.class_count = int(class_count)
        self.train_indices = np.asarray(train_indices, dtype=np.int64)
        self.test_indices = np.asarray(test_indices, dtype=np.int64)
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise DataError("labels length %d does not match %d samples" % (len(self.labels), n))
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= class_count):
            raise DataError("labels must lie in [0, %d)" % class_count)
        both = np.concatenate([self.train_indices, self.test_indices])
        if len(both) != n or n and (both.min() < 0 or both.max() >= n
                                    or np.bincount(both, minlength=n).max() != 1):
            raise DataError("train/test split must partition the sample indices")
        self.labels.flags.writeable = False
        self.train_indices.flags.writeable = False
        self.test_indices.flags.writeable = False

    @property
    def feature_array(self):
        """Every row gathered, for callers outside the library: a view of
        float64 features, a float64 copy of image bytes."""
        return gather(self.features, slice(None))

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
        self.features = source.features
        self.target_class = int(target_class)
        self.train_indices = np.asarray(train_indices, dtype=np.int64)
        self.train_indices.flags.writeable = False
        self.test_indices = source.test_indices
        self.class_count = 2

    def labels_at(self, idx):
        return (self.source.labels[idx] == self.target_class).astype(np.int64)


def _stratified_split(labels, indices, train_fraction, rng):
    """Split index array by label, shuffled per class in ascending class
    order (the bincount's nonzero bins); returns sorted arrays."""
    train_parts, test_parts = [], []
    present = labels[indices]
    for c in np.flatnonzero(np.bincount(present)):
        cls = indices[present == c]  # a copy: boolean indexing never views
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
    return LabeledDataset(feats, labels, 2, train_idx, test_idx)


# ---------------------------------------------------------------------------
# IDX (images/labels) parsing


def _idx_header(f, path, magic_want, item_dims):
    """Check an open IDX file's header, and that its payload holds exactly
    the items it promises, each of extents item_dims; returns the item
    count, with the file at the payload."""
    need = 4 * (2 + len(item_dims))
    head = f.read(need)
    if len(head) < need:
        raise DataFormatError(
            "%s: truncated header, %d bytes but %d needed at offset 0"
            % (path, len(head), need)
        )
    magic = struct.unpack(">I", head[:4])[0]
    if magic != magic_want:
        raise DataFormatError(
            "%s: bad magic 0x%08x at byte offset 0 (expected 0x%08x)"
            % (path, magic, magic_want)
        )
    count, *dims = struct.unpack(">%dI" % (1 + len(item_dims)), head[4:])
    if tuple(dims) != item_dims:
        raise DataFormatError(
            "%s: expected %s images, header says %s"
            % (path, "x".join(map(str, item_dims)), "x".join(map(str, dims)))
        )
    want = count * int(np.prod(item_dims))
    have = os.fstat(f.fileno()).st_size - need
    if have != want:
        raise DataFormatError(
            "%s: payload is %d bytes at offset %d, header promises %d"
            % (path, have, need, want)
        )
    return count


def _read_idx_labels(path):
    with os_error_as(DataError, "read", path), open(path, "rb") as f:
        _idx_header(f, path, _IDX_LABEL_MAGIC, ())
        labels = np.frombuffer(f.read(), np.uint8)
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        raise DataFormatError(
            "%s: label byte %d out of range at offset %d"
            % (path, labels[bad[0]], 8 + bad[0])
        )
    return labels


def load_mnist(images_path, labels_path, test_images_path, test_labels_path):
    """Parse IDX image/label pairs into a dataset of [N,1,28,28] uint8
    features; the first pair is the train split, the second the test split.
    Both files' pixels are read into one array, once their headers check."""
    with ExitStack() as stack:
        files, label_blocks = [], []
        for ip, lp in ((images_path, labels_path), (test_images_path, test_labels_path)):
            with os_error_as(DataError, "read", ip):
                f = stack.enter_context(open(ip, "rb"))
                count = _idx_header(f, ip, _IDX_IMAGE_MAGIC, (28, 28))
            labels = _read_idx_labels(lp)
            if count != len(labels):
                raise DataFormatError(
                    "image count %d (%s) does not match label count %d (%s)"
                    % (count, ip, len(labels), lp)
                )
            files.append(f)
            label_blocks.append(labels)
        labels = np.concatenate(label_blocks).astype(np.int64)
        feats = np.empty((len(labels), 1, 28, 28), np.uint8)
        n_train = len(label_blocks[0])
        for f, part in zip(files, (feats[:n_train], feats[n_train:])):
            with os_error_as(DataError, "read", f.name):
                f.readinto(part)
    return LabeledDataset(feats, labels, 10, np.arange(n_train), np.arange(n_train, len(labels)))


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches


def _read_cifar_batch(path, labels, feats):
    """Check a batch file, then copy its records into the slots given."""
    with os_error_as(DataError, "read", path), open(path, "rb") as f:
        data = f.read()
    if len(data) == 0 or len(data) % _CIFAR_RECORD:
        raise DataFormatError(
            "%s: %d bytes is not a whole number of %d-byte records "
            "(remainder %d)" % (path, len(data), _CIFAR_RECORD,
                                len(data) % _CIFAR_RECORD)
        )
    records = np.frombuffer(data, np.uint8).reshape(-1, _CIFAR_RECORD)
    bad = np.flatnonzero(records[:, 0] > 9)
    if bad.size:
        raise DataFormatError(
            "%s: label byte %d out of range at offset %d (record %d)"
            % (path, records[bad[0], 0], bad[0] * _CIFAR_RECORD, bad[0])
        )
    labels[...] = records[:, 0]
    feats.reshape(len(records), -1)[...] = records[:, 1:]


def load_cifar10(batch_paths, test_path):
    """Parse 3073-byte-record batches into [N,3,32,32] uint8 features.

    batch_paths (a list) fill the train split, test_path the test split.
    Each file's records are copied into place before the next file is read.
    """
    paths = list(batch_paths) + [test_path]
    counts = [os.stat(p).st_size // _CIFAR_RECORD for p in paths]
    ends = np.cumsum(counts)
    labels, feats = np.empty(ends[-1], np.int64), np.empty((ends[-1], 3, 32, 32), np.uint8)
    for p, start, end in zip(paths, ends - counts, ends):
        _read_cifar_batch(p, labels[start:end], feats[start:end])
    return LabeledDataset(feats, labels, 10, np.arange(ends[-2]), np.arange(ends[-2], ends[-1]))


# ---------------------------------------------------------------------------
# subsetting and one-vs-all views


def stratified_subset(data, n):
    """A smaller dataset: the first per-class train samples, full test split.

    Class c's quota is n//K plus one for the first n%K classes, capped by
    availability; features of the kept rows are copied so the result is a
    self-contained dataset. Used by the --subset CLI flag.
    """
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
    return LabeledDataset(data.features[sel], data.labels[sel], k,
                          np.arange(len(keep)), np.arange(len(keep), len(sel)))


def make_ova_views(data, k, balance_seed):
    """One balanced BinaryTaskView per class.

    Positives are every training sample of the target class; negatives are
    undersampled without replacement to the same count, per-class seeded, so
    views can be built or trained in any order. Selected indices are
    pre-shuffled. Test indices are the source's full test split.
    """
    if k != data.class_count:
        raise DataError("k=%d but the dataset has %d classes" % (k, data.class_count))
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
