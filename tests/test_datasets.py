"""Synthetic generation, file-format parsing with crafted corrupt inputs,
stratified subsetting, and balanced one-vs-all views."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from tinynn.datasets import (
    BinaryTaskView,
    LabeledDataset,
    SyntheticSpec,
    gather,
    generate_synthetic,
    load_cifar10,
    load_mnist,
    make_ova_views,
    stratified_subset,
)
from tinynn.errors import DataError, DataFormatError
from tinynn.tensor import Tensor


def export_synthetic_csv(data, path):
    """Write features and labels as x0,..,x{d-1},label rows."""
    feats = data.feature_array
    with open(path, "w") as f:
        f.write("# tinynn csv v1\n")
        f.write(",".join("x%d" % i for i in range(feats.shape[1])) + ",label\n")
        for row, lab in zip(feats, data.labels):
            f.write(",".join(repr(float(v)) for v in row) + ",%d\n" % lab)


def mnist_image_payload(data, indices):
    """Re-serialize features to IDX pixel bytes (the round-trip check)."""
    return np.rint(data.feature_array[indices] * 255.0).astype(np.uint8).tobytes()


def mnist_label_payload(data, indices):
    return data.labels[indices].astype(np.uint8).tobytes()


def cifar_record_bytes(data, indices):
    """Re-serialize samples to 3073-byte records (the round-trip check)."""
    n = len(indices)
    out = np.empty((n, 3073), np.uint8)
    out[:, 0] = data.labels[indices]
    out[:, 1:] = np.rint(data.feature_array[indices] * 255.0).reshape(n, -1)
    return out.tobytes()


def sha256_of(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# features, labels, train and test indices of generate_synthetic, hashed in
# that order; frozen from the per-draw normal() and randbelow() loops
SYNTHETIC_DIGESTS = [
    (
        SyntheticSpec(std=0.7, n_samples=200, seed=9),
        "c090b6687eb872b7dad6b69a5677f0dbd91650c6f8be1b64bdee356c289b6e97",
    ),
    (
        SyntheticSpec(std=1.3, n_samples=1002, seed=17, mean=0.25, bias=1.0, dim=5),
        "b9d327d3f70da44e8fc41af374925ca1944681b9b642f93825482591f0332d3f",
    ),
]

# make_ova_views(grid_dataset(per_class=10, k=3, test_per_class=2), 3, 5)
OVA_TRAIN_INDICES = [
    [22, 5, 2, 11, 24, 14, 27, 3, 4, 6, 1, 7, 21, 10, 12, 0],
    [17, 11, 13, 2, 25, 12, 24, 27, 16, 15, 10, 26, 1, 3, 23, 14],
    [7, 21, 10, 23, 26, 13, 27, 4, 22, 1, 25, 24, 14, 20, 5, 2],
]


class TestSyntheticSpec:
    @pytest.mark.parametrize(
        "kw",
        [
            {"std": 0.0, "n_samples": 10, "seed": 0},
            {"std": -1.0, "n_samples": 10, "seed": 0},
            {"std": 1.0, "n_samples": 0, "seed": 0},
            {"std": 1.0, "n_samples": 11, "seed": 0},
            {"std": 1.0, "n_samples": 10, "seed": 0, "dim": 0},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(DataError):
            SyntheticSpec(**kw)


class TestGenerateSynthetic:
    def test_shape_and_balance(self):
        data = generate_synthetic(SyntheticSpec(std=1.0, n_samples=1000, seed=1))
        assert data.feature_array.shape == (1000, 3)
        assert np.count_nonzero(data.labels == 1) == 500
        assert np.count_nonzero(data.labels == 0) == 500

    def test_deterministic(self):
        spec = SyntheticSpec(std=0.7, n_samples=200, seed=9)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        np.testing.assert_array_equal(a.feature_array, b.feature_array)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.train_indices, b.train_indices)

    @pytest.mark.parametrize("spec,digest", SYNTHETIC_DIGESTS)
    def test_frozen_stream(self, spec, digest):
        data = generate_synthetic(spec)
        got = sha256_of(
            data.feature_array, data.labels, data.train_indices, data.test_indices
        )
        assert got == digest

    def test_seed_changes_draw(self):
        a = generate_synthetic(SyntheticSpec(std=1.0, n_samples=100, seed=1))
        b = generate_synthetic(SyntheticSpec(std=1.0, n_samples=100, seed=2))
        assert (a.feature_array != b.feature_array).any()

    def test_cluster_means_near_bias(self):
        # law of large numbers: per-class coordinate means approach +-0.5
        data = generate_synthetic(SyntheticSpec(std=1.0, n_samples=20000, seed=3))
        pos = data.feature_array[data.labels == 1]
        neg = data.feature_array[data.labels == 0]
        assert np.abs(pos.mean(axis=0) - 0.5).max() < 0.04
        assert np.abs(neg.mean(axis=0) + 0.5).max() < 0.04
        assert abs(pos.std() - 1.0) < 0.03

    def test_split_is_stratified_80_20(self):
        data = generate_synthetic(SyntheticSpec(std=1.0, n_samples=1000, seed=4))
        assert len(data.train_indices) == 800
        assert len(data.test_indices) == 200
        train_labels = data.labels_at(data.train_indices)
        assert np.count_nonzero(train_labels == 1) == 400

    def test_custom_dim_and_bias(self):
        data = generate_synthetic(
            SyntheticSpec(std=0.1, n_samples=400, seed=5, bias=2.0, dim=5)
        )
        assert data.feature_array.shape == (400, 5)
        pos = data.feature_array[data.labels == 1]
        assert pos.mean() > 1.5

    def test_export_csv(self, tmp_path):
        data = generate_synthetic(SyntheticSpec(std=1.0, n_samples=10, seed=6))
        path = str(tmp_path / "s.csv")
        export_synthetic_csv(data, path)
        lines = open(path).read().splitlines()
        assert lines[1] == "x0,x1,x2,label"
        assert len(lines) == 2 + 10
        first = lines[2].split(",")
        assert float(first[0]) == data.feature_array[0, 0]
        assert first[3] in ("0", "1")


class TestLabeledDataset:
    def make(self, n=10, k=2):
        feats = Tensor(np.arange(n * 2, dtype=np.float64).reshape(n, 2))
        labels = np.arange(n) % k
        half = n // 2
        return LabeledDataset(feats, labels, k, np.arange(half), np.arange(half, n))

    def test_accessors(self):
        data = self.make()
        assert data.feature_array.shape == (10, 2)
        np.testing.assert_array_equal(data.labels_at([0, 2]), [0, 0])

    def test_label_range_enforced(self):
        with pytest.raises(DataError):
            LabeledDataset(
                Tensor(np.zeros((4, 2))), [0, 1, 2, 3], 2, [0, 1], [2, 3]
            )

    def test_label_length_enforced(self):
        with pytest.raises(DataError):
            LabeledDataset(Tensor(np.zeros((4, 2))), [0, 1], 2, [0, 1], [2, 3])

    @pytest.mark.parametrize(
        "train,test",
        [([0, 1], [1, 2, 3]), ([0, 1], [2]), ([0, 0], [1, 2, 3]), ([0, 5], [1, 2, 3]),
         ([-1, 1], [2, 3]), ([0, 0], [2, 3]), ([0, 1], [2, 3, 0, 1]), ([], [])],
    )
    def test_split_must_partition(self, train, test):
        with pytest.raises(DataError, match="partition"):
            LabeledDataset(Tensor(np.zeros((4, 2))), [0, 1, 0, 1], 2, train, test)

    def test_arrays_frozen(self):
        data = self.make()
        with pytest.raises(ValueError):
            data.labels[0] = 1
        with pytest.raises(ValueError):
            data.train_indices[0] = 3


def idx_images_bytes(images):
    images = np.asarray(images, np.uint8)
    head = struct.pack(">IIII", 0x00000803, len(images), 28, 28)
    return head + images.tobytes()


def idx_labels_bytes(labels):
    labels = np.asarray(labels, np.uint8)
    return struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes()


@pytest.fixture
def tiny_mnist_files(tmp_path):
    rng = np.random.default_rng(0)
    train_imgs = rng.integers(0, 256, size=(20, 28, 28), dtype=np.uint8)
    train_labels = np.array([i % 10 for i in range(20)], np.uint8)
    test_imgs = rng.integers(0, 256, size=(10, 28, 28), dtype=np.uint8)
    test_labels = np.arange(10, dtype=np.uint8)
    paths = {}
    for name, blob in (
        ("train-images", idx_images_bytes(train_imgs)),
        ("train-labels", idx_labels_bytes(train_labels)),
        ("test-images", idx_images_bytes(test_imgs)),
        ("test-labels", idx_labels_bytes(test_labels)),
    ):
        p = tmp_path / name
        p.write_bytes(blob)
        paths[name] = str(p)
    paths["train_imgs"] = train_imgs
    paths["train_labels"] = train_labels
    paths["test_imgs"] = test_imgs
    return paths


class TestIdxParsing:
    def test_load_scales_and_shapes(self, tiny_mnist_files):
        f = tiny_mnist_files
        data = load_mnist(
            f["train-images"], f["train-labels"], f["test-images"], f["test-labels"]
        )
        assert data.feature_array.shape == (30, 1, 28, 28)
        assert data.feature_array.max() <= 1.0
        assert len(data.train_indices) == 20
        assert len(data.test_indices) == 10
        np.testing.assert_array_equal(
            data.labels_at(data.train_indices), f["train_labels"]
        )
        # pixel values survive the /255 scaling exactly
        np.testing.assert_allclose(
            data.feature_array[0, 0], f["train_imgs"][0] / 255.0, atol=0
        )

    def test_payload_round_trip(self, tiny_mnist_files):
        f = tiny_mnist_files
        data = load_mnist(
            f["train-images"], f["train-labels"], f["test-images"], f["test-labels"]
        )
        got = mnist_image_payload(data, data.train_indices)
        assert got == f["train_imgs"].tobytes()
        assert mnist_label_payload(data, data.train_indices) == (
            f["train_labels"].tobytes()
        )

    def test_bad_magic_offset_in_message(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(b"\x00\x00\x08\x99" + b"\x00" * 100)
        with pytest.raises(DataFormatError, match="magic.*offset 0"):
            load_mnist(str(p), str(p), str(p), str(p))

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "short"
        p.write_bytes(b"\x00\x00\x08")
        with pytest.raises(DataFormatError, match="truncated header"):
            load_mnist(str(p), str(p), str(p), str(p))

    def test_payload_size_mismatch(self, tmp_path):
        imgs = np.zeros((2, 28, 28), np.uint8)
        blob = idx_images_bytes(imgs)[:-10]
        p = tmp_path / "trunc"
        p.write_bytes(blob)
        with pytest.raises(DataFormatError, match="promises"):
            load_mnist(str(p), str(p), str(p), str(p))

    def test_wrong_image_size_rejected(self, tmp_path):
        head = struct.pack(">IIII", 0x00000803, 1, 14, 14)
        p = tmp_path / "small"
        p.write_bytes(head + b"\x00" * (14 * 14))
        with pytest.raises(DataFormatError, match="28x28"):
            load_mnist(str(p), str(p), str(p), str(p))

    def test_label_out_of_range_offset(self, tmp_path, tiny_mnist_files):
        labels = np.array([1, 2, 11], np.uint8)
        p = tmp_path / "labels"
        p.write_bytes(idx_labels_bytes(labels))
        imgs = tmp_path / "imgs"
        imgs.write_bytes(idx_images_bytes(np.zeros((3, 28, 28), np.uint8)))
        with pytest.raises(DataFormatError, match="label byte 11 .*offset 10"):
            load_mnist(str(imgs), str(p), str(imgs), str(p))

    def test_count_mismatch_names_both_files(self, tiny_mnist_files, tmp_path):
        f = tiny_mnist_files
        p = tmp_path / "three-labels"
        p.write_bytes(idx_labels_bytes(np.zeros(3, np.uint8)))
        with pytest.raises(DataFormatError, match="does not match"):
            load_mnist(f["train-images"], str(p), f["test-images"], f["test-labels"])


def cifar_batch_bytes(labels, pixels):
    n = len(labels)
    rec = np.empty((n, 3073), np.uint8)
    rec[:, 0] = labels
    rec[:, 1:] = pixels.reshape(n, -1)
    return rec.tobytes()


@pytest.fixture
def tiny_cifar_files(tmp_path):
    rng = np.random.default_rng(1)
    train_px = rng.integers(0, 256, size=(20, 3, 32, 32), dtype=np.uint8)
    train_labels = np.array([i % 10 for i in range(20)], np.uint8)
    test_px = rng.integers(0, 256, size=(10, 3, 32, 32), dtype=np.uint8)
    test_labels = np.arange(10, dtype=np.uint8)
    b1 = tmp_path / "b1.bin"
    b2 = tmp_path / "b2.bin"
    tb = tmp_path / "test.bin"
    b1.write_bytes(cifar_batch_bytes(train_labels[:10], train_px[:10]))
    b2.write_bytes(cifar_batch_bytes(train_labels[10:], train_px[10:]))
    tb.write_bytes(cifar_batch_bytes(test_labels, test_px))
    return {
        "batches": [str(b1), str(b2)],
        "test": str(tb),
        "train_px": train_px,
        "train_labels": train_labels,
        "test_px": test_px,
    }


class TestCifarParsing:
    def test_load_shapes_and_values(self, tiny_cifar_files):
        f = tiny_cifar_files
        data = load_cifar10(f["batches"], f["test"])
        assert data.feature_array.shape == (30, 3, 32, 32)
        assert len(data.train_indices) == 20
        assert len(data.test_indices) == 10
        np.testing.assert_array_equal(
            data.labels_at(data.train_indices), f["train_labels"]
        )
        np.testing.assert_allclose(
            data.feature_array[3], f["train_px"][3] / 255.0, atol=0
        )

    def test_record_round_trip(self, tiny_cifar_files):
        f = tiny_cifar_files
        data = load_cifar10(f["batches"], f["test"])
        got = cifar_record_bytes(data, data.train_indices)
        want = cifar_batch_bytes(f["train_labels"], f["train_px"])
        assert got == want

    def test_ragged_file_rejected_with_remainder(self, tmp_path):
        p = tmp_path / "ragged.bin"
        p.write_bytes(b"\x00" * (3073 + 100))
        with pytest.raises(DataFormatError, match="remainder 100"):
            load_cifar10([str(p)], str(p))

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.bin"
        p.write_bytes(b"")
        with pytest.raises(DataFormatError):
            load_cifar10([str(p)], str(p))

    def test_label_out_of_range_names_record(self, tmp_path):
        rec = np.zeros((2, 3073), np.uint8)
        rec[1, 0] = 12
        p = tmp_path / "bad.bin"
        p.write_bytes(rec.tobytes())
        with pytest.raises(DataFormatError, match="record 1"):
            load_cifar10([str(p)], str(p))

    def test_no_batches_rejected(self):
        with pytest.raises(DataError):
            load_cifar10([], "test_batch.bin")


def upfront(pixels):
    """Image features as loading once made them: every byte converted to
    float64, then divided by 255 in place."""
    feats = pixels.astype(np.float64)
    feats /= 255.0
    return feats


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestImageStorage:
    """Image features stay the bytes they were read in, and a gather gives
    the rows of converting them up front, bit for bit."""

    def assert_stored_as_bytes(self, data, pixels):
        assert data.features.dtype == np.uint8
        assert data.features.nbytes == pixels.size  # one byte per pixel
        np.testing.assert_array_equal(data.features, pixels)
        every = np.arange(len(pixels))[::-1]
        assert same_bits(gather(data.features, every), upfront(pixels)[every])

    def test_mnist(self, tiny_mnist_files):
        f = tiny_mnist_files
        data = load_mnist(
            f["train-images"], f["train-labels"], f["test-images"], f["test-labels"]
        )
        pixels = np.concatenate([f["train_imgs"], f["test_imgs"]])[:, None]
        self.assert_stored_as_bytes(data, pixels)

    def test_cifar(self, tiny_cifar_files):
        f = tiny_cifar_files
        data = load_cifar10(f["batches"], f["test"])
        self.assert_stored_as_bytes(data, np.concatenate([f["train_px"], f["test_px"]]))

    def test_every_byte_value(self):
        values = np.arange(256, dtype=np.uint8)
        assert same_bits(gather(values, slice(None)), upfront(values))

    def test_float64_rows_pass_unchanged(self):
        data = generate_synthetic(SyntheticSpec(std=0.5, n_samples=40, seed=1))
        idx = data.train_indices[::-1]
        assert same_bits(gather(data.features, idx), data.features[idx])

    def test_subset_copies_bytes(self, tiny_mnist_files):
        f = tiny_mnist_files
        data = load_mnist(
            f["train-images"], f["train-labels"], f["test-images"], f["test-labels"]
        )
        sub = stratified_subset(data, 10)
        assert sub.features.dtype == np.uint8
        assert not np.shares_memory(sub.features, data.features)
        np.testing.assert_array_equal(
            sub.features[sub.test_indices], data.features[data.test_indices]
        )

    def test_load_peak_stays_below_twice_the_pixel_bytes(self, tmp_path):
        # a float64 copy of the features alone would take 8x the pixel
        # bytes; each file's pixels are read once, into the kept array
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, size=(2000, 28, 28), dtype=np.uint8)
        labels = np.arange(2000) % 10
        paths = []
        for name, blob in (
            ("train-images", idx_images_bytes(images[:1600])),
            ("train-labels", idx_labels_bytes(labels[:1600])),
            ("test-images", idx_images_bytes(images[1600:])),
            ("test-labels", idx_labels_bytes(labels[1600:])),
        ):
            (tmp_path / name).write_bytes(blob)
            paths.append(str(tmp_path / name))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            data = load_mnist(*paths)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 * images.nbytes
        np.testing.assert_array_equal(data.features[:, 0], images)

    def test_cifar_load_holds_one_batch_file_at_a_time(self, tmp_path):
        # six equal batch files: holding them all while their pixels are
        # copied peaks near twice the pixel bytes, one at a time near 7/6
        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 256, size=(6, 400, 3, 32, 32), dtype=np.uint8)
        labels = np.arange(400) % 10
        paths = []
        for i, block in enumerate(pixels):
            (tmp_path / ("batch%d.bin" % i)).write_bytes(cifar_batch_bytes(labels, block))
            paths.append(str(tmp_path / ("batch%d.bin" % i)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            data = load_cifar10(paths[:5], paths[5])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * pixels.nbytes
        np.testing.assert_array_equal(data.features, pixels.reshape(-1, 3, 32, 32))
        np.testing.assert_array_equal(data.labels, np.tile(labels, 6))
        assert len(data.train_indices) == 2000 and len(data.test_indices) == 400


def grid_dataset(per_class=20, k=4, test_per_class=5):
    """Deterministic dataset: label c has feature value c."""
    n = per_class * k
    feats = np.repeat(np.arange(k, dtype=np.float64), per_class)[:, None]
    labels = np.repeat(np.arange(k, dtype=np.int64), per_class)
    train, test = [], []
    for c in range(k):
        block = np.flatnonzero(labels == c)
        train.extend(block[:-test_per_class])
        test.extend(block[-test_per_class:])
    return LabeledDataset(Tensor(feats), labels, k, np.sort(train), np.sort(test))


class TestStratifiedSubset:
    def test_quota_split(self):
        data = grid_dataset()
        sub = stratified_subset(data, 10)
        # 10 // 4 = 2 each, +1 for the first 10 % 4 = 2 classes
        labels = sub.labels_at(sub.train_indices)
        counts = np.bincount(labels, minlength=4)
        np.testing.assert_array_equal(counts, [3, 3, 2, 2])

    def test_keeps_full_test_split(self):
        data = grid_dataset()
        sub = stratified_subset(data, 8)
        assert len(sub.test_indices) == len(data.test_indices)
        np.testing.assert_array_equal(
            sub.labels_at(sub.test_indices), data.labels_at(data.test_indices)
        )

    def test_capped_at_train_size(self):
        data = grid_dataset()
        sub = stratified_subset(data, 10 ** 6)
        assert len(sub.train_indices) == len(data.train_indices)

    def test_self_contained_copy(self):
        data = grid_dataset()
        sub = stratified_subset(data, 8)
        assert not np.shares_memory(sub.features, data.features)

    def test_deterministic_first_rows(self):
        data = grid_dataset()
        a = stratified_subset(data, 8)
        b = stratified_subset(data, 8)
        np.testing.assert_array_equal(a.feature_array, b.feature_array)

    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            stratified_subset(grid_dataset(), 0)


class TestOvaViews:
    def test_balanced_and_complete(self):
        data = grid_dataset(per_class=20, k=4)
        views = make_ova_views(data, 4, balance_seed=0)
        assert len(views) == 4
        for target, view in enumerate(views):
            labels = view.labels_at(view.train_indices)
            pos = int(labels.sum())
            # all 15 train positives kept, negatives undersampled to match
            assert pos == 15
            assert len(labels) == 30
            # positives are exactly the target class rows
            src_labels = data.labels[view.train_indices]
            assert (src_labels[labels == 1] == target).all()
            assert (src_labels[labels == 0] != target).all()

    def test_test_split_untouched(self):
        data = grid_dataset()
        views = make_ova_views(data, 4, balance_seed=0)
        for view in views:
            np.testing.assert_array_equal(view.test_indices, data.test_indices)

    def test_no_feature_copy(self):
        data = grid_dataset()
        view = make_ova_views(data, 4, balance_seed=0)[0]
        assert view.features is data.features

    def test_deterministic_per_seed(self):
        data = grid_dataset()
        a = make_ova_views(data, 4, balance_seed=5)
        b = make_ova_views(data, 4, balance_seed=5)
        c = make_ova_views(data, 4, balance_seed=6)
        np.testing.assert_array_equal(a[2].train_indices, b[2].train_indices)
        assert (a[2].train_indices != c[2].train_indices).any()

    def test_frozen_stream(self):
        data = grid_dataset(per_class=10, k=3, test_per_class=2)
        views = make_ova_views(data, 3, balance_seed=5)
        assert [v.train_indices.tolist() for v in views] == OVA_TRAIN_INDICES

    def test_train_indices_shuffled(self):
        data = grid_dataset()
        view = make_ova_views(data, 4, balance_seed=0)[0]
        labels = view.labels_at(view.train_indices)
        # a sorted concatenation would put all positives first
        assert not (labels[:15] == 1).all()

    def test_k_mismatch(self):
        with pytest.raises(DataError):
            make_ova_views(grid_dataset(), 3, balance_seed=0)

    def test_binary_relabel(self):
        data = grid_dataset()
        view = BinaryTaskView(data, 2, data.train_indices)
        labels = view.labels_at(view.train_indices)
        assert set(labels.tolist()) == {0, 1}
        assert labels.sum() == 15
