"""Workload definitions and the inputs each workload generates from its seed.

Everything here is the benchmark's own: the program under test only ever
sees the files written by these functions and the flags built here. Inputs
are a pure function of the input set, and every set gives the same amount
of work (fixed row counts per class, fixed grid), so run times are
comparable across seeds.

There are INPUT_SETS input sets, and reference.json records the expected
outputs of each. Workload seed n uses set n mod INPUT_SETS, so every seed is
checked against a recorded reference.
"""

import os
import struct

import numpy as np

MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)
N_CLASSES = 10
INPUT_SETS = 100


def input_set(seed):
    """The input set (and the program's --seed) that a workload seed uses."""
    return seed % INPUT_SETS


# synth-sweep: a reduced synthetic grid, 4 noise levels x 1 size x 2 widths,
# 8 trials per cell, 2 epochs per trial (the library's synthetic budget).
# A run takes about 5 s: on a shared machine whose speed switches between
# states every 5-15 s, a run must span several states for the median over
# a window of runs to be steady (1.3 s runs were bimodal).
SYNTH_GRID = {"stds": (0.5, 1.0, 1.5, 2.0), "sizes": (4000,), "hidden": (1, 10), "trials": 8}
SYNTH_EPOCHS = 2

# conv-train: ova-binary on MNIST-shaped images. 32 training rows per class
# make every member's balanced view two batches of 32, so each member takes
# four SGD steps over two epochs (the first from a zero head, where the conv
# gradients are zero); the test split is small so training dominates.
CONV_TRAIN_PER_CLASS = 32
CONV_TEST_PER_CLASS = 2
CONV_EPOCHS = 2
CONV_HIDDEN = 1

# ova-judge: K stored members judge a generated test split, forward only.
JUDGE_TEST_ROWS = 256
JUDGE_HIDDEN = 4
JUDGE_FIRE_RATE = 0.08  # each member fires on about this share of rows
JUDGE_CALIBRATION_ROWS = 64

WORKLOADS = ("synth-sweep", "conv-train", "ova-judge")


def sample_passes(workload):
    """Rows processed by one run: training rows x epochs, or judged rows x
    members. Fixed per workload, independent of the seed."""
    if workload == "synth-sweep":
        g = SYNTH_GRID
        per_size = len(g["stds"]) * len(g["hidden"]) * g["trials"] * SYNTH_EPOCHS
        return sum(per_size * int(0.8 * n) for n in g["sizes"])  # 80% train split
    if workload == "conv-train":
        return N_CLASSES * 2 * CONV_TRAIN_PER_CLASS * CONV_EPOCHS
    return N_CLASSES * JUDGE_TEST_ROWS


# ---------------------------------------------------------------------------
# IDX files


def idx_images_bytes(images):
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    return struct.pack(">4I", 0x00000803, n, rows, cols) + images.tobytes()


def idx_labels_bytes(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">2I", 0x00000801, len(labels)) + labels.tobytes()


def class_images(rng, n_rows):
    """Class-dependent blocky templates plus pixel noise, as uint8 28x28.

    Returns (images, labels); classes are cycled before shuffling, so each
    class gets n_rows // 10 rows or one more.
    """
    templates = np.kron(rng.random((N_CLASSES, 7, 7)), np.ones((4, 4)))
    labels = np.arange(n_rows) % N_CLASSES
    rng.shuffle(labels)
    noisy = templates[labels] * 0.8 + rng.normal(0.0, 0.15, (n_rows, 28, 28))
    images = np.rint(np.clip(noisy, 0.0, 1.0) * 255.0).astype(np.uint8)
    return images, labels.astype(np.uint8)


def write_mnist_dir(directory, train, test):
    """Write the four IDX files; train/test are (images, labels) pairs."""
    os.makedirs(directory, exist_ok=True)
    blobs = (
        idx_images_bytes(train[0]),
        idx_labels_bytes(train[1]),
        idx_images_bytes(test[0]),
        idx_labels_bytes(test[1]),
    )
    for name, blob in zip(MNIST_FILES, blobs):
        with open(os.path.join(directory, name), "wb") as f:
            f.write(blob)


def conv_train_split(seed):
    rng = np.random.default_rng([seed, 1])
    train = class_images(rng, N_CLASSES * CONV_TRAIN_PER_CLASS)
    test = class_images(rng, N_CLASSES * CONV_TEST_PER_CLASS)
    return train, test


def judge_split(seed):
    """No training rows; JUDGE_TEST_ROWS test rows."""
    rng = np.random.default_rng([seed, 2])
    empty = (np.zeros((0, 28, 28), np.uint8), np.zeros(0, np.uint8))
    return empty, class_images(rng, JUDGE_TEST_ROWS)


# ---------------------------------------------------------------------------
# synth-sweep config


def write_synth_config(path, seed):
    g = SYNTH_GRID
    text = (
        "[experiment]\n"
        "kind = synthetic-sweep\n"
        "dataset = synthetic\n"
        "hidden = %s\n"
        "trials = %d\n"
        "seed = %d\n"
        "jobs = 1\n"
        "stds = %s\n"
        "sizes = %s\n"
        "[training]\n"
        "epochs = %d\n"
        % (
            ",".join(str(h) for h in g["hidden"]),
            g["trials"],
            seed,
            ",".join(repr(s) for s in g["stds"]),
            ",".join(str(n) for n in g["sizes"]),
            SYNTH_EPOCHS,
        )
    )
    with open(path, "w") as f:
        f.write(text)


def conv_train_argv(mnist_dir, seed, out):
    return [
        "--experiment", "ova-binary", "--dataset", "mnist",
        "--mnist-dir", mnist_dir, "--hidden", str(CONV_HIDDEN),
        "--epochs", str(CONV_EPOCHS), "--batch", "32", "--seed", str(seed),
        "--jobs", "1", "--out", out,
    ]


# ---------------------------------------------------------------------------
# ova-judge members: parameters drawn from the seed, head bias calibrated
# with the benchmark's own numpy forward so each member fires on roughly
# JUDGE_FIRE_RATE of the rows (random heads otherwise fire on about half).


def _oracle_logits(params, x):
    """Forward of the fixed conv stack up to the head's pre-bias logit."""
    for w, b in (params[0], params[2]):
        k = w.shape[-1] // 2
        xp = np.pad(x, ((0, 0), (0, 0), (k, k), (k, k)))
        win = np.lib.stride_tricks.sliding_window_view(xp, w.shape[-2:], axis=(2, 3))
        z = np.maximum(np.tensordot(win, w, axes=([1, 4, 5], [1, 2, 3])) + b, 0.0)
        n, h, wd, c = z.shape
        x = z.reshape(n, h // 2, 2, wd // 2, 2, c).max(axis=(2, 4)).transpose(0, 3, 1, 2)
    hidden = np.maximum(x.reshape(len(x), -1) @ params[5][0] + params[5][1], 0.0)
    return hidden @ params[6][0][:, 0]


def judge_member_params(seed, member, calibration):
    """Parameter arrays per layer of build_conv_net((1,28,28), H, 1, ...):
    [(w, b) or None] for conv1, pool1, conv2, pool2, flatten, dense, head."""
    rng = np.random.default_rng([seed, 3, member])

    def uniform(shape, fan_in):
        bound = np.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, shape)

    params = [
        (uniform((32, 1, 5, 5), 25), rng.uniform(-0.05, 0.05, 32)),
        None,
        (uniform((64, 32, 5, 5), 800), rng.uniform(-0.05, 0.05, 64)),
        None,
        None,
        (uniform((64 * 7 * 7, JUDGE_HIDDEN), 64 * 7 * 7),
         rng.uniform(0.0, 0.1, JUDGE_HIDDEN)),
        (rng.normal(0.0, 1.0, (JUDGE_HIDDEN, 1)), np.zeros(1)),
    ]
    logits = _oracle_logits(params, calibration)
    params[6][1][0] = -np.quantile(logits, 1.0 - JUDGE_FIRE_RATE)
    return params


def write_judge_members(directory, seed, test_images):
    """Write K member checkpoints and ensemble.json through the library.

    Called inside a child process whose tinynn is the program under test.
    """
    from tinynn import ensemble, layers

    calibration = test_images[:JUDGE_CALIBRATION_ROWS, None].astype(np.float64) / 255.0
    members = []
    for i in range(N_CLASSES):
        net = layers.build_conv_net((1, 28, 28), JUDGE_HIDDEN, 1, seed * N_CLASSES + i)
        for slot, arrays in zip(net.params, judge_member_params(seed, i, calibration)):
            if arrays is not None:
                slot["w"][...] = arrays[0]
                slot["b"][...] = arrays[1]
        members.append(net)
    ensemble.save_ensemble(ensemble.OvaEnsemble(members=members), directory)
