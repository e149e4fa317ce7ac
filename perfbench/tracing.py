"""Spans around the program's public entry points, and the per-layer metrics
derived from them.

The tracer patches each function where its caller looks it up (for example
``tinynn.training.forward``, which ``train`` and ``predict_scores`` call),
so the program itself is unchanged. Each span records name, start, end,
parent span and run id; spans stay in memory until the run ends. A patch
target that no longer exists is recorded as absent and the metrics that
depend on it are reported as absent, never as a failure.

Layers are the library's modules: rng, tensor, layers, training, datasets,
ensemble, experiments and cli.
"""

import importlib
import os
import time

# (name, unit, better). Timings are lower-is-better; work counts are fixed by
# the workload and listed as lower-is-better (less work for the same result).
PER_LAYER = [
    ("rng.shuffle.busy_s", "s", "lower"),
    ("rng.shuffle.calls", "count", "lower"),
    ("rng.shuffle.items", "count", "lower"),
    ("datasets.generate_synthetic.busy_s", "s", "lower"),
    ("datasets.generate_synthetic.self_s", "s", "lower"),
    ("datasets.generate_synthetic.rows", "count", "lower"),
    ("layers.build.busy_s", "s", "lower"),
]
for _conv in ("conv1", "conv2"):
    PER_LAYER += [
        ("tensor.%s.fwd.busy_s" % _conv, "s", "lower"),
        ("tensor.%s.fwd.calls" % _conv, "count", "lower"),
        ("tensor.%s.fwd.p50_ms" % _conv, "ms", "lower"),
        ("tensor.%s.fwd.gflop" % _conv, "GFLOP", "lower"),
        ("tensor.%s.fwd.gflop_per_s" % _conv, "GFLOP/s", "higher"),
    ]
PER_LAYER += [
    ("tensor.conv2.dgrad.busy_s", "s", "lower"),
    ("tensor.conv2.dgrad.p50_ms", "ms", "lower"),
    ("tensor.conv2.dgrad.gflop", "GFLOP", "lower"),
]
for _pool in ("pool1", "pool2"):
    for _dir in ("fwd", "bwd"):
        PER_LAYER += [
            ("tensor.%s.%s.busy_s" % (_pool, _dir), "s", "lower"),
            ("tensor.%s.%s.p50_ms" % (_pool, _dir), "ms", "lower"),
        ]
PER_LAYER += [
    ("layers.forward.train.busy_s", "s", "lower"),
    ("layers.forward.train.self_s", "s", "lower"),
    ("layers.forward.train.calls", "count", "lower"),
    ("layers.forward.train.rows", "count", "lower"),
    ("layers.backward.busy_s", "s", "lower"),
    ("layers.backward.self_s", "s", "lower"),
    ("layers.forward.eval.busy_s", "s", "lower"),
    ("layers.forward.eval.self_s", "s", "lower"),
    ("layers.forward.eval.rows", "count", "lower"),
    ("layers.save_network.busy_s", "s", "lower"),
    ("layers.save_network.bytes", "B", "lower"),
    ("layers.load_network.busy_s", "s", "lower"),
    ("layers.load_network.bytes", "B", "lower"),
    ("training.train.busy_s", "s", "lower"),
    ("training.train.self_s", "s", "lower"),
    ("training.rows", "count", "lower"),
    ("training.step.p50_ms", "ms", "lower"),
    ("training.step.p99_ms", "ms", "lower"),
    ("training.sgd_step.busy_s", "s", "lower"),
    ("training.evaluate.busy_s", "s", "lower"),
    ("training.predict_scores.busy_s", "s", "lower"),
    ("ensemble.member_scores.busy_s", "s", "lower"),
    ("ensemble.member_scores.rows", "count", "lower"),
    ("ensemble.evaluate.self_s", "s", "lower"),
    ("ensemble.outcome_from_positive_sets.busy_s", "s", "lower"),
    ("ensemble.train_ensemble.busy_s", "s", "lower"),
    ("ensemble.save_ensemble.busy_s", "s", "lower"),
    ("ensemble.load_ensemble.busy_s", "s", "lower"),
    ("ensemble.write_verdicts_csv.busy_s", "s", "lower"),
    ("ensemble.write_verdicts_csv.bytes", "B", "lower"),
    ("experiments.run_experiment.busy_s", "s", "lower"),
    ("experiments.load_dataset.busy_s", "s", "lower"),
    ("experiments.RunContext.register.busy_s", "s", "lower"),
    ("experiments.RunContext.register.bytes", "B", "lower"),
    ("experiments.RunContext.mark_cell.busy_s", "s", "lower"),
    ("experiments.RunContext.finish.busy_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


# ---------------------------------------------------------------------------
# span names and attributes computed from call arguments (before the call)
# or from arguments and result (after it)


def _conv_tag(args, kwargs):
    # the fixed stack's conv1 reads 1 (MNIST) or 3 (CIFAR) channels, conv2 32
    return "tensor.conv2.fwd" if args[0].shape[1] == 32 else "tensor.conv1.fwd"


def _pool_tag(direction):
    def tag(args, kwargs):
        pool = "pool1" if args[0].shape[1] == 32 else "pool2"
        return "tensor.%s.%s" % (pool, direction)

    return tag


def _forward_tag(args, kwargs):
    train = kwargs.get("train", args[2] if len(args) > 2 else False)
    return "layers.forward.train" if train else "layers.forward.eval"


def _conv_flops(args):
    """Computed FLOPs of the im2col GEMM: 2 N H W F C kh kw."""
    x, w = args[0], args[1]
    n, _, h, wd = x.shape
    f, c, kh, kw = w.shape
    return {"flop": 2 * n * h * wd * f * c * kh * kw}


def _dgrad_flops(args):
    dz, w = args[0], args[1]
    n, f, h, wd = dz.shape
    _, c, kh, kw = w.shape
    return {"flop": 2 * n * h * wd * f * c * kh * kw}


def _train_rows(args):
    data, cfg = args[1], args[2]
    return {"rows": len(data.train_indices) * cfg.epochs}


def _file_bytes(path_index):
    def after(args, result):
        return {"bytes": os.path.getsize(args[path_index])}

    return after


def _register_bytes(args, result):
    ctx = args[0]
    return {"bytes": sum(os.path.getsize(ctx.path(n)) for n in args[1:])}


_BUILD = ("layers.build",)
_SAVE = ("layers.save_network",)
_TRAIN = ("training.train",)
_PREDICT = ("training.predict_scores",)
_ENS_EVAL = ("ensemble.evaluate",)
_VERDICTS = ("ensemble.write_verdicts_csv",)

# (target, span names, tagger choosing among them or None, attrs before,
# attrs after). A target is patched where its caller looks it up.
PATCHES = [
    ("tinynn.rng.Rng.shuffle", ("rng.shuffle",), None,
     lambda a: {"items": len(a[1])}, None),
    ("tinynn.experiments.generate_synthetic", ("datasets.generate_synthetic",), None,
     lambda a: {"rows": a[0].n_samples}, None),
    ("tinynn.experiments.build_mlp", _BUILD, None, None, None),
    ("tinynn.experiments.build_conv_net", _BUILD, None, None, None),
    ("tinynn.ensemble.build_mlp", _BUILD, None, None, None),
    ("tinynn.ensemble.build_conv_net", _BUILD, None, None, None),
    ("tinynn.layers._conv2d", ("tensor.conv1.fwd", "tensor.conv2.fwd"), _conv_tag,
     _conv_flops, None),
    ("tinynn.layers._conv2d_input_grad", ("tensor.conv2.dgrad",), None, _dgrad_flops, None),
    ("tinynn.layers._maxpool2d", ("tensor.pool1.fwd", "tensor.pool2.fwd"),
     _pool_tag("fwd"), None, None),
    ("tinynn.layers._maxpool2d_grad", ("tensor.pool1.bwd", "tensor.pool2.bwd"),
     _pool_tag("bwd"), None, None),
    ("tinynn.training.forward", ("layers.forward.train", "layers.forward.eval"),
     _forward_tag, lambda a: {"rows": len(a[1])}, None),
    ("tinynn.training.backward", ("layers.backward",), None, None, None),
    ("tinynn.experiments.save_network", _SAVE, None, None, _file_bytes(1)),
    ("tinynn.ensemble.save_network", _SAVE, None, None, _file_bytes(1)),
    ("tinynn.ensemble.load_network", ("layers.load_network",), None, None, _file_bytes(0)),
    ("tinynn.training.train", _TRAIN, None, _train_rows, None),
    ("tinynn.ensemble.train", _TRAIN, None, _train_rows, None),
    ("tinynn.experiments.train", _TRAIN, None, _train_rows, None),
    ("tinynn.training.sgd_step", ("training.sgd_step",), None, None, None),
    ("tinynn.training.evaluate", ("training.evaluate",), None, None, None),
    ("tinynn.training.predict_scores", _PREDICT, None, None, None),
    ("tinynn.ensemble.predict_scores", _PREDICT, None, None, None),
    ("tinynn.ensemble.member_scores", ("ensemble.member_scores",), None,
     lambda a: {"rows": len(a[2]) * len(a[0].members)}, None),
    ("tinynn.ensemble.evaluate", _ENS_EVAL, None, None, None),
    ("tinynn.experiments.evaluate_ensemble", _ENS_EVAL, None, None, None),
    ("tinynn.ensemble.outcome_from_positive_sets",
     ("ensemble.outcome_from_positive_sets",), None, None, None),
    ("tinynn.experiments.train_ensemble", ("ensemble.train_ensemble",), None, None, None),
    ("tinynn.experiments.save_ensemble", ("ensemble.save_ensemble",), None, None, None),
    ("tinynn.ensemble.load_ensemble", ("ensemble.load_ensemble",), None, None, None),
    ("tinynn.ensemble.write_verdicts_csv", _VERDICTS, None, None, _file_bytes(0)),
    ("tinynn.experiments.write_verdicts_csv", _VERDICTS, None, None, _file_bytes(0)),
    ("tinynn.cli.run_experiment", ("experiments.run_experiment",), None, None, None),
    ("tinynn.experiments.load_dataset", ("experiments.load_dataset",), None, None, None),
    ("tinynn.experiments.RunContext.register", ("experiments.RunContext.register",),
     None, None, _register_bytes),
    ("tinynn.experiments.RunContext.mark_cell", ("experiments.RunContext.mark_cell",),
     None, None, None),
    ("tinynn.experiments.RunContext.finish", ("experiments.RunContext.finish",),
     None, None, None),
]


_SIGNATURE_ERRORS = (AttributeError, IndexError, KeyError, TypeError, OSError)


def _resolve(target):
    """(owner, attribute) for a dotted target whose module part imports."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for p in parts[cut:-1]:
            owner = getattr(owner, p)
        getattr(owner, parts[-1])
        return owner, parts[-1]
    raise ImportError(target)


class Tracer:
    """In-memory span recorder for one process; install() patches the program."""

    def __init__(self, run_id=0):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent, attrs]
        self._stack = []
        self.absent = []  # patch targets that no longer exist

    def _wrap(self, fn, names, tagger, before, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            name, attrs = names[0], {}
            try:
                name = tagger(args, kwargs) if tagger else name
                attrs = before(args) if before else attrs
            except _SIGNATURE_ERRORS:
                pass  # a changed signature costs the attributes, not the run
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                try:
                    span[4] = dict(attrs, **after(args, result))
                except _SIGNATURE_ERRORS:
                    pass
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Patch every target in PATCHES; missing targets go to self.absent."""
        for target, names, tagger, before, after in PATCHES:
            try:
                owner, attr = _resolve(target)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            fn = getattr(owner, attr)
            setattr(owner, attr, self._wrap(fn, names, tagger, before, after))
        return self

    def records(self):
        return [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3],
             "run": self.run_id, "attrs": s[4]}
            for i, s in enumerate(self.spans)
        ]


def absent_spans(absent_targets):
    """Span names none of whose patch targets exist any more."""
    live, gone = set(), set()
    for target, names, _, _, _ in PATCHES:
        (gone if target in absent_targets else live).update(names)
    return sorted(gone - live)


# ---------------------------------------------------------------------------
# span arithmetic


def union_length(intervals):
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span id: duration minus the time its direct children cover."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ())
        ]
        covered = union_length([k for k in kids if k[1] > k[0]])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def step_durations(spans):
    """Training step times: forward(train=True) entry to sgd_step exit.

    The probe forward that orients dead units is followed by another
    forward before any step, so each step pairs with the latest forward.
    """
    out = []
    fwd_start = None
    for s in sorted(spans, key=lambda s: s["start"]):
        if s["name"] == "layers.forward.train":
            fwd_start = s["start"]
        elif s["name"] == "training.sgd_step" and fwd_start is not None:
            out.append(s["end"] - fwd_start)
            fwd_start = None
    return out


def _field(metric):
    """(span name, field) of a per-layer metric name."""
    return tuple(metric.rsplit(".", 1))


# metrics not read off a single span name
_DERIVED = {
    "training.rows": ("training.train",),
    "training.step.p50_ms": ("layers.forward.train", "training.sgd_step"),
    "training.step.p99_ms": ("layers.forward.train", "training.sgd_step"),
    "cli.import_s": (),
    "trace.overhead_frac": (),
}


def layer_metrics(spans, import_s):
    """Per-layer metric values from one traced run's spans (all but
    trace.overhead_frac, which needs the untraced runs).

    A name with no spans reads 0: the layer did no work on this workload.
    """
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name.get(name, ()))

    steps = step_durations(spans)
    m = {
        "training.rows": attr_sum("training.train", "rows"),
        "training.step.p50_ms": 1e3 * percentile(steps, 50) if steps else 0.0,
        "training.step.p99_ms": 1e3 * percentile(steps, 99) if steps else 0.0,
        "cli.import_s": import_s,
    }
    for metric, _, _ in PER_LAYER:
        if metric in _DERIVED:
            continue
        name, field = _field(metric)
        group = by_name.get(name, [])
        durations = [s["end"] - s["start"] for s in group]
        busy = union_length([(s["start"], s["end"]) for s in group])
        if field == "busy_s":
            m[metric] = busy
        elif field == "self_s":
            m[metric] = sum(selfs[s["id"]] for s in group)
        elif field == "calls":
            m[metric] = len(group)
        elif field == "p50_ms":
            m[metric] = 1e3 * percentile(durations, 50) if durations else 0.0
        elif field == "gflop":
            m[metric] = attr_sum(name, "flop") / 1e9
        elif field == "gflop_per_s":
            m[metric] = attr_sum(name, "flop") / 1e9 / busy if busy > 0 else 0.0
        else:  # rows, items, bytes: work counted at the span
            m[metric] = attr_sum(name, field)
    return m


def absent_metrics(gone):
    """Per-layer metric names that depend on a span listed in gone."""
    out = []
    for metric, _, _ in PER_LAYER:
        needs = _DERIVED.get(metric, (_field(metric)[0],))
        if any(span in gone for span in needs):
            out.append(metric)
    return out
