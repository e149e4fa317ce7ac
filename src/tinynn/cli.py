"""Command-line front end.

Exit codes: 0 success, 1 bad configuration, 2 unreadable or malformed
data, 3 training diverged (including sweeps where any cell diverged).
"""

import argparse
import json
import sys

from .errors import ConfigError, DataError, DataFormatError, DivergenceError
from .experiments import (
    DATASETS,
    KINDS,
    POLICIES,
    build_config,
    load_config_file,
    replay_manifest,
    resume_run,
    run_experiment,
)


def _parser():
    p = argparse.ArgumentParser(
        prog="tinynn",
        description="Train small networks and one-vs-all ensembles, "
        "writing reproducible run directories.",
    )
    p.add_argument("--config", help="sectioned key-value config file")
    # every other option's dest is a config field (or data_dir), passed
    # through to build_config as is
    p.add_argument("--experiment", choices=KINDS, dest="kind", help="what to run")
    p.add_argument("--dataset", choices=DATASETS)
    p.add_argument("--hidden", help="comma-separated hidden sizes, e.g. 1 or 16,128")
    p.add_argument("--trials", type=int, help="trial repetitions per sweep cell")
    p.add_argument("--seed", type=int, help="base seed for the whole run")
    p.add_argument("--out", help="output root directory (default runs)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--batch", type=int, dest="batch_size")
    p.add_argument(
        "--subset",
        type=int,
        help="per-run stratified cap on training rows; 0 means the full split",
    )
    p.add_argument("--jobs", type=int, help="parallel worker processes")
    p.add_argument(
        "--aggregation",
        choices=POLICIES,
        help="ensemble decision rule (non-default choices are diagnostics)",
    )
    p.add_argument("--data-dir", dest="data_dir", help="root holding mnist/ and cifar-10-batches-bin/")
    p.add_argument("--mnist-dir", dest="mnist_dir")
    p.add_argument("--cifar-dir", dest="cifar_dir")
    p.add_argument("--resume", metavar="RUN_DIR", help="finish an interrupted run")
    p.add_argument("--replay", metavar="MANIFEST", help="re-run a recorded manifest")
    return p


def _report(result):
    print("run directory: %s" % result.run_dir)
    details = result.details
    if "outcome" in details:
        o = details["outcome"]
        print(
            "ensemble: correct %.4f, redundant %.4f, misclassified %.4f"
            % (o.fraction_correct, o.fraction_redundant, o.fraction_misclassified)
        )
        print(
            "single width-%d accuracy: %.4f"
            % (details["comparison_width"], details["comparison_accuracy"])
        )
    elif "reports" in details:
        for i, rep in enumerate(details["reports"]):
            print("class %d: accuracy %.4f" % (i, rep.accuracy))
    elif "rows" in details and details["rows"] and "width" in details["rows"][0]:
        for row in sorted(details["rows"], key=lambda r: r["width"]):
            acc = "diverged" if row["diverged"] else "%.4f" % row["accuracy"]
            print("width %d: %s" % (row["width"], acc))
    if result.diverged:
        print("warning: divergence occurred; see manifest.json", file=sys.stderr)


def main(argv=None):
    flags = vars(_parser().parse_args(argv))
    config_path, resume, replay = (flags.pop(k) for k in ("config", "resume", "replay"))
    try:
        if replay:
            result = replay_manifest(replay, out=flags["out"])
        elif resume:
            result = resume_run(resume)
        else:
            file_values = load_config_file(config_path) if config_path else {}
            result = run_experiment(build_config(file_values, flags))
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 1
    except (DataFormatError, DataError, FileNotFoundError, json.JSONDecodeError) as e:
        print("data error: %s" % e, file=sys.stderr)
        return 2
    except DivergenceError as e:
        print("divergence: %s" % e, file=sys.stderr)
        return 3
    _report(result)
    return 3 if result.diverged else 0


if __name__ == "__main__":
    sys.exit(main())
