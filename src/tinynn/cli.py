"""Command-line front end.

Exit codes: 0 success, 1 bad configuration (an unknown flag, a bad flag
value, a flag given with --resume, or one but --out with --replay, a
config file the INI parser rejects and an output path that cannot be
created included), 2 unreadable or malformed data (a directory where an
input file should be and a manifest that is not an object holding a config
object included), 3 training diverged: a sweep cell, a one-vs-all member or
the comparison net, recorded in the manifest, 4 an output could not be
written (a full disk, say). A run that exits 1 or 2 removes the directories
it created; one that exits 4 keeps its directory, which --resume finishes.
"""

import argparse
import json
import sys
from dataclasses import fields

from .errors import ConfigError, DataError, DataFormatError, DivergenceError, WriteError
from .experiments import (
    ExperimentConfig,
    build_config,
    load_config_file,
    replay_manifest,
    resume_run,
    run_experiment,
)


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag or value as a configuration error."""

    def error(self, message):
        raise ConfigError(message)


def _parser():
    p = _Parser(
        prog="tinynn",
        description="Train small networks and one-vs-all ensembles, "
        "writing reproducible run directories.",
    )
    p.add_argument("--config", help="sectioned key-value config file")
    # every other option's dest is a config field (or data_dir), its text
    # passed through to build_config, whose field parsers coerce it
    for f in fields(ExperimentConfig):
        if f.metadata["flag"]:
            p.add_argument(f.metadata["flag"], dest=f.name, choices=f.metadata["choices"],
                           help=f.metadata["help"])
    p.add_argument("--data-dir", help="root holding mnist/ and cifar-10-batches-bin/")
    p.add_argument("--resume", metavar="RUN_DIR", help="finish an interrupted run")
    p.add_argument("--replay", metavar="MANIFEST", help="re-run a recorded manifest")
    return p


def _report(result):
    print("run directory: %s" % result.run_dir)
    details = result.details
    if "outcome" in details:
        o = details["outcome"]
        print("ensemble: correct %.4f, redundant %.4f, misclassified %.4f"
              % (o.fraction_correct, o.fraction_redundant, o.fraction_misclassified))
        print("single width-%d accuracy: %.4f"
              % (details["comparison_width"], details["comparison_accuracy"]))
    elif "per_class" in details:
        for i, row in enumerate(details["per_class"]):
            print("class %d: accuracy %.4f" % (i, row["accuracy"]))
    elif "rows" in details and details["rows"] and "width" in details["rows"][0]:
        for row in sorted(details["rows"], key=lambda r: r["width"]):
            acc = "diverged" if row["diverged"] else "%.4f" % row["accuracy"]
            print("width %d: %s" % (row["width"], acc))
    if result.diverged:
        print("warning: divergence occurred; see manifest.json", file=sys.stderr)


def main(argv=None):
    try:
        parser = _parser()
        flags = vars(parser.parse_args(argv))
        # a resumed or replayed run takes its recorded config, --replay a new
        # --out too; any other flag is refused, not ignored
        kept = ("replay", "out") if flags["replay"] else ("resume",) if flags["resume"] else ()
        ignored = [a.option_strings[0] for a in parser._actions
                   if kept and a.dest not in kept and flags.get(a.dest) is not None]
        if ignored:
            raise ConfigError("--%s takes no %s" % (kept[0], ", ".join(ignored)))
        config_path, resume, replay = (flags.pop(k) for k in ("config", "resume", "replay"))
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
    except WriteError as e:
        print("write error: %s" % e, file=sys.stderr)
        return 4
    _report(result)
    return 3 if result.diverged else 0


if __name__ == "__main__":
    sys.exit(main())
