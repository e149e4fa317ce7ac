"""Frozen configuration surface: config.json text, INI keys and CLI flags.

Each digest is the SHA-256 of json.dumps(config.resolved(), sort_keys=True),
the text that lands in config.json, recorded when the values were fixed. A
changed digest means a field, an INI key, a flag or a default budget moved.
"""

import hashlib
import json
import os

import pytest

from tinynn import cli
from tinynn.experiments import build_config, load_config_file

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

SHIPPED = {
    "layer_size_sweep_mnist.ini": "0529e9ed0e913643272b6941783972ed2ccaf2edc5b86fbcd4f0133616390328",
    "ova_binary_cifar_full.ini": "ba6be3de840cebde1ff089eb9759f50e87f8332d929c90bbfb000ad11423a3e8",
    "ova_binary_cifar_subset.ini": "51f26849bbe022d6e87e07059c70ba118414a1d52123f9e25b236d5a5eb28ca3",
    "ova_binary_mnist.ini": "b099e9d645ad0aa96d5871687f365f88dda63e10ac39c13412ce904a060685b5",
    "ova_ensemble_mnist.ini": "e751d219976e2150ca793b988afcb4dedf9eb6bba93aa983b5096e138b4aa147",
    "synthetic_sweep.ini": "af5119c940ecdec03ed94c56678858fbc062001ddedd81b5b6b4b34a24675de8",
}

FLAG_DEFAULTS = {
    ("synthetic-sweep", "synthetic"): "af5119c940ecdec03ed94c56678858fbc062001ddedd81b5b6b4b34a24675de8",
    ("layer-size-sweep", "mnist"): "0529e9ed0e913643272b6941783972ed2ccaf2edc5b86fbcd4f0133616390328",
    ("layer-size-sweep", "cifar10"): "f1e5f45c8884829686c77bfc507fcd334164efd1b6c2edb4cb91825d300ab5fe",
    ("ova-binary", "synthetic"): "fca0668e8eea7641bf4cc9fba20ce968c0b1678e48494bbf05a86e526e9365b6",
    ("ova-binary", "mnist"): "b099e9d645ad0aa96d5871687f365f88dda63e10ac39c13412ce904a060685b5",
    ("ova-binary", "cifar10"): "29386e8e331ed3af47f2aa3d6234488d73f46a4080fa4842a2cff0f22dae2a9a",
    ("ova-ensemble", "mnist"): "e751d219976e2150ca793b988afcb4dedf9eb6bba93aa983b5096e138b4aa147",
    ("ova-ensemble", "cifar10"): "eb45992498c90377aacbf703c3912dac1e042f24e414ed13134a4f3f5f54d4fd",
}

# every INI key at least once, each set away from its default
INI_CASES = [
    ("""
[experiment]
kind = ova-ensemble
dataset = cifar10
hidden = 3
trials = 5
seed = 11
subset = 250
jobs = 2
aggregation = priority
stds = 0.25,0.75
sizes = 40,80
synth_std = 0.5
synth_n = 60
[training]
lr = 0.125
batch = 16
epochs = 3
[data]
data_dir = /data/root
cifar_dir = /special/cifar
[output]
out = elsewhere
""", "d39602e19a03a1d84c93e3f3923830ec259620c63362d6db0a295c170ebf217b"),
    ("[experiment]\nkind = ova-binary\ndataset = mnist\n"
     "[data]\nmnist_dir = /special/mnist\n", "523847a9068bfc8005230067f25064ff87b3d346efd28252fd2e18285ef2e211"),
]

# every pass-through flag at least once, each set away from its default
FLAG_CASES = [
    ([
        "--experiment", "layer-size-sweep", "--dataset", "mnist", "--hidden", "2,4",
        "--trials", "3", "--seed", "9", "--out", "flag-out", "--epochs", "4",
        "--lr", "0.25", "--batch", "8", "--subset", "50", "--jobs", "3",
        "--aggregation", "argmax", "--data-dir", "/data/root",
        "--mnist-dir", "/special/mnist",
    ], "7109fea9ce2e827bdfccdb9d006cff86ac3623019a6ee768708e3932caeb0517"),
    ([
        "--experiment", "ova-binary", "--dataset", "cifar10",
        "--cifar-dir", "/special/cifar",
    ], "2a0993d0f200e4b6476c52ac55d6737d4d56c8e73ee88b17ba9ed9d128d9d106"),
]

OPTION_STRINGS = [
    "--aggregation", "--batch", "--cifar-dir", "--config", "--data-dir",
    "--dataset", "--epochs", "--experiment", "--help", "--hidden", "--jobs",
    "--lr", "--mnist-dir", "--out", "--replay", "--resume", "--seed",
    "--subset", "--trials", "-h",
]

CHOICES = {
    "--experiment": ["synthetic-sweep", "layer-size-sweep", "ova-binary", "ova-ensemble"],
    "--dataset": ["synthetic", "mnist", "cifar10"],
    "--aggregation": ["redundant-error", "priority", "argmax"],
}


def config_text(config):
    return json.dumps(config.resolved(), sort_keys=True)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_text(name):
    text = config_text(build_config(load_config_file(os.path.join(CONFIGS, name))))
    assert digest(text) == SHIPPED[name], text


@pytest.mark.parametrize("kind,dataset", sorted(FLAG_DEFAULTS))
def test_flag_default_config_text(kind, dataset):
    text = config_text(build_config(flag_values={"kind": kind, "dataset": dataset}))
    assert digest(text) == FLAG_DEFAULTS[(kind, dataset)], text


@pytest.mark.parametrize("ini,want", INI_CASES)
def test_every_ini_key(ini, want, tmp_path):
    path = tmp_path / "every.ini"
    path.write_text(ini)
    text = config_text(build_config(load_config_file(str(path))))
    assert digest(text) == want, text


@pytest.mark.parametrize("argv,want", FLAG_CASES)
def test_every_flag(argv, want, monkeypatch):
    seen = []

    def capture(config, run_dir=None):
        seen.append(config)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_experiment", capture)
    with pytest.raises(KeyboardInterrupt):
        cli.main(argv)
    text = config_text(seen[0])
    assert digest(text) == want, text


def test_cli_options_and_choices():
    actions = cli._parser()._actions
    assert sorted(s for a in actions for s in a.option_strings) == OPTION_STRINGS
    choices = {a.option_strings[0]: list(a.choices) for a in actions if a.choices}
    assert choices == CHOICES
