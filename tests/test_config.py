"""Golden text of the key=value config codec and the run snapshot."""

import numpy as np
import pytest

from pfnn.cli import main
from pfnn.config import (
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    experiment_from_mapping,
    experiment_to_mapping,
    read_kv_file,
    write_kv_file,
)
from pfnn.datagen import CLASS_NAMES, GenSpec, LabeledImageSet, generate, write_dataset
from pfnn.layers import ModelConfig
from pfnn.trainer import TrainConfig

DEFAULT_SNAPSHOT = """\
conv_widths=8,16
kernel=3
head_units=256
dropout_rate=0.3
classes=3
enable_gagm=true
enable_sevector=true
reduction_ratio=16
seed=0
learning_rate=0.0001
batch_size=32
max_epochs=30
lambda_fs=0.1
rlrop_patience=5
rlrop_factor=0.5
early_stop_patience=10
min_delta=0.0001
val_fraction=0.15
test_fraction=0.2
"""

ABLATION_SNAPSHOT = """\
conv_widths=4,6,10
kernel=5
head_units=12
dropout_rate=0.15
classes=3
enable_gagm=false
enable_sevector=false
reduction_ratio=4
seed=7
learning_rate=0.003
batch_size=16
max_epochs=1
lambda_fs=0.05
rlrop_patience=2
rlrop_factor=0.25
early_stop_patience=3
min_delta=1e-06
val_fraction=0.25
test_fraction=0.1
"""


def test_default_snapshot_text(tmp_path):
    path = tmp_path / "config.snapshot"
    write_kv_file(path, experiment_to_mapping(ExperimentConfig(ModelConfig(), TrainConfig())))
    assert path.read_text() == DEFAULT_SNAPSHOT


def test_ablation_snapshot_text_from_flags_and_file(tmp_path):
    data = tmp_path / "d.mids"
    assert main(["gen-data", "--counts", "10,10,10", "--side", "8", "--seed", "5",
                 "--out", str(data)]) == 0
    cfg = tmp_path / "ablation.cfg"
    cfg.write_text("rlrop_patience=2\nrlrop_factor=0.25\nearly_stop_patience=3\n"
                   "min_delta=1e-6\nmax_epochs=9\n")
    run = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(run), "--config", str(cfg),
                 "--seed", "7", "--gagm", "off", "--sevector", "off",
                 "--conv-widths", "4,6,10", "--kernel", "5", "--head-units", "12",
                 "--dropout-rate", "0.15", "--reduction-ratio", "4",
                 "--learning-rate", "0.003", "--batch-size", "16", "--max-epochs", "1",
                 "--lambda-fs", "0.05", "--val-fraction", "0.25", "--test-fraction", "0.1"]) == 0
    assert (run / "config.snapshot").read_text() == ABLATION_SNAPSHOT


def test_snapshot_round_trip_and_derived_seed():
    exp = experiment_from_mapping(
        dict(line.split("=", 1) for line in ABLATION_SNAPSHOT.splitlines()))
    assert exp.train.seed == exp.model.seed == 7
    assert exp.model.conv_widths == (4, 6, 10)
    assert experiment_from_mapping(experiment_to_mapping(exp)) == exp
    assert list(experiment_to_mapping(exp)) == list(CONFIG_KEYS)


def test_unknown_key_and_bad_fraction_rejected(tmp_path):
    with pytest.raises(ConfigError, match="gagm_strength"):
        experiment_from_mapping({"gagm_strength": "2"})
    with pytest.raises(ConfigError, match="test_fraction"):
        experiment_from_mapping({"test_fraction": "1.0"})
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\nkernel = 5  # trailing\n")
    assert experiment_from_mapping(read_kv_file(path)).model.kernel == 5


@pytest.mark.parametrize("key,value", [
    ("conv_widths", ""), ("conv_widths", "8,0"), ("kernel", "0"), ("head_units", "0"),
    ("classes", "0"), ("reduction_ratio", "0"), ("dropout_rate", "1.0"), ("seed", "-1"),
    ("learning_rate", "0"), ("learning_rate", "-0.5"), ("learning_rate", "nan"),
    ("learning_rate", "inf"), ("batch_size", "0"), ("max_epochs", "0"), ("rlrop_patience", "0"),
    ("early_stop_patience", "0"), ("rlrop_factor", "1.0"), ("val_fraction", "0"),
    ("lambda_fs", "-0.1"), ("lambda_fs", "nan"), ("lambda_fs", "inf"), ("min_delta", "-5"),
    ("min_delta", "nan"), ("min_delta", "inf"), ("test_fraction", "-0.1"),
])
def test_out_of_range_value_is_a_config_error_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must"):
        experiment_from_mapping({key: value})


def train_flag(key):
    """The ``pfnn train`` flag of a config key."""
    return "--" + key.removeprefix("enable_").replace("_", "-")


# a value for every key that differs from its default; classes=4 needs a 4-class dataset
KEY_VALUES = {**dict(line.split("=", 1) for line in ABLATION_SNAPSHOT.splitlines()), "classes": "4"}
TINY = {"conv_widths": "2", "head_units": "4", "max_epochs": "1", "batch_size": "8", "classes": "4"}


@pytest.fixture(scope="module")
def four_class_data(tmp_path_factory):
    path = tmp_path_factory.mktemp("four") / "d.mids"
    images = generate(GenSpec((10, 10, 20), side=8, seed=2)).images
    write_dataset(path, LabeledImageSet(images, np.arange(40) % 4, (*CLASS_NAMES, "other")))
    return path


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_each_key_as_flag_gives_the_snapshot_of_the_key_in_a_file(four_class_data, tmp_path, key):
    base = ["train", "--data", str(four_class_data)]
    base += [arg for k, v in TINY.items() if k != key for arg in (train_flag(k), v)]
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key}={KEY_VALUES[key]}\n")
    assert main([*base, "--out", str(tmp_path / "flag"), train_flag(key), KEY_VALUES[key]]) == 0
    assert main([*base, "--out", str(tmp_path / "file"), "--config", str(cfg)]) == 0
    snapshot = (tmp_path / "flag" / "config.snapshot").read_bytes()
    assert snapshot == (tmp_path / "file" / "config.snapshot").read_bytes()
    assert f"{key}={KEY_VALUES[key]}" in snapshot.decode().splitlines()


@pytest.mark.parametrize("source", ["flag", "file"])
def test_bad_value_is_one_error_line_naming_the_key(tmp_path, capsys, source):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kernel=abc\n")
    setting = ["--kernel", "abc"] if source == "flag" else ["--config", str(cfg)]
    capsys.readouterr()
    assert main(["train", "--data", str(tmp_path / "d.mids"), "--out", str(tmp_path / "r"),
                 *setting]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "kernel" in err[0]


@pytest.mark.parametrize("text,message", [
    (b"seed=1\nseed=2\n", ":2: duplicate key 'seed'"),
    (b"\xff\xfeseed=1\n", ": not UTF-8 text"),
], ids=["duplicate-key", "not-utf8"])
def test_config_file_error_is_one_line_naming_the_file(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(text)
    capsys.readouterr()
    assert main(["train", "--data", str(tmp_path / "d.mids"), "--out", str(tmp_path / "r"),
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {cfg}{message}"]
    assert not (tmp_path / "r").exists()
