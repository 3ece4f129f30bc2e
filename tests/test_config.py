"""Golden text of the key=value config codec and the run snapshot."""

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
