import json
import subprocess
import sys

import numpy as np
import pytest

from seqaug import synth
from seqaug.cli import main
from seqaug.config import ConfigError, RunConfig, load_config
from seqaug.dataset import load_interactions


def run_cli(*args):
    return main(list(args))


# ---------------------------------------------------------------------------
# config


def test_config_defaults_validate():
    RunConfig().validate()


def test_config_file_with_comments_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# synthetic run\n"
        "M = 4            # augment count\n"
        "strategy = random_seq\n"
        "T = 64\n"
        "\n"
        "seed = 9\n",
        encoding="utf-8")
    cfg = load_config(path, overrides={"seed": "11"})
    assert cfg.M == 4 and cfg.strategy == "random_seq" and cfg.T == 64
    assert cfg.seed == 11  # flags win


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("no_such_knob = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="no_such_knob"):
        load_config(path)


def test_config_validation_lists_every_offending_field():
    with pytest.raises(ConfigError) as exc:
        load_config(None, overrides={"M": "0", "gamma": "-1", "T": "0"})
    message = str(exc.value)
    assert "M" in message and "gamma" in message and "T" in message
    with pytest.raises(ConfigError) as exc:
        load_config(None, overrides={"gamma": "nan", "diff_lr": "0", "srs_lr": "inf"})
    assert exc.value.problems == ["gamma must be finite and >= 0, got nan",
                                  "diff_lr must be finite and > 0, got 0.0",
                                  "srs_lr must be finite and > 0, got inf"]


def test_config_bool_coercion():
    assert load_config(None, overrides={"exclude_test": "false"}).exclude_test is False
    assert load_config(None, overrides={"short_only": "on"}).short_only is True


# ---------------------------------------------------------------------------
# synth generator


def test_synth_deterministic_rows():
    a = synth.generate_interactions(num_users=30, num_items=20, seed=1)
    b = synth.generate_interactions(num_users=30, num_items=20, seed=1)
    c = synth.generate_interactions(num_users=30, num_items=20, seed=2)
    assert a == b
    assert a != c


def test_synth_transitions_respect_band():
    rows = synth.generate_interactions(num_users=40, num_items=20, seed=3)
    users = {}
    for u, item, _ in rows:
        users.setdefault(u, []).append(item)
    for seq in users.values():
        assert 3 <= len(seq) <= 40
        for cur, nxt in zip(seq, seq[1:]):
            assert synth.transition_probability(cur, nxt, 20) > 0


def test_synth_lengths_long_tailed():
    rows = synth.generate_interactions(num_users=400, num_items=20, seed=5)
    lengths = {}
    for u, _, _ in rows:
        lengths[u] = lengths.get(u, 0) + 1
    counts = np.array(list(lengths.values()))
    short = np.mean(counts <= 5)
    assert 0.25 < short < 0.6
    assert counts.max() <= 40 and counts.min() >= 3


# ---------------------------------------------------------------------------
# CLI subcommands


def test_synth_subcommand_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("synth", "--users", "50", "--items", "20", "--seed", "1",
                   "--out", str(out1)) == 0
    assert run_cli("synth", "--users", "50", "--items", "20", "--seed", "1",
                   "--out", str(out2)) == 0
    assert (out1 / "interactions.tsv").read_bytes() == (out2 / "interactions.tsv").read_bytes()
    assert (out1 / "sequences.tsv").read_bytes() == (out2 / "sequences.tsv").read_bytes()
    ds = load_interactions(out1 / "interactions.tsv")
    assert ds.num_users == 50


def test_preprocess_subcommand(tmp_path):
    src = tmp_path / "raw"
    run_cli("synth", "--users", "30", "--items", "15", "--seed", "2", "--out", str(src))
    out = tmp_path / "data"
    code = run_cli("preprocess", "--input", str(src / "interactions.tsv"), "--out", str(out))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stage"] == "preprocess"
    assert manifest["num_users"] == 30
    assert (out / "sequences.tsv").exists() and (out / "vocab.tsv").exists()


def test_config_error_exit_code(tmp_path):
    for setting in ("T=0", "gamma=nan", "gamma=inf", "diff_lr=-1", "diff_lr=0", "srs_lr=nan"):
        code = run_cli("synth", "--set", setting, "--out", str(tmp_path / "x"))
        assert code == 2, setting


def test_non_square_embed_dim_is_a_config_error(tmp_path, capsys):
    code = run_cli("synth", "--set", "embed_dim=50", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "embed_dim must be a perfect square" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_config_rejects_levels_the_embedding_side_cannot_halve():
    with pytest.raises(ConfigError, match="not divisible"):
        load_config(None, overrides={"embed_dim": "16", "levels": "4"})


def test_data_error_exit_code(tmp_path):
    code = run_cli("preprocess", "--input", str(tmp_path / "missing.tsv"),
                   "--out", str(tmp_path / "y"))
    assert code == 3


def test_augment_without_model_fails_cleanly(tmp_path):
    data = tmp_path / "data"
    run_cli("synth", "--users", "20", "--items", "10", "--seed", "3", "--out", str(data))
    code = run_cli("augment", "--data", str(data), "--out", str(tmp_path / "aug"),
                   "--set", "strategy=diffusion_cf")
    assert code == 1


def test_pipeline_random_strategy_roundtrip(tmp_path):
    data = tmp_path / "data"
    run_cli("synth", "--users", "25", "--items", "12", "--seed", "4", "--out", str(data))
    aug = tmp_path / "aug"
    code = run_cli("augment", "--data", str(data), "--out", str(aug),
                   "--set", "strategy=random", "--set", "M=3", "--seed", "7")
    assert code == 0
    from seqaug.dataset import load_sequences
    raw = load_sequences(data / "sequences.tsv")
    augmented = load_sequences(aug / "sequences.tsv")
    for u in raw.users:
        assert len(augmented.users[u]) == len(raw.users[u]) + 3
    manifest = json.loads((aug / "manifest.json").read_text())
    assert manifest["config"]["strategy"] == "random" and manifest["config"]["seed"] == 7


def test_cli_module_entrypoint_runs(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "seqaug", "synth", "--users", "10",
                           "--items", "8", "--seed", "1", "--out", str(tmp_path / "m")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "m" / "interactions.tsv").exists()
