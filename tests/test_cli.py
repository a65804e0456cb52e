"""Command-line surface: exit codes, config resolution, and the pipeline
round trip from data generation through feature export."""

import contextlib
import errno
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from jm3d import cli
from jm3d.data import load_manifest, read_feature_file
from jm3d.errors import ConfigError, LabelError

HEADER_RE = re.compile(r"^jm3d \d+\.\d+\.\d+ config=[0-9a-f]{12} seed=\d+$")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dataset_dir(workdir):
    out = workdir / "data"
    code = cli.run(["gen-data", "--out", str(out), "--parents", "2", "--subs", "2",
                    "--per-sub", "3", "--points", "48", "--dim", "16",
                    "--angles", "12", "--seed", "3"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_dir(workdir, dataset_dir):
    out = workdir / "run"
    code = cli.run(["pretrain", "--data", str(dataset_dir / "manifest.jsonl"),
                    "--out", str(out), "--epochs", "2", "--batch", "4",
                    "--views", "2", "--seed", "1"])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# exit codes


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    assert "gen-data" in capsys.readouterr().out


def test_no_command_is_usage_error():
    assert cli.run([]) == 1


def test_unknown_command_is_usage_error():
    assert cli.run(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error():
    assert cli.run(["pretrain"]) == 1


def test_missing_data_file_is_validation_error(workdir, capsys):
    code = cli.run(["pretrain", "--data", str(workdir / "nope.jsonl"),
                    "--epochs", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_missing_checkpoint_is_validation_error(dataset_dir, workdir):
    code = cli.run(["eval-zeroshot", "--checkpoint", str(workdir / "no.bin"),
                    "--data", str(dataset_dir / "manifest.jsonl")])
    assert code == 2


def test_bad_config_key_is_validation_error(dataset_dir, workdir, capsys):
    bad = workdir / "bad.cfg"
    bad.write_text("warp_speed = 9\n")
    code = cli.run(["pretrain", "--data", str(dataset_dir / "manifest.jsonl"),
                    "--config", str(bad)])
    assert code == 2
    assert "warp_speed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report header and config resolution


def test_report_header_format():
    line = cli.report_header({"epochs": 3, "lr": 0.1}, 7)
    assert HEADER_RE.match(line)
    assert line.endswith("seed=7")


def test_config_hash_tracks_payload():
    a = cli.config_hash({"epochs": 3})
    assert cli.config_hash({"epochs": 3}) == a
    assert cli.config_hash({"epochs": 4}) != a


def test_flags_beat_config_file_beat_defaults(workdir):
    cfg_file = workdir / "train.cfg"
    cfg_file.write_text("# comment line\nepochs = 7\nbase_lr = 0.005\n"
                        "jma_on = false\n")
    ns = cli.build_parser().parse_args(
        ["pretrain", "--data", "unused", "--config", str(cfg_file),
         "--epochs", "2"])
    cfg = cli._resolve_train_config(ns)
    assert cfg.epochs == 2          # flag wins
    assert cfg.base_lr == 0.005     # file beats default
    assert cfg.jma_on is False      # booleans parse
    assert cfg.batch_size == 128    # untouched default


def test_config_file_rejects_bad_boolean(workdir):
    cfg_file = workdir / "boolean.cfg"
    cfg_file.write_text("cis_on = maybe\n")
    with pytest.raises(ConfigError):
        cli.parse_config_file(cfg_file)


def test_config_file_rejects_bare_line(workdir):
    cfg_file = workdir / "bare.cfg"
    cfg_file.write_text("epochs\n")
    with pytest.raises(ConfigError):
        cli.parse_config_file(cfg_file)


def test_switch_flags_turn_features_off():
    ns = cli.build_parser().parse_args(
        ["pretrain", "--data", "unused", "--no-htt", "--no-cis"])
    cfg = cli._resolve_train_config(ns)
    assert cfg.htt_on is False
    assert cfg.cis_on is False
    assert cfg.jma_on is True


# ---------------------------------------------------------------------------
# pipeline round trip


def test_gen_data_writes_manifest(dataset_dir, capsys):
    assert (dataset_dir / "manifest.jsonl").is_file()
    ds = load_manifest(dataset_dir / "manifest.jsonl")
    assert len(ds.samples) == 12
    assert ds.tree.n_parents == 2


def test_pretrain_writes_checkpoint_and_losses(run_dir):
    assert (run_dir / "checkpoint.bin").is_file()
    assert (run_dir / "losses.jsonl").is_file()


def test_eval_zeroshot_on_dataset_classes(run_dir, dataset_dir, workdir, capsys):
    out = workdir / "report"
    code = cli.run(["eval-zeroshot", "--checkpoint", str(run_dir / "checkpoint.bin"),
                    "--data", str(dataset_dir / "manifest.jsonl"),
                    "--set", "data", "--topk", "3", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert HEADER_RE.match(stdout.splitlines()[0])
    assert "accuracy" in stdout
    report = (out / "zeroshot.txt").read_text()
    assert "set=data" in report and "k=1" in report and "k=3" in report


def test_eval_zeroshot_modelnet_set_names(run_dir, dataset_dir, capsys):
    # scoring this synthetic data against the benchmark class lists is
    # meaningless, but every sample must be skipped, which is an error
    code = cli.run(["eval-zeroshot", "--checkpoint", str(run_dir / "checkpoint.bin"),
                    "--data", str(dataset_dir / "manifest.jsonl"), "--set", "hard"])
    assert code == 2
    assert "no sample matches" in capsys.readouterr().err


def test_eval_zeroshot_custom_set(run_dir, dataset_dir, workdir, capsys):
    ds = load_manifest(dataset_dir / "manifest.jsonl")
    listing = workdir / "classes.txt"
    listing.write_text("\n".join(ds.tree.parents) + "\n")
    code = cli.run(["eval-zeroshot", "--checkpoint", str(run_dir / "checkpoint.bin"),
                    "--data", str(dataset_dir / "manifest.jsonl"),
                    "--set", f"custom:{listing}"])
    assert code == 0
    assert "classes" in capsys.readouterr().out


def test_eval_zeroshot_unknown_set(run_dir, dataset_dir):
    code = cli.run(["eval-zeroshot", "--checkpoint", str(run_dir / "checkpoint.bin"),
                    "--data", str(dataset_dir / "manifest.jsonl"), "--set", "bogus"])
    assert code == 2


def test_retrieve_ranks_samples(run_dir, dataset_dir, workdir, capsys):
    ds = load_manifest(dataset_dir / "manifest.jsonl")
    query = ds.samples[0].sample_id
    out = workdir / "retrieval"
    code = cli.run(["retrieve", "--checkpoint", str(run_dir / "checkpoint.bin"),
                    "--data", str(dataset_dir / "manifest.jsonl"),
                    "--query", query, "--view", "1", "--topk", "4",
                    "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"query={query} view=1" in lines
    ranked = [ln.split()[1] for ln in lines if re.match(r"^\d+ ", ln)]
    assert len(ranked) == 4
    assert len(set(ranked)) == 4
    assert (out / "retrieval.txt").read_text().startswith(f"query={query}")


def test_retrieve_unknown_query(run_dir, dataset_dir):
    code = cli.run(["retrieve", "--checkpoint", str(run_dir / "checkpoint.bin"),
                    "--data", str(dataset_dir / "manifest.jsonl"),
                    "--query", "nope-0000"])
    assert code == 2


def test_retrieve_view_out_of_range(run_dir, dataset_dir):
    ds = load_manifest(dataset_dir / "manifest.jsonl")
    query = ds.samples[0].sample_id
    code = cli.run(["retrieve", "--checkpoint", str(run_dir / "checkpoint.bin"),
                    "--data", str(dataset_dir / "manifest.jsonl"),
                    "--query", query, "--view", "99"])
    assert code == 2


def test_export_features_round_trip(run_dir, dataset_dir, workdir, capsys):
    out = workdir / "feats"
    code = cli.run(["export-features", "--checkpoint", str(run_dir / "checkpoint.bin"),
                    "--data", str(dataset_dir / "manifest.jsonl"), "--out", str(out)])
    assert code == 0
    feats = read_feature_file(out / "features.bin")
    ids = (out / "ids.txt").read_text().splitlines()
    assert feats.shape == (12, 16)
    assert len(ids) == 12
    # payload is float32, so unit norms survive only to single precision
    norms = np.linalg.norm(feats, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-6)


def test_output_files_are_replaced_whole(run_dir, dataset_dir, workdir, monkeypatch):
    out = workdir / "replaced"
    common = ["--checkpoint", str(run_dir / "checkpoint.bin"),
              "--data", str(dataset_dir / "manifest.jsonl"), "--out", str(out)]
    assert cli.run(["export-features", *common]) == 0
    assert cli.run(["eval-zeroshot", *common]) == 0
    files = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
    assert sorted(files) == ["features.bin", "ids.txt", "zeroshot.txt"]
    real_write = os.write

    def write_half_then_fail(fd, blob):
        real_write(fd, blob[:len(blob) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", write_half_then_fail)
    for command in ("export-features", "eval-zeroshot"):
        with contextlib.suppress(OSError):
            cli.run([command, *common])
    monkeypatch.undo()
    assert {name: (out / name).read_bytes() for name in sorted(os.listdir(out))} == files


def test_gradcheck_command_passes(capsys):
    # the full config plus each loss switch turned off, one line each
    assert cli.run(["gradcheck", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = [ln.split(":")[0] for ln in lines if "max relative error" in ln]
    assert labels == ["full", "jma_on=False", "htt_on=False",
                      "normalize_before_nce=False", "symmetric_nce=False"]
    assert lines[-1].startswith("OK")


# ---------------------------------------------------------------------------
# ablation command


def test_ablate_single_axis_table(dataset_dir, workdir, capsys):
    out = workdir / "ablation"
    code = cli.run(["ablate", "--data", str(dataset_dir / "manifest.jsonl"),
                    "--axis", "jma", "--epochs", "1", "--batch", "4",
                    "--seed", "0", "--held", "0.34", "--topk", "3",
                    "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert re.search(r"^full\s", stdout, re.MULTILINE)
    assert re.search(r"^no-jma\s", stdout, re.MULTILINE)
    report = (out / "ablation.txt").read_text()
    assert "set=full" in report and "set=no-jma" in report


def test_ablate_rejects_unknown_axis_flag(dataset_dir):
    code = cli.run(["ablate", "--data", str(dataset_dir / "manifest.jsonl"),
                    "--axis", "bogus"])
    assert code == 1  # argparse choices reject it as usage


def test_run_ablation_rejects_unknown_axis(dataset_dir):
    ds = load_manifest(dataset_dir / "manifest.jsonl")
    with pytest.raises(ConfigError):
        cli.run_ablation(ds, cli.TrainConfig(epochs=1, batch_size=4), ["bogus"])


# ---------------------------------------------------------------------------
# helper functions


def test_observed_leaf_classes_orders_by_leaf_index(dataset_dir):
    ds = load_manifest(dataset_dir / "manifest.jsonl")
    classes = cli.observed_leaf_classes(ds.samples, ds.tree)
    assert len(classes) == 4
    positions = [ds.tree.leaf_names.index(c) for c in classes]
    assert positions == sorted(positions)


def test_gold_indices_fall_back_to_parent_names(dataset_dir):
    ds = load_manifest(dataset_dir / "manifest.jsonl")
    classes = list(ds.tree.parents)
    kept, gold = cli.gold_indices(ds.samples, ds.tree, classes)
    assert len(kept) == len(ds.samples)
    assert set(gold) == {0, 1}


def test_gold_indices_reject_disjoint_classes(dataset_dir):
    ds = load_manifest(dataset_dir / "manifest.jsonl")
    with pytest.raises(LabelError):
        cli.gold_indices(ds.samples, ds.tree, ["nothing matches this"])


# ---------------------------------------------------------------------------
# installed entry points


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "jm3d", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout


@pytest.mark.skipif(shutil.which("jm3d") is None,
                    reason="console script not on PATH")
def test_console_script_entry_point():
    proc = subprocess.run(["jm3d", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
