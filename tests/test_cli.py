"""Command-line surface: exit codes, config resolution, and the pipeline
round trip from data generation through feature export."""

import argparse
import contextlib
import errno
import io
import json
import math
import os
import re
import resource
import shutil
import struct
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jm3d import autodiff as ad
from jm3d import cli, data, encoders
from jm3d.data import load_manifest, read_feature_file
from jm3d.errors import ConfigError, LabelError
from layouts import edited_manifest, split_view_files

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
def per_view_dataset_dir(workdir, dataset_dir):
    """`dataset_dir` in the per-view layout: one feature file per view."""
    out = workdir / "per_view_data"
    shutil.copytree(dataset_dir, out)
    split_view_files(out)
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
# the package's names


def test_every_exported_name_resolves():
    import jm3d
    assert [name for name in jm3d.__all__ if not hasattr(jm3d, name)] == []
    assert len(set(jm3d.__all__)) == len(jm3d.__all__)
    assert jm3d.info_nce is ad.info_nce


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


@pytest.mark.parametrize("flag", [True, False])
def test_boolean_manifest_dim_exits_2(dataset_dir, tmp_path, flag):
    root = tmp_path / "data"
    shutil.copytree(dataset_dir, root)
    manifest = root / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    lines[0] = json.dumps(dict(json.loads(lines[0]), dim=flag))
    manifest.write_text("\n".join(lines) + "\n")
    code, _, err = run_captured(["pretrain", "--data", str(manifest), "--epochs", "1"])
    assert code == 2
    assert f"line 1: dim must be a positive integer, got {flag!r}" in err


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


def test_nan_learning_rate_is_validation_error(dataset_dir, workdir, capsys):
    code = cli.run(["pretrain", "--data", str(dataset_dir / "manifest.jsonl"), "--lr", "nan",
                    "--out", str(workdir / "nan_lr")])
    assert code == 2
    assert "base_lr must not be NaN" in capsys.readouterr().err


def test_infinite_temperature_is_validation_error(dataset_dir, workdir, capsys):
    out = workdir / "inf_tau"
    code = cli.run(["pretrain", "--data", str(dataset_dir / "manifest.jsonl"), "--tau", "inf",
                    "--out", str(out)])
    assert code == 2
    assert "tau_init must be finite" in capsys.readouterr().err
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("flag, value, names, quiet", [
    # gradients near 1e300 overflow AdamW's second moment, which would
    # otherwise freeze the model silently; AdamW's own check names the
    # failure, so its update warns of nothing
    ("--lambda1", "1e300", r"adamw_step: step 1: the update of 'point\.w1' is not finite", True),
    ("--tau", "1e-300", r"adamw_step: step 1: the update of 'point\.w1' is not finite", True),
    # step 1 leaves weights near 1e300, which step 2's weight decay
    # overflows; that step's forward still warns
    ("--lr", "1e300", r"adamw_step: step 2: the update of 'point\.w1' is not finite", False),
])
def test_overflowing_training_exits_3_writing_no_checkpoint(dataset_dir, workdir, flag, value, names, quiet):
    out = workdir / f"overflow{flag}"
    with warnings.catch_warnings():
        if quiet:
            warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run_captured(["pretrain", "--data", str(dataset_dir / "manifest.jsonl"),
                                     "--epochs", "1", "--batch", "4", "--out", str(out), flag, value])
    assert code == 3
    assert re.search(f"^numeric failure: {names}$", err, re.MULTILINE), err
    assert not (out / "checkpoint.bin").exists()


def test_a_trapped_overflow_exits_3_naming_the_jm3d_function_that_raised(dataset_dir, workdir):
    out = workdir / "trapped_overflow"
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        code, _, err = run_captured(["pretrain", "--data", str(dataset_dir / "manifest.jsonl"),
                                     "--epochs", "1", "--batch", "4", "--out", str(out), "--lr", "1e300"])
    assert code == 3
    assert err == "numeric failure: _l2_normalize: overflow encountered in multiply\n"
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("command,extra", [("eval-zeroshot", ["--checkpoint", "missing.bin"]),
                                           ("retrieve", ["--checkpoint", "missing.bin", "--query", "s0"]),
                                           ("ablate", [])])
@pytest.mark.parametrize("topk", ["0", "-2"])
def test_topk_below_one_exits_2_before_reading_anything(tmp_path, capsys, command, extra, topk):
    # neither the checkpoint nor the manifest exists: --topk is checked first
    code = cli.run([command, "--data", str(tmp_path / "none.jsonl"), *extra, "--topk", topk])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: --topk must be >= 1, got {topk}\n"


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


@pytest.mark.parametrize("dim", ["1", "0"])
def test_gen_data_narrower_than_2_exits_2_before_writing(tmp_path, capsys, dim):
    # the frozen encoders need dim >= 2, so pretrain could never read it
    out = tmp_path / "data"
    code = cli.run(["gen-data", "--out", str(out), "--parents", "2", "--subs", "1",
                    "--per-sub", "2", "--points", "8", "--dim", dim, "--seed", "0"])
    assert code == 2
    assert f"dim must be >= 2, got {dim}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "gradcheck"])
def test_negative_seed_exits_2_before_writing(tmp_path, capsys, command):
    out = tmp_path / "data"
    argv = [command, "--seed", "-1"]
    if command == "gen-data":
        argv += ["--out", str(out), "--parents", "2", "--subs", "1", "--per-sub", "2", "--points", "8"]
    assert cli.run(argv) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command, target", [("gen-data", "synth_generate"), ("pretrain", "train"),
                                             ("eval-zeroshot", "load_manifest")])
def test_running_out_of_memory_exits_2_naming_the_command(run_dir, dataset_dir, tmp_path,
                                                           monkeypatch, command, target):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, target, exhausted)
    argv = {"gen-data": ["gen-data", "--out", str(tmp_path / "data")],
            "pretrain": ["pretrain", "--data", str(dataset_dir / "manifest.jsonl"),
                         "--out", str(tmp_path / "run")],
            "eval-zeroshot": ["eval-zeroshot", *serve_args(run_dir, dataset_dir / "manifest.jsonl")]}
    code, _, err = run_captured(argv[command])
    assert (code, err) == (2, f"error: {command}: out of memory\n")


def run_with_little_memory(argv) -> subprocess.CompletedProcess:
    """`python -m jm3d argv` in a child whose address space is capped at
    2 GiB, so a request for tens of GiB fails there at once."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "jm3d", *argv], preexec_fn=cap, env=env,
                          capture_output=True, text=True, timeout=120)


def test_gen_data_too_wide_for_memory_exits_2_before_creating_anything(tmp_path):
    # a 20 x 1e8 projection: 15 GiB
    out = tmp_path / "data"
    proc = run_with_little_memory(["gen-data", "--out", str(out), "--parents", "2", "--subs", "1",
                                   "--per-sub", "2", "--points", "8", "--dim", "100000000"])
    assert (proc.returncode, proc.stderr) == (2, "error: gen-data: out of memory\n")
    assert not out.exists()


def test_pretrain_too_wide_for_memory_exits_2_writing_nothing(dataset_dir, tmp_path):
    # point_hidden 100000: one 100000 x 100000 encoder weight, 75 GiB
    (tmp_path / "wide.cfg").write_text("point_hidden = 100000\nbatch_size = 4\n")
    proc = run_with_little_memory(["pretrain", "--data", str(dataset_dir / "manifest.jsonl"),
                                   "--config", str(tmp_path / "wide.cfg"), "--out", str(tmp_path / "run")])
    assert (proc.returncode, proc.stderr) == (2, "error: pretrain: out of memory\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, config", [
    (["gen-data", "--dim", str(10**17)], None),
    (["gen-data", "--points", str(10**30)], None),
    (["gen-data", "--parents", str(10**19)], None),
    (["pretrain", "--hidden", str(10**20)], None),
    (["pretrain"], f"point_hidden = {10**30}"),
    (["pretrain"], f"head_hidden = {10**30}"),
])
def test_sizes_beyond_numpys_address_space_exit_2_creating_nothing(dataset_dir, tmp_path, argv, config):
    # numpy refuses such a size with ValueError before it allocates anything
    out = tmp_path / "out"
    argv = argv + ["--out", str(out)]
    if argv[0] == "pretrain":
        argv += ["--data", str(dataset_dir / "manifest.jsonl"), "--epochs", "1", "--batch", "4"]
    if config is not None:
        (tmp_path / "wide.cfg").write_text(config + "\n")
        argv += ["--config", str(tmp_path / "wide.cfg")]
    code, _, err = run_captured(argv)
    assert (code, err) == (2, f"error: {argv[0]}: out of memory\n")
    assert not out.exists()


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


def test_serve_mix_repeated_in_process_gives_a_fresh_process_bytes(run_dir, dataset_dir, workdir,
                                                                   monkeypatch):
    # after the first command every load and every encode of the mix
    # repeats the last one, so the in-process passes reuse its record
    # parse, cloud normalization and features; a fresh process makes them
    # anew on its first command
    ds = load_manifest(dataset_dir / "manifest.jsonl")
    listing = workdir / "mix_parents.txt"
    listing.write_text("\n".join(ds.tree.parents) + "\n")
    out = workdir / "mix_feats"
    common = serve_args(run_dir, dataset_dir / "manifest.jsonl")
    mix = [["eval-zeroshot", *common, "--set", "data"],
           ["eval-zeroshot", *common, "--set", f"custom:{listing}"],
           *(["retrieve", *common, "--query", ds.samples[i].sample_id, "--view", str(i % 3)]
             for i in (0, 5, 11)),
           ["export-features", *common, "--out", str(out)]]

    def served() -> list:
        replies = []
        for argv in mix:
            code, stdout, err = run_captured(argv)
            assert code == 0, err
            replies.append(stdout)
        return replies + [(out / name).read_bytes() for name in ("features.bin", "ids.txt")]

    monkeypatch.setattr(encoders, "_last_point_encode", None)
    monkeypatch.setattr(data, "_last_load", None)
    pools, parses, normalizations = [], [], []
    for owner, name, calls in ((ad, "mlp_max_pool", pools), (data, "_parse_manifest", parses),
                               (data, "payload_clouds", normalizations)):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _real=real, _calls=calls: _calls.append(1) or _real(*args))
    first, second = served(), served()
    assert (len(pools), len(parses), len(normalizations)) == (1, 1, 1)
    script = ("import contextlib, io, json, pathlib, sys\n"
              "from jm3d import cli\n"
              "mix, out = json.loads(sys.argv[1]), pathlib.Path(sys.argv[2])\n"
              "replies = []\n"
              "for argv in mix:\n"
              "    with contextlib.redirect_stdout(io.StringIO()) as reply:\n"
              "        if cli.run(argv) != 0:\n"
              "            sys.exit(f'{argv[0]} failed')\n"
              "    replies.append(reply.getvalue())\n"
              "files = [(out / name).read_bytes().hex() for name in ('features.bin', 'ids.txt')]\n"
              "json.dump(replies + files, sys.stdout)\n")
    (out / "features.bin").unlink()
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(mix), str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    fresh = json.loads(proc.stdout)
    fresh[-2:] = [bytes.fromhex(h) for h in fresh[-2:]]
    assert first == second == fresh


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


def run_captured(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def serve_args(run_dir, manifest):
    return ["--checkpoint", str(run_dir / "checkpoint.bin"), "--data", str(manifest)]


def test_run_calls_the_handler_bound_to_the_module_at_call_time(run_dir, dataset_dir, monkeypatch):
    # the parser is built once per process; tracing wraps a handler by
    # replacing it on the module, after that parser exists
    argv = ["retrieve", *serve_args(run_dir, dataset_dir / "manifest.jsonl"), "--query", "nope"]
    assert run_captured(argv)[0] == 2
    seen = []
    monkeypatch.setattr(cli, "_cmd_retrieve", lambda ns: seen.append(ns.query) or 0)
    assert cli.run(argv) == 0
    assert seen == ["nope"]


def test_a_flag_given_to_one_command_does_not_leak_into_the_next(run_dir, dataset_dir, workdir):
    # every leaf, fallbacks included, so the default top-5 is not clamped to
    # the 4 observed classes
    leaves = load_manifest(dataset_dir / "manifest.jsonl").tree.leaf_names
    assert len(leaves) > 5
    listing = workdir / "all_leaves.txt"
    listing.write_text("\n".join(leaves) + "\n")
    argv = ["eval-zeroshot", *serve_args(run_dir, dataset_dir / "manifest.jsonl"),
            "--set", f"custom:{listing}"]

    def reported_k(argv):
        code, out, _ = run_captured(argv)
        assert code == 0
        return [line.split()[1] for line in out.splitlines() if line.startswith("all_leaves ")]

    assert reported_k([*argv, "--topk", "1"]) == ["1"]
    assert reported_k(argv) == ["1", "5"]


def test_serve_commands_read_only_the_payloads_they_use(run_dir, dataset_dir, workdir, monkeypatch):
    manifest = dataset_dir / "manifest.jsonl"
    samples = load_manifest(manifest).samples
    calls = Counter()
    for name in ("read_cloud_file", "read_feature_file", "read_raster_file"):
        def counted(p, _read=getattr(data, name), _name=name):
            calls[_name, p] += 1
            return _read(p)
        monkeypatch.setattr(data, name, counted)
    clouds = Counter(("read_cloud_file", str(dataset_dir / s.cloud_file)) for s in samples)
    query_view = ("read_feature_file", str(dataset_dir / samples[3].views[5].payload_file))
    common = serve_args(run_dir, manifest)
    for argv, expected in (
            (["eval-zeroshot", *common], clouds),
            (["export-features", *common, "--out", str(workdir / "lazy_feats")], clouds),
            (["retrieve", *common, "--query", samples[3].sample_id, "--view", "5"],
             clouds + Counter([query_view]))):
        calls.clear()
        assert run_captured(argv)[0] == 0
        assert calls == expected


def copy_dataset(dataset_dir, root):
    shutil.copytree(dataset_dir, root)
    return root / "manifest.jsonl", load_manifest(root / "manifest.jsonl").samples


def test_corrupt_view_fails_only_the_commands_that_read_it(run_dir, dataset_dir, per_view_dataset_dir,
                                                          tmp_path):
    intact = run_captured(["eval-zeroshot", *serve_args(run_dir, dataset_dir / "manifest.jsonl")])
    assert intact[0] == 0
    # a view file holds all its sample's views: corrupt, it fails every one
    # of them; a per-view file fails its own view only
    for layout, source, failing_views in (("view file", dataset_dir, (4, 5)),
                                          ("per view", per_view_dataset_dir, (5,))):
        manifest, records = copy_dataset(source, tmp_path / layout)
        bad = [tmp_path / layout / records[i].views[5].payload_file for i in (2, 7)]
        for path in bad:
            path.write_bytes(path.read_bytes()[:6])
        violations = [f"sample {records[i].sample_id!r}: feature file {path} is truncated"
                      for i, path in zip((2, 7), bad)]
        common = serve_args(run_dir, manifest)
        assert run_captured(["eval-zeroshot", *common]) == intact
        for view in (4, 5):
            code, _, err = run_captured(["retrieve", *common, "--query", records[2].sample_id,
                                         "--view", str(view)])
            if view in failing_views:
                assert (code, err) == (2, f"error: manifest validation failed with 1 problem(s)\n"
                                          f"  - {violations[0]}\n"), layout
            else:
                assert code == 0, layout
        assert run_captured(["retrieve", *common, "--query", records[3].sample_id, "--view", "5"])[0] == 0
        code, _, err = run_captured(["pretrain", "--data", str(manifest), "--epochs", "1", "--batch", "4"])
        assert code == 2
        assert err == "error: manifest validation failed with 2 problem(s)\n" + "".join(
            f"  - {v}\n" for v in violations)


def test_non_finite_view_feature_exits_3_where_it_is_read(run_dir, dataset_dir, tmp_path):
    manifest, records = copy_dataset(dataset_dir, tmp_path / "data")
    path = tmp_path / "data" / records[1].views[0].payload_file
    blob = bytearray(path.read_bytes())
    struct.pack_into("<f", blob, 8 + 4 * 3, math.nan)
    path.write_bytes(bytes(blob))
    common = serve_args(run_dir, manifest)
    assert run_captured(["eval-zeroshot", *common])[0] == 0
    code, _, err = run_captured(["retrieve", *common, "--query", records[1].sample_id, "--view", "0"])
    assert code == 3
    assert err == "numeric failure: encode_image_frozen: view feature holds non-finite values\n"
    assert run_captured(["pretrain", "--data", str(manifest), "--epochs", "1", "--batch", "4"])[0] == 3


def test_empty_raster_exits_2_naming_the_sample(run_dir, dataset_dir, tmp_path):
    manifest, records = copy_dataset(dataset_dir, tmp_path / "data")
    data.write_raster_file(tmp_path / "data/payload/empty.bin", np.zeros((4, 4, 0), dtype=np.uint8))
    with edited_manifest(manifest) as (_, objs):
        obj = objs[1]
        obj["views"][0] = {"angle": obj["views"][0]["angle"], "kind": "rgb", "image_file": "payload/empty.bin"}
    violation = (f"  - sample {records[1].sample_id!r}: raster file "
                 f"{tmp_path / 'data/payload/empty.bin'} declares an empty 4x4x0 raster\n")
    common = serve_args(run_dir, manifest)
    code, _, err = run_captured(["retrieve", *common, "--query", records[1].sample_id, "--view", "0"])
    assert (code, err) == (2, "error: manifest validation failed with 1 problem(s)\n" + violation)
    code, _, err = run_captured(["pretrain", "--data", str(manifest), "--epochs", "1", "--batch", "4"])
    assert (code, err) == (2, "error: manifest validation failed with 1 problem(s)\n" + violation)


def test_non_utf8_config_and_class_files_exit_2_naming_them(run_dir, dataset_dir, tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("epochs = 1\n# caf\xe9\n".encode("latin-1"))
    code, _, err = run_captured(["pretrain", "--data", str(dataset_dir / "manifest.jsonl"),
                                 "--config", str(bad)])
    assert code == 2 and err.startswith(f"error: config file {bad} is not UTF-8 text")
    code, _, err = run_captured(["eval-zeroshot", *serve_args(run_dir, dataset_dir / "manifest.jsonl"),
                                 "--set", f"custom:{bad}"])
    assert code == 2 and err.startswith(f"error: custom set file {bad} is not UTF-8 text")


def test_config_and_class_files_with_a_byte_order_mark_exit_2_naming_them(run_dir, dataset_dir, tmp_path):
    manifest = dataset_dir / "manifest.jsonl"
    config, listing = tmp_path / "bom.cfg", tmp_path / "bom.txt"
    config.write_text("\ufeffepochs = 1\n", encoding="utf-8")
    listing.write_text("\ufeffcat00\ncat01\n", encoding="utf-8")
    code, _, err = run_captured(["pretrain", "--data", str(manifest), "--config", str(config)])
    assert (code, err) == (2, f"error: config file {config} starts with a byte-order mark (U+FEFF); "
                              "save it without one\n")
    # the mark would join the first class name, which then names no sample
    code, _, err = run_captured(["eval-zeroshot", *serve_args(run_dir, manifest), "--set", f"custom:{listing}"])
    assert (code, err) == (2, f"error: custom set file {listing} starts with a byte-order mark (U+FEFF); "
                              "save it without one\n")


def test_a_manifest_with_a_byte_order_mark_exits_2_naming_it(run_dir, dataset_dir, tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\ufeff" + (dataset_dir / "manifest.jsonl").read_text(), encoding="utf-8")
    code, _, err = run_captured(["eval-zeroshot", *serve_args(run_dir, manifest)])
    assert (code, err) == (2, "error: manifest validation failed with 1 problem(s)\n"
                              f"  - manifest {manifest} starts with a byte-order mark (U+FEFF); "
                              "save it without one\n")


def test_config_lines_end_at_newline_alone_and_errors_name_physical_lines(dataset_dir, tmp_path):
    config = tmp_path / "seps.cfg"
    config.write_text("# a comment\u2028that goes on\nepochs = 1\n\nbatch_size = 8\u2029base_lr = 1\n",
                      encoding="utf-8")
    code, _, err = run_captured(["pretrain", "--data", str(dataset_dir / "manifest.jsonl"), "--config", str(config)])
    assert (code, err) == (2, f"error: {config}:4: config key 'batch_size': cannot parse "
                              f"{'8' + chr(0x2029) + 'base_lr = 1'!r} as int\n")
    config.write_text("epochs = 1\u2028\ncis_on = maybe\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{config}:2: config key 'cis_on': expected a boolean"):
        cli.parse_config_file(config)


def test_a_class_name_holding_a_line_separator_stays_one_class(run_dir, dataset_dir, tmp_path):
    listing = tmp_path / "classes.txt"
    listing.write_text("cat00\u2028sub\ncat01\x85nel\n\ncat02\n", encoding="utf-8")
    ns = argparse.Namespace(set=f"custom:{listing}")
    assert cli._eval_classes(ns, None) == ("classes", ["cat00\u2028sub", "cat01\x85nel", "cat02"])
    listing.write_text("cat00\u2028sub\ncat01\n", encoding="utf-8")
    code, out, _ = run_captured(["eval-zeroshot", *serve_args(run_dir, dataset_dir / "manifest.jsonl"),
                                 "--set", f"custom:{listing}", "--topk", "1"])
    set_name, k, _, n = out.splitlines()[-1].split()
    assert (code, set_name, k, n) == (0, "classes", "1", "6")  # only cat01 names samples: 6 of the 12


def test_a_custom_class_that_no_sample_carries_is_named_on_stderr(run_dir, dataset_dir, tmp_path):
    listing = tmp_path / "classes.txt"
    listing.write_text("cat00\nnosuch\n", encoding="utf-8")
    code, out, err = run_captured(["eval-zeroshot", *serve_args(run_dir, dataset_dir / "manifest.jsonl"),
                                   "--set", f"custom:{listing}", "--topk", "1"])
    assert (code, err) == (0, "note: no sample carries class 'nosuch'\n")
    assert out.splitlines()[-1].split()[::3] == ["classes", "6"]  # cat00's 6 samples are scored


def test_payload_name_with_nul_exits_2_naming_line_and_field(run_dir, dataset_dir, tmp_path):
    manifest, _ = copy_dataset(dataset_dir, tmp_path / "data")
    with edited_manifest(manifest) as (_, objs):
        objs[1]["views"][0]["feature_file"] = "payload/a\0b.bin"  # line 3
    code, _, err = run_captured(["eval-zeroshot", *serve_args(run_dir, manifest)])
    assert code == 2
    assert err == ("error: manifest validation failed with 1 problem(s)\n"
                   "  - line 3: view 0 feature_file 'payload/a\\x00b.bin' holds a NUL byte\n")


def output_command(command, run_dir, dataset_dir, out):
    if command == "pretrain":
        return ["pretrain", "--data", str(dataset_dir / "manifest.jsonl"), "--epochs", "1",
                "--batch", "4", "--out", str(out)]
    return [command, *serve_args(run_dir, dataset_dir / "manifest.jsonl"), "--out", str(out)]


@pytest.mark.parametrize("command", ["export-features", "eval-zeroshot", "pretrain"])
def test_output_below_a_regular_file_exits_2_naming_it(run_dir, dataset_dir, tmp_path, command):
    (tmp_path / "afile").write_text("not a directory\n")
    out = tmp_path / "afile" / "sub"
    code, _, err = run_captured(output_command(command, run_dir, dataset_dir, out))
    assert code == 2
    assert err == f"error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{out}'\n"


@pytest.mark.parametrize("command, first_file", [("export-features", "features.bin"),
                                                 ("eval-zeroshot", "zeroshot.txt"),
                                                 ("pretrain", "checkpoint.bin")])
def test_full_disk_exits_2_naming_the_output(run_dir, dataset_dir, tmp_path, monkeypatch,
                                             command, first_file):
    def no_space(fd, blob):
        raise OSError(errno.ENOSPC, "No space left on device")

    argv = output_command(command, run_dir, dataset_dir, tmp_path / "out")
    monkeypatch.setattr(os, "write", no_space)
    code, _, err = run_captured(argv)
    monkeypatch.undo()
    assert code == 2
    assert err.startswith(f"error: [Errno {errno.ENOSPC}] No space left on device: "
                          f"'{tmp_path / 'out' / first_file}.")
    assert os.listdir(tmp_path / "out") == []


def test_gradcheck_command_passes(capsys):
    # the full config plus each loss switch turned off, one line each
    assert cli.run(["gradcheck", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = [ln.split(":")[0] for ln in lines if "max relative error" in ln]
    assert labels == ["full", "jma_on=False", "htt_on=False",
                      "normalize_before_nce=False", "symmetric_nce=False"]
    assert lines[-1].startswith("OK")


def test_gradcheck_command_exits_3_on_a_nan_gradient(monkeypatch, capsys):
    # the point encoder's last op with a NaN backward: its weights' analytic
    # gradients are NaN, which must fail the check, not drop out of it
    real = ad.l2_normalize

    def nan_backward(x):
        shape = x.shape
        return ad._apply(real(x).values, (x,), lambda g: (np.full(shape, np.nan),))

    monkeypatch.setattr(ad, "l2_normalize", nan_backward)
    assert cli.run(["gradcheck", "--seed", "0"]) == 3
    assert "numeric failure: analytic gradient of 'point." in capsys.readouterr().err


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
# fuzzed inputs
#
# Every mutation below makes some input invalid.  A command may exit 0 only
# when the mutation broke nothing but view payloads the command does not
# read, and its output must then equal the output on the intact data.


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A 4-sample dataset of 4 views each and a checkpoint trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    assert cli.run(["gen-data", "--out", str(root / "data"), "--parents", "2", "--subs", "1",
                    "--per-sub", "2", "--points", "8", "--dim", "4", "--angles", "2",
                    "--seed", "0"]) == 0
    assert cli.run(["pretrain", "--data", str(root / "data" / "manifest.jsonl"),
                    "--out", str(root / "run"), "--epochs", "1", "--batch", "4"]) == 0
    records = load_manifest(root / "data" / "manifest.jsonl").samples
    return root, records


@pytest.fixture(scope="module")
def fuzz_base_per_view(fuzz_base, tmp_path_factory):
    """`fuzz_base` with its dataset in the per-view layout."""
    root = tmp_path_factory.mktemp("fuzz_per_view") / "base"
    shutil.copytree(fuzz_base[0], root)
    split_view_files(root / "data")
    records = load_manifest(root / "data" / "manifest.jsonl").samples
    return root, records


DROPPED_VIEW = ("view", None)  # views[view] deleted: fewer views than view-file rows
FIELD_FAULTS = [  # (field, bad value); "view." fields change views[view]
    ("id", 5), ("id", ""), ("parent", None), ("sub", 3), ("views", []),
    ("cloud_file", "payload/a\0b.bin"), ("cloud_file", 7), ("cloud_file", "payload/gone.bin"),
    ("view.angle", 13), ("view.angle", "abc"), ("view.angle", math.nan), ("view.angle", math.inf),
    ("view.kind", "sketch"), ("view.feature_file", "payload/a\0b.bin"), ("view.feature_file", 5),
    ("view.feature_file", "payload/gone.bin"), ("header.version", "jm3d-0"), ("header.dim", 0),
    ("header.dim", "4"), ("header.dim", 5),
    ("view_file", "payload/a\0b.bin"), ("view_file", 5), ("view_file", "payload/gone.bin"), DROPPED_VIEW,
]
PAYLOAD_FAULTS = ("truncate", "flip header byte", "nan in body")


def mutation_strategy(field_faults):
    return st.one_of(
        st.tuples(st.sampled_from(PAYLOAD_FAULTS), st.integers(0, 19), st.integers(0, 99)),
        st.tuples(st.sampled_from(["cut line", "repeat line"]), st.integers(0, 4), st.integers(0, 99)),
        st.tuples(st.just("field"), st.integers(0, 4), st.integers(0, 3), st.sampled_from(field_faults)),
    )


mutations = mutation_strategy(FIELD_FAULTS)
# a per-view record holds no view-file rows, so dropping a view leaves it valid
per_view_mutations = mutation_strategy([f for f in FIELD_FAULTS if f != DROPPED_VIEW])


def view_file_readers(obj) -> set:
    """(sample id, view index) of each view of a manifest record that takes
    a row of the record's view file."""
    if "view_file" not in obj:
        return set()
    return {(obj["id"], v) for v, vw in enumerate(obj["views"])
            if vw.get("feature_file") is None and vw.get("image_file") is None}


def apply_mutation(root, records, mutation):
    """Break the dataset under root; return the (sample id, view index) pairs
    whose payloads alone the mutation made unusable, or None when it broke
    the manifest or a cloud, which every command reads."""
    manifest = root / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    kind, i, j = mutation[:3]
    if kind in PAYLOAD_FAULTS:
        rec, view = records[i // 5], i % 5 - 1  # view -1 is the cloud
        name = rec.cloud_file if view < 0 else rec.views[view].payload_file
        path = root / name
        blob = bytearray(path.read_bytes())
        header = 4 if view < 0 else 8
        if kind == "truncate":
            del blob[j * len(blob) // 100:]
        elif kind == "flip header byte":
            blob[j % header] ^= 1 + j % 255
        else:
            at = j % ((len(blob) - header) // 4)
            struct.pack_into("<f", blob, header + 4 * at, math.nan)
        path.write_bytes(bytes(blob))
        if view < 0:
            return None
        # the views that read the file, the k-th of them its row k; a fault
        # breaks all of them, but a NaN only the one whose row it is in
        readers = [v for v, vw in enumerate(rec.views) if vw.payload_file == name]
        if kind == "nan in body":
            readers = [readers[at // struct.unpack_from("<I", blob, 4)[0]]]
        return {(rec.sample_id, v) for v in readers}
    if kind == "cut line":
        lines[i] = lines[i][:1 + j * (len(lines[i]) - 1) // 100]
    elif kind == "repeat line":
        lines.insert(i, lines[i])
    else:
        field, value = mutation[3]
        scope = None
        with edited_manifest(manifest) as (header, objs):
            if field.startswith("header."):
                header[field[len("header."):]] = value
                if field == "header.dim" and value == 5:  # every view now has the wrong width
                    scope = {(rec.sample_id, v) for rec in records for v in range(len(rec.views))}
            else:
                obj = objs[i % 4]
                if (field, value) == DROPPED_VIEW:  # every view that took a row now fails
                    scope = view_file_readers(obj)
                    del obj["views"][j]
                elif field.startswith("view."):
                    obj["views"][j][field[len("view."):]] = value
                    if value == "payload/gone.bin":
                        scope = {(obj["id"], j)}
                else:
                    obj[field] = value
                    if field == "view_file" and value == "payload/gone.bin":
                        scope = view_file_readers(obj)
        return scope
    manifest.write_text("\n".join(lines) + "\n")
    return None


def check_fuzzed_inputs(base, records, tmp_path_factory, mutation, query):
    root = tmp_path_factory.mktemp("mutant") / "data"
    shutil.copytree(base / "data", root)
    broken = apply_mutation(root, records, mutation)
    query_id, query_view = records[query // 4].sample_id, query % 4
    commands = {
        "eval-zeroshot": (["eval-zeroshot", "--set", "data"], set()),
        "retrieve": (["retrieve", "--query", query_id, "--view", str(query_view)],
                     {(query_id, query_view)}),
        "pretrain": (["pretrain", "--epochs", "1", "--batch", "4"],
                     {(rec.sample_id, v) for rec in records for v in range(len(rec.views))}),
    }
    for name, (argv, reads) in commands.items():
        if name != "pretrain":
            argv = argv + ["--checkpoint", str(base / "run" / "checkpoint.bin")]
        code, out, _ = run_captured(argv + ["--data", str(root / "manifest.jsonl")])
        if broken is not None and not broken & reads:
            intact = run_captured(argv + ["--data", str(base / "data" / "manifest.jsonl")])
            assert (code, out) == intact[:2], (name, mutation)
        else:
            assert code in (2, 3), (name, mutation)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mutation=mutations, query=st.integers(0, 15))
@example(mutation=("field", 0, 0, ("cloud_file", "payload/a\0b.bin")), query=0)
@example(mutation=("field", 0, 1, ("view.feature_file", "payload/a\0b.bin")), query=1)
@example(mutation=("field", 0, 1, ("view.feature_file", "payload/gone.bin")), query=1)
@example(mutation=("field", 0, 1, ("view.feature_file", "payload/gone.bin")), query=2)
@example(mutation=("field", 0, 0, ("header.dim", 5)), query=6)
@example(mutation=("truncate", 1, 50), query=0)
@example(mutation=("truncate", 1, 50), query=1)
@example(mutation=("nan in body", 1, 30), query=0)  # row 3 of sample 0's view file
@example(mutation=("nan in body", 1, 30), query=3)
@example(mutation=("field", 0, 1, ("view_file", "payload/gone.bin")), query=1)
@example(mutation=("field", 0, 1, ("view_file", "payload/gone.bin")), query=4)
@example(mutation=("field", 0, 1, DROPPED_VIEW), query=0)
@example(mutation=("field", 0, 1, DROPPED_VIEW), query=5)
def test_fuzzed_inputs_exit_0_2_or_3_and_never_raise(fuzz_base, tmp_path_factory, mutation, query):
    check_fuzzed_inputs(*fuzz_base, tmp_path_factory, mutation, query)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mutation=per_view_mutations, query=st.integers(0, 15))
@example(mutation=("field", 0, 1, ("view.feature_file", "payload/gone.bin")), query=1)
@example(mutation=("field", 0, 1, ("view.feature_file", "payload/gone.bin")), query=2)
@example(mutation=("truncate", 1, 50), query=0)
@example(mutation=("truncate", 1, 50), query=1)
@example(mutation=("field", 0, 1, ("view_file", "payload/gone.bin")), query=1)  # read by no view
def test_fuzzed_per_view_inputs_exit_0_2_or_3_and_never_raise(fuzz_base_per_view, tmp_path_factory,
                                                              mutation, query):
    check_fuzzed_inputs(*fuzz_base_per_view, tmp_path_factory, mutation, query)


# Every mutation below changes a trained checkpoint's bytes.  Whatever it
# breaks, `eval-zeroshot` must exit 0 (the file still describes a usable
# model), 2 or 3, and never raise.

CHECKPOINT_META_VALUES = [None, -1, 0, 1, 2**40, 1e308, math.nan, math.inf, -math.inf,
                          "x", "", True, [], {}, [["a", "b"]], [[1, 2, 3]], {"a": 1}]
CHECKPOINT_META_KEYS = ["config", "tree", "dim", "step", "losses"]
CHECKPOINT_CONFIG_KEYS = ["batch_size", "epochs", "v_views", "point_hidden", "head_hidden",
                          "tau_init", "prompt", "htt_on", "frozen_seed", "no_such_key"]

checkpoint_mutations = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 999), st.just(0)),
    st.tuples(st.just("flip byte"), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("meta"), st.sampled_from(CHECKPOINT_META_KEYS),
              st.integers(-1, len(CHECKPOINT_META_VALUES) - 1)),
    st.tuples(st.just("config"), st.sampled_from(CHECKPOINT_CONFIG_KEYS),
              st.integers(-1, len(CHECKPOINT_META_VALUES) - 1)),
)


def mutate_checkpoint(raw: bytes, mutation) -> bytes:
    """The checkpoint's bytes with one mutation applied; a value index of -1
    deletes the key."""
    kind, where, what = mutation
    if kind == "truncate":
        return raw[:where * len(raw) // 1000]
    if kind == "flip byte":
        blob = bytearray(raw)
        blob[where % len(blob)] ^= what
        return bytes(blob)
    (blob_len,) = struct.unpack_from("<I", raw, 12)
    meta = json.loads(raw[16:16 + blob_len])
    obj = meta if kind == "meta" else meta["config"]
    if what < 0:
        obj.pop(where, None)
    else:
        obj[where] = CHECKPOINT_META_VALUES[what]
    blob = json.dumps(meta).encode()
    return raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + blob_len:]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutation=checkpoint_mutations)
@example(mutation=("truncate", 10, 0))
@example(mutation=("flip byte", 13, 1))  # the metadata length
@example(mutation=("meta", "dim", CHECKPOINT_META_VALUES.index(math.inf)))
@example(mutation=("meta", "step", CHECKPOINT_META_VALUES.index(math.nan)))
@example(mutation=("config", "point_hidden", CHECKPOINT_META_VALUES.index(2**40)))
@example(mutation=("config", "prompt", CHECKPOINT_META_VALUES.index(None)))
@example(mutation=("config", "frozen_seed", CHECKPOINT_META_VALUES.index(-1)))
def test_fuzzed_checkpoints_exit_0_2_or_3_and_never_raise(fuzz_base, tmp_path_factory, mutation):
    base, _ = fuzz_base
    raw = (base / "run" / "checkpoint.bin").read_bytes()
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.bin"
    path.write_bytes(mutate_checkpoint(raw, mutation))
    code, _, _ = run_captured(["eval-zeroshot", "--set", "data", "--checkpoint", str(path),
                               "--data", str(base / "data" / "manifest.jsonl")])
    assert code in (0, 2, 3), mutation


# Numeric inputs: every numeric --config field and every gen-data size flag,
# set to values no range check may let through silently.  Sizes that pass
# validation stay at 64 or below and epochs at 2 or below, so nothing drawn
# allocates much or trains long; 10**19 and above numpy refuses outright.

HUGE = [str(10**19), str(10**30)]
ODD_CONFIG_VALUES = ["nan", "inf", "-inf", "1e400", "-1", "-0.5", "0", "true", *HUGE]
NUMERIC_CONFIG_FIELDS = sorted(k for k, kind in cli.CONFIG_FIELD_TYPES.items() if kind in ("int", "float"))
GEN_DATA_SIZES = {"--parents": 2, "--subs": 2, "--per-sub": 2, "--points": 64, "--dim": 64, "--angles": 64}


@st.composite
def config_field_values(draw, field):
    small = (st.integers(1, 2 if field == "epochs" else 64).map(str)
             if cli.CONFIG_FIELD_TYPES[field] == "int" else st.sampled_from(["0.001", "0.5", "2", "64"]))
    odd = [v for v in ODD_CONFIG_VALUES if field != "epochs" or v not in HUGE]
    return field, draw(st.one_of(st.sampled_from(odd), small))


@st.composite
def gen_data_flag_values(draw, flag):
    # flag values are ints, as argparse takes them; a config file takes any text
    small = st.integers(1, GEN_DATA_SIZES[flag]).map(str)
    return flag, draw(st.one_of(st.sampled_from(["-1", "0", *HUGE]), small))


numeric_inputs = st.one_of(
    st.tuples(st.just("config"), st.lists(st.sampled_from(NUMERIC_CONFIG_FIELDS).flatmap(config_field_values),
                                          min_size=1, max_size=3)),
    st.tuples(st.just("gen-data"), st.lists(st.sampled_from(sorted(GEN_DATA_SIZES)).flatmap(gen_data_flag_values),
                                            min_size=1, max_size=3)),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=numeric_inputs)
@example(case=("config", [("point_hidden", HUGE[0])]))
@example(case=("config", [("tau_init", "1e400")]))
@example(case=("config", [("epochs", "true")]))
@example(case=("gen-data", [("--dim", HUGE[0])]))
@example(case=("gen-data", [("--points", HUGE[1]), ("--per-sub", "0")]))
def test_numeric_inputs_exit_0_2_or_3_and_never_raise(fuzz_base, tmp_path_factory, case):
    kind, pairs = case
    root = tmp_path_factory.mktemp("numeric")
    if kind == "config":
        lines = ["epochs = 1", "batch_size = 4", "point_hidden = 8", "head_hidden = 8"]
        (root / "c.cfg").write_text("\n".join(lines + [f"{k} = {v}" for k, v in pairs]) + "\n")
        argv = ["pretrain", "--data", str(fuzz_base[0] / "data" / "manifest.jsonl"),
                "--config", str(root / "c.cfg")]
    else:
        argv = ["gen-data", "--out", str(root / "data"), "--parents", "1", "--subs", "1", "--per-sub", "2",
                "--points", "8", "--dim", "4", "--angles", "2"] + [x for pair in pairs for x in pair]
    code, _, _ = run_captured(argv)
    assert code in (0, 2, 3), case


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
