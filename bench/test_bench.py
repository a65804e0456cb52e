"""Self-tests of the benchmark: tracing, analysis, and each workload at toy size.

    python3 -m pytest -q bench
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import fcntl  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans as tr  # noqa: E402
import workloads  # noqa: E402
from jm3d.synth import SynthConfig  # noqa: E402

TOY_DATA = SynthConfig(parents=2, subs_per_parent=1, samples_per_sub=8, points=32,
                       dim=16, n_angles=6)
TOY_GRADCHECK = dict(workloads.GRADCHECK_ARGS, n_samples=2, points=8, dim=4,
                     hidden=3, head_hidden=3)


def test_wrappers_record_spans_and_restore_originals():
    def inner(x):
        return x + 1

    mod = types.SimpleNamespace(inner=inner)
    mod.outer = lambda x: mod.inner(x) * 2
    original_outer = mod.outer
    rec = tr.Recorder()
    rec.wrap(mod, "outer", "m.outer")
    rec.wrap(mod, "inner", "m.inner")
    rec.count(mod, "inner", "m.inner.count")
    rec.count(mod, "inner", "m.inner.sum", lambda args: args[0])
    assert mod.outer(3) == 8
    rec.restore()
    assert mod.outer is original_outer and mod.inner is inner
    spans, counts = rec.take()
    assert spans.names == ["m.outer", "m.inner"]
    assert spans.parents == [-1, 0]
    assert spans.starts[0] <= spans.starts[1] <= spans.ends[1] <= spans.ends[0]
    assert counts == {"m.inner.count": 1, "m.inner.sum": 3}
    assert len(rec.take()[0]) == 0


def test_step_clock_marks_each_return_and_restores():
    mod = types.SimpleNamespace(step=lambda: None)
    original = mod.step
    with workloads.step_clock(mod, "step") as marks:
        for _ in range(3):
            mod.step()
    assert mod.step is original
    assert len(marks) == 4 and marks == sorted(marks)


def test_install_trace_restores_every_program_function():
    targets = [(owner, attr) for owner, attr, _ in workloads.trace_points()]
    targets.append((workloads.autodiff.Tape, "_record"))
    before = [getattr(owner, attr) for owner, attr in targets]
    rec = tr.Recorder()
    workloads.install_trace(rec)
    assert all(getattr(o, a) is not f for (o, a), f in zip(targets, before))
    rec.restore()
    assert all(getattr(o, a) is f for (o, a), f in zip(targets, before))


def test_self_time_is_duration_minus_child_coverage():
    s = tr.Spans()
    root = s.add("root", 0.0, 10.0)
    s.add("a", 1.0, 4.0, root)
    b = s.add("b", 3.0, 6.0, root)  # overlaps a: together they cover 1..6
    s.add("b.child", 3.5, 5.5, b)  # covered by b, not a child of root
    s.add("c", 8.0, 12.0, root)  # only 8..10 lies inside root
    selfs = tr.self_times(s)
    assert selfs[root] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[b] == pytest.approx(3.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0)


def test_busy_time_counts_nested_same_name_once():
    s = tr.Spans()
    outer = s.add("f", 0.0, 4.0)
    s.add("f", 1.0, 2.0, outer)
    s.add("g", 2.0, 3.0, outer)
    busy, calls = tr.busy_by_name(s)
    assert busy == {"f": 4.0, "g": 1.0}
    assert calls == {"f": 2, "g": 1}


def test_percentile_is_nearest_rank():
    values = list(range(10, 0, -1))  # order must not matter
    assert tr.percentile(values, 50) == 5
    assert tr.percentile(values, 90) == 9
    assert tr.percentile(values, 91) == 10
    assert tr.percentile(values, 100) == 10
    assert tr.percentile([7.5], 98) == 7.5
    with pytest.raises(ValueError):
        tr.percentile([], 50)
    with pytest.raises(ValueError):
        tr.percentile(values, 0)


def test_declared_layer_metrics_name_traced_functions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = {name for _, _, name in workloads.trace_points()}
    computed = {"autodiff.nodes_recorded", "autodiff.recorded_ratio", "data.files_read",
                "data.bytes_read", "synth.files_written", "synth.bytes_written",
                "training.train.self_s", "training.step_ms_p50", "training.step_ms_p98",
                "training.checkpoint_bytes", "trace.overhead_s", "trace.spans"}
    for m in spec["per_layer"]:
        assert m["name"] in computed or m["name"].rsplit(".", 1)[0] in traced, m["name"]


TOYS = {
    "pretrain": lambda: workloads.Pretrain(0, TOY_DATA, epochs=30, batch_size=4),
    "serve": lambda: workloads.Serve(0, TOY_DATA, checkpoint_epochs=1, batch_size=4),
    "gradcheck": lambda: workloads.Gradcheck(0, TOY_GRADCHECK),
}


@pytest.mark.parametrize("name", sorted(TOYS))
def test_workload_runs_at_toy_size_and_passes_checks(name, tmp_path):
    result = workloads.run(TOYS[name](), tmp_path / "plain", 0.01, trace=False)
    assert result.failed == 0, result.record["problems"]
    assert result.attempted >= 1
    assert set(result.metrics) == {"setup_s", "step_ms", "peak_rss_mb"}
    assert all(v > 0 for v in result.metrics.values())


def test_spread_subdirectories_sets_the_top_directory_flag(tmp_path):
    if not run.spread_subdirectories(tmp_path):
        pytest.skip("this filesystem keeps no inode flags")
    fd = os.open(tmp_path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        packed = fcntl.ioctl(fd, run.FS_IOC_GETFLAGS, struct.pack("i", 0))
    finally:
        os.close(fd)
    assert struct.unpack("i", packed)[0] & run.FS_TOPDIR_FL
    assert run.spread_subdirectories(tmp_path)  # a second call is harmless


def test_clear_keeping_markers_leaves_only_the_top_two_directory_levels(tmp_path):
    (tmp_path / "setup0" / "data" / "payload").mkdir(parents=True)
    (tmp_path / "setup0" / "data" / "payload" / "cloud.bin").write_bytes(b"x")
    (tmp_path / "setup0" / "checkpoint.bin").write_bytes(b"x")
    (tmp_path / "setup1").mkdir()
    (tmp_path / "stray.txt").write_text("x")
    run.clear_keeping_markers(tmp_path)
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "setup0", "setup1"]


@pytest.mark.parametrize("name", sorted(TOYS))
def test_traced_run_matches_untraced_outputs(name, tmp_path):
    result = workloads.run(TOYS[name](), tmp_path / "traced", 0.01, trace=True)
    # the checker compares each traced output with the untraced one
    assert result.failed == 0, result.record["problems"]
    assert result.attempted >= 2
    m = result.metrics
    assert m["encoders.encode_point_cloud.calls"] > 0
    assert m["trace.spans"] == len(result.traces["pass0"])
    if name == "pretrain":
        assert m["training.adamw_step.calls"] == 30 * 3  # epochs x batches of 12 train samples
        assert m["synth.files_written"] > 0 and m["training.checkpoint_bytes"] > 0
    if name == "serve":
        assert m["data.files_read"] > 0 and m["cli.retrieve.calls"] == 3
        assert "autodiff.backward.calls" not in m
    if name == "gradcheck":
        assert m["cli.model_gradient_check.calls"] == 1 and m["autodiff.backward.calls"] == 1


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pretrain",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
