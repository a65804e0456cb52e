"""The benchmark workloads and the loop that measures them.

Each workload has a set-up step and an operation:

- `Pretrain`: set-up generates the 240-sample bench dataset and splits it;
  the operation trains the bench config on the 192 training samples, then
  scores the 48 held-out samples zero-shot.
- `Serve`: set-up generates the dataset and trains a checkpoint; the
  operation is one `cli.run` command from a fixed mix, in process, one
  client in a closed loop.
- `Gradcheck`: set-up is a cold interpreter import of jm3d; the operation
  is one `cli.model_gradient_check` on a seed from a seeded range.

`run` times set-up several times (the operations use the last copy), then
repeats the operation until the time is up and checks every output.  With
tracing on, it alternates untraced and traced passes of the same
operations and turns the spans into per-layer metrics.

`Gradcheck` is not listed in BENCHMARK.json: `model_gradient_check` fails
its own tolerance on some seeds (see bench/README.md), and every listed
workload must pass its checks on every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from jm3d import alignment, autodiff, cli, data, evaluation, synth, training
from jm3d.synth import SynthConfig
from jm3d.training import TrainConfig

import spans as tr

BENCH_DATA = SynthConfig(parents=4, subs_per_parent=3, samples_per_sub=20,
                         points=256, dim=32)
HELD_FRACTION = 0.2
RETRIEVE_QUERIES = 3  # seeded `retrieve` commands in the serve mix
MIN_HELD_TOP1 = 0.90  # acceptance gate 6's bar

# cli.model_gradient_check's arguments, spelled out so a change of its
# defaults cannot silently change the workload.
GRADCHECK_ARGS = dict(n_samples=4, dim=16, v_views=2, points=32, hidden=8,
                      head_hidden=8, n_parents=2, eps=1e-6)


def bench_config(seed: int, epochs: int = 50, batch_size: int = 16) -> TrainConfig:
    return TrainConfig(batch_size=batch_size, epochs=epochs, seed=seed,
                       base_lr=2e-2, beta2=0.99)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@contextlib.contextmanager
def step_clock(owner, attr: str):
    """Yield a list holding the start time, then one timestamp after each
    return of owner.attr.  It only reads the clock."""
    marks = [time.perf_counter()]
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        out = original(*args, **kwargs)
        marks.append(time.perf_counter())
        return out

    setattr(owner, attr, timed)
    try:
        yield marks
    finally:
        setattr(owner, attr, original)


def _intervals(marks) -> list[float]:
    return [b - a for a, b in zip(marks, marks[1:])]


@dataclass
class Outcome:
    """One operation: its wall time, the work it completed, and its checks."""

    seconds: float
    work: float  # items the operation completed, e.g. training samples
    key: str  # operations with equal keys must produce equal fingerprints
    fingerprint: str
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)  # wall times of equal parts of the work

    def __post_init__(self):
        if not self.steps:
            self.steps = [self.seconds]


# ---------------------------------------------------------------------------
# workloads


class Pretrain:
    """Bench-config training plus held-out zero-shot scoring."""

    setups = 5
    step_time = staticmethod(min)

    def __init__(self, seed: int, data_config: SynthConfig = BENCH_DATA,
                 epochs: int = 50, batch_size: int = 16):
        self.seed = seed
        self.data_config = data_config
        self.config = bench_config(seed, epochs, batch_size)

    def prepare(self, work: Path) -> None:
        dataset = synth.synth_generate(self.data_config, work / "data", seed=self.seed)
        self.train_set, self.held = cli.split_dataset(dataset, HELD_FRACTION, self.seed)
        self.tree = dataset.tree
        self.classes = cli.observed_leaf_classes(dataset.samples, dataset.tree)
        self.checkpoint = work / "checkpoint.bin"

    def passes(self) -> list[int]:
        return [0]

    def operation(self, i: int) -> Outcome:
        with step_clock(training, "adamw_step") as marks:
            ckpt = training.train(self.train_set, self.config)
        steps = _intervals(marks)[1:]  # the first also holds train()'s preparation
        training.save_checkpoint(ckpt, self.checkpoint)
        top1 = cli.zero_shot_records(ckpt, self.held, self.tree, self.classes,
                                     "held", 1, "bench")[0]["accuracy"]
        seconds = time.perf_counter() - marks[0]
        digest = sha256_file(self.checkpoint)
        first, last = ckpt.losses[0], ckpt.losses[-1]
        problems = []
        if not last < first:
            problems.append(f"final epoch loss {last:.6f} is not below the first {first:.6f}")
        if not top1 >= MIN_HELD_TOP1:
            problems.append(f"held-out top-1 {top1:.4f} is below {MIN_HELD_TOP1}")
        return Outcome(seconds, self.config.epochs * len(self.train_set.samples),
                       "train", digest, problems,
                       {"sha256": digest, "top1": top1, "loss_first": first,
                        "loss_final": last},
                       steps)


class Serve:
    """A closed loop of CLI commands against a checkpoint trained in set-up."""

    setups = 5
    # a run holds about 30 commands: too few for the fastest one to be
    # steady, and the mean over all of them varied least between runs
    step_time = staticmethod(statistics.mean)

    def __init__(self, seed: int, data_config: SynthConfig = BENCH_DATA,
                 checkpoint_epochs: int = 2, batch_size: int = 16):
        self.seed = seed
        self.data_config = data_config
        self.config = bench_config(seed, checkpoint_epochs, batch_size)

    def prepare(self, work: Path) -> None:
        dataset = synth.synth_generate(self.data_config, work / "data", seed=self.seed)
        self.checkpoint = work / "checkpoint.bin"
        training.save_checkpoint(training.train(dataset, self.config), self.checkpoint)
        # the built-in ModelNet lists name no synthetic class, so the custom
        # set names the parents
        names = work / "parents.txt"
        names.write_text("\n".join(dataset.tree.parents) + "\n")
        self.export_dir = work / "features"
        rng = np.random.default_rng(self.seed)
        common = ["--checkpoint", str(self.checkpoint),
                  "--data", str(work / "data" / "manifest.jsonl")]
        commands = [["eval-zeroshot", *common, "--set", "data"],
                    ["eval-zeroshot", *common, "--set", f"custom:{names}"]]
        for _ in range(RETRIEVE_QUERIES):
            sample = dataset.samples[int(rng.integers(len(dataset.samples)))]
            view = int(rng.integers(len(sample.views)))
            commands.append(["retrieve", *common, "--query", sample.sample_id,
                             "--view", str(view)])
        commands.append(["export-features", *common, "--out", str(self.export_dir)])
        self.commands = commands

    def passes(self) -> list[int]:
        return list(range(len(self.commands)))

    def operation(self, i: int) -> Outcome:
        argv = self.commands[i % len(self.commands)]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        seconds = time.perf_counter() - t0
        report = out.getvalue()
        if argv[0] == "export-features" and code == 0:
            report += sha256_file(self.export_dir / "features.bin")
            report += sha256_file(self.export_dir / "ids.txt")
        problems = [] if code == 0 else [f"exit code {code}: {err.getvalue().strip()}"]
        return Outcome(seconds, 1, " ".join(argv),
                       hashlib.sha256(report.encode()).hexdigest(), problems,
                       {"command": argv[0], "exit": code})


class Gradcheck:
    """Finite-difference checks of the full training loss over seeded seeds."""

    setups = 7
    step_time = staticmethod(min)

    def __init__(self, seed: int, args: dict = GRADCHECK_ARGS):
        self.base = 1000 * seed
        self.args = args

    def prepare(self, work: Path) -> None:
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", "import jm3d"], env=env, check=True,
                       timeout=120, stdout=subprocess.DEVNULL)

    def passes(self) -> list[int]:
        return [0]

    def operation(self, i: int) -> Outcome:
        seed = self.base + i
        with step_clock(alignment, "total_loss") as marks:
            result = cli.model_gradient_check(seed=seed, **self.args)
        seconds = time.perf_counter() - marks[0]
        problems = []
        if not result["max_rel"] < cli.GRADCHECK_TOLERANCE:
            problems.append(f"seed {seed}: max_rel {result['max_rel']:.3e} on "
                            f"{result['worst_param']} is not below {cli.GRADCHECK_TOLERANCE}")
        if not math.isfinite(result["loss"]):
            problems.append(f"seed {seed}: loss is {result['loss']}")
        return Outcome(seconds, result["n_coordinates"], f"seed {seed}",
                       repr(sorted(result.items())), problems, dict(result, seed=seed),
                       _intervals(marks))


WORKLOADS = {"pretrain": Pretrain, "serve": Serve, "gradcheck": Gradcheck}


# ---------------------------------------------------------------------------
# trace points


AUTODIFF_OPS = ("add", "sub", "mul", "scale", "exp", "tanh", "matmul",
                "transpose", "reshape", "total", "mean", "max_pool_rows",
                "concat_rows", "take_rows", "select_columns", "softmax",
                "log_softmax", "layer_norm", "l2_normalize")


def trace_points() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every function the trace wraps.

    The owner is the module whose code looks the name up at call time.
    """
    points = [(autodiff, op, f"autodiff.{op}") for op in AUTODIFF_OPS]
    points.append((autodiff.Tape, "backward", "autodiff.backward"))
    points += [(mod, "encode_point_cloud", "encoders.encode_point_cloud")
               for mod in (training, cli)]
    points += [(mod, fn, "encoders.frozen") for mod, fn in (
        (training, "encode_image_frozen"), (training, "encode_text_frozen"),
        (training, "embed_view"), (cli, "encode_image_frozen"),
        (cli, "embed_view"), (evaluation, "encode_text_frozen"))]
    points += [
        (alignment, "total_loss", "alignment.total_loss"),
        (alignment, "jma_fuse", "alignment.jma_fuse"),
        (cli, "load_manifest", "data.load_manifest"),
        (training, "sample_within_window", "data.sample_within_window"),
        (synth, "synth_generate", "synth.synth_generate"),
        (training, "train", "training.train"),
        (training, "adamw_step", "training.adamw_step"),
        (cli, "point_features", "training.point_features"),
        (training, "save_checkpoint", "training.save_checkpoint"),
        (cli, "load_checkpoint", "training.load_checkpoint"),
        (cli, "zero_shot_topk", "evaluation.zero_shot_topk"),
        (cli, "retrieve_by_image", "evaluation.retrieve_by_image"),
        (cli, "build_label_features", "evaluation.build_label_features"),
        (cli, "_cmd_eval_zeroshot", "cli.eval_zeroshot"),
        (cli, "_cmd_retrieve", "cli.retrieve"),
        (cli, "_cmd_export_features", "cli.export_features"),
        (cli, "model_gradient_check", "cli.model_gradient_check"),
    ]
    return points


def install_trace(rec: tr.Recorder) -> None:
    for owner, attr, name in trace_points():
        rec.wrap(owner, attr, name)
    rec.count(autodiff.Tape, "_record", "autodiff.nodes_recorded")
    size_of_first = lambda args: os.path.getsize(args[0])  # noqa: E731
    for owner, attr in ((data, "read_cloud_file"), (data, "read_feature_file"),
                        (data, "read_raster_file"), (cli, "load_manifest")):
        rec.count(owner, attr, "data.files_read")
        rec.count(owner, attr, "data.bytes_read", size_of_first)


def layer_metrics(spans: tr.Spans, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    busy, calls = tr.busy_by_name(spans)
    m = {}
    for name, n in calls.items():
        m[f"{name}.s"] = busy[name]
        m[f"{name}.calls"] = n
    selfs = tr.self_times(spans)
    m["training.train.self_s"] = sum(
        s for s, name in zip(selfs, spans.names) if name == "training.train")
    op_calls = sum(calls.get(f"autodiff.{op}", 0) for op in AUTODIFF_OPS)
    nodes = counts.get("autodiff.nodes_recorded", 0)
    m["autodiff.nodes_recorded"] = nodes
    m["autodiff.recorded_ratio"] = nodes / op_calls if op_calls else 0.0
    m["data.files_read"] = counts.get("data.files_read", 0)
    m["data.bytes_read"] = counts.get("data.bytes_read", 0)
    step_ends = [spans.ends[i] for i, name in enumerate(spans.names)
                 if name == "training.adamw_step"]
    step_ms = [1000.0 * (b - a) for a, b in zip(step_ends, step_ends[1:])]
    m["training.step_ms_p50"] = tr.percentile(step_ms, 50) if step_ms else 0.0
    m["training.step_ms_p98"] = tr.percentile(step_ms, 98) if step_ms else 0.0
    m["trace.spans"] = len(spans)
    return m


def _tree_size(root: Path) -> tuple[int, int]:
    """(files, bytes) under root; (0, 0) when it does not exist."""
    files = [p for p in root.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


# ---------------------------------------------------------------------------
# measurement loop


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict
    record: dict
    traces: dict = field(default_factory=dict)  # label -> Spans, written out at the end


def _attempt(workload, i: int) -> Outcome:
    """One operation; an exception counts as a failed operation."""
    try:
        return workload.operation(i)
    except Exception:  # the loop must go on and report the failure
        return Outcome(math.nan, 0, f"op {i}", "", [traceback.format_exc()])


class _Checker:
    """Counts operations and failures; equal keys must give equal outputs."""

    def __init__(self):
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, out: Outcome) -> Outcome:
        self.attempted += 1
        expected = self.first.setdefault(out.key, out.fingerprint)
        if out.fingerprint != expected:
            out.problems.append(f"{out.key}: output differs from its first occurrence")
        if out.problems:
            self.failed += 1
            self.problems.extend(out.problems)
        return out


def _setup(workload, work: Path, times: int) -> list[float]:
    """Time `times` set-ups in fresh directories; the workload uses the last.

    No copy is deleted before the run ends, so that no set-up pays for the
    deletion of the files of the one before it (see run.py's
    `spread_subdirectories`).
    """
    seconds = []
    for k in range(times):
        target = work / f"setup{k}"
        target.mkdir(parents=True)
        t0 = time.perf_counter()
        workload.prepare(target)
        seconds.append(time.perf_counter() - t0)
    return seconds


def run(workload, work: Path, seconds: float, trace: bool) -> Result:
    checker = _Checker()
    if not trace:
        setup_s = _setup(workload, work, workload.setups)
        outcomes = []
        start = time.perf_counter()
        while not outcomes or time.perf_counter() - start < seconds:
            outcomes.append(checker.check(_attempt(workload, len(outcomes))))
        step_s = [dt for o in outcomes if not math.isnan(o.seconds) for dt in o.steps]
        if not step_s:
            raise RuntimeError("every operation raised:\n" + "\n".join(checker.problems))
        # the fastest where a run holds thousands of steps: co-tenants of
        # the host slow CPU-bound work by about 1.5x in stretches, so the
        # median of a run mostly measures them
        metrics = {
            "setup_s": statistics.median(setup_s),
            "step_ms": 1000.0 * workload.step_time(step_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record = {"setup_s": setup_s, "step_ms_median": 1000.0 * statistics.median(step_s),
                  "step_s": step_s, "operations": [
            {"seconds": o.seconds, "work": o.work, "key": o.key, **o.info}
            for o in outcomes]}
        return Result(checker.attempted, checker.failed, metrics,
                      dict(record, problems=checker.problems))

    rec = tr.Recorder()
    install_trace(rec)
    try:
        _setup(workload, work, 1)
    finally:
        rec.restore()
    setup_spans, _ = rec.take()
    setup_busy, _ = tr.busy_by_name(setup_spans)
    files, size = _tree_size(work / "setup0" / "data")

    # untraced and traced passes alternate, so both see the same machine;
    # each traced output must equal its untraced twin
    untraced_s, traced_s, per_pass, traces = [], [], [], {"setup": setup_spans}
    outcomes = []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        for traced, walls in ((False, untraced_s), (True, traced_s)):
            if traced:
                install_trace(rec)
            try:
                outs = [checker.check(_attempt(workload, i)) for i in workload.passes()]
            finally:
                rec.restore()
            walls.append(sum(o.seconds for o in outs))
            outcomes += [dict(o.info, traced=traced) for o in outs]
        spans, counts = rec.take()
        per_pass.append(layer_metrics(spans, counts))
        traces.setdefault("pass0", spans)  # keep one pass's spans to write out

    # counts repeat in every pass; times are medians over the passes
    metrics = {key: statistics.median(m.get(key, 0) for m in per_pass)
               for key in per_pass[0]}
    metrics["synth.synth_generate.s"] = setup_busy.get("synth.synth_generate", 0.0)
    metrics["synth.files_written"] = files
    metrics["synth.bytes_written"] = size
    checkpoint = getattr(workload, "checkpoint", None)
    metrics["training.checkpoint_bytes"] = (
        os.path.getsize(checkpoint) if checkpoint and os.path.exists(checkpoint) else 0)
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    record = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
              "operations": outcomes, "problems": checker.problems}
    return Result(checker.attempted, checker.failed, metrics, record, traces)
