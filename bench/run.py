"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload pretrain --seed 0 --seconds 22 --trace 0

Run it from the repository root; it imports jm3d from ./src.  It prints
one line per metric, then, as the last line, a JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones in BENCHMARK.json, with --trace 1 the per-layer ones.
Each run also writes a record with its environment, every operation's
checked output and, when traced, its spans, under .bench_results/.
Workload data goes under .bench_work/ and is deleted when the run ends,
all but a few empty directories (see `clear_keeping_markers`).
"""

import os

# Pinned before numpy is imported: one BLAS thread is faster than two on
# this model's tiny matrices and gives identical checkpoint bytes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import fcntl  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def filesystem_of(path: Path) -> str:
    """Type of the mounted filesystem holding path, from /proc/self/mounts."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return f"{kind} at {best}" if best else kind


# linux/fs.h: inode flags, and the "top of a directory hierarchy" flag
FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000


def spread_subdirectories(path: Path) -> bool:
    """Ask ext4 to spread new subdirectories of path over its block groups.

    On ext4 without a journal, allocating an inode passes over every inode
    of the block group that was freed in the last one to six minutes, at a
    cost per inode passed.  A run deletes its tens of thousands of files
    when it ends, and the next run creates as many right away.  When they
    landed in the same block group, creating them took 300 to 650 us of
    kernel time per file instead of about 25 on the 2-vCPU test machine,
    so set-up measured the filesystem's recent past.  With this flag
    (chattr +T), ext4 puts each new subdirectory in a block group with the
    fewest directories.  Returns whether the flag is set; on other
    filesystems it does nothing.
    """
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        flags = struct.unpack("i", fcntl.ioctl(fd, FS_IOC_GETFLAGS, struct.pack("i", 0)))[0]
        if not flags & FS_TOPDIR_FL:
            fcntl.ioctl(fd, FS_IOC_SETFLAGS, struct.pack("i", flags | FS_TOPDIR_FL))
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


def clear_keeping_markers(work: Path) -> None:
    """Delete everything under work except work and its subdirectories.

    The empty directories left behind keep counting in their block group,
    so `spread_subdirectories` steers the next runs away from the group
    whose inodes this run has just freed.  Deleting them as well sent the
    next run back to that group in about one run in three.
    """
    for child in work.iterdir():
        if not child.is_dir() or child.is_symlink():
            child.unlink()
            continue
        for item in child.iterdir():
            if item.is_dir() and not item.is_symlink():
                shutil.rmtree(item)
            else:
                item.unlink()


def environment(work: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "work_dir_fs": filesystem_of(work),
    }


def write_spans(path: Path, traces: dict) -> None:
    """One JSON line per span table; span i is named names[name_index[i]]."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for label, spans in traces.items():
            names = sorted(set(spans.names))
            index = {name: i for i, name in enumerate(names)}
            fh.write(json.dumps({"table": label, "names": names,
                                 "name_index": [index[n] for n in spans.names],
                                 "starts": spans.starts, "ends": spans.ends,
                                 "parents": spans.parents}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if not (SRC / "jm3d" / "__init__.py").is_file():
        print(f"error: no jm3d sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jm3d
    import workloads

    if Path(jm3d.__file__).resolve().parent != SRC / "jm3d":
        print(f"error: imported jm3d from {jm3d.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    spread = spread_subdirectories(WORK)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        env = dict(environment(work), work_dir_spread=spread)
        workload = workloads.WORKLOADS[args.workload](args.seed)
        result = workloads.run(workload, work, args.seconds, bool(args.trace))
    finally:
        clear_keeping_markers(work)

    values = dict(result.metrics)
    if args.trace:
        # a wrapped function this workload never reached did no work
        traced = {name for _, _, name in workloads.trace_points()}
        for m in declared:
            if m["name"].rsplit(".", 1)[0] in traced:
                values.setdefault(m["name"], 0)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: workload produced no value for {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"args": vars(args), "environment": env, "attempted": result.attempted,
              "failed": result.failed,
              "failed_ratio": result.failed / result.attempted,
              "metrics": metrics, **result.record}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result.traces:
        write_spans(RESULTS / f"{args.workload}-spans.jsonl.gz", result.traces)

    for problem in result.record.get("problems", []):
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# {stem}: {result.attempted} operations, {result.failed} failed; "
          f"{json.dumps(env)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
