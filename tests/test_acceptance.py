"""Acceptance checks: nine end-to-end and property gates, one test per
numbered check, each printing a single PASS/FAIL line on the real stdout
so the verdicts read off a plain ``pytest`` run.

The expensive checks (6, 7, 8) share one session-scoped benchmark: five
seeds of full training plus five with fusion disabled, all on the same
generated dataset.  They are marked ``slow``: ``pytest -m "not slow"``
skips them and that benchmark.
"""

import math
import time

import numpy as np
import pytest

from jm3d import alignment as al
from jm3d import autodiff as ad
from jm3d import cli
from jm3d.data import (PointCloud, ViewRecord, circular_distance,
                       sample_within_window)
from jm3d.encoders import (FrozenEncoderSpec, encode_point_cloud,
                           init_point_encoder, point_encoder_from_values)
from jm3d.evaluation import (accuracy_topk, build_label_features,
                             format_records, modelnet_eval_sets,
                             zero_shot_topk)
from jm3d.training import TrainConfig, point_features, save_checkpoint, train


def verdict(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    line = f"[acceptance {number}/9] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    with capsys.disabled():
        print(line, flush=True)


# ---------------------------------------------------------------------------
# shared benchmark: dataset plus the 5-seed training runs


BENCH_SEEDS = (0, 1, 2, 3, 4)


def bench_config(seed: int, **over) -> TrainConfig:
    base = dict(batch_size=16, epochs=50, seed=seed, base_lr=2e-2, beta2=0.99)
    base.update(over)
    return TrainConfig(**base)


def held_out_top1(ckpt, held, tree, classes):
    cfg = ckpt.train_config()
    spec = FrozenEncoderSpec(seed=cfg.frozen_seed, dim=ckpt.dim)
    label_feats = build_label_features(classes, spec)
    kept, gold = cli.gold_indices(held, tree, classes)
    feats = point_features(kept, ckpt.params)
    return accuracy_topk(zero_shot_topk(feats, label_feats, 1), gold, 1)


@pytest.fixture(scope="session")
def bench_runs(bench_dataset, tmp_path_factory):
    _, ds = bench_dataset
    classes = cli.observed_leaf_classes(ds.samples, ds.tree)
    ckpt_dir = tmp_path_factory.mktemp("ckpts")
    runs = {"full": [], "nojma": [], "classes": classes, "full_elapsed": 0.0}
    for seed in BENCH_SEEDS:
        train_ds, held = cli.split_dataset(ds, 0.2, seed)
        t0 = time.time()
        ckpt = train(train_ds, bench_config(seed))
        top1 = held_out_top1(ckpt, held, ds.tree, classes)
        runs["full_elapsed"] += time.time() - t0
        entry = {"seed": seed, "top1": top1,
                 "first_loss": ckpt.losses[0], "final_loss": ckpt.losses[-1]}
        if seed == 0:
            path = ckpt_dir / "seed0.bin"
            save_checkpoint(ckpt, path)
            entry["ckpt_bytes"] = path.read_bytes()
            entry["report"] = format_records(cli.zero_shot_records(
                ckpt, held, ds.tree, classes, "held", 5, "seed0"))
        runs["full"].append(entry)

        nj = train(train_ds, bench_config(seed, jma_on=False))
        runs["nojma"].append(held_out_top1(nj, held, ds.tree, classes))
    return runs


# ---------------------------------------------------------------------------
# 1. analytic gradients of the complete training loss


def test_1_gradients_match_finite_differences(capsys):
    budget = 60.0
    t0 = time.time()
    result = cli.model_gradient_check(seed=0, n_samples=4, dim=16, v_views=2)
    elapsed = time.time() - t0
    ok = result["max_rel"] < 1e-4 and elapsed < budget
    verdict(capsys, 1, "full-loss gradient check", ok,
            f"max_rel={result['max_rel']:.3e} (tol 1e-4) over "
            f"{result['n_coordinates']} coordinates in {elapsed:.1f}s (budget {budget:.0f}s)")
    assert result["max_rel"] < 1e-4
    assert elapsed < budget


# ---------------------------------------------------------------------------
# 2. contrastive-loss oracles


def test_2_contrastive_loss_oracles(capsys):
    eye = ad.constant(np.eye(2))
    identity_loss = ad.info_nce(eye, eye, ad.constant([[1.0 / 1.0]])).item()
    identity_err = abs(identity_loss - (math.log(1.0 + math.e) - 1.0))

    rng = np.random.default_rng(7)
    row = rng.normal(size=(1, 6))
    same = ad.constant(np.repeat(row, 5, axis=0))
    uniform_err = abs(ad.info_nce(same, same, ad.constant([[1.0 / 0.3]])).item() - math.log(5))

    ok = identity_err < 1e-9 and uniform_err < 1e-12
    verdict(capsys, 2, "contrastive loss oracles", ok,
            f"identity case err={identity_err:.2e} (tol 1e-9), "
            f"identical-rows err={uniform_err:.2e} (tol 1e-12)")
    assert identity_err < 1e-9
    assert uniform_err < 1e-12


# ---------------------------------------------------------------------------
# 3. fusion invariants over random instances


def test_3_fusion_invariants(capsys):
    rng = np.random.default_rng(11)
    n_instances = 1000
    worst_sum = 0.0
    single_view_exact = True
    permutation_exact = True
    for i in range(n_instances):
        v = 1 if i % 10 == 0 else int(rng.integers(2, 7))
        d = int(rng.integers(3, 11))
        views = rng.normal(size=(v, d))
        text = rng.normal(size=(1, d))
        fused, weights = al.jma_fuse(ad.constant(views), ad.constant(text),
                                     return_weights=True)
        worst_sum = max(worst_sum, abs(weights.values.sum() - 1.0))
        if v == 1 and fused.values.tobytes() != views.tobytes():
            single_view_exact = False
        perm = rng.permutation(v)
        refused = al.jma_fuse(ad.constant(views[perm]), ad.constant(text))
        if refused.values.tobytes() != fused.values.tobytes():
            permutation_exact = False
    ok = worst_sum < 1e-12 and single_view_exact and permutation_exact
    verdict(capsys, 3, "fusion invariants", ok,
            f"{n_instances} instances: worst weight-sum err={worst_sum:.2e} "
            f"(tol 1e-12), single-view exact={single_view_exact}, "
            f"permutation bitwise={permutation_exact}")
    assert worst_sum < 1e-12
    assert single_view_exact
    assert permutation_exact


# ---------------------------------------------------------------------------
# 4. view-window sampler respects the angular bound


def test_4_window_sampler_bound(capsys):
    budget = 5.0
    omega = 60.0
    views = [ViewRecord(a * 12, "rgb", feature=np.zeros(4)) for a in range(30)]
    rng = np.random.default_rng(13)
    n_draws = 10_000
    violations = 0
    t0 = time.time()
    for i in range(n_draws):
        v = 2 if i % 2 == 0 else 4
        picked = sample_within_window(views, v, omega, rng)
        angles = [vw.angle_deg for vw in picked]
        for j in range(len(angles)):
            for k in range(j + 1, len(angles)):
                if circular_distance(angles[j], angles[k]) >= omega:
                    violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < budget
    verdict(capsys, 4, "view-window sampler", ok,
            f"{n_draws} draws (v in {{2,4}}, window {omega:.0f} deg): "
            f"{violations} violations in {elapsed:.1f}s (budget {budget:.0f}s)")
    assert violations == 0
    assert elapsed < budget


# ---------------------------------------------------------------------------
# 5. evaluation set construction


EXPECTED_ALL = (
    "airplane", "bathtub", "bed", "bench", "bookshelf",
    "bottle", "bowl", "car", "chair", "cone",
    "cup", "curtain", "desk", "door", "dresser",
    "flower_pot", "glass_box", "guitar", "keyboard", "lamp",
    "laptop", "mantel", "monitor", "night_stand", "person",
    "piano", "plant", "radio", "range_hood", "sink",
    "sofa", "stairs", "stool", "table", "tent",
    "toilet", "tv_stand", "vase", "wardrobe", "xbox",
)
EXPECTED_MEDIUM = (
    "cone", "cup", "curtain", "door", "dresser",
    "glass_box", "mantel", "monitor", "night_stand", "person",
    "plant", "radio", "range_hood", "sink", "stairs",
    "stool", "tent", "toilet", "tv_stand", "vase",
    "wardrobe", "xbox",
)
EXPECTED_HARD = (
    "cone", "curtain", "door", "dresser", "glass_box",
    "mantel", "night_stand", "person", "plant", "radio",
    "range_hood", "sink", "stairs", "tent", "toilet",
    "tv_stand", "xbox",
)


def test_5_evaluation_sets_verbatim(capsys):
    sets = modelnet_eval_sets()
    all_c = sets["all"].classes
    medium = sets["medium"].classes
    hard = sets["hard"].classes
    sizes_ok = (len(all_c), len(medium), len(hard)) == (40, 22, 17)
    verbatim_ok = (all_c == EXPECTED_ALL and medium == EXPECTED_MEDIUM
                   and hard == EXPECTED_HARD)
    nested_ok = set(hard) < set(medium) < set(all_c)
    ok = sizes_ok and verbatim_ok and nested_ok
    verdict(capsys, 5, "evaluation set construction", ok,
            f"sizes {len(all_c)}/{len(medium)}/{len(hard)} (want 40/22/17), "
            f"verbatim={verbatim_ok}, strict nesting={nested_ok}")
    assert sizes_ok
    assert verbatim_ok
    assert nested_ok


# ---------------------------------------------------------------------------
# 9. point-feature permutation invariance (cheap, so it runs before the
# training-backed checks)


def test_9_point_encoder_permutation_invariance(capsys):
    rng = np.random.default_rng(17)
    tape = ad.Tape()
    enc = point_encoder_from_values(tape, init_point_encoder(hidden=16, dim=16, rng=rng))
    n_clouds, n_perms = 50, 100
    exact = True
    for _ in range(n_clouds):
        cloud = PointCloud.from_raw(rng.normal(size=(64, 3)))
        base = encode_point_cloud(cloud, enc).values.tobytes()
        for _ in range(n_perms):
            perm = rng.permutation(cloud.count)
            shuffled = PointCloud(cloud.points[perm])
            if encode_point_cloud(shuffled, enc).values.tobytes() != base:
                exact = False
    verdict(capsys, 9, "point-permutation invariance", exact,
            f"{n_clouds} clouds x {n_perms} permutations, bitwise equality")
    assert exact


# ---------------------------------------------------------------------------
# 6. end-to-end training on the synthetic benchmark


@pytest.mark.slow
def test_6_end_to_end_training(bench_runs, capsys):
    budget = 300.0
    elapsed = bench_runs["full_elapsed"]
    per_seed_ok = [r["final_loss"] < r["first_loss"] and r["top1"] >= 0.90
                   for r in bench_runs["full"]]
    majority = sum(per_seed_ok) >= 3
    ok = majority and elapsed < budget
    tops = ", ".join(f"{r['top1']:.3f}" for r in bench_runs["full"])
    losses = ", ".join(f"{r['first_loss']:.2f}->{r['final_loss']:.2f}"
                       for r in bench_runs["full"])
    verdict(capsys, 6, "end-to-end training", ok,
            f"held-out top-1 per seed [{tops}] (need >= 0.90 on a majority "
            f"of {len(BENCH_SEEDS)}), epoch losses [{losses}], "
            f"{elapsed:.0f}s for the full runs (budget {budget:.0f}s)")
    assert majority
    assert elapsed < budget


# ---------------------------------------------------------------------------
# 7. ablation harness: all switches run, and fusion does not hurt


@pytest.mark.slow
def test_7_ablation_harness(bench_dataset, bench_runs, capsys):
    out_dir, _ = bench_dataset
    code = cli.run(["ablate", "--data", str(out_dir / "manifest.jsonl"),
                    "--epochs", "6", "--batch", "16", "--lr", "2e-2",
                    "--seed", "0", "--topk", "3"])
    stdout = capsys.readouterr().out
    rows_present = all(f"no-{axis}" in stdout for axis in cli.ABLATION_AXES)
    table_ok = code == 0 and rows_present and "full" in stdout

    full_mean = float(np.mean([r["top1"] for r in bench_runs["full"]]))
    nojma_mean = float(np.mean(bench_runs["nojma"]))
    directional_ok = full_mean >= nojma_mean - 0.02
    ok = table_ok and directional_ok
    verdict(capsys, 7, "ablation harness", ok,
            f"switch table rows present={rows_present} (exit {code}); "
            f"mean top-1 full={full_mean:.4f} vs no-fusion={nojma_mean:.4f} "
            f"(full must be >= {nojma_mean - 0.02:.4f})")
    assert table_ok
    assert directional_ok


# ---------------------------------------------------------------------------
# 8. bitwise determinism of training and reports


@pytest.mark.slow
def test_8_determinism(bench_dataset, bench_runs, tmp_path, capsys):
    _, ds = bench_dataset
    classes = bench_runs["classes"]
    first = bench_runs["full"][0]
    train_ds, held = cli.split_dataset(ds, 0.2, 0)
    ckpt = train(train_ds, bench_config(0))
    path = tmp_path / "again.bin"
    save_checkpoint(ckpt, path)
    same_ckpt = path.read_bytes() == first["ckpt_bytes"]
    report = format_records(cli.zero_shot_records(
        ckpt, held, ds.tree, classes, "held", 5, "seed0"))
    same_report = report == first["report"]
    ok = same_ckpt and same_report
    verdict(capsys, 8, "determinism", ok,
            f"rerun of seed 0: checkpoint bytes identical={same_ckpt} "
            f"({len(first['ckpt_bytes'])} bytes), report identical={same_report}")
    assert same_ckpt
    assert same_report
