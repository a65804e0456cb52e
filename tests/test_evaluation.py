"""Category-set, zero-shot ranking, accuracy, and retrieval tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jm3d import evaluation as ev
from jm3d.encoders import FrozenEncoderSpec
from jm3d.errors import ConfigError, ContractError, InputError, LabelError, ShapeError


# ---------------------------------------------------------------------------
# category sets


def test_set_sizes():
    sets = ev.modelnet_eval_sets()
    assert len(sets["all"].classes) == 40
    assert len(sets["medium"].classes) == 22
    assert len(sets["hard"].classes) == 17


def test_set_nesting():
    sets = ev.modelnet_eval_sets()
    all_set = set(sets["all"].classes)
    medium = set(sets["medium"].classes)
    hard = set(sets["hard"].classes)
    assert hard < medium < all_set
    assert medium - hard == {"cup", "monitor", "stool", "vase", "wardrobe"}


def test_set_spot_checks():
    sets = ev.modelnet_eval_sets()
    assert sets["all"].classes[0] == "airplane"
    assert sets["all"].classes[-1] == "xbox"
    assert "night_stand" in sets["hard"].classes
    assert "airplane" not in sets["medium"].classes


def test_eval_set_rejects_duplicates_and_empty():
    with pytest.raises(LabelError):
        ev.EvalSet("x", ("a", "b", "a"))
    with pytest.raises(LabelError):
        ev.EvalSet("x", ())


# ---------------------------------------------------------------------------
# prompts and label features


def test_prompt_template_contract():
    t = ev.PromptTemplate()
    assert t.instantiate("chair") == "a point cloud of chair"
    with pytest.raises(ConfigError):
        ev.PromptTemplate("no slot here")
    with pytest.raises(ConfigError):
        ev.PromptTemplate("[CLASS] and [CLASS]")


def test_label_features_shape_and_norm():
    spec = FrozenEncoderSpec(seed=3, dim=24)
    feats = ev.build_label_features(["chair", "table", "lamp"], spec)
    assert feats.shape == (3, 24)
    np.testing.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-12)


def test_label_features_deterministic_and_order_preserving():
    spec = FrozenEncoderSpec(seed=3, dim=24)
    a = ev.build_label_features(["chair", "table"], spec)
    b = ev.build_label_features(["table", "chair"], spec)
    assert a[0].tobytes() == b[1].tobytes()
    assert a[1].tobytes() == b[0].tobytes()
    again = ev.build_label_features(["chair", "table"], spec)
    assert a.tobytes() == again.tobytes()


def test_label_features_rejections():
    spec = FrozenEncoderSpec(seed=3, dim=24)
    with pytest.raises(InputError):
        ev.build_label_features([], spec)
    with pytest.raises(LabelError):
        ev.build_label_features(["a", "a"], spec)
    with pytest.raises(ContractError):
        ev.build_label_features(["only"], spec)


# ---------------------------------------------------------------------------
# ranking


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_self_similarity_ranks_first():
    rng = np.random.default_rng(11)
    labels = np.stack([unit(rng.normal(size=8)) for _ in range(5)])
    for j in range(5):
        assert ev.zero_shot_topk(labels[j], labels, 1)[0] == j


def test_topk_full_is_permutation():
    rng = np.random.default_rng(12)
    labels = np.stack([unit(rng.normal(size=6)) for _ in range(4)])
    ranks = ev.zero_shot_topk(unit(rng.normal(size=6)), labels, 4)
    assert sorted(ranks.tolist()) == [0, 1, 2, 3]


def test_orthogonal_mixture_ranks_by_coefficient():
    labels = np.eye(4)
    query = labels[0] + 0.5 * labels[1]
    top2 = ev.zero_shot_topk(query, labels, 2)
    assert top2.tolist() == [0, 1]


def test_ties_break_to_lower_index():
    labels = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    ranks = ev.zero_shot_topk(np.array([1.0, 0.0]), labels, 3)
    assert ranks.tolist() == [0, 1, 2]


def test_topk_rejects_bad_k_and_shapes():
    labels = np.eye(3)
    with pytest.raises(ContractError):
        ev.zero_shot_topk(labels[0], labels, 4)
    with pytest.raises(ContractError):
        ev.zero_shot_topk(labels[0], labels, 0)
    with pytest.raises(ShapeError):
        ev.zero_shot_topk(np.ones(4), labels, 1)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=40, deadline=None)
def test_ranking_invariant_under_query_rescaling(seed, scale):
    rng = np.random.default_rng(seed)
    labels = np.stack([unit(rng.normal(size=5)) for _ in range(6)])
    q = rng.normal(size=5)
    a = ev.zero_shot_topk(q, labels, 6)
    b = ev.zero_shot_topk(q * scale, labels, 6)
    assert a.tolist() == b.tolist()


def per_row_topk(features, label_feats, k):
    """The ranking of each query alone, as a D-vector query was ranked
    before blocks: its own matrix-vector product, stably sorted."""
    return np.stack([np.argsort(-(label_feats @ f), kind="stable")[:k] for f in features])


def tied_block(seed, B=40, K=7, D=5):
    """A B x D block and K x D label rows, unit rows, with exact ties: label
    rows 1 and 4 are equal, as are rows 2 and 6, and the queries repeat and
    include copies of label rows."""
    rng = np.random.default_rng(seed)
    labels = np.stack([unit(rng.normal(size=D)) for _ in range(K)])
    labels[4], labels[6] = labels[1], labels[2]
    feats = np.stack([unit(rng.normal(size=D)) for _ in range(B)])
    feats[B // 2:] = feats[:B - B // 2]
    feats[:3] = labels[[1, 2, 4]]
    return feats, labels


@pytest.mark.parametrize("seed", range(5))
def test_block_ranks_equal_each_row_ranked_alone_for_every_k(seed):
    feats, labels = tied_block(seed)
    for k in range(1, len(labels) + 1):
        block = ev.zero_shot_topk(feats, labels, k)
        assert block.shape == (len(feats), k)
        assert block.tolist() == per_row_topk(feats, labels, k).tolist()
        assert block.tolist() == [ev.zero_shot_topk(f, labels, k).tolist() for f in feats]
        # a block of one query, kept a block
        assert ev.zero_shot_topk(feats[:1], labels, k).tolist() == block[:1].tolist()
    # the duplicate label rows tie exactly and go to the lower index
    assert ev.zero_shot_topk(feats[:3], labels, 2).tolist() == [[1, 4], [2, 6], [1, 4]]


def test_block_ranks_on_a_bench_sized_block():
    # 240 x 32 queries against 17 labels, about the shapes eval-zeroshot
    # ranks on the bench data.  Labels 0 and 16, and 2 and 9, are equal: one
    # 240 x 17 matrix product can round them apart by position and so break
    # some of their ties, which a row ranked alone does not
    rng = np.random.default_rng(31)
    feats = rng.normal(size=(240, 32))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    labels = rng.normal(size=(17, 32))
    labels /= np.linalg.norm(labels, axis=1, keepdims=True)
    labels[16], labels[9] = labels[0], labels[2]
    for layout in (feats, np.asfortranarray(feats), feats.astype(np.float32)):
        assert ev.zero_shot_topk(layout, labels, 5).tolist() == per_row_topk(
            np.asarray(layout, dtype=np.float64), labels, 5).tolist()


def test_a_vector_query_returns_k_indices_and_a_deeper_block_is_refused():
    labels = np.eye(3)
    ranks = ev.zero_shot_topk([0.0, 1.0, 0.5], labels, 2)
    assert ranks.shape == (2,) and ranks.tolist() == [1, 2]
    with pytest.raises(ShapeError):
        ev.zero_shot_topk(np.ones((2, 2, 3)), labels, 1)
    with pytest.raises(ShapeError):
        ev.zero_shot_topk(np.ones((2, 4)), labels, 1)
    with pytest.raises(ContractError):
        ev.zero_shot_topk(np.ones((2, 3)), labels, 4)


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_counting():
    preds = [np.array([0, 1]), np.array([1, 0]), np.array([2, 3]), np.array([0, 2])]
    gold = [0, 0, 0, 0]
    assert ev.accuracy_topk(preds, gold, 1) == 0.5
    assert ev.accuracy_topk(preds, gold, 2) == 0.75
    assert ev.accuracy_topk([np.array([3])] * 4, [0, 1, 2, 0], 1) == 0.0
    assert ev.accuracy_topk([np.array([g]) for g in gold], gold, 5) == 1.0


def test_accuracy_three_of_four():
    preds = [np.array([0]), np.array([1]), np.array([2]), np.array([9])]
    assert ev.accuracy_topk(preds, [0, 1, 2, 3], 1) == 0.75


def test_accuracy_monotone_in_k():
    rng = np.random.default_rng(5)
    preds = [rng.permutation(6) for _ in range(30)]
    gold = rng.integers(6, size=30).tolist()
    accs = [ev.accuracy_topk(preds, gold, k) for k in range(1, 7)]
    assert all(x <= y for x, y in zip(accs, accs[1:]))
    assert accs[-1] == 1.0


@pytest.mark.parametrize("seed", range(3))
def test_accuracy_on_a_block_is_the_per_row_count(seed):
    feats, labels = tied_block(seed, B=33)
    gold = np.random.default_rng(seed).integers(len(labels), size=len(feats)).tolist()
    block = ev.zero_shot_topk(feats, labels, len(labels))
    rows = list(block)
    for k in range(1, len(labels) + 2):
        count = sum(1 for ranked, g in zip(rows, gold) if g in list(ranked)[:k]) / len(rows)
        assert ev.accuracy_topk(block, gold, k) == count
        assert ev.accuracy_topk(rows, gold, k) == count
        assert type(ev.accuracy_topk(block, gold, k)) is float


def test_accuracy_rejections():
    with pytest.raises(ShapeError):
        ev.accuracy_topk([np.array([0])], [0, 1], 1)
    with pytest.raises(ContractError):
        ev.accuracy_topk([], [], 1)
    with pytest.raises(ContractError):
        ev.accuracy_topk([np.array([0])], [0], 0)


# ---------------------------------------------------------------------------
# retrieval


def test_retrieval_exact_match_first():
    rng = np.random.default_rng(21)
    feats = np.stack([unit(rng.normal(size=7)) for _ in range(5)])
    ids = [f"s{i}" for i in range(5)]
    assert ev.retrieve_by_image(feats[3], feats, ids, 1) == ["s3"]


def test_retrieval_full_permutation():
    rng = np.random.default_rng(22)
    feats = np.stack([unit(rng.normal(size=4)) for _ in range(3)])
    got = ev.retrieve_by_image(unit(rng.normal(size=4)), feats, ["a", "b", "c"], 3)
    assert sorted(got) == ["a", "b", "c"]


def test_retrieval_ties_break_by_id():
    feats = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    got = ev.retrieve_by_image(np.array([1.0, 0.0]), feats, ["zz", "aa", "mm"], 2)
    assert got == ["aa", "zz"]


def test_retrieval_rejections():
    feats = np.eye(3)
    with pytest.raises(ContractError):
        ev.retrieve_by_image(feats[0], feats, ["a", "b", "c"], 4)
    with pytest.raises(InputError):
        ev.retrieve_by_image(feats[0], feats, ["a", "a", "b"], 1)
    with pytest.raises(ShapeError):
        ev.retrieve_by_image(feats[0], feats, ["a", "b"], 1)


# ---------------------------------------------------------------------------
# report formatting


def test_report_records_and_table():
    records = [
        ev.metric_record("Medium", 1, 0.875, 48, 3, "ckpt.bin"),
        ev.metric_record("Medium", 5, 1.0, 48, 3, "ckpt.bin"),
    ]
    text = ev.format_records(records)
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0] == "set=Medium k=1 accuracy=0.8750 n_samples=48 seed=3 checkpoint=ckpt.bin"
    table = ev.format_table(records)
    assert table.splitlines()[0].split() == ["set", "k", "accuracy", "n"]
    assert "0.8750" in table and "1.0000" in table
