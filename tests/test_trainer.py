import math

import numpy as np
import pytest

from apgf.errors import NumericError, ValidationError
from apgf.graphgen import generate_random_graph
from apgf.model import copy_params, encode, init_params, score_matrix
from apgf.numcore import AdamState, Tape, adam_step, tensor
from apgf.rollout import decode_all, walk
from apgf.trainer import TrainConfig, evaluate, metrics_to_csv, reinforce_loss, train

from helpers import build_graph, path_graph, recorded_log_probs, star_graph, two_leaf_star_walk


def tiny_config(**overrides):
    base = dict(
        epochs=4,
        graphs_per_epoch=3,
        num_nodes=6,
        num_edges=7,
        seed=11,
        embed_dim=8,
        num_heads=2,
        ff_dim=8,
        baseline_sync_period=2,
    )
    base.update(overrides)
    return TrainConfig(**base)


# -- reinforce_loss ----------------------------------------------------------


STAR_WEIGHTS = [1.0, 0.5, 0.25]  # dyadic, so the star rollout's reward 1.75 is exact


def test_loss_zero_when_reward_equals_baseline():
    t = Tape()
    scores = tensor([[[0.0, 0.3, 0.1]] * 3])
    rollout = two_leaf_star_walk(STAR_WEIGHTS, 1)
    loss = reinforce_loss(scores, [rollout], [rollout.reward], 1.0, t)
    assert loss.item() == 0.0


def test_loss_matches_hand_value():
    # advantage 1, sum of log probs -2 -> loss 2: the first move takes
    # leaf 1 with probability 1 / (1 + e^gap) = e^-2, the second is forced
    t = Tape()
    gap = math.log(math.exp(2.0) - 1.0)
    scores = tensor([[[0.0, 0.0, gap]] * 3])
    rollout = two_leaf_star_walk(STAR_WEIGHTS, 1)
    loss = reinforce_loss(scores, [rollout], [rollout.reward - 1.0], 1.0, t)
    assert loss.item() == pytest.approx(2.0, rel=1e-12)


def test_empty_log_probs_with_advantage_warns_and_zeroes():
    t = Tape()
    rollout = walk(build_graph(1, [], [0.6]), np.zeros((1, 1)), 0, mode="greedy")
    with pytest.warns(UserWarning, match="no choices"):
        loss = reinforce_loss(tensor(np.zeros((1, 1, 1))), [rollout], [rollout.reward - 2.0], 1.0, t)
    assert loss.item() == 0.0


def test_positive_advantage_raises_probability_of_taken_action():
    # two-candidate fixture: a star whose center has exactly two leaves;
    # distinct leaf weights keep their embeddings distinguishable
    graph = star_graph([0.5, 0.3, 0.8], center=0)
    params = init_params(13, embed_dim=4, num_heads=2, ff_dim=4)

    rolled = decode_all(graph, params, 0, mode="sample", rng=np.random.default_rng(0))
    prob_before = [math.exp(lp) for lp in recorded_log_probs(graph, params, rolled)]

    tape = Tape()
    scores = score_matrix(encode([graph], params, tape), params, tape)
    loss = reinforce_loss(scores, [rolled], [rolled.reward - 1.0], 1.0, tape)
    adam_step(params.tensors, tape.backward(loss, params.tensors), AdamState(learning_rate=1e-3))

    prob_after = [math.exp(lp) for lp in recorded_log_probs(graph, params, rolled)]
    # step 1 chose between two leaves: its probability must strictly rise
    assert prob_after[0] > prob_before[0]
    # step 2 was forced (one candidate): probability stays exactly 1
    assert prob_before[1] == prob_after[1] == 1.0


def test_mean_loss_is_the_mean_of_rollout_losses():
    rng = np.random.default_rng(5)
    graphs = [generate_random_graph(6, 8, seed=s) for s in range(3)]
    raw = rng.normal(size=(3, 6, 6))
    walks = [walk(g, raw[b], g.start_index, temperature=0.8, rng=rng) for b, g in enumerate(graphs)]
    baselines = [walks[0].reward - 0.5, walks[1].reward, walks[2].reward + 0.75]

    batched_tape = Tape()
    batched_scores = tensor(raw)
    batched = reinforce_loss(batched_scores, walks, baselines, 0.8, batched_tape)
    batched_grad = batched_tape.backward(batched, {"scores": batched_scores})["scores"]

    per_rollout, grads = [], []
    for b in range(3):
        scores = tensor(raw[b : b + 1])
        t = Tape()
        loss = reinforce_loss(scores, [walks[b]], [baselines[b]], 0.8, t)
        per_rollout.append(loss.item())
        grads.append(t.backward(loss, {"scores": scores})["scores"])
    assert batched.item() == pytest.approx(np.mean(per_rollout), rel=1e-14)
    np.testing.assert_allclose(batched_grad, np.concatenate(grads) / 3, rtol=1e-14)


@pytest.mark.parametrize(
    "num_walks, num_baselines, counts",
    [
        (1, 2, "1 walks but 2 baseline"),
        (2, 1, "2 walks but 1 baseline"),
        (2, 2, "2 walks but 1 score"),
    ],
    ids=["extra-baseline", "missing-baseline", "extra-walk"],
)
def test_batch_counts_must_agree(num_walks, num_baselines, counts):
    rollout = two_leaf_star_walk(STAR_WEIGHTS, 1)
    scores = tensor([[[0.0, 0.3, 0.1]] * 3])
    with pytest.raises(ValidationError, match=counts):
        reinforce_loss(scores, [rollout] * num_walks, [0.0] * num_baselines, 1.0, Tape())


# -- train loop ----------------------------------------------------------------


def test_zero_epochs_returns_initialization(tmp_path):
    cfg = tiny_config(epochs=0)
    policy, metrics = train(cfg, out_dir=tmp_path)
    assert metrics == []
    assert (tmp_path / "metrics.csv").read_text() == (
        "epoch,mean_loss,mean_reward,baseline_mean_reward,synced_baseline\n"
    )
    # checkpoint equals the seeded initialization
    rng = np.random.default_rng(cfg.seed)
    fresh = init_params(
        int(rng.integers(2**63)),
        embed_dim=cfg.embed_dim,
        num_heads=cfg.num_heads,
        ff_dim=cfg.ff_dim,
        score_clip=cfg.score_clip,
    )
    for (_, a), (_, b) in zip(policy.tensors.items(), fresh.tensors.items()):
        np.testing.assert_array_equal(a.values, b.values)


def test_metrics_have_expected_shape_and_sync_flags():
    cfg = tiny_config(epochs=4, baseline_sync_period=2)
    _, metrics = train(cfg)
    assert [m.epoch for m in metrics] == [1, 2, 3, 4]
    assert [m.synced_baseline for m in metrics] == [False, True, False, True]
    assert all(m.wall_clock_seconds >= 0 for m in metrics)
    assert all(np.isfinite(m.mean_loss) for m in metrics)


def test_training_is_bit_reproducible(tmp_path):
    cfg = tiny_config(epochs=5)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    policy_a, metrics_a = train(cfg, out_dir=dir_a)
    policy_b, metrics_b = train(cfg, out_dir=dir_b)
    assert metrics_to_csv(metrics_a) == metrics_to_csv(metrics_b)
    assert (dir_a / "metrics.csv").read_bytes() == (dir_b / "metrics.csv").read_bytes()
    assert (dir_a / "checkpoint_final.json").read_bytes() == (
        dir_b / "checkpoint_final.json"
    ).read_bytes()
    for (_, a), (_, b) in zip(policy_a.tensors.items(), policy_b.tensors.items()):
        np.testing.assert_array_equal(a.values, b.values)


def test_checkpoints_written_at_sync_epochs(tmp_path):
    cfg = tiny_config(epochs=4, baseline_sync_period=2)
    train(cfg, out_dir=tmp_path)
    names = sorted(p.name for p in tmp_path.glob("checkpoint_*.json"))
    assert names == [
        "checkpoint_epoch_0002.json",
        "checkpoint_epoch_0004.json",
        "checkpoint_final.json",
    ]
    assert (tmp_path / "timings.csv").exists()


def test_no_branch_graphs_with_synced_baseline_give_zero_loss():
    # every traversal of a path graph is forced, so sampled and greedy
    # rollouts coincide and each loss term is exactly zero
    graphs = [path_graph([0.2, 0.9, 0.4, 0.7], start=0) for _ in range(3)]
    policy = init_params(5, embed_dim=8, num_heads=2, ff_dim=8)
    baseline = copy_params(policy)
    tape = Tape()
    rng = np.random.default_rng(0)
    scores = score_matrix(encode(graphs, policy, tape), policy, tape)
    sampled = [walk(g, rows, 0, temperature=1e-6, rng=rng) for g, rows in zip(graphs, scores.values)]
    references = [decode_all(g, baseline, 0, mode="greedy") for g in graphs]
    for rolled, reference in zip(sampled, references):
        assert rolled.reward == reference.reward
    total_loss = reinforce_loss(scores, sampled, [r.reward for r in references], 1e-6, tape)
    assert total_loss.item() == 0.0


def test_numeric_failure_names_the_epoch(monkeypatch):
    import apgf.trainer as trainer_mod

    def boom(*args, **kwargs):
        raise NumericError("synthetic blowup")

    monkeypatch.setattr(trainer_mod, "walk", boom)
    with pytest.raises(NumericError, match="epoch 1: synthetic blowup"):
        train(tiny_config(epochs=1))


@pytest.mark.parametrize("dataset_mode, baseline_passes", [("fixed", 2), ("resampled", 10)])
def test_one_policy_pass_per_epoch_and_baseline_passes_per_sync(
    monkeypatch, dataset_mode, baseline_passes
):
    import apgf.trainer as trainer_mod

    passes = []
    real_encode = trainer_mod.encode

    def spy(graphs, params, tape=None):
        # only the policy's pass records on a differentiable Tape
        passes.append(("policy" if type(tape) is Tape else "baseline", len(graphs)))
        return real_encode(graphs, params, tape)

    monkeypatch.setattr(trainer_mod, "encode", spy)
    train(tiny_config(epochs=10, baseline_sync_period=5, dataset_mode=dataset_mode))
    assert passes.count(("policy", 3)) == 10
    assert passes.count(("baseline", 3)) == baseline_passes
    assert len(passes) == 10 + baseline_passes


def test_config_validation_names_fields():
    with pytest.raises(ValidationError, match="learning_rate"):
        TrainConfig(learning_rate=0.0).validate()
    with pytest.raises(ValidationError, match="baseline_sync_period"):
        TrainConfig(baseline_sync_period=0).validate()
    with pytest.raises(ValidationError, match="num_edges"):
        TrainConfig(num_nodes=10, num_edges=3).validate()
    with pytest.raises(ValidationError, match="dataset_mode"):
        TrainConfig(dataset_mode="stream").validate()
    with pytest.raises(ValidationError, match="divisible"):
        TrainConfig(embed_dim=10, num_heads=4).validate()


def test_resampled_mode_changes_graph_stream():
    cfg_fixed = tiny_config(epochs=3, dataset_mode="fixed")
    cfg_resampled = tiny_config(epochs=3, dataset_mode="resampled")
    _, fixed_metrics = train(cfg_fixed)
    _, resampled_metrics = train(cfg_resampled)
    # same seed, different graph streams after epoch 1
    assert [m.mean_reward for m in fixed_metrics] != [m.mean_reward for m in resampled_metrics]


# -- evaluate -------------------------------------------------------------------


def test_evaluate_tiny_tree_ratios_bounded():
    graphs = [generate_random_graph(6, 6, seed=s) for s in range(4)]
    params = init_params(9, embed_dim=8, num_heads=2, ff_dim=8)
    results = evaluate(params, graphs)
    for r in results:
        assert r.report is not None
        assert all(row.ratio <= 1.0 + 1e-12 for row in r.report.rows)


def test_evaluate_single_node_graph_ratio_is_one():
    g = build_graph(1, [], [0.42])
    params = init_params(2, embed_dim=4, num_heads=1, ff_dim=4)
    (result,) = evaluate(params, [g])
    assert result.report.rows[0].ratio == 1.0
    assert result.greedy_reward == pytest.approx(0.42, rel=1e-15)


def test_evaluate_skips_oracle_above_cap():
    g = generate_random_graph(12, 14, seed=3)
    params = init_params(2, embed_dim=4, num_heads=1, ff_dim=4)
    (result,) = evaluate(params, [g], node_cap=10)
    assert result.report is None
    assert np.isfinite(result.greedy_reward)
