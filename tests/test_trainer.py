import inspect
import math

import numpy as np
import pytest

from apgf import trainer
from apgf.errors import NumericError, ValidationError
from apgf.graphgen import generate_random_graph
from apgf.model import GraphBatch, copy_params, edge_scores, encode, init_params, save_checkpoint
from apgf.numcore import AdamState, Tape, adam_step
from apgf.rollout import ScoreConfig, decode_all, move_log_probs, walk
from apgf.trainer import TrainConfig, evaluate, metrics_to_csv, reinforce_loss, train

from helpers import (
    CheckedTape,
    at_edges,
    build_graph,
    path_graph,
    recorded_log_probs,
    star_graph,
    two_leaf_star_walk,
)


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
STAR = star_graph(STAR_WEIGHTS)  # directed edges 0->1, 0->2, 1->0, 2->0


def test_loss_zero_when_reward_equals_baseline():
    t = Tape()
    scores = at_edges(STAR, np.array([[0.0, 0.3, 0.1]] * 3))
    rollout = two_leaf_star_walk(STAR_WEIGHTS, 1)
    loss = reinforce_loss(scores, [STAR], [rollout], [rollout.reward], t)
    assert loss.item() == 0.0


def test_loss_matches_hand_value():
    # advantage 1, sum of log probs -2 -> loss 2: the first move takes
    # leaf 1 with probability 1 / (1 + e^gap) = e^-2, the second is forced
    t = Tape()
    gap = math.log(math.exp(2.0) - 1.0)
    scores = at_edges(STAR, np.array([[0.0, 0.0, gap]] * 3))
    rollout = two_leaf_star_walk(STAR_WEIGHTS, 1)
    loss = reinforce_loss(scores, [STAR], [rollout], [rollout.reward - 1.0], t)
    assert loss.item() == pytest.approx(2.0, rel=1e-12)


def test_empty_log_probs_with_advantage_warns_and_zeroes():
    t = Tape()
    graph = build_graph(1, [], [0.6])
    rollout = walk(graph, np.zeros(0), 0, mode="greedy")
    with pytest.warns(UserWarning, match="no choices"):
        loss = reinforce_loss(np.zeros(0), [graph], [rollout], [rollout.reward - 2.0], t)
    assert loss.item() == 0.0


def test_no_move_loss_is_recorded_on_the_tape():
    t = Tape()
    graph, scores = build_graph(1, [], [0.6]), np.zeros(0)  # one node, no edge to score
    rollout = walk(graph, scores, 0, mode="greedy")
    loss = reinforce_loss(scores, [graph], [rollout], [rollout.reward], t)
    assert t.backward(loss, {"scores": scores})["scores"].shape == (0,)


def test_loss_is_a_0d_array_with_and_without_moves():
    one_node = build_graph(1, [], [0.6])
    still = walk(one_node, np.zeros(0), 0, mode="greedy")
    moved = two_leaf_star_walk(STAR_WEIGHTS, 1)
    for graph, rollout, scores in (
        (one_node, still, np.zeros(0)),
        (STAR, moved, np.array([0.3, 0.1, 0.0, 0.0])),
    ):
        t = Tape()
        loss = reinforce_loss(scores, [graph], [rollout], [rollout.reward], t)
        assert isinstance(loss, np.ndarray) and loss.shape == ()
        assert t.backward(loss, {"scores": scores})["scores"].shape == scores.shape


def test_empty_batch_is_rejected():
    with pytest.raises(ValidationError, match="empty batch"):
        reinforce_loss(np.zeros(0), [], [], [], Tape())


def test_positive_advantage_raises_probability_of_taken_action():
    # two-candidate fixture: a star whose center has exactly two leaves;
    # distinct leaf weights keep their embeddings distinguishable
    graph = star_graph([0.5, 0.3, 0.8], center=0)
    params = init_params(13, embed_dim=4, num_heads=2, ff_dim=4)

    rolled = decode_all(graph, params, 0, mode="sample", rng=np.random.default_rng(0))
    prob_before = [math.exp(lp) for lp in recorded_log_probs(graph, params, rolled)]

    tape = Tape()
    scores = edge_scores(encode([graph], params, tape), [graph], params, tape)
    loss = reinforce_loss(scores, [graph], [rolled], [rolled.reward - 1.0], tape)
    adam_step(params, tape.backward(loss, params.tensors), AdamState(learning_rate=1e-3))

    prob_after = [math.exp(lp) for lp in recorded_log_probs(graph, params, rolled)]
    # step 1 chose between two leaves: its probability must strictly rise
    assert prob_after[0] > prob_before[0]
    # step 2 was forced (one candidate): probability stays exactly 1
    assert prob_before[1] == prob_after[1] == 1.0


def test_mean_loss_is_the_mean_of_rollout_losses():
    rng = np.random.default_rng(5)
    graphs = [generate_random_graph(6, 8, seed=s) for s in range(3)]
    # scaled by 1 / temperature in advance, as training scales them
    raw = [at_edges(g, rng.normal(size=(6, 6))) * (1 / 0.8) for g in graphs]
    walks = [walk(g, raw[b], g.start_index, rng=rng) for b, g in enumerate(graphs)]
    baselines = [walks[0].reward - 0.5, walks[1].reward, walks[2].reward + 0.75]

    batched_tape = Tape()
    batched_scores = np.concatenate(raw)
    batched = reinforce_loss(batched_scores, graphs, walks, baselines, batched_tape)
    batched_grad = batched_tape.backward(batched, {"scores": batched_scores})["scores"]

    per_rollout, grads = [], []
    for b in range(3):
        scores = raw[b]
        t = Tape()
        loss = reinforce_loss(scores, [graphs[b]], [walks[b]], [baselines[b]], t)
        per_rollout.append(loss.item())
        grads.append(t.backward(loss, {"scores": scores})["scores"])
    assert batched.item() == pytest.approx(np.mean(per_rollout), rel=1e-14)
    np.testing.assert_allclose(batched_grad, np.concatenate(grads) / 3, rtol=1e-14)


@pytest.mark.parametrize(
    "num_walks, num_baselines, counts",
    [
        (1, 2, "1 walks but 2 baseline"),
        (2, 1, "2 walks but 1 baseline"),
        (2, 2, "2 walks but 1 graph"),
    ],
    ids=["extra-baseline", "missing-baseline", "extra-walk"],
)
def test_batch_counts_must_agree(num_walks, num_baselines, counts):
    rollout = two_leaf_star_walk(STAR_WEIGHTS, 1)
    scores = np.array([0.3, 0.1, 0.0, 0.0])
    with pytest.raises(ValidationError, match=counts):
        reinforce_loss(scores, [STAR], [rollout] * num_walks, [0.0] * num_baselines, Tape())


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
        np.testing.assert_array_equal(a, b)


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
        np.testing.assert_array_equal(a, b)


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


@pytest.mark.parametrize("epochs, saves", [(20, 3), (15, 2), (0, 1)])
def test_final_checkpoint_is_the_returned_policy_encoded_once(
    tmp_path, monkeypatch, epochs, saves
):
    calls = []

    def counted(params, path):
        calls.append(path)
        save_checkpoint(params, path)

    monkeypatch.setattr(trainer, "save_checkpoint", counted)
    policy, _ = train(tiny_config(epochs=epochs, baseline_sync_period=10), out_dir=tmp_path / "run")
    save_checkpoint(policy, tmp_path / "fresh.json")
    final = (tmp_path / "run" / "checkpoint_final.json").read_bytes()
    assert final == (tmp_path / "fresh.json").read_bytes()
    # one save per sync, and one of the final policy, even when the last epoch syncs
    assert len(calls) == saves
    if epochs == 20:
        assert final == (tmp_path / "run" / "checkpoint_epoch_0020.json").read_bytes()


@pytest.mark.parametrize("dataset_mode", ["fixed", "resampled"])
def test_every_adam_step_updates_the_one_policy_buffer(monkeypatch, dataset_mode):
    buffers = []

    def recorded(params, grads, state):
        buffers.append(id(params.buffer))
        adam_step(params, grads, state)

    monkeypatch.setattr(trainer, "adam_step", recorded)
    policy, _ = train(tiny_config(epochs=3, baseline_sync_period=2, dataset_mode=dataset_mode))
    assert buffers == [id(policy.buffer)] * 3


def test_single_node_training_writes_zero_loss(tmp_path):
    # no epoch makes a move, so every loss is the recorded zero
    train(tiny_config(epochs=2, num_nodes=1, num_edges=0), out_dir=tmp_path)
    rows = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["0.0", "0.0"]


def test_no_branch_graphs_with_synced_baseline_give_zero_loss():
    # every traversal of a path graph is forced, so sampled and greedy
    # rollouts coincide and each loss term is exactly zero
    graphs = [path_graph([0.2, 0.9, 0.4, 0.7], start=0) for _ in range(3)]
    policy = init_params(5, embed_dim=8, num_heads=2, ff_dim=8)
    baseline = copy_params(policy)
    tape = Tape()
    rng = np.random.default_rng(0)
    scores = edge_scores(encode(graphs, policy, tape), graphs, policy, tape)
    scaled = tape.mul_scalar(scores, 1 / 1e-6)  # sampled at temperature 1e-6
    sampled = [walk(g, own, 0, rng=rng) for g, own in zip(graphs, np.split(scaled, 3))]
    references = [decode_all(g, baseline, 0, mode="greedy") for g in graphs]
    for rolled, reference in zip(sampled, references):
        assert rolled.reward == reference.reward
    rewards = [r.reward for r in references]
    total_loss = reinforce_loss(scaled, graphs, sampled, rewards, tape)
    assert total_loss.item() == 0.0


def test_numeric_failure_names_the_epoch(monkeypatch):
    import apgf.trainer as trainer_mod

    def boom(*args, **kwargs):
        raise NumericError("synthetic blowup")

    monkeypatch.setattr(trainer_mod, "walk", boom)
    with pytest.raises(NumericError, match="epoch 1: synthetic blowup"):
        train(tiny_config(epochs=1))


# in epochs 1 and 6 the baseline was just copied from the policy and
# takes the policy's scores; fixed graphs then never need its own pass
@pytest.mark.parametrize("dataset_mode, baseline_passes", [("fixed", 0), ("resampled", 8)])
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

    copies = []
    monkeypatch.setattr(trainer_mod, "encode", spy)
    monkeypatch.setattr(trainer_mod, "copy_params", lambda p: copies.append(p) or copy_params(p))
    train(tiny_config(epochs=10, baseline_sync_period=5, dataset_mode=dataset_mode))
    assert passes.count(("policy", 3)) == 10
    assert passes.count(("baseline", 3)) == baseline_passes
    assert len(passes) == 10 + baseline_passes
    # only resampled mode reads the baseline's own parameters: copied at the start and each sync
    assert len(copies) == (3 if dataset_mode == "resampled" else 0)


@pytest.mark.parametrize("dataset_mode, builds", [("fixed", 1), ("resampled", 10)])
def test_each_graph_set_builds_its_union_index_once(monkeypatch, dataset_mode, builds):
    # every part of a batch's index starts from its directed edges; the
    # baseline pass, the policy pass and the loss all share one build
    edges = GraphBatch.__dict__["edges"]
    built, build = [], edges.func

    def spy(batch):
        built.append(len(batch))
        return build(batch)

    monkeypatch.setattr(edges, "func", spy)
    train(tiny_config(epochs=10, baseline_sync_period=5, dataset_mode=dataset_mode))
    assert built == [3] * builds


def test_a_paper_config_epoch_records_only_new_float64_arrays(monkeypatch):
    # the policy's taped pass: encode, edge_scores and the loss's move_log_probs
    import apgf.trainer as trainer_mod

    tapes = []

    def checked():
        tapes.append(CheckedTape())
        return tapes[-1]

    monkeypatch.setattr(trainer_mod, "Tape", checked)
    train(TrainConfig(epochs=1))
    assert len(tapes) == 1 and len(tapes[0]) > 0


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
    # 1 / temperature overflows at 1e-320 and 5e-324, and score_clip / temperature
    # at 1e-308 for the default clip of 10
    for temperature in (0.0, float("inf"), 1e-320, 5e-324, 1e-308):
        with pytest.raises(ValidationError, match="temperature"):
            TrainConfig(temperature=temperature).validate()
    TrainConfig(temperature=1e-300).validate()
    with pytest.raises(ValidationError, match="temperature"):
        TrainConfig(score_clip=1e300, temperature=1e-10).validate()
    # a clip that is refused on its own does not also get the temperature refused
    for score_clip in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="score_clip") as refused:
            TrainConfig(score_clip=score_clip, temperature=1e-308).validate()
        assert "temperature" not in str(refused.value)


def test_only_the_trainer_takes_a_temperature():
    # the trainer scales the scores once; the walk and the loss read what they are given
    for function in (walk, decode_all, move_log_probs, reinforce_loss):
        assert "temperature" not in inspect.signature(function).parameters, function.__name__


@pytest.mark.parametrize("dataset_mode", trainer.DATASET_MODES)
def test_sampled_walks_and_the_loss_read_one_scaled_array(monkeypatch, dataset_mode):
    # per epoch: the policy's taped edge scores, the arrays the sampled walks
    # read, and the array the loss differentiates, in call order
    events = []

    def spy(name, function):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            events.append((name, args, result))
            return result

        monkeypatch.setattr(trainer, name, wrapper)

    for name in ("edge_scores", "walk", "reinforce_loss"):
        spy(name, getattr(trainer, name))
    train(tiny_config(epochs=3, temperature=0.7, dataset_mode=dataset_mode))

    losses = [k for k, event in enumerate(events) if event[0] == "reinforce_loss"]
    assert len(losses) == 3
    begin = 0
    for end in losses:
        epoch = events[begin:end]
        # the policy's pass is the one taped: the frozen baseline's passes no tape
        (scores,) = [e[2] for e in epoch if e[0] == "edge_scores" and len(e[1]) == 4]
        sampled = [e[1][1] for e in epoch if e[0] == "walk" and e[1][3] == "sample"]
        scaled = events[end][1][0]
        assert len(sampled) == 3
        assert all(own.base is scaled for own in sampled)
        np.testing.assert_array_equal(np.concatenate(sampled), scaled)
        np.testing.assert_array_equal(scaled, scores * (1 / 0.7))
        begin = end + 1


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
    (result,) = evaluate(params, [g], ScoreConfig(aggregator="sum"), node_cap=10)
    assert result.report is None
    assert np.isfinite(result.greedy_reward)


@pytest.mark.parametrize("aggregator", ["product", "sum"])
@pytest.mark.parametrize("node_cap", [0, -3])
def test_evaluate_refuses_a_node_cap_below_one(aggregator, node_cap):
    # a cap below 1 admits no graph, so it is an error, not a skipped comparison
    g = generate_random_graph(6, 6, seed=1)
    params = init_params(2, embed_dim=4, num_heads=1, ff_dim=4)
    with pytest.raises(ValidationError, match="node_cap"):
        evaluate(params, [g], ScoreConfig(aggregator), node_cap=node_cap)


@pytest.mark.parametrize("aggregator", ["product", "sum"])
def test_evaluate_without_oracle_is_the_greedy_walk_alone(monkeypatch, aggregator):
    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(trainer, "brute_force_scores", no_oracle)
    graphs = [generate_random_graph(n, n + 3, seed=n) for n in (5, 9, 14)]
    params = init_params(6, embed_dim=8, num_heads=2, ff_dim=8)
    config = ScoreConfig(aggregator)
    # a cap below 1 is refused only when the oracle runs
    results = evaluate(params, graphs, config, node_cap=0, with_oracle=False)
    greedy = [decode_all(g, params, g.start_index, "greedy", score_config=config) for g in graphs]
    assert [r.graph_index for r in results] == [0, 1, 2]
    assert [r.greedy_reward for r in results] == [w.reward for w in greedy]
    assert all(r.report is None for r in results)
