"""REINFORCE training loop with a frozen greedy-rollout baseline.

Each epoch samples one rollout per training graph from a random start
node, evaluates the same graph and start greedily with the frozen
baseline network, and minimizes ``reinforce_loss``

    loss = -(reward - baseline_reward) * sum(step log probs)

averaged over the epoch's graphs, with one Adam step on the gradients
``Tape.backward`` returns. Rollouts are plain data; the loss
differentiates them through ``move_log_probs`` on the policy's scores.
The baseline network is never touched by gradients; every
``baseline_sync_period`` epochs it is overwritten with the policy.
Runs are bit-reproducible from the config seed.

An epoch is one batched computation: the policy encodes and scores all
of the epoch's graphs, as one disjoint union, in one taped pass, and
scales the edge scores by 1 / ``temperature`` once, on the tape; every
sampled rollout walks its graph's slice of that array, and one loss
expression on the same array and one backward pass cover all rollouts,
so a move is differentiated under the distribution it was sampled from.
Greedy baseline walks read unscaled scores, which scaling could round
into ties. A set of
graphs is one ``GraphBatch``, so the index of their union is built once
per set: once per run in ``fixed`` mode, once per epoch in
``resampled``. The baseline's scores follow one rule on the epoch: in
the first epoch of each sync period, epoch ``k * baseline_sync_period +
1``, the baseline's parameters equal the policy's, so its scores are the
policy's taped ones. In the period's other epochs a ``fixed`` set keeps
those scores, as neither the baseline nor the graphs have changed, and
a ``resampled`` set takes one untaped pass of the frozen baseline. Only
``resampled`` mode therefore keeps a copy of the baseline's parameters.
"""

from __future__ import annotations

import io
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .files import atomic_write_text
from .graphgen import WeightedGraph, generate_random_graph
from .model import GraphBatch, ModelParams, copy_params, edge_scores, encode, init_params
from .model import save_checkpoint
from .numcore import AdamState, Tape, adam_step
from .oracle import ComparisonReport, DEFAULT_NODE_CAP, brute_force_scores, check_node_cap
from .oracle import compare, exceeds_cap
from .rollout import RolloutResult, ScoreConfig, decode_all, move_log_probs, walk

DATASET_MODES = ("fixed", "resampled")


@dataclass
class TrainConfig:
    epochs: int = 100
    graphs_per_epoch: int = 16
    num_nodes: int = 20
    num_edges: int = 25
    learning_rate: float = 1e-3
    baseline_sync_period: int = 10
    temperature: float = 1.0
    seed: int = 0
    score_config: ScoreConfig = field(default_factory=ScoreConfig)
    dataset_mode: str = "fixed"
    embed_dim: int = 64
    num_heads: int = 4
    ff_dim: int = 128
    score_clip: float = 10.0

    def validate(self) -> None:
        problems = []
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                problems.append(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("graphs_per_epoch", "num_nodes", "embed_dim", "num_heads", "ff_dim"):
            value = getattr(self, name)
            if value <= 0:
                problems.append(f"{name} must be positive, got {value}")
        max_edges = self.num_nodes * (self.num_nodes - 1) // 2
        if not self.num_nodes - 1 <= self.num_edges <= max_edges:
            problems.append(
                f"num_edges must be between num_nodes - 1 and {max_edges}, "
                f"got {self.num_edges} for {self.num_nodes} nodes"
            )
        for name in ("learning_rate", "score_clip"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # also false for NaN
                problems.append(f"{name} must be positive and finite, got {value}")
        # training scales scores in [-score_clip, score_clip] by 1 / temperature, and a
        # softmax subtracts the largest: that factor and, for a valid clip, the widest
        # gap 2 * score_clip / temperature must be finite (not 1 / 1e-320, 20 / 1e-307)
        scale = 1 / self.temperature if self.temperature > 0 else math.nan
        widest = 2 * self.score_clip * scale if 0 < self.score_clip < math.inf else scale
        if not (0 < scale < math.inf and widest < math.inf):  # also false for NaN
            problems.append(
                "temperature must be positive, with 1 / temperature and "
                f"2 * score_clip / temperature finite, got {self.temperature}"
            )
        if self.baseline_sync_period < 1:
            problems.append(f"baseline_sync_period must be >= 1, got {self.baseline_sync_period}")
        if self.dataset_mode not in DATASET_MODES:
            problems.append(f"dataset_mode must be one of {DATASET_MODES}, got {self.dataset_mode!r}")
        if self.num_heads > 0 and self.embed_dim % self.num_heads != 0:
            problems.append(
                f"embed_dim {self.embed_dim} must be divisible by num_heads {self.num_heads}"
            )
        if problems:
            raise ValidationError("; ".join(problems))


@dataclass
class EpochMetrics:
    epoch: int
    mean_loss: float
    mean_reward: float
    baseline_mean_reward: float
    wall_clock_seconds: float
    synced_baseline: bool


def reinforce_loss(
    scores: np.ndarray,
    graphs: Sequence[WeightedGraph],
    walks: Sequence[RolloutResult],
    baseline_rewards: Sequence[float],
    tape: Tape,
) -> np.ndarray:
    """The mean over ``walks`` of -(reward - baseline_reward) * sum(log probs).

    ``walks[b]`` walked ``graphs[b]`` on its slice of ``scores``, the
    batch's taped edge scores as the walks read them; its reward is read
    from the walk and its step log probabilities come from
    ``move_log_probs`` on ``tape``. Rewards enter as constants, so the
    gradient flows only through the log-probability terms: each weighs
    ``-(reward - baseline_reward) / B`` of its walk. The loss is a 0-d
    array recorded on ``tape``, 0 when no walk made a move.
    """
    if len(baseline_rewards) != len(walks):
        raise ValidationError(f"{len(walks)} walks but {len(baseline_rewards)} baseline rewards")
    if not walks:
        raise ValidationError("reinforce_loss needs at least one walk, got an empty batch")
    log_probs = move_log_probs(scores, graphs, walks, tape)
    scale = 1.0 / len(walks)
    advantages = [w.reward - float(b) for w, b in zip(walks, baseline_rewards)]
    steps = [len(w.selected) for w in walks]
    if any(a != 0.0 and k == 0 for a, k in zip(advantages, steps)):
        warnings.warn(
            "rollout made no choices but has nonzero advantage; loss forced to 0",
            stacklevel=2,
        )
    if log_probs is None:  # still a record of the tape, so it can be differentiated
        return tape.sum(np.zeros(0))
    coef = np.repeat([scale * -a for a in advantages], steps)
    return tape.sum(tape.mul(log_probs, coef))


def _training_graphs(config: TrainConfig, rng: np.random.Generator) -> GraphBatch:
    """One set of training graphs, as the batch every pass over them shares."""
    return GraphBatch(
        generate_random_graph(config.num_nodes, config.num_edges, seed=int(rng.integers(2**63)))
        for _ in range(config.graphs_per_epoch)
    )


def train(
    config: TrainConfig,
    out_dir: str | Path | None = None,
) -> tuple[ModelParams, list[EpochMetrics]]:
    """Run the full training loop; returns the policy and per-epoch metrics.

    With ``out_dir`` set, a checkpoint is written at every baseline sync
    and at the end, alongside ``metrics.csv`` and ``timings.csv``.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    policy = init_params(
        seed=int(rng.integers(2**63)),
        embed_dim=config.embed_dim,
        num_heads=config.num_heads,
        ff_dim=config.ff_dim,
        score_clip=config.score_clip,
    )
    resampled = config.dataset_mode == "resampled"
    baseline = copy_params(policy) if resampled else None
    adam = AdamState(learning_rate=config.learning_rate)

    graphs = _training_graphs(config, rng)
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    metrics: list[EpochMetrics] = []
    train_started = time.perf_counter()
    for epoch in range(1, config.epochs + 1):
        epoch_started = time.perf_counter()
        if resampled:
            graphs = _training_graphs(config, rng)

        tape = Tape()
        try:
            scores = edge_scores(encode(graphs, policy, tape), graphs, policy, tape)
            # the walks sample from, and the loss differentiates, this one array
            scaled = tape.mul_scalar(scores, 1.0 / config.temperature)
            if (epoch - 1) % config.baseline_sync_period == 0:  # the baseline is the policy
                baseline_scores = graphs.split(scores)
            elif resampled:  # a fixed set keeps its scores until the next sync
                frozen = edge_scores(encode(graphs, baseline), graphs, baseline)
                baseline_scores = graphs.split(frozen)
            sampled, baseline_rewards = [], []
            for graph, own, baseline_own in zip(graphs, graphs.split(scaled), baseline_scores):
                start = int(rng.integers(graph.num_nodes))
                rolled = walk(graph, own, start, "sample", rng, config.score_config)
                reference = walk(
                    graph, baseline_own, start, "greedy", score_config=config.score_config
                )
                sampled.append(rolled)
                baseline_rewards.append(reference.reward)
            mean_loss_t = reinforce_loss(scaled, graphs, sampled, baseline_rewards, tape)
            adam_step(policy, tape.backward(mean_loss_t, policy.tensors), adam)
        except NumericError as exc:
            raise NumericError(f"epoch {epoch}: {exc}") from exc

        synced = epoch % config.baseline_sync_period == 0
        if synced and resampled:
            baseline = copy_params(policy)
        if synced and out_path is not None:
            save_checkpoint(policy, out_path / f"checkpoint_epoch_{epoch:04d}.json")

        metrics.append(
            EpochMetrics(
                epoch=epoch,
                mean_loss=mean_loss_t.item(),
                mean_reward=float(np.mean([r.reward for r in sampled])),
                baseline_mean_reward=float(np.mean(baseline_rewards)),
                wall_clock_seconds=time.perf_counter() - epoch_started,
                synced_baseline=synced,
            )
        )

    total_seconds = time.perf_counter() - train_started
    if out_path is not None:
        save_checkpoint(policy, out_path / "checkpoint_final.json")
        atomic_write_text(out_path / "metrics.csv", metrics_to_csv(metrics))
        atomic_write_text(out_path / "timings.csv", timings_to_csv(metrics, total_seconds))
    return policy, metrics


def metrics_to_csv(metrics: Sequence[EpochMetrics]) -> str:
    """Deterministic per-epoch metrics; timing lives in timings.csv so two
    identical seeded runs emit byte-identical files."""
    out = io.StringIO()
    out.write("epoch,mean_loss,mean_reward,baseline_mean_reward,synced_baseline\n")
    for m in metrics:
        out.write(
            f"{m.epoch},{m.mean_loss!r},{m.mean_reward!r},"
            f"{m.baseline_mean_reward!r},{int(m.synced_baseline)}\n"
        )
    return out.getvalue()


def timings_to_csv(metrics: Sequence[EpochMetrics], total_seconds: float) -> str:
    out = io.StringIO()
    out.write("epoch,wall_clock_seconds\n")
    for m in metrics:
        out.write(f"{m.epoch},{m.wall_clock_seconds!r}\n")
    out.write(f"total,{total_seconds!r}\n")
    return out.getvalue()


@dataclass
class EvalResult:
    graph_index: int
    greedy_reward: float
    report: ComparisonReport | None  # None without the oracle, or above the `sum` search's cap


def evaluate(
    params: ModelParams,
    eval_graphs: Sequence[WeightedGraph],
    score_config: ScoreConfig = ScoreConfig(),
    node_cap: int = DEFAULT_NODE_CAP,
    with_oracle: bool = True,
) -> list[EvalResult]:
    """Greedy rewards on held-out graphs, each compared against the
    oracle; a ``sum`` graph above the node cap skips the comparison, and
    a cap below 1 is refused whenever the oracle runs."""
    if with_oracle:
        check_node_cap(node_cap)
    results = []
    for i, graph in enumerate(eval_graphs):
        rolled = decode_all(
            graph, params, graph.start_index, mode="greedy", score_config=score_config
        )
        report = None
        if with_oracle and not exceeds_cap(graph, score_config, node_cap):
            oracle_result = brute_force_scores(graph, score_config, node_cap=node_cap)
            report = compare(oracle_result, rolled)
        results.append(EvalResult(graph_index=i, greedy_reward=rolled.reward, report=report))
    return results
