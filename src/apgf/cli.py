"""Command-line entry point: gen, train, compare.

Every command is seed-deterministic and drops a RunManifest next to its
outputs with the fully resolved configuration, enough to reproduce them
bit-exactly. Exit codes: 0 success, 2 validation error, 3 numeric
failure, 4 brute-force cap refusal.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .charts import grouped_bar_chart, line_chart
from .errors import CapExceededError, NumericError, ValidationError
from .files import atomic_write_text
from .graphgen import WeightedGraph, generate_random_graph, graph_to_json, load_graph, save_graph
from .model import load_checkpoint
from .oracle import DEFAULT_NODE_CAP, EndNodeBest, OracleResult, brute_force_scores, compare
from .rollout import AGGREGATORS, ScoreConfig, decode_all, path_score
from .trainer import TrainConfig, train

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_CAP = 4


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(
    path: Path,
    command: str,
    config: dict,
    seed,
    inputs: dict,
    outputs: dict,
    started_at: str,
) -> None:
    doc = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "outputs": {k: str(v) for k, v in outputs.items()},
        "tool_version": __version__,
        "started_at": started_at,
        "finished_at": _utc_now(),
    }
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


# -- gen ---------------------------------------------------------------


def cmd_gen(args) -> int:
    started = _utc_now()
    tree_mode = "star" if args.star else "random_attach"
    graph = generate_random_graph(args.nodes, args.edges, args.seed, tree_mode=tree_mode)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_graph(graph, out)
    config = {"nodes": args.nodes, "edges": args.edges, "seed": args.seed, "tree_mode": tree_mode}
    _write_manifest(
        out.with_name(out.name + ".manifest.json"),
        "gen",
        config,
        args.seed,
        inputs={},
        outputs={"graph": out},
        started_at=started,
    )
    print(
        f"wrote {out} ({graph.num_nodes} nodes, {graph.num_edges} edges, "
        f"start {graph.start_index})"
    )
    return EXIT_OK


# -- train -------------------------------------------------------------

# TrainConfig field annotation (a string, as trainer.py postpones annotations)
# -> (accepted JSON types, noun, converter)
_FIELD_KINDS = {
    "int": (int, "an integer", int),
    "float": ((int, float), "a number", float),
    "str": (str, "a string", str),
}


def _train_config_from_file(path: Path) -> TrainConfig:
    """Parse and validate a train config; errors are prefixed ``config <path>:``."""
    text = path.read_text(encoding="utf-8")
    try:
        return _train_config_from_doc(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path}: not valid JSON: {exc}") from exc
    except ValidationError as exc:
        raise ValidationError(f"config {path}: {exc}") from exc


def _train_config_from_doc(doc) -> TrainConfig:
    if not isinstance(doc, dict):
        raise ValidationError(f"expected a JSON object, got {type(doc).__name__}")

    problems = []
    kwargs = {}
    field_types = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    for key in sorted(doc):
        value = doc[key]
        if key not in field_types:
            problems.append(f"unknown config field {key!r}")
        elif key == "score_config" and not isinstance(value, dict):
            problems.append(f"score_config must be an object, got {value!r}")
        elif key == "score_config":
            known = {f.name for f in dataclasses.fields(ScoreConfig)}
            for sub in sorted(set(value) - known):
                problems.append(f"unknown score_config field {sub!r}")
            try:
                kwargs[key] = ScoreConfig(**{k: value[k] for k in known & value.keys()})
            except ValidationError as exc:
                problems.append(str(exc))
        else:
            kinds, noun, convert = _FIELD_KINDS[field_types[key]]
            if not isinstance(value, kinds) or isinstance(value, bool):
                problems.append(f"{key} must be {noun}, got {value!r}")
            else:
                kwargs[key] = convert(value)
    if problems:
        raise ValidationError("; ".join(problems))

    config = TrainConfig(**kwargs)
    config.validate()
    return config


def cmd_train(args) -> int:
    started = _utc_now()
    config = _train_config_from_file(Path(args.config))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    _, metrics = train(config, out_dir=out_dir)

    outputs = {
        "metrics": out_dir / "metrics.csv",
        "timings": out_dir / "timings.csv",
        "checkpoint": out_dir / "checkpoint_final.json",
    }
    if metrics:
        xs = [m.epoch for m in metrics]
        loss_svg = line_chart(
            xs,
            {"mean_loss": [m.mean_loss for m in metrics]},
            "Training loss",
            x_label="epoch",
            y_label="mean loss",
        )
        reward_svg = line_chart(
            xs,
            {
                "mean_reward": [m.mean_reward for m in metrics],
                "baseline_mean_reward": [m.baseline_mean_reward for m in metrics],
            },
            "Training reward",
            x_label="epoch",
            y_label="mean reward",
        )
        atomic_write_text(out_dir / "loss_curve.svg", loss_svg)
        atomic_write_text(out_dir / "reward_curve.svg", reward_svg)
        outputs["loss_curve"] = out_dir / "loss_curve.svg"
        outputs["reward_curve"] = out_dir / "reward_curve.svg"

    _write_manifest(
        out_dir / "manifest.json",
        "train",
        dataclasses.asdict(config),
        config.seed,
        inputs={"config": args.config},
        outputs=outputs,
        started_at=started,
    )
    print(f"trained {config.epochs} epochs into {out_dir}")
    return EXIT_OK


# -- compare -----------------------------------------------------------


def _oracle_digest(graph_json: str, aggregator: str) -> str:
    return hashlib.sha256((graph_json + "\n" + aggregator).encode("utf-8")).hexdigest()


def _load_oracle_cache(
    path: Path, digest: str, graph: WeightedGraph, aggregator: str
) -> OracleResult | None:
    """The cached result for ``digest``, or None on a miss.

    An unreadable file or one for another graph is a miss. A file for
    this graph must have one entry per node whose path runs from the
    start to that node along graph edges and whose score is exactly that
    path's score, and whose path count is the sum of the entries' counts;
    anything else is a ValidationError.
    """
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("version") != 1 or doc.get("digest") != digest:
        return None

    def bad(where):
        return ValidationError(f"oracle cache {path}: bad or missing field '{where}'")

    def field(obj, key, kinds, where=""):
        value = obj.get(key) if isinstance(obj, dict) else None
        if not isinstance(value, kinds) or isinstance(value, bool):
            raise bad(where + key)
        return value

    entries = field(doc, "entries", dict)
    nodes = [str(v) for v in range(graph.num_nodes)]
    odd = sorted(set(entries).symmetric_difference(nodes))
    if odd:
        raise bad(f"entries.{odd[0]}")
    per_node = {}
    for end, key in enumerate(nodes):
        entry, where = entries[key], f"entries.{key}."
        route = field(entry, "path", list, where)
        score = field(entry, "score", float, where)
        if not (
            all(type(v) is int and 0 <= v < graph.num_nodes for v in route)
            and route[:1] == [graph.start_index]
            and route[-1] == end
            and len(set(route)) == len(route)
            and all(graph.adjacency[u, v] for u, v in zip(route, route[1:]))
        ):
            raise bad(where + "path")
        if score != path_score([graph.node_weights[v] for v in route], aggregator):
            raise bad(where + "score")
        per_node[end] = EndNodeBest(
            score=score, path=route, explored_paths=field(entry, "explored_paths", int, where)
        )
    explored = field(doc, "explored_path_count", int)
    if explored != sum(best.explored_paths for best in per_node.values()):
        raise bad("explored_path_count")
    return OracleResult(
        per_node=per_node, explored_path_count=explored, wall_clock=field(doc, "wall_clock", float)
    )


def _write_oracle_cache(path: Path, digest: str, result: OracleResult) -> None:
    doc = {
        "version": 1,
        "digest": digest,
        "entries": {
            str(k): {"score": b.score, "path": b.path, "explored_paths": b.explored_paths}
            for k, b in sorted(result.per_node.items())
        },
        "explored_path_count": result.explored_path_count,
        "wall_clock": result.wall_clock,
    }
    atomic_write_text(path, json.dumps(doc) + "\n")


def cmd_compare(args) -> int:
    started = _utc_now()
    graph = load_graph(args.graph)
    params = load_checkpoint(args.checkpoint)
    score_config = ScoreConfig(aggregator=args.aggregator)

    graph_json = graph_to_json(graph)
    digest = _oracle_digest(graph_json, score_config.aggregator)
    cache_path = Path(args.oracle_cache) if args.oracle_cache else None
    oracle_result = None
    if cache_path is not None and cache_path.exists():
        oracle_result = _load_oracle_cache(cache_path, digest, graph, score_config.aggregator)
    if oracle_result is None:
        oracle_result = brute_force_scores(graph, score_config, node_cap=args.cap)
        if cache_path is not None:
            _write_oracle_cache(cache_path, digest, oracle_result)

    rolled = decode_all(graph, params, graph.start_index, mode="greedy", score_config=score_config)
    report = compare(oracle_result, rolled)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / "comparison.csv", report.to_csv())
    svg = grouped_bar_chart(
        [r.node for r in report.rows],
        {
            "oracle": [r.oracle_score for r in report.rows],
            "model": [r.model_score for r in report.rows],
        },
        "Attack-path score: oracle vs model",
        x_label="end node",
        y_label="score",
    )
    atomic_write_text(out_dir / "comparison.svg", svg)

    outputs = {
        "comparison_csv": out_dir / "comparison.csv",
        "comparison_svg": out_dir / "comparison.svg",
    }
    if cache_path is not None:
        outputs["oracle_cache"] = cache_path
    _write_manifest(
        out_dir / "manifest.json",
        "compare",
        {
            "graph": args.graph,
            "checkpoint": args.checkpoint,
            "aggregator": args.aggregator,
            "cap": args.cap,
            "oracle_cache": args.oracle_cache,
        },
        None,
        inputs={"graph": args.graph, "checkpoint": args.checkpoint},
        outputs=outputs,
        started_at=started,
    )
    print(f"mean ratio model/oracle: {report.mean_ratio!r} over {len(report.rows)} nodes")
    print(f"max absolute gap: {report.max_abs_gap!r}")
    return EXIT_OK


# -- wiring ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apgf",
        description="Attack-path inference on weighted graphs: generate, train, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random weighted connected graph")
    gen.add_argument("--nodes", type=int, required=True, help="number of nodes")
    gen.add_argument("--edges", type=int, required=True, help="number of edges")
    gen.add_argument("--seed", type=int, required=True, help="generation seed")
    gen.add_argument("--out", required=True, help="output graph file (JSON)")
    gen.add_argument(
        "--star", action="store_true", help="star topology instead of a random-attachment tree"
    )
    gen.set_defaults(func=cmd_gen)

    tr = sub.add_parser("train", help="train the policy with REINFORCE")
    tr.add_argument("--config", required=True, help="train config JSON file")
    tr.add_argument("--out-dir", required=True, help="output directory")
    tr.set_defaults(func=cmd_train)

    cmp_ = sub.add_parser("compare", help="greedy rollout vs brute-force oracle on one graph")
    cmp_.add_argument("--graph", required=True, help="graph file from `apgf gen`")
    cmp_.add_argument("--checkpoint", required=True, help="model checkpoint file")
    cmp_.add_argument("--out-dir", required=True, help="output directory")
    cmp_.add_argument("--oracle-cache", default=None, help="reusable oracle result cache file")
    cmp_.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_NODE_CAP,
        help=f"brute-force node cap (default {DEFAULT_NODE_CAP})",
    )
    cmp_.add_argument("--aggregator", choices=AGGREGATORS, default="product")
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
