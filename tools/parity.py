"""Same-behaviour check of the working tree against a git revision.

Run from anywhere inside the repository:

    python3 tools/parity.py --against HEAD~1
    python3 tools/parity.py --against HEAD --epochs 2 --seeds 3 --walks 4

The revision is exported from the local git repository (``git archive``)
into a temporary directory. The same probe then runs on each tree in its
own subprocess, with that tree's ``src`` first on ``PYTHONPATH``, and
writes raw results to files; this process compares them and prints one
JSON verdict. Exit status: 0 when every gated check passes, 1 when one
fails, 2 when the revision cannot be exported or a probe crashes.

Checks, each with its worst difference:

- ``reward_columns``: ``apgf train`` at the paper config (the default
  train config) for ``--epochs`` epochs per seed, plus one run at the
  first seed in ``RESAMPLED``, a resampled set synced every second epoch,
  so both the policy's scores and the frozen baseline's own pass serve
  as the baseline's; every column of ``metrics.csv`` but ``mean_loss`` is
  byte-identical.
- ``mean_loss``: within ``LOSS_RTOL`` relative, row by row.
- ``checkpoint``: the largest absolute difference between the values of
  the trained ``checkpoint_*.json`` files, each read by its own tree's
  ``load_checkpoint``, so trees that write different checkpoint formats
  compare by value; and ``byte_equal``: whether every such file is
  byte-identical on both trees. Reported, not gated: Adam magnifies
  rounding noise in gradients that are zero in exact arithmetic.
- ``walks``: the greedy walk and one sampled walk at each of
  ``SAMPLE_TEMPERATURES`` of ``--walks`` seeded 20-node graphs have the
  same visit order and reward, and the graphs the same ``neighbors``;
  the largest decoder score difference at the graphs' directed edges,
  the moves a walk can make, is reported. The temperatures either side
  of 1 scale the scores before the sampler's softmax, so its arithmetic
  is compared on more than one set of inputs.
- ``gradients``: one paper-config epoch's policy gradients at
  temperature ``GRAD_TEMPERATURE``, per parameter within ``GRAD_RTOL``
  of that parameter's largest entry.
- ``golden``: ``apgf compare`` on the committed fixture pair reproduces
  ``tests/fixtures/golden_comparison.csv`` byte for byte on both trees,
  and the checkpoints of ``init_params(0)`` at two pinned sizes, each
  saved and loaded back by its own tree, give equal SHA-256 digests of
  their float64 bytes in ``param_spec`` order on both. Whether the files'
  own digests are equal is reported, not gated: a new checkpoint format
  changes them on purpose.
- ``reruns``: on each tree a second run of the first seed writes a
  byte-identical ``metrics.csv`` and byte-identical checkpoints.
- ``oracle``: ``brute_force_scores`` on the ``walks`` graphs, under both
  aggregators, gives bit-equal per-node scores on both trees. Each
  tree's total ``explored_path_count`` per aggregator is reported, not
  gated: the searches may count differently.

The verdict also reports ``src_lines``, each tree's package source line
count; it is not a check.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOSS_RTOL = 1e-8
GRAD_RTOL = 1e-8
GRAD_TEMPERATURE = 0.7  # not the train default of 1, so scaling by 1 / temperature is exercised
WALK_NODES, WALK_EDGES = 20, 25
SAMPLE_TEMPERATURES = (0.3, 1.0, 3.0)
RESAMPLED = {"dataset_mode": "resampled", "baseline_sync_period": 2}
PINNED_SIZES = ({}, {"embed_dim": 8, "num_heads": 2, "ff_dim": 6, "score_clip": 3.0})


class ParityError(Exception):
    """The revision cannot be exported, or a probe crashed."""


# -- the probe: runs inside one tree ----------------------------------------


def probe(out: Path, epochs: int, seeds: list[int], walks: int) -> None:
    """Write this tree's raw results under ``out``; a section that fails
    writes its error instead, so one missing API does not hide the rest."""
    import apgf

    tree = Path.cwd().resolve()
    if tree not in Path(apgf.__file__).resolve().parents:
        raise SystemExit(f"apgf imported from {apgf.__file__}, not from {tree}")
    errors = {}
    for name, section in (
        ("train", _probe_train),
        ("walks", _probe_walks),
        ("gradients", _probe_gradients),
        ("golden", _probe_golden),
        ("oracle", _probe_oracle),
    ):
        try:
            section(out, tree, epochs=epochs, seeds=seeds, walks=walks)
        except Exception:  # reported in the verdict as that check's failure
            errors[name] = traceback.format_exc()
    (out / "errors.json").write_text(json.dumps(errors))


def _probe_train(out: Path, tree: Path, epochs: int, seeds: list[int], **_) -> None:
    import numpy as np

    from apgf.cli import main
    from apgf.model import load_checkpoint

    runs = {**_train_runs(seeds), "rerun": {"seed": seeds[0]}}
    for name, fields in runs.items():
        config = out / f"{name}.json"
        config.write_text(json.dumps({"epochs": epochs, **fields}))
        code = main(["train", "--config", str(config), "--out-dir", str(out / name)])
        if code != 0:
            raise RuntimeError(f"apgf train exited {code} for run {name}")
        for path in (out / name).glob("checkpoint_*.json"):
            np.savez(path.with_suffix(".npz"), **load_checkpoint(path).tensors)


def _train_runs(seeds: list[int]) -> dict[str, dict]:
    """The gated training runs: each one's name and its config's fields
    besides ``epochs``."""
    runs = {f"seed{s}": {"seed": s} for s in seeds}
    return {**runs, "resampled": {"seed": seeds[0], **RESAMPLED}}


def _decoder(graphs, params, tape=None):
    """This tree's decoder scores of ``graphs``: each graph's own scores,
    as its walk takes them, and the batch's scores with the batch."""
    from apgf import model

    batch = model.GraphBatch(graphs)
    scores = model.edge_scores(model.encode(batch, params, tape), batch, params, tape)
    return batch.split(scores), (scores, batch)


def _probe_walks(out: Path, tree: Path, walks: int, **_) -> None:
    import numpy as np

    from apgf.graphgen import generate_random_graph
    from apgf.model import init_params
    from apgf.rollout import walk

    scores, facts = [], []
    for k in range(walks):
        graph = generate_random_graph(WALK_NODES, WALK_EDGES + k % 16, seed=k)
        (own,), _ = _decoder([graph], init_params(k))
        rolled = {"greedy": walk(graph, own, graph.start_index, "greedy")}
        for t in SAMPLE_TEMPERATURES:
            rng = np.random.default_rng(k)
            tempered = own * (1.0 / t)  # as the trainer scales them
            rolled[f"sampled_t{t}"] = walk(graph, tempered, graph.start_index, "sample", rng)
        scores.extend(own)
        facts.append(
            {
                "neighbors": graph.neighbors,
                "walks": {name: [r.visit_order, repr(r.reward)] for name, r in rolled.items()},
            }
        )
    np.save(out / "walk_scores.npy", np.array(scores))
    (out / "walks.json").write_text(json.dumps(facts))


def _probe_gradients(out: Path, tree: Path, **_) -> None:
    import numpy as np

    from apgf.graphgen import generate_random_graph
    from apgf.model import init_params
    from apgf.numcore import Tape
    from apgf.rollout import walk
    from apgf.trainer import reinforce_loss

    graphs = [generate_random_graph(20, 25, seed=100 + i) for i in range(16)]
    policy, baseline = init_params(3), init_params(4)
    rng = np.random.default_rng(3)
    tape = Tape()
    _, (scores, batch) = _decoder(graphs, policy, tape)
    tempered = tape.mul_scalar(scores, 1.0 / GRAD_TEMPERATURE)  # as the trainer scales them
    baseline_per_graph, _ = _decoder(graphs, baseline)
    sampled, baseline_rewards = [], []
    for graph, own, baseline_own in zip(graphs, batch.split(tempered), baseline_per_graph):
        start = int(rng.integers(graph.num_nodes))
        sampled.append(walk(graph, own, start, "sample", rng))
        baseline_rewards.append(walk(graph, baseline_own, start, "greedy").reward)
    loss = reinforce_loss(tempered, batch, sampled, baseline_rewards, tape)
    grads = tape.backward(loss, policy.tensors)
    np.savez(out / "gradients.npz", **grads)


def _probe_golden(out: Path, tree: Path, **_) -> None:
    import numpy as np

    from apgf.cli import main
    from apgf.model import init_params, load_checkpoint, param_spec, save_checkpoint

    fixtures = tree / "tests" / "fixtures"
    code = main(
        ["compare", "--graph", str(fixtures / "fixture_graph.json"),
         "--checkpoint", str(fixtures / "fixture_checkpoint.json"),
         "--out-dir", str(out / "golden")]
    )
    if code != 0:
        raise RuntimeError(f"apgf compare exited {code} on the fixture pair")
    digests = {"bytes": [], "values": []}
    for kwargs in PINNED_SIZES:
        path = out / "pinned.json"
        save_checkpoint(init_params(seed=0, **kwargs), path)
        digests["bytes"].append(hashlib.sha256(path.read_bytes()).hexdigest())
        loaded = load_checkpoint(path)
        values = hashlib.sha256()
        for name in param_spec(loaded.embed_dim, loaded.num_heads, loaded.ff_dim):
            values.update(np.ascontiguousarray(loaded.tensors[name], "<f8").tobytes())
        digests["values"].append(values.hexdigest())
    (out / "digests.json").write_text(json.dumps(digests))


def _probe_oracle(out: Path, tree: Path, walks: int, **_) -> None:
    from apgf.graphgen import generate_random_graph
    from apgf.oracle import brute_force_scores
    from apgf.rollout import ScoreConfig

    found = {"product": [], "sum": []}
    for k in range(walks):
        graph = generate_random_graph(WALK_NODES, WALK_EDGES + k % 16, seed=k)
        for aggregator, results in found.items():
            result = brute_force_scores(graph, ScoreConfig(aggregator=aggregator))
            scores = [result.per_node[v].score for v in range(graph.num_nodes)]
            results.append({"scores": scores, "explored": result.explored_path_count})
    (out / "oracle.json").write_text(json.dumps(found))


# -- the comparison ------------------------------------------------------------


def _src_lines(tree: Path) -> int:
    """Lines of the package source, as ``cat src/apgf/*.py | wc -l`` counts."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "apgf").glob("*.py"))


def _csv_columns(path: Path) -> dict[str, list[str]]:
    header, *rows = path.read_text().splitlines()
    names = header.split(",")
    return {name: [row.split(",")[i] for row in rows] for i, name in enumerate(names)}


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _check_train(this: Path, that: Path, seeds: list[int]) -> tuple[dict, dict, dict]:
    import numpy as np

    runs = list(_train_runs(seeds))
    rewards = {"pass": True, "runs": len(runs), "differing_rows": 0}
    loss = {"pass": True, "tolerance": LOSS_RTOL, "worst_rel": 0.0}
    checkpoint = {"gated": False, "worst_abs": 0.0, "byte_equal": True}
    for run in runs:
        a = _csv_columns(this / run / "metrics.csv")
        b = _csv_columns(that / run / "metrics.csv")
        for name in set(a) | set(b):
            if name == "mean_loss":
                continue
            col_a, col_b = a.get(name), b.get(name)
            if col_a is None or col_b is None or len(col_a) != len(col_b):
                rewards["pass"] = False
                rewards.setdefault("mismatched_columns", []).append(name)
                continue
            rewards["differing_rows"] += sum(x != y for x, y in zip(col_a, col_b))
        for x, y in zip(a["mean_loss"], b["mean_loss"]):
            loss["worst_rel"] = max(loss["worst_rel"], _rel(float(x), float(y)))
        run_a, run_b = this / run, that / run
        both = {p.name for p in run_a.glob("*.npz")} & {p.name for p in run_b.glob("*.npz")}
        for arrays in sorted(both):
            va, vb = np.load(run_a / arrays), np.load(run_b / arrays)
            for name in set(va.files) & set(vb.files):
                diff = np.abs(va[name] - vb[name]).max(initial=0.0)
                checkpoint["worst_abs"] = max(checkpoint["worst_abs"], float(diff))
        files = sorted(p.name for p in run_a.glob("checkpoint_*.json"))
        same = files == sorted(p.name for p in run_b.glob("checkpoint_*.json")) and all(
            (run_a / f).read_bytes() == (run_b / f).read_bytes() for f in files
        )
        checkpoint["byte_equal"] = checkpoint["byte_equal"] and same
    rewards["pass"] = rewards["pass"] and rewards["differing_rows"] == 0
    loss["pass"] = loss["worst_rel"] <= LOSS_RTOL
    return rewards, loss, checkpoint


def _check_walks(this: Path, that: Path) -> dict:
    import numpy as np

    a = json.loads((this / "walks.json").read_text())
    b = json.loads((that / "walks.json").read_text())
    differing = sum(
        x["walks"][name] != y["walks"].get(name) for x, y in zip(a, b) for name in x["walks"]
    )
    neighbors_equal = all(x["neighbors"] == y["neighbors"] for x, y in zip(a, b))
    scores_a, scores_b = np.load(this / "walk_scores.npy"), np.load(that / "walk_scores.npy")
    same_edges = scores_a.shape == scores_b.shape
    score_diff = np.abs(scores_a - scores_b) if same_edges else np.array([np.inf])
    return {
        "pass": differing == 0 and neighbors_equal and same_edges and len(a) == len(b),
        "graphs": len(a),
        "walks_per_graph": len(a[0]["walks"]) if a else 0,
        "differing_walks": differing,
        "neighbors_equal": neighbors_equal,
        "worst_score_abs": float(score_diff.max(initial=0.0)),
    }


def _check_gradients(this: Path, that: Path) -> dict:
    import numpy as np

    a, b = np.load(this / "gradients.npz"), np.load(that / "gradients.npz")
    worst = 0.0
    for name in a.files:
        scale = max(np.abs(a[name]).max(initial=0.0), np.abs(b[name]).max(initial=0.0))
        if scale:
            worst = max(worst, float(np.abs(a[name] - b[name]).max() / scale))
    same_names = sorted(a.files) == sorted(b.files)
    return {"pass": same_names and worst <= GRAD_RTOL, "tolerance": GRAD_RTOL, "worst_rel": worst}


def _check_golden(this: Path, that: Path) -> dict:
    golden = (ROOT / "tests" / "fixtures" / "golden_comparison.csv").read_bytes()
    reproduced = {
        side: (out / "golden" / "comparison.csv").read_bytes() == golden
        for side, out in (("this", this), ("against", that))
    }
    a = json.loads((this / "digests.json").read_text())
    b = json.loads((that / "digests.json").read_text())
    return {
        "pass": all(reproduced.values()) and a["values"] == b["values"],
        "comparison_csv": reproduced,
        "checkpoint_value_digests_equal": a["values"] == b["values"],
        "checkpoint_digests_equal": a["bytes"] == b["bytes"],
    }


def _check_oracle(this: Path, that: Path) -> dict:
    a = json.loads((this / "oracle.json").read_text())
    b = json.loads((that / "oracle.json").read_text())
    differing = {
        agg: sum(x["scores"] != y["scores"] for x, y in zip(a[agg], b[agg])) for agg in a
    }
    same_graphs = all(len(a[agg]) == len(b[agg]) for agg in a)
    return {
        "pass": same_graphs and not any(differing.values()),
        "graphs": len(a["product"]),
        "differing_graphs": differing,
        "explored_path_count": {
            side: {agg: sum(r["explored"] for r in doc[agg]) for agg in doc}
            for side, doc in (("this", a), ("against", b))
        },
    }


def _check_reruns(this: Path, that: Path, seed: int) -> dict:
    def same(out: Path) -> bool:
        first, rerun = out / f"seed{seed}", out / "rerun"
        files = ["metrics.csv"] + sorted(p.name for p in first.glob("checkpoint_*.json"))
        return all((first / f).read_bytes() == (rerun / f).read_bytes() for f in files)

    result = {"this": same(this), "against": same(that)}
    return {"pass": all(result.values()), **result}


def verdict(this: Path, that: Path, seeds: list[int]) -> dict:
    checks = {}
    errors = {
        side: json.loads((out / "errors.json").read_text())
        for side, out in (("this", this), ("against", that))
    }
    failed = {name for errs in errors.values() for name in errs}
    if "train" not in failed:
        train = _check_train(this, that, seeds)
        checks["reward_columns"], checks["mean_loss"], checks["checkpoint"] = train
        checks["reruns"] = _check_reruns(this, that, seeds[0])
    if "walks" not in failed:
        checks["walks"] = _check_walks(this, that)
    if "gradients" not in failed:
        checks["gradients"] = _check_gradients(this, that)
    if "golden" not in failed:
        checks["golden"] = _check_golden(this, that)
    if "oracle" not in failed:
        checks["oracle"] = _check_oracle(this, that)
    for side, errs in errors.items():
        for name, message in errs.items():
            checks[f"{name}_error_{side}"] = {"pass": False, "error": message}
    ok = all(c.get("pass", True) for c in checks.values())
    return {"verdict": "pass" if ok else "fail", "checks": checks}


def export(rev: str, dest: Path) -> str:
    """Extract ``rev`` from the local repository into ``dest``; its commit id."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True,
    )
    if commit.returncode != 0:
        raise ParityError(f"cannot resolve revision {rev!r}: {commit.stderr.strip()}")
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit.stdout.strip()],
        capture_output=True, check=True,
    )
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return commit.stdout.strip()


def run_probe(tree: Path, out: Path, args) -> None:
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    command = [
        sys.executable, str(Path(__file__).resolve()), "--probe", str(out),
        "--epochs", str(args.epochs), "--walks", str(args.walks), "--seeds", *map(str, args.seeds),
    ]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise ParityError(f"probe failed in {tree}:\n{done.stderr}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="git revision to compare the working tree with")
    parser.add_argument("--epochs", type=int, default=100, help="training epochs per seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11], help="training seeds")
    parser.add_argument("--walks", type=int, default=200, help="seeded graphs to walk")
    parser.add_argument("--probe", help=argparse.SUPPRESS)  # internal: run the probe here
    args = parser.parse_args(argv)
    if args.probe:
        probe(Path(args.probe), args.epochs, args.seeds, args.walks)
        return 0
    if not args.against:
        parser.error("--against is required")
    with tempfile.TemporaryDirectory(prefix="apgf-parity-") as tmp:
        tmp = Path(tmp)
        (tmp / "tree").mkdir()
        try:
            commit = export(args.against, tmp / "tree")
            run_probe(ROOT, tmp / "this", args)
            run_probe(tmp / "tree", tmp / "against", args)
        except ParityError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = verdict(tmp / "this", tmp / "against", args.seeds)
        lines = {"this": _src_lines(ROOT), "against": _src_lines(tmp / "tree")}
    report = {
        "against": args.against,
        "commit": commit,
        "config": {"epochs": args.epochs, "seeds": args.seeds, "walks": args.walks},
        "src_lines": lines,
        **result,
    }
    print(json.dumps(report, indent=2))
    return 0 if result["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
