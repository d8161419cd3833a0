import json
import re

import pytest

from apgf.cli import EXIT_CAP, EXIT_OK, EXIT_VALIDATION, main
from apgf.graphgen import load_graph, save_graph, generate_random_graph
from apgf.model import init_params, save_checkpoint


def run(argv):
    return main(argv)


def desc_series(svg_text):
    desc = re.search(r"<desc>(.*?)</desc>", svg_text, re.S).group(1)
    out = {}
    for part in desc.split(";"):
        label, values = part.split("=", 1)
        out[label] = [float(v) for v in values.split(",")]
    return out


# -- gen ---------------------------------------------------------------


def test_gen_writes_loadable_connected_graph(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run(["gen", "--nodes", "100", "--edges", "110", "--seed", "4", "--out", str(out)]) == EXIT_OK
    g = load_graph(out)
    assert g.num_nodes == 100
    assert g.num_edges == 110
    manifest = json.loads((tmp_path / "g.json.manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["config"]["seed"] == 4
    assert manifest["tool_version"]
    assert "started_at" in manifest and "finished_at" in manifest


def test_gen_cannot_connect(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = run(["gen", "--nodes", "5", "--edges", "3", "--seed", "0", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert "cannot connect" in capsys.readouterr().err
    assert not out.exists()


def test_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["gen", "--nodes", "30", "--edges", "35", "--seed", "7", "--out", str(a)])
    run(["gen", "--nodes", "30", "--edges", "35", "--seed", "7", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_star_mode(tmp_path):
    out = tmp_path / "g.json"
    run(["gen", "--nodes", "6", "--edges", "5", "--seed", "1", "--out", str(out), "--star"])
    g = load_graph(out)
    assert sorted(len(nb) for nb in g.neighbors) == [1, 1, 1, 1, 1, 5]


# -- train ---------------------------------------------------------------


def write_config(path, **overrides):
    config = {
        "epochs": 3,
        "graphs_per_epoch": 2,
        "num_nodes": 6,
        "num_edges": 7,
        "seed": 5,
        "embed_dim": 8,
        "num_heads": 2,
        "ff_dim": 8,
        "baseline_sync_period": 2,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return config


def test_train_zero_epochs_header_only(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, epochs=0)
    out_dir = tmp_path / "run"
    assert run(["train", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_OK
    assert (out_dir / "metrics.csv").read_text() == (
        "epoch,mean_loss,mean_reward,baseline_mean_reward,synced_baseline\n"
    )
    assert not (out_dir / "loss_curve.svg").exists()
    assert (out_dir / "manifest.json").exists()


def test_train_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "r1")])
    run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "r2")])
    assert (tmp_path / "r1/metrics.csv").read_bytes() == (tmp_path / "r2/metrics.csv").read_bytes()
    assert (tmp_path / "r1/checkpoint_final.json").read_bytes() == (
        tmp_path / "r2/checkpoint_final.json"
    ).read_bytes()
    assert (tmp_path / "r1/loss_curve.svg").read_bytes() == (
        tmp_path / "r2/loss_curve.svg"
    ).read_bytes()


def test_train_plots_match_metrics_csv(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    out_dir = tmp_path / "run"
    run(["train", "--config", str(cfg), "--out-dir", str(out_dir)])

    rows = (out_dir / "metrics.csv").read_text().strip().split("\n")[1:]
    loss_col = [float(r.split(",")[1]) for r in rows]
    reward_col = [float(r.split(",")[2]) for r in rows]
    baseline_col = [float(r.split(",")[3]) for r in rows]

    loss_data = desc_series((out_dir / "loss_curve.svg").read_text())
    reward_data = desc_series((out_dir / "reward_curve.svg").read_text())
    assert loss_data["mean_loss"] == loss_col
    assert reward_data["mean_reward"] == reward_col
    assert reward_data["baseline_mean_reward"] == baseline_col


def test_train_invalid_config_names_every_bad_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "epochs": "ten",
                "learning_rate": -1,
                "mystery_field": 3,
                "dataset_mode": "stream",
            }
        )
    )
    code = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"config {cfg}:" in err
    assert "epochs" in err
    assert "mystery_field" in err
    # learning_rate and dataset_mode are validated after types parse
    cfg.write_text(json.dumps({"learning_rate": -1.0, "dataset_mode": "stream"}))
    code = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "learning_rate" in err
    assert "dataset_mode" in err
    # reward_mode was removed from score_config; a config that sets it is refused
    cfg.write_text(json.dumps({"score_config": {"reward_mode": "per_node_path_scores"}}))
    code = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
    assert code == EXIT_VALIDATION
    assert "unknown score_config field 'reward_mode'" in capsys.readouterr().err
    # JSON's NaN and Infinity parse as numbers but are refused by name, as
    # are more edges than a simple graph holds, zero heads and a negative seed
    bad_fields = [
        ({name: value}, name)
        for name in ("learning_rate", "temperature", "score_clip")
        for value in (float("nan"), float("inf"))
    ]
    bad_fields += [
        ({"num_nodes": 3, "num_edges": 10}, "num_edges"),
        ({"num_heads": 0}, "num_heads"),
        ({"seed": -1}, "seed"),
    ]
    for doc, field in bad_fields:
        cfg.write_text(json.dumps(doc))
        code = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"config {cfg}:" in err
        assert field in err


# -- compare ---------------------------------------------------------------


@pytest.fixture
def compare_inputs(tmp_path):
    graph = generate_random_graph(8, 9, seed=3)
    graph_path = tmp_path / "graph.json"
    save_graph(graph, graph_path)
    params = init_params(6, embed_dim=8, num_heads=2, ff_dim=8)
    ckpt_path = tmp_path / "ckpt.json"
    save_checkpoint(params, ckpt_path)
    return graph_path, ckpt_path


def test_compare_outputs_and_mean_ratio(tmp_path, compare_inputs, capsys):
    graph_path, ckpt_path = compare_inputs
    out_dir = tmp_path / "cmp"
    code = run(
        ["compare", "--graph", str(graph_path), "--checkpoint", str(ckpt_path), "--out-dir", str(out_dir)]
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    ratio = float(re.search(r"mean ratio model/oracle: ([0-9.e-]+)", printed).group(1))
    assert 0.0 < ratio <= 1.0

    csv_text = (out_dir / "comparison.csv").read_text()
    assert csv_text.startswith("node,oracle_score,model_score,ratio\n")
    assert len(csv_text.strip().split("\n")) == 9
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "compare"
    assert manifest["inputs"]["graph"] == str(graph_path)
    svg_data = desc_series((out_dir / "comparison.svg").read_text())
    csv_rows = [line.split(",") for line in csv_text.strip().split("\n")[1:]]
    assert svg_data["oracle"] == [float(r[1]) for r in csv_rows]
    assert svg_data["model"] == [float(r[2]) for r in csv_rows]


@pytest.mark.parametrize("aggregator", ["product", "sum"])
def test_compare_oracle_cache_reuse(tmp_path, compare_inputs, aggregator):
    graph_path, ckpt_path = compare_inputs
    cache = tmp_path / "oracle_cache.json"
    d1, d2 = tmp_path / "c1", tmp_path / "c2"
    code = run(
        ["compare", "--graph", str(graph_path), "--checkpoint", str(ckpt_path),
         "--out-dir", str(d1), "--oracle-cache", str(cache), "--aggregator", aggregator]
    )
    assert code == EXIT_OK
    assert cache.exists()
    cache_bytes = cache.read_bytes()
    code = run(
        ["compare", "--graph", str(graph_path), "--checkpoint", str(ckpt_path),
         "--out-dir", str(d2), "--oracle-cache", str(cache), "--aggregator", aggregator]
    )
    assert code == EXIT_OK
    assert (d1 / "comparison.csv").read_bytes() == (d2 / "comparison.csv").read_bytes()
    assert (d1 / "comparison.svg").read_bytes() == (d2 / "comparison.svg").read_bytes()
    assert cache.read_bytes() == cache_bytes


def test_compare_cap_refusal(tmp_path, capsys):
    graph = generate_random_graph(25, 26, seed=2)
    graph_path = tmp_path / "g.json"
    save_graph(graph, graph_path)
    params = init_params(1, embed_dim=4, num_heads=1, ff_dim=4)
    ckpt = tmp_path / "c.json"
    save_checkpoint(params, ckpt)
    code = run(
        ["compare", "--graph", str(graph_path), "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "o")]
    )
    assert code == EXIT_CAP
    assert "--cap" in capsys.readouterr().err


def test_compare_missing_file(tmp_path, capsys):
    code = run(
        ["compare", "--graph", str(tmp_path / "nope.json"), "--checkpoint", str(tmp_path / "c.json"),
         "--out-dir", str(tmp_path / "o")]
    )
    assert code == EXIT_VALIDATION


def _drop_first_values(path):
    doc = json.loads(path.read_text())
    del next(iter(doc["params"].values()))["values"]
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: p.write_text('{"version": 1}'),
        lambda p: p.write_text("not json"),
        _drop_first_values,
        lambda p: p.write_text("[1, 2]"),
    ],
    ids=["no-hyper", "not-json", "no-values", "array"],
)
def test_compare_malformed_checkpoint(tmp_path, compare_inputs, capsys, corrupt):
    graph_path, ckpt_path = compare_inputs
    corrupt(ckpt_path)
    code = run(
        ["compare", "--graph", str(graph_path), "--checkpoint", str(ckpt_path),
         "--out-dir", str(tmp_path / "o")]
    )
    assert code == EXIT_VALIDATION
    assert str(ckpt_path) in capsys.readouterr().err


def _graph_with_zero_nodes(tmp_path, compare_inputs):
    graph_path, ckpt_path = compare_inputs
    doc = json.loads(graph_path.read_text())
    doc["num_nodes"] = 0
    graph_path.write_text(json.dumps(doc))
    argv = ["compare", "--graph", str(graph_path), "--checkpoint", str(ckpt_path)]
    return argv + ["--out-dir", str(tmp_path / "o")], graph_path, "num_nodes"


def _graph_with_boolean_nodes(tmp_path, compare_inputs):
    graph_path, ckpt_path = compare_inputs
    graph_path.write_text(
        json.dumps(
            {"version": 1, "num_nodes": True, "start_index": 0, "weights": [0.5], "edges": []}
        )
    )
    argv = ["compare", "--graph", str(graph_path), "--checkpoint", str(ckpt_path)]
    return argv + ["--out-dir", str(tmp_path / "o")], graph_path, "num_nodes"


def _config_not_json(tmp_path, compare_inputs):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("nope")
    return ["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")], cfg, "JSON"


@pytest.mark.parametrize(
    "make_input",
    [_graph_with_zero_nodes, _graph_with_boolean_nodes, _config_not_json],
    ids=["graph", "graph-boolean", "config"],
)
def test_bad_graph_or_config_names_the_file(tmp_path, compare_inputs, capsys, make_input):
    argv, path, field = make_input(tmp_path, compare_inputs)
    assert run(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert str(path) in err and field in err


def run_compare_with_cache(tmp_path, graph_path, ckpt_path, cache):
    return run(
        ["compare", "--graph", str(graph_path), "--checkpoint", str(ckpt_path),
         "--out-dir", str(tmp_path / "o"), "--oracle-cache", str(cache)]
    )


def test_compare_non_object_oracle_cache_is_recomputed(tmp_path, compare_inputs):
    graph_path, ckpt_path = compare_inputs
    fresh, broken = tmp_path / "fresh.json", tmp_path / "broken.json"
    assert run_compare_with_cache(tmp_path, graph_path, ckpt_path, fresh) == EXIT_OK
    broken.write_text("[1]")
    assert run_compare_with_cache(tmp_path, graph_path, ckpt_path, broken) == EXIT_OK
    # wall_clock differs between runs; every other field is recomputed exactly
    a, b = json.loads(fresh.read_text()), json.loads(broken.read_text())
    del a["wall_clock"], b["wall_clock"]
    assert a == b


@pytest.mark.parametrize(
    "field, value",
    [
        ("explored_path_count", None),
        ("explored_path_count", "12"),
        ("entries", []),
        # a cache whose digest matches must still agree with the graph
        ("entries", {}),
        ("entries.5", None),
        ("entries.0.path", [99, 98]),
        ("entries.0.score", 5.0),
        # the path count must be the sum of the entries' counts
        pytest.param("explored_path_count", 12, id="explored_path_count-not-the-sum"),
    ],
)
def test_compare_broken_oracle_cache_names_file_and_field(
    tmp_path, compare_inputs, capsys, field, value
):
    graph_path, ckpt_path = compare_inputs
    cache = tmp_path / "cache.json"
    run_compare_with_cache(tmp_path, graph_path, ckpt_path, cache)
    doc = json.loads(cache.read_text())
    *parents, key = field.split(".")
    target = doc
    for parent in parents:
        target = target[parent]
    if value is None:
        del target[key]
    else:
        target[key] = value
    cache.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_compare_with_cache(tmp_path, graph_path, ckpt_path, cache) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert str(cache) in err and field in err


def test_golden_comparison_fixture(tmp_path):
    """Byte-stable comparison output for the committed fixture pair."""
    from pathlib import Path

    fixtures = Path(__file__).parent / "fixtures"
    out_dir = tmp_path / "golden"
    code = run(
        ["compare", "--graph", str(fixtures / "fixture_graph.json"),
         "--checkpoint", str(fixtures / "fixture_checkpoint.json"),
         "--out-dir", str(out_dir)]
    )
    assert code == EXIT_OK
    expected = (fixtures / "golden_comparison.csv").read_bytes()
    assert (out_dir / "comparison.csv").read_bytes() == expected
