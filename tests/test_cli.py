import functools
import json
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgf import cli
from apgf.cli import EXIT_CAP, EXIT_OK, EXIT_VALIDATION, main
from apgf.errors import ApgfError
from apgf.graphgen import graph_to_json, load_graph, save_graph, generate_random_graph
from apgf.model import init_params, save_checkpoint

from helpers import build_graph, fuzzed_docs, path_graph


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


def test_gen_negative_seed_exits_2_naming_seed(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = run(["gen", "--nodes", "5", "--edges", "4", "--seed", "-1", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert "seed" in capsys.readouterr().err
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


def test_train_too_large_to_allocate_exits_2(tmp_path, monkeypatch, capsys):
    # stands in for numpy's allocation failure on, e.g., an embed_dim of 4e9
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 119. EiB for an array with shape (4000000000, 64)")

    monkeypatch.setattr("apgf.trainer.init_params", too_large)
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    code = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1
    assert "Traceback" not in err


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
        # an integer beyond float's range
        ({"learning_rate": 10**399}, "learning_rate"),
        # temperatures whose reciprocals overflow
        ({"temperature": 1e-320}, "temperature"),
        ({"temperature": 5e-324}, "temperature"),
        # temperatures at which the largest scaled score, score_clip / temperature, overflows
        ({"temperature": 1e-308}, "temperature"),
        ({"score_clip": 1e300, "temperature": 1e-10}, "temperature"),
    ]
    for doc, field in bad_fields:
        cfg.write_text(json.dumps(doc))
        code = run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"config {cfg}:" in err
        assert field in err


def test_train_accepts_a_temperature_whose_scaled_scores_stay_finite(tmp_path, capsys):
    # scores lie in [-10, 10], and 10 / 1e-300 is finite
    cfg = tmp_path / "cfg.json"
    write_config(cfg, temperature=1e-300, score_clip=10.0)
    assert run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == EXIT_OK
    assert capsys.readouterr().err == ""


_FULL_CONFIG = {
    "epochs": 3, "graphs_per_epoch": 2, "num_nodes": 6, "num_edges": 7,
    "learning_rate": 0.001, "baseline_sync_period": 2, "temperature": 1.0, "seed": 5,
    "score_config": {"aggregator": "product"}, "dataset_mode": "fixed",
    "embed_dim": 8, "num_heads": 2, "ff_dim": 8, "score_clip": 10.0,
}


@settings(max_examples=200, deadline=None)
@given(doc=fuzzed_docs(_FULL_CONFIG))
def test_train_config_fuzz_raises_only_apgf_errors_naming_the_file(tmp_path_factory, doc):
    # parse and validate only: a fuzzed epochs or graphs_per_epoch can be huge
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(doc))
    try:
        cli._train_config_from_file(path)
    except ApgfError as exc:
        assert f"config {path}: " in str(exc)


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


def test_compare_sum_oracle_follows_a_path_longer_than_the_recursion_limit(tmp_path):
    weights = np.random.default_rng(8).uniform(0.1, 1.0, size=1500)
    graph_path, ckpt = tmp_path / "chain.json", tmp_path / "c.json"
    save_graph(path_graph(weights), graph_path)
    save_checkpoint(init_params(1, embed_dim=4, num_heads=1, ff_dim=4), ckpt)
    code = run(
        ["compare", "--graph", str(graph_path), "--checkpoint", str(ckpt),
         "--out-dir", str(tmp_path / "o"), "--aggregator", "sum", "--cap", "2000"]
    )
    assert code == EXIT_OK
    rows = (tmp_path / "o" / "comparison.csv").read_text().splitlines()[1:]
    # a chain from its end has one path to each node, which the walk takes too
    assert [row.split(",")[3] for row in rows] == ["1.0"] * 1500
    assert float(rows[-1].split(",")[1]) == functools.reduce(operator.add, weights.tolist())


def test_compare_cap_refusal(tmp_path, capsys):
    graph = generate_random_graph(25, 26, seed=2)
    graph_path = tmp_path / "g.json"
    save_graph(graph, graph_path)
    params = init_params(1, embed_dim=4, num_heads=1, ff_dim=4)
    ckpt = tmp_path / "c.json"
    save_checkpoint(params, ckpt)
    code = run(
        ["compare", "--graph", str(graph_path), "--checkpoint", str(ckpt),
         "--out-dir", str(tmp_path / "o"), "--aggregator", "sum"]
    )
    assert code == EXIT_CAP
    assert "--cap" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_compare_cap_below_one_exits_2(tmp_path, compare_inputs, capsys, cap):
    graph_path, ckpt_path = compare_inputs
    out_dir = tmp_path / "o"
    code = run(
        ["compare", "--graph", str(graph_path), "--checkpoint", str(ckpt_path),
         "--out-dir", str(out_dir), "--cap", cap]
    )
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "--cap" in err and "node_cap" in err and cap in err
    assert not out_dir.exists()


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_compare_cap_below_one_exits_2_on_a_warm_cache(tmp_path, compare_inputs, capsys, cap):
    graph_path, ckpt_path = compare_inputs
    cache = tmp_path / "oracle_cache.json"
    common = ["compare", "--graph", str(graph_path), "--checkpoint", str(ckpt_path),
              "--oracle-cache", str(cache)]
    assert run(common + ["--out-dir", str(tmp_path / "warm")]) == EXIT_OK
    capsys.readouterr()
    out_dir = tmp_path / "o"
    assert run(common + ["--out-dir", str(out_dir), "--cap", cap]) == EXIT_VALIDATION
    assert "--cap" in capsys.readouterr().err
    assert not (out_dir / "comparison.csv").exists()
    assert not (out_dir / "manifest.json").exists()
    # a cap of at least 1 below the graph's 8 nodes still reads the cache
    assert run(common + ["--out-dir", str(out_dir), "--cap", "5"]) == EXIT_OK


def test_compare_missing_file(tmp_path, capsys):
    code = run(
        ["compare", "--graph", str(tmp_path / "nope.json"), "--checkpoint", str(tmp_path / "c.json"),
         "--out-dir", str(tmp_path / "o")]
    )
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("flag", ["--graph", "--checkpoint", "--oracle-cache", "--config"])
def test_directory_as_input_file_exits_2_naming_it(tmp_path, compare_inputs, capsys, flag):
    graph_path, ckpt_path = compare_inputs
    folder = tmp_path / "folder"
    folder.mkdir()
    paths = {"--graph": graph_path, "--checkpoint": ckpt_path, flag: folder}
    if flag == "--config":
        argv = ["train", "--config", folder, "--out-dir", tmp_path / "run"]
    else:
        argv = ["compare", *[a for pair in paths.items() for a in pair], "--out-dir", tmp_path / "o"]
    assert run([str(a) for a in argv]) == EXIT_VALIDATION
    assert str(folder) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json", "folder", "graph.json"]


def _drop_first_values(path):
    doc = json.loads(path.read_text())
    del next(iter(doc["params"].values()))["data"]
    path.write_text(json.dumps(doc))


def _truncate_first_data(path):
    doc = json.loads(path.read_text())
    blob = next(iter(doc["params"].values()))
    blob["data"] = blob["data"][:-4]  # valid base64, 3 bytes short
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: p.write_text('{"version": 1}'),
        lambda p: p.write_text("not json"),
        _drop_first_values,
        lambda p: p.write_text("[1, 2]"),
        _truncate_first_data,
    ],
    ids=["no-hyper", "not-json", "no-values", "array", "short-data"],
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


# valid JSON, but its integer is past Python's 4,300-digit parsing limit;
# json.dumps refuses such an integer, so it is written as text
HUGE_INT_JSON = "9" * 5000

UTF16_BYTES = b"\xff\xfe{\x00}\x00"  # a UTF-16 byte-order mark


KINDS = ("graph", "config", "checkpoint")
KIND_IDS = list(KINDS) + [f"{kind}-5000-digits" for kind in KINDS]
DIGIT_LIMIT_MESSAGE = "an integer literal has more than 4300 digits"


def _assert_names_bad_input(err, bad, content):
    assert str(bad) in err
    if content in (HUGE_INT_JSON, HUGE_INT_JSON.encode()):
        # the message states the limit without Python's advice to raise it
        assert DIGIT_LIMIT_MESSAGE in err and "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "kind, content",
    [(kind, UTF16_BYTES) for kind in KINDS] + [(kind, HUGE_INT_JSON.encode()) for kind in KINDS],
    ids=KIND_IDS,
)
def test_non_utf8_input_file_exits_2_naming_it(tmp_path, compare_inputs, capsys, kind, content):
    write_config(tmp_path / "cfg.json", epochs=1)
    argv, bad = _argv_with_bad_input(tmp_path, compare_inputs, kind)
    bad.write_bytes(content)
    assert run(argv) == EXIT_VALIDATION
    _assert_names_bad_input(capsys.readouterr().err, bad, content)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "ckpt.json", "graph.json"]


DEEP_JSON = "[" * 200_000 + "]" * 200_000  # valid JSON, nested past any recursion limit


@pytest.mark.parametrize(
    "kind, text",
    [(kind, DEEP_JSON) for kind in KINDS] + [(kind, HUGE_INT_JSON) for kind in KINDS],
    ids=KIND_IDS,
)
def test_deeply_nested_input_file_exits_2_naming_it(tmp_path, compare_inputs, capsys, kind, text):
    argv, bad = _argv_with_bad_input(tmp_path, compare_inputs, kind)
    bad.write_text(text)
    assert run(argv) == EXIT_VALIDATION
    _assert_names_bad_input(capsys.readouterr().err, bad, text)
    assert not (tmp_path / "out").exists()


def _argv_with_bad_input(tmp_path, compare_inputs, kind):
    """The train (config) or compare (graph, checkpoint) argv that reads
    the ``kind`` input file, and that file's path."""
    graph_path, ckpt_path = compare_inputs
    config_path = tmp_path / "cfg.json"
    if kind == "config":
        argv = ["train", "--config", config_path, "--out-dir", tmp_path / "out"]
    else:
        argv = ["compare", "--graph", graph_path, "--checkpoint", ckpt_path]
        argv += ["--out-dir", tmp_path / "out"]
    bad = {"graph": graph_path, "config": config_path, "checkpoint": ckpt_path}[kind]
    return [str(a) for a in argv], bad


def run_compare_with_cache(tmp_path, graph_path, ckpt_path, cache, out_dir=None):
    argv = ["compare", "--graph", str(graph_path), "--checkpoint", str(ckpt_path),
            "--out-dir", str(out_dir or tmp_path / "o")]
    return run(argv + (["--oracle-cache", str(cache)] if cache else []))


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


@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
def test_compare_oracle_cache_version_not_the_integer_1_is_a_miss(
    tmp_path, compare_inputs, capsys, version
):
    # true and 1.0 compare equal to 1 in Python, but are not the version
    graph_path, ckpt_path = compare_inputs
    cache = tmp_path / "cache.json"
    assert run_compare_with_cache(tmp_path, graph_path, ckpt_path, cache) == EXIT_OK
    doc = json.loads(cache.read_text())
    doc["version"] = version
    cache.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_compare_with_cache(tmp_path, graph_path, ckpt_path, cache) == EXIT_OK
    assert "(cache miss)" in capsys.readouterr().out
    version = json.loads(cache.read_text())["version"]
    assert type(version) is int and version == 1  # the recomputed cache


def test_compare_deeply_nested_oracle_cache_is_recomputed(tmp_path, compare_inputs):
    graph_path, ckpt_path = compare_inputs
    fresh, deep = tmp_path / "fresh.json", tmp_path / "deep.json"
    assert run_compare_with_cache(tmp_path, graph_path, ckpt_path, fresh) == EXIT_OK
    deep.write_text(DEEP_JSON)
    assert run_compare_with_cache(tmp_path, graph_path, ckpt_path, deep) == EXIT_OK
    a, b = json.loads(fresh.read_text()), json.loads(deep.read_text())
    del a["wall_clock"], b["wall_clock"]
    assert a == b


def test_compare_oversized_integer_oracle_cache_is_recomputed(tmp_path, compare_inputs):
    graph_path, ckpt_path = compare_inputs
    fresh, huge = tmp_path / "fresh.json", tmp_path / "huge.json"
    assert run_compare_with_cache(tmp_path, graph_path, ckpt_path, fresh) == EXIT_OK
    huge.write_text(HUGE_INT_JSON)
    assert run_compare_with_cache(tmp_path, graph_path, ckpt_path, huge) == EXIT_OK
    a, b = json.loads(fresh.read_text()), json.loads(huge.read_text())
    del a["wall_clock"], b["wall_clock"]
    assert a == b


def test_compare_reads_a_json_integer_wall_clock_as_a_float(tmp_path, compare_inputs, capsys):
    # a number field takes any JSON number, in a cache as in a config
    graph_path, ckpt_path = compare_inputs
    cache = tmp_path / "cache.json"
    assert run_compare_with_cache(tmp_path, graph_path, ckpt_path, cache) == EXIT_OK
    doc = json.loads(cache.read_text())
    doc["wall_clock"] = 2
    cache.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_compare_with_cache(tmp_path, graph_path, ckpt_path, cache) == EXIT_OK
    assert "in 2.000000s (cache hit)" in capsys.readouterr().out
    assert json.loads((tmp_path / "o" / "manifest.json").read_text())["oracle"]["wall_clock"] == 2.0


@pytest.fixture(scope="module")
def cache_case(tmp_path_factory):
    """A small graph, its oracle digest and the document of its cache."""
    graph = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [0.9, 0.5, 0.7, 0.2], start=1)
    digest = cli._oracle_digest(graph_to_json(graph), "product")
    path = tmp_path_factory.mktemp("cache") / "cache.json"
    cli._write_oracle_cache(path, digest, cli.brute_force_scores(graph, cli.ScoreConfig()))
    return graph, digest, json.loads(path.read_text())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_load_oracle_cache_fuzz_raises_only_apgf_errors_naming_the_file(
    tmp_path_factory, cache_case, data
):
    # the digest matches, so a fuzzed field reaches the field checks
    graph, digest, doc = cache_case
    path = tmp_path_factory.mktemp("fuzz") / "cache.json"
    path.write_text(json.dumps(data.draw(fuzzed_docs(doc))))
    try:
        cli._load_oracle_cache(path, digest, graph, "product")
    except ApgfError as exc:
        assert f"oracle cache {path}: " in str(exc)


def _negate_counts(doc):
    """Negate every entry's path count and the total, which stays their sum."""
    for entry in doc["entries"].values():
        entry["explored_paths"] = -entry["explored_paths"]
    doc["explored_path_count"] = -doc["explored_path_count"]


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
        # a wall clock is a finite duration
        ("wall_clock", math.nan),
        ("wall_clock", math.inf),
        ("wall_clock", -3.0),
        # each entry counts at least its own path, even when the total agrees
        pytest.param("entries.0.explored_paths", _negate_counts, id="negated-counts"),
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
    elif callable(value):
        value(doc)
    else:
        target[key] = value
    cache.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_compare_with_cache(tmp_path, graph_path, ckpt_path, cache) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert str(cache) in err and field in err


def test_compare_reports_oracle_work_in_stdout_and_manifest(tmp_path, compare_inputs, capsys):
    graph_path, ckpt_path = compare_inputs
    cache = tmp_path / "oracle_cache.json"
    for phase, hit in (("cold", False), ("warm", True)):
        out_dir = tmp_path / phase
        assert run_compare_with_cache(tmp_path, graph_path, ckpt_path, cache, out_dir) == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("oracle:")]
        stats = json.loads((out_dir / "manifest.json").read_text())["oracle"]
        assert stats["cache_hit"] is hit
        cached = json.loads(cache.read_text())
        assert stats["explored_path_count"] == cached["explored_path_count"] == 10  # 1 + 9 edges
        assert stats["wall_clock"] == cached["wall_clock"]
        assert lines == [
            f"oracle: 10 paths explored in {stats['wall_clock']:.6f}s "
            f"(cache {'hit' if hit else 'miss'})"
        ]


def test_compare_reads_a_dfs_era_product_cache(tmp_path, monkeypatch):
    """A cache written by the exhaustive product search stays a hit: its
    tie paths and path counts differ from Dijkstra's but are valid."""
    graph = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], [1.0] * 5, start=2)
    graph_path, ckpt_path = tmp_path / "cycle.json", tmp_path / "ckpt.json"
    save_graph(graph, graph_path)
    save_checkpoint(init_params(5, embed_dim=8, num_heads=2, ff_dim=8), ckpt_path)
    cold = tmp_path / "cold"
    assert run_compare_with_cache(tmp_path, graph_path, ckpt_path, None, cold) == EXIT_OK

    cache = tmp_path / "dfs_cache.json"
    paths = {0: [2, 1, 0], 1: [2, 1], 2: [2], 3: [2, 1, 0, 4, 3], 4: [2, 1, 0, 4]}
    counts = {0: 2, 1: 2, 2: 1, 3: 2, 4: 2}
    cache.write_text(json.dumps({
        "version": 1,
        "digest": cli._oracle_digest(graph_to_json(load_graph(graph_path)), "product"),
        "entries": {
            str(v): {"score": 1.0, "path": paths[v], "explored_paths": counts[v]} for v in range(5)
        },
        "explored_path_count": 9,
        "wall_clock": 0.000125,
    }))

    def no_search(*args, **kwargs):
        raise AssertionError("the oracle searched despite a valid cache")

    monkeypatch.setattr(cli, "brute_force_scores", no_search)
    warm = tmp_path / "warm"
    assert run_compare_with_cache(tmp_path, graph_path, ckpt_path, cache, warm) == EXIT_OK
    assert json.loads((warm / "manifest.json").read_text())["oracle"] == {
        "explored_path_count": 9, "wall_clock": 0.000125, "cache_hit": True
    }
    assert (warm / "comparison.csv").read_bytes() == (cold / "comparison.csv").read_bytes()


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


# -- one parser per process ------------------------------------------------


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def run_session(work, monkeypatch, fresh_parser):
    """gen, train, compare, a usage error and compare again, in ``work``
    with relative paths; the parser is rebuilt before each call when
    ``fresh_parser`` is set. Returns the exit codes and every file made
    but timings.csv, with timestamps and the oracle's wall clock dropped."""
    work.mkdir()
    monkeypatch.chdir(work)
    write_config(work / "cfg.json")
    compare_argv = ["compare", "--graph", "g.json", "--checkpoint", "run/checkpoint_final.json"]
    codes = []
    for argv in (
        ["gen", "--nodes", "8", "--edges", "9", "--seed", "3", "--out", "g.json"],
        ["train", "--config", "cfg.json", "--out-dir", "run"],
        compare_argv + ["--out-dir", "cmp1", "--oracle-cache", "oracle.json"],
        ["compare", "--graph", "g.json", "--cap", "many"],
        compare_argv + ["--out-dir", "cmp2", "--oracle-cache", "oracle.json"],
    ):
        if fresh_parser:
            cli.build_parser.cache_clear()
        codes.append(run(argv))
    files = {}
    for path in sorted(work.rglob("*")):
        if path.is_file() and path.name != "timings.csv":
            data = path.read_bytes()
            if path.name.endswith(("manifest.json", "oracle.json")):
                doc = json.loads(data)
                for part in (doc, doc.get("oracle", {})):
                    for key in ("started_at", "finished_at", "wall_clock"):
                        part.pop(key, None)
                data = json.dumps(doc)
            files[str(path.relative_to(work))] = data
    return codes, files


def test_calls_in_one_process_match_calls_on_fresh_parsers(tmp_path, monkeypatch, capsys):
    def printed():
        out, err = capsys.readouterr()
        return re.sub(r"explored in [0-9.]+s", "explored in …s", out), err

    reused = run_session(tmp_path / "reused", monkeypatch, fresh_parser=False)
    reused_printed = printed()
    fresh = run_session(tmp_path / "fresh", monkeypatch, fresh_parser=True)
    assert reused[0] == [EXIT_OK, EXIT_OK, EXIT_OK, 2, EXIT_OK]
    assert fresh == reused and printed() == reused_printed
    assert "invalid int value: 'many'" in reused_printed[1]


def test_help_and_usage_errors_return_their_codes(capsys):
    assert run(["--help"]) == EXIT_OK
    first = capsys.readouterr()
    assert run(["--help"]) == EXIT_OK
    assert capsys.readouterr() == first and first.out.startswith("usage: apgf")
    assert run([]) == 2
    assert "the following arguments are required: command" in capsys.readouterr().err
    assert run(["compare", "--graph", "g.json"]) == 2
    assert "required: --checkpoint, --out-dir" in capsys.readouterr().err


def test_a_command_patched_after_the_first_call_takes_effect(monkeypatch, capsys):
    assert run(["--help"]) == EXIT_OK
    seen = []
    monkeypatch.setattr(cli, "cmd_compare", lambda args: seen.append(args.graph) or 7)
    assert run(["compare", "--graph", "g.json", "--checkpoint", "c.json", "--out-dir", "o"]) == 7
    assert seen == ["g.json"]
