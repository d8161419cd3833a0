import hashlib
import re

import pytest

from apgf.charts import grouped_bar_chart, line_chart


def desc_series(svg: str) -> dict[str, list[float]]:
    desc = re.search(r"<desc>(.*?)</desc>", svg, re.S).group(1)
    out = {}
    for part in desc.split(";"):
        label, values = part.split("=", 1)
        out[label] = [float(v) for v in values.split(",")]
    return out


def test_line_chart_embeds_exact_series():
    xs = [1, 2, 3, 4]
    ys = [0.1, -2.5, 3.25, 0.1000000000000001]
    svg = line_chart(xs, {"loss": ys}, "t")
    data = desc_series(svg)
    assert data["x"] == [1.0, 2.0, 3.0, 4.0]
    assert data["loss"] == ys
    assert svg.startswith("<?xml")
    assert "<polyline" in svg


def test_line_chart_multiple_series_and_constant_values():
    svg = line_chart([1, 2], {"a": [5.0, 5.0], "b": [5.0, 5.0]}, "t")
    assert svg.count("<polyline") == 2


def test_line_chart_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        line_chart([1, 2], {"a": [1.0]}, "t")
    with pytest.raises(ValueError):
        line_chart([], {}, "t")


def test_bar_chart_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="2 categories"):
        grouped_bar_chart(["a", "b"], {"s": [1.0]}, "t")
    with pytest.raises(ValueError, match="needs categories"):
        grouped_bar_chart([], {"s": []}, "t")
    with pytest.raises(ValueError, match="needs categories"):
        grouped_bar_chart(["a"], {}, "t")


def test_bar_chart_embeds_exact_series():
    cats = [0, 1, 2]
    svg = grouped_bar_chart(cats, {"oracle": [1.0, 0.5, 0.25], "model": [1.0, 0.5, 0.125]}, "t")
    data = desc_series(svg)
    assert data["oracle"] == [1.0, 0.5, 0.25]
    assert data["model"] == [1.0, 0.5, 0.125]
    assert svg.count("<rect") >= 6


def test_chart_titles_are_escaped():
    svg = line_chart([1], {"a": [1.0]}, "a < b & c")
    assert "a &lt; b &amp; c" in svg


def test_chart_bytes_are_pinned():
    line = line_chart(
        [1, 2, 3, 4],
        {"loss": [0.5, -1.25, 3.0, 0.5], "reward": [1.0, 1.5, 2.0, 2.5]},
        "Loss & reward",
        "epoch",
        "value",
    )
    bars = grouped_bar_chart(
        ["g0", "g1", "g2"],
        {"oracle": [1.0, 0.5, 0.25], "model": [0.75, -0.5, 0.125]},
        "Per <graph>",
        "graph",
        "score",
    )
    digests = [hashlib.sha256(svg.encode()).hexdigest() for svg in (line, bars)]
    assert digests == [
        "6ba230e86eaef7d427ea87dff9bd7197cf4c71a77768bd8b896446066ccdb5f2",
        "47354f7a6424308acd527566876bf605f4a33ccf5110dbd3d7872c1e4b1e8a3f",
    ]
