"""tools/parity.py: the working tree against a git revision, end to end."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PARITY = [sys.executable, str(ROOT / "tools" / "parity.py")]


@pytest.fixture(scope="module")
def git_checkout():
    try:
        found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True)
    except OSError:
        found = None
    if found is None or found.returncode != 0:
        pytest.skip("needs a git checkout with at least one commit")


def test_parity_against_head_passes_at_a_tiny_config(git_checkout):
    done = subprocess.run(
        PARITY + ["--against", "HEAD", "--epochs", "2", "--seeds", "3", "--walks", "4"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(done.stdout)
    assert report["verdict"] == "pass"
    checks = report["checks"]
    assert set(checks) == {
        "reward_columns", "mean_loss", "checkpoint", "reruns", "walks", "gradients", "golden",
        "oracle",
    }
    # seed 3, and a resampled run at seed 3
    assert checks["walks"]["graphs"] == 4 and checks["reward_columns"]["runs"] == 2
    # greedy, then sampled at three temperatures
    assert checks["walks"]["walks_per_graph"] == 4 and checks["walks"]["differing_walks"] == 0
    assert checks["oracle"]["graphs"] == 4
    assert checks["oracle"]["differing_graphs"] == {"product": 0, "sum": 0}
    assert checks["checkpoint"] == {"gated": False, "worst_abs": 0.0, "byte_equal": True}
    lines = report["src_lines"]  # reported, not a check
    assert set(lines) == {"this", "against"} and min(lines.values()) > 0


def test_unknown_revision_exits_2(git_checkout):
    done = subprocess.run(
        PARITY + ["--against", "no-such-revision"], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 2
    assert "no-such-revision" in done.stderr
