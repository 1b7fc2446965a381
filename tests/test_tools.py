"""The tools under tools/ call the library by name, and no other test runs
them: these runs keep a renamed or removed name from breaking a tool
unseen."""

import os
import sys

import numpy as np
import pytest

from fastseries import CostLedger, PlanError, block_engine, cli, fast_ops

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "tools"))

import ab_time  # noqa: E402
import fingerprint  # noqa: E402


def test_fingerprint_edge_runs_and_plans():
    """Every edge middle product of the fingerprint, with and without its
    folded linear term, gives its whole output blocks; the plans digest is
    made over every order it lists."""
    runs = fingerprint._edge_runs(block_engine)
    assert len(runs) == 72
    assert {name.split()[0] for name, _ in runs} == {"triple", "linear"}
    for name, run in runs:
        led = CostLedger()
        q = run(led).coeffs
        blocks = int(name.rsplit("out=", 1)[1].rstrip("k"))
        assert q.size == 4 * blocks and np.all(np.isfinite(q)), name
        assert led.events, name
    digest = fingerprint._plans(cli, fast_ops, PlanError)
    assert len(digest) == 64


@pytest.mark.parametrize("op", ["exp", "pow"])
def test_ab_time_compares_a_tree_with_itself(op):
    """tools/ab_time.py on this source tree against itself: two pairs at
    order 64, the same outputs bit for bit."""
    src = os.path.join(ROOT, "src")
    ms, ratios, diff, shares = ab_time.compare(src, src, op, 64, 2)
    assert [len(side) for side in ms] == [2, 2] and len(ratios) == 2
    assert diff == 0 and shares is None
