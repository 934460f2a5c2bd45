"""Fast self-test of the benchmark at tiny sizes (a few seconds).

Run from the repository root with ``python3 -m pytest perfbench``; the
repository's own test suite does not collect it.  It exercises every
workload's output checks (passing and failing), the tracer's wrap/unwrap,
and one full traced run through worker processes.
"""

from __future__ import annotations

import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {
    "submod-harness": {"trials": 1, "perms": 2},
    "submod-tree": {"instance": {"n": 8, "k": 2, "universe": 20, "max_points": 4},
                    "instances": 2, "k": 2},
    "matching-trap": {"s": 20},
    "recurrence-cert": {"certify_k": 50, "kmax": 50},
}


def execute(name: str, tmp_path, seed: int = 3):
    wl = workloads.WORKLOADS[name]
    ctx = wl.setup({**wl.params, **TINY[name]}, seed, str(tmp_path))
    raw = wl.run(ctx)
    return ctx, raw, wl.check(ctx, raw)


@pytest.mark.parametrize("name", sorted(TINY))
def test_checks_pass_and_replay(name, tmp_path):
    _, _, first = execute(name, tmp_path)
    assert first.attempted >= 1
    assert first.failed == 0, first.failures
    assert first.ratios and 0 < first.ratio_mean <= 1
    assert all(first.digests.values())
    _, _, again = execute(name, tmp_path)
    assert (again.digests, again.counts) == (first.digests, first.counts)


def rewrite_csv(path: str, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_submod_harness_check_catches_bad_rows(tmp_path):
    ctx, raw, _ = execute("submod-harness", tmp_path)

    def corrupt(rows):
        rows[0]["best_value"] = str(int(rows[0]["opt_value"]) + 1)
        return rows[:1]  # and drop the second row, as a TrialRecord.error would

    rewrite_csv(ctx["out"], corrupt)
    outcome = workloads.check_submod_harness(ctx, raw)
    assert outcome.failed == 2
    assert any("best_value > opt_value" in why for why in sum(outcome.failures.values(), []))


def test_matching_check_catches_a_run_below_greedy(tmp_path):
    ctx, raw, _ = execute("matching-trap", tmp_path)
    match_cfg = next(c for c in ctx["configs"]
                     if c.match_mode == "match" and c.adversary["strategy"] == "front")
    rewrite_csv(match_cfg.out, lambda rows: [{**rows[0], "size": "1", "ratio": "0.025"}])
    outcome = workloads.check_matching_trap(ctx, raw)
    assert set(outcome.failures) == {"front/match"}


def test_recurrence_check_catches_short_table(tmp_path):
    ctx, raw, _ = execute("recurrence-cert", tmp_path)
    rewrite_csv(ctx["out"], lambda rows: rows[:-1])
    assert set(workloads.check_recurrence_cert(ctx, raw).failures) == {"emit"}
    raw["certify"] = (1, "R(k,k) >= 0.5506 for k <= 50: VIOLATED (min diagonal 0.5000000000)")
    assert "certify" in workloads.check_recurrence_cert(ctx, raw).failures


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@pytest.mark.parametrize("name", ["submod-tree", "matching-trap"])
def test_tracer_observes_without_changing_outputs(name, tmp_path):
    _, _, plain = execute(name, tmp_path)
    tracer = Tracer(name)
    tracer.install()
    originals = list(tracer._patches)
    try:
        assert all(current(o, a).__wrapped__ is orig for o, a, orig in originals)
        wl = workloads.WORKLOADS[name]
        ctx = wl.setup({**wl.params, **TINY[name]}, 3, str(tmp_path))
        ctx["mark"] = tracer.set_run
        traced = wl.check(ctx, wl.run(ctx))
    finally:
        tracer.uninstall()
    assert all(current(o, a) is orig for o, a, orig in originals)
    assert (traced.digests, traced.counts) == (plain.digests, plain.counts)
    layers = tracer.layer_times()
    assert tracer.spans and all(row["self_s"] <= row["s"] + 1e-9 for row in layers.values())
    if name == "submod-tree":
        assert tracer.counts["tree_stream.nodes_created"] > 0
        assert tracer.maxima["tree_stream.guesses_live_max"] == plain.counts["guesses_live_max"]
        assert {s[3][3] for s in tracer.spans} >= {"auto", "bucketed"}
    else:
        assert tracer.counts["matching.stored_wings"] >= tracer.counts["matching.paths_committed"] > 0
        assert 0 < layers["matching.remove"]["calls"] <= tracer.counts["matching.paths_committed"]


def test_traced_run_through_workers():
    res = run.run_one("matching-trap", 3, 0, trace=1, params=TINY["matching-trap"])
    assert res["correct"], res["errors"]
    assert len(res["executions"]) == 2 * run.MIN_TRACED
    names = {name for name, *_ in run.PER_LAYER} | {name for name, *_ in run.EXTRA_LAYER}
    assert set(res["metrics"]) == names
    assert res["metrics"]["matching.offer.calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recurrence-cert",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
