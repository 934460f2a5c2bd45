"""The four benchmark workloads: inputs from the seed, the measured call, checks.

Each workload is three functions.  ``setup(params, seed, tmp)`` builds the
inputs and returns a context; ``run(ctx)`` is the measured phase and returns
the raw outputs; ``check(ctx, raw)`` verifies them and returns an
``Outcome``.  Library functions are always reached through their module
attributes (``harness.run_experiment``, ``tree_stream.guess_run``, ...) so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from injectstream import cli, generators, harness, stream_model, submodular, tree_stream


@dataclass
class Outcome:
    """Checked outputs of one workload execution."""

    attempted: int
    failures: dict[str, list[str]] = field(default_factory=dict)  # run -> reasons
    ratios: list[float] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def expect(self, ok: bool, run: str, reason: str) -> None:
        if not ok:
            self.failures.setdefault(run, []).append(reason)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)

    @property
    def ratio_mean(self) -> float:
        return sum(self.ratios) / len(self.ratios) if self.ratios else 0.0


@dataclass(frozen=True)
class Workload:
    """Default parameters and the three phases; why each exists: README.md."""

    name: str
    params: dict
    setup: Callable
    run: Callable
    check: Callable


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_rows(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# submod-harness: the README `submod run` example, in-process through the CLI


def setup_submod_harness(params: dict, seed: int, tmp: str) -> dict:
    out = os.path.join(tmp, "submod.csv")
    argv = [
        "submod", "run", "--kind", params["kind"],
        "--params", json.dumps(params["instance"]),
        "--adversary", params["adversary"],
        "--trials", str(params["trials"]), "--perms", str(params["perms"]),
        "--k", str(params["k"]), "--mode", params["mode"],
        "--delta", str(params["delta"]), "--seed", str(seed), "--out", out,
    ]
    return {"params": params, "argv": argv, "out": out}


def run_submod_harness(ctx: dict) -> dict:
    code, _ = call_cli(ctx["argv"])
    return {"code": code}


def check_submod_harness(ctx: dict, raw: dict) -> Outcome:
    p = ctx["params"]
    expected = p["trials"] * p["perms"]
    rows = read_rows(ctx["out"])
    oc = Outcome(attempted=expected)
    bound = tree_stream.node_count_bound(p["k"], p["delta"])
    for row in rows:
        run = f"{row['seed']}/{row['perm_index']}"
        oc.expect(int(row["best_value"]) <= int(row["opt_value"]), run, "best_value > opt_value")
        oc.expect(int(row["nodes_live_max"]) <= bound, run, "nodes_live_max over node_count_bound")
        oc.ratios.append(float(row["ratio"]))
    for i in range(len(rows), expected):
        oc.expect(False, f"missing-{i}", "no CSV row (TrialRecord.error)")
    if raw["code"] != 0 and len(rows) == expected:
        oc.expect(False, "exit", f"cli exit code {raw['code']}")
    oc.digests["submod.csv"] = sha256_file(ctx["out"]) if rows else ""
    oc.counts = {
        "rows": len(rows),
        "oracle_calls": sum(int(r["oracle_calls"]) for r in rows),
        "nodes_live_max": max((int(r["nodes_live_max"]) for r in rows), default=0),
    }
    return oc


# ---------------------------------------------------------------------------
# submod-tree: coverage instances streamed through guess_run and the bucketed tree


def setup_submod_tree(params: dict, seed: int, tmp: str) -> dict:
    runs = []
    for i in range(params["instances"]):
        inst_seed = seed * params["instances"] + i
        inst, split = generators.generate_submod_instance("random", params["instance"], inst_seed)
        plan = generators.make_plan(split, "random", inst_seed)
        stream = stream_model.build_stream(split, plan, inst_seed)
        # the generator's self-check guarantees the good set is an optimum
        opt = submodular.CoverageOracle(inst).evaluate(e.id for e in split.good)
        runs.append({
            "seed": inst_seed, "stream": stream, "opt": opt,
            "oracles": (submodular.CoverageOracle(inst), submodular.CoverageOracle(inst)),
        })
    return {"params": params, "runs": runs, "mark": lambda *run_id: None}


def run_submod_tree(ctx: dict) -> list:
    k, delta = ctx["params"]["k"], ctx["params"]["delta"]
    out = []
    for r in ctx["runs"]:
        guess_oracle, tree_oracle = r["oracles"]
        ctx["mark"](r["seed"], 0, "auto")
        g_stats = tree_stream.RunStats()
        g_sol = tree_stream.guess_run(r["stream"], k, delta, guess_oracle, stats=g_stats)
        ctx["mark"](r["seed"], 0, "bucketed")
        b_stats = tree_stream.RunStats()
        b_sol = tree_stream.run_tree_stream(
            r["stream"], k, delta, tree_oracle, mode="bucketed", g=r["opt"], stats=b_stats
        )
        out.append(((g_sol, g_stats), (b_sol, b_stats)))
    return out


def check_submod_tree(ctx: dict, raw: list) -> Outcome:
    k, delta = ctx["params"]["k"], ctx["params"]["delta"]
    oc = Outcome(attempted=2 * len(ctx["runs"]))
    node_bound = tree_stream.node_count_bound(k, delta)
    guess_bound = tree_stream.live_guess_bound(k, delta)
    record = []
    for r, ((g_sol, g_stats), (b_sol, b_stats)) in zip(ctx["runs"], raw):
        opt = r["opt"]
        oc.expect(g_sol.value <= opt, f"{r['seed']}/auto", "guess_run value > OPT")
        oc.expect(
            g_stats.guesses_live_max <= guess_bound, f"{r['seed']}/auto",
            "guesses_live_max over live_guess_bound",
        )
        oc.expect(b_sol.value <= opt, f"{r['seed']}/bucketed", "bucketed value > OPT")
        oc.expect(
            b_stats.nodes_live_max <= node_bound, f"{r['seed']}/bucketed",
            "nodes_live_max over node_count_bound",
        )
        oc.ratios += [g_sol.value / opt, b_sol.value / opt]
        record.append([
            r["seed"], opt,
            sorted(map(repr, g_sol.elements)), g_sol.value, vars(g_stats),
            sorted(map(repr, b_sol.elements)), b_sol.value, vars(b_stats),
        ])
    oc.digests["solutions"] = hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()
    ).hexdigest()
    oc.counts = {
        "oracle_calls": sum(g.oracle_calls + b.oracle_calls for (_, g), (_, b) in raw),
        "guess_nodes_live_max": max(g.nodes_live_max for (_, g), _ in raw),
        "bucketed_nodes_live_max": max(b.nodes_live_max for _, (_, b) in raw),
        "guesses_live_max": max(g.guesses_live_max for (_, g), _ in raw),
    }
    return oc


# ---------------------------------------------------------------------------
# matching-trap: greedy / match / guessed on the greedy trap, front and random


def setup_matching_trap(params: dict, seed: int, tmp: str) -> dict:
    configs = []
    for adversary in params["adversaries"]:
        for mode in params["modes"]:
            configs.append(harness.ExperimentConfig(
                problem="matching",
                instance={"kind": "greedy_trap", "params": {"s": params["s"]}},
                adversary={"strategy": adversary},
                trials=1, perms=1, seed=seed, match_mode=mode,
                out=os.path.join(tmp, f"matching-{adversary}-{mode}.csv"),
            ))
    return {"params": params, "configs": configs}


def run_matching_trap(ctx: dict) -> list:
    return [harness.run_experiment(cfg) for cfg in ctx["configs"]]


def check_matching_trap(ctx: dict, raw: list) -> Outcome:
    oc = Outcome(attempted=len(ctx["configs"]))
    sizes: dict[tuple, int] = {}
    ratios: dict[tuple, float] = {}
    guesses = 0
    for cfg, result in zip(ctx["configs"], raw):
        adversary, mode = cfg.adversary["strategy"], cfg.match_mode
        run = f"{adversary}/{mode}"
        rows = read_rows(cfg.out)
        failed = [r.error for r in result.records if r.error]
        oc.expect(not failed, run, f"TrialRecord.error: {failed}")
        oc.expect(len(rows) == 1, run, f"{len(rows)} CSV rows, expected 1")
        oc.digests[os.path.basename(cfg.out)] = sha256_file(cfg.out) if rows else ""
        for rec in result.records:
            guesses = max(guesses, rec.memory.get("guesses_live_max", 0))
        if len(rows) != 1:
            continue
        size, opt = int(rows[0]["size"]), int(rows[0]["opt_size"])
        oc.expect(size <= opt, run, "size > opt_size")
        sizes[adversary, mode] = size
        ratios[adversary, mode] = float(rows[0]["ratio"])
        oc.ratios.append(float(rows[0]["ratio"]))
    for (adversary, mode), size in sizes.items():
        run = f"{adversary}/{mode}"
        greedy = sizes.get((adversary, "greedy"))
        if mode == "greedy":
            oc.expect(ratios[adversary, mode] >= 0.5, run, "greedy ratio < 1/2")
        elif greedy is not None:
            oc.expect(size >= greedy, run, "smaller than greedy on the same stream")
        if adversary == "front" and mode == "match" and greedy is not None:
            oc.expect(
                ratios[adversary, mode] > ratios[adversary, "greedy"], run,
                "two-branch does not beat greedy on the front trap",
            )
    oc.counts = {f"size.{a}.{m}": s for (a, m), s in sorted(sizes.items())}
    oc.counts["guesses_live_max"] = guesses
    return oc


# ---------------------------------------------------------------------------
# recurrence-cert: exact certificate to k=1000, then the float table emitted


def setup_recurrence_cert(params: dict, seed: int, tmp: str) -> dict:
    out = os.path.join(tmp, "recurrence.csv")
    return {
        "params": params,
        "out": out,
        "certify": ["recurrence", "--mode", "exact", "--certify", str(params["certify_k"])],
        "emit": ["recurrence", "--kmax", str(params["kmax"]), "--emit", out],
    }


def run_recurrence_cert(ctx: dict) -> dict:
    return {"certify": call_cli(ctx["certify"]), "emit": call_cli(ctx["emit"])}


def check_recurrence_cert(ctx: dict, raw: dict) -> Outcome:
    p = ctx["params"]
    oc = Outcome(attempted=2)
    code, text = raw["certify"]
    found = re.search(r": (\w+) \(min diagonal ([0-9.]+)\)", text)
    holds = code == 0 and found is not None and found.group(1) == "holds"
    oc.expect(holds, "certify", f"certificate not confirmed: {text.strip()!r}")
    if found:
        lowest = float(found.group(2))
        oc.expect(Fraction(found.group(2)) >= Fraction(p["bound"]), "certify",
                  f"min diagonal {lowest} below {p['bound']}")
        oc.ratios.append(lowest)
    code, _ = raw["emit"]
    rows = read_rows(ctx["out"])
    oc.expect(code == 0 and len(rows) == p["kmax"], "emit",
              f"exit {code}, {len(rows)} rows, expected {p['kmax']}")
    oc.digests["certify.stdout"] = hashlib.sha256(text.encode()).hexdigest()
    oc.digests["recurrence.csv"] = sha256_file(ctx["out"]) if rows else ""
    oc.counts = {"rows": len(rows)}
    return oc


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "submod-harness",
            {"kind": "decoy_front", "instance": {"block": 6}, "adversary": "front",
             "trials": 10, "perms": 50, "k": 3, "mode": "bucketed", "delta": 0.1},
            setup_submod_harness, run_submod_harness, check_submod_harness,
        ),
        Workload(
            "submod-tree",
            {"instance": {"n": 30, "k": 4, "universe": 200, "max_points": 20},
             "instances": 4, "k": 4, "delta": 0.1},
            setup_submod_tree, run_submod_tree, check_submod_tree,
        ),
        Workload(
            "matching-trap",
            {"s": 4000, "modes": ["greedy", "match", "guessed"],
             "adversaries": ["front", "random"]},
            setup_matching_trap, run_matching_trap, check_matching_trap,
        ),
        Workload(
            "recurrence-cert",
            {"certify_k": 1000, "bound": "0.5506", "kmax": 10000},
            setup_recurrence_cert, run_recurrence_cert, check_recurrence_cert,
        ),
    )
}
