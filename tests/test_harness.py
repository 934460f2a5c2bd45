"""Experiment harness: configs, determinism, CSV output, and the CLI."""

import ast
import csv
import dataclasses
import json
import math
import os
import re
from fractions import Fraction
from pathlib import Path

import pytest

from injectstream.cli import build_parser, main
from injectstream import harness
from injectstream.errors import InvalidInstanceError, InvariantError, PreconditionError
from injectstream.generators import (
    MATCHING_KINDS,
    generate_matching_instance,
    generate_submod_instance,
    make_plan,
)
from injectstream.harness import (
    MATCHING_COLUMNS,
    OUT_DIR_ENV,
    RECURRENCE_COLUMNS,
    SUBMOD_COLUMNS,
    ExperimentConfig,
    config_from_dict,
    perm_seed,
    read_matching_instance_file,
    read_submod_instance_file,
    resolve_out,
    run_experiment,
    summarize,
    trial_seed,
    write_instance_file,
)
from injectstream.matching import Edge
from injectstream.recurrence import certify_diagonal
from injectstream.stream_model import Element, InjectionPlan, InstanceSplit, build_stream


def csv_rows(path, reader=csv.DictReader) -> list:
    """The rows ``reader`` reads from the CSV file at ``path``, which it closes."""
    with open(path, newline="") as f:
        return list(reader(f))


# ------------------------------------------------------------------- config


def test_config_fingerprint_stable_and_sensitive():
    a = ExperimentConfig(problem="submod", seed=3)
    b = ExperimentConfig(problem="submod", seed=3)
    c = ExperimentConfig(problem="submod", seed=4)
    d = ExperimentConfig(problem="submod", seed=3, out="x/y.csv")
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert a.fingerprint() == d.fingerprint()  # where rows go does not name them
    assert len(a.fingerprint()) == 12


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(PreconditionError):
        config_from_dict({"problem": "submod", "typo_key": 1})


#: (start of the error: the config field it names, or "need" for a generator
#: param out of range; bad config entries, which may name a problem)
BAD_CONFIG_VALUES = {
    "mode": ("mode", {"mode": "exactt"}),
    "guess": ("guess", {"guess": "Auto"}),
    "match_mode": ("match_mode", {"match_mode": "gredy"}),
    "table_mode": ("table_mode", {"table_mode": "fast"}),
    "instance-key": ("instance", {"instance": {"kind": "random", "parms": {}}}),
    "strategy": ("adversary", {"adversary": {"strategy": "frnt"}}),
    "adversary-key": ("adversary", {"adversary": {"strategy": "front", "sede": 3}}),
    "trials": ("trials", {"trials": 0}),
    "trials-stride": ("trials", {"trials": harness.SEED_STRIDE + 1}),
    "perms-stride": ("perms", {"perms": harness.SEED_STRIDE + 1}),
    "bound-without-certify": ("bound", {"bound": "0.55"}),
    "bound": ("bound", {"bound": "abc"}),
    "k": ("k", {"k": 0}),
    "delta": ("delta", {"delta": 0}),
    "delta-text": ("delta", {"delta": "abc"}),
    "delta-auto": ("delta", {"guess": "auto", "delta": 1}),
    "delta_guess": ("delta_guess", {"delta_guess": 0}),
    "delta_guess-tiny": ("delta_guess", {"delta_guess": 1e-5}),
    "kind": ("submod kind", {"instance": {"kind": "mystery"}}),
    "seed-text": ("seed", {"seed": "abc"}),
    "seed-negative": ("seed", {"seed": -1}),
    "adversary-seed": ("adversary seed", {"adversary": {"strategy": "random", "seed": -1}}),
    "t": ("t", {"t": 1.5}),
    "t-text": ("t", {"t": "abc"}),
    "kmax": ("kmax", {"kmax": 0}),
    "certify_k": ("certify_k", {"certify_k": 0}),
    "param-name": ("decoy_front param", {"instance": {"kind": "decoy_front",
                                                      "params": {"blocks": 9}}}),
    "param-value": ("random param", {"instance": {"kind": "random", "params": {"n": 2.7}}}),
    "param-n-below-k": ("need", {"instance": {"kind": "random", "params": {"n": 2}}}),
    "param-k-differs": ("k", {"k": 4, "instance": {"kind": "random", "params": {"k": 2, "n": 8}}}),
    "param-block": ("need", {"instance": {"kind": "decoy_front", "params": {"block": 1}}}),
    "param-s": ("need", {"problem": "matching",
                         "instance": {"kind": "greedy_trap", "params": {"s": 0}}}),
    "param-p": ("need", {"problem": "matching",
                         "instance": {"kind": "random_bipartite", "params": {"p": 0}}}),
    "out-number": ("out", {"out": 5}),
    "instance-file-number": ("instance", {"instance": {"file": 0}}),
}


@pytest.mark.parametrize("case", BAD_CONFIG_VALUES)
def test_config_from_dict_rejects_bad_value(case):
    name, bad = BAD_CONFIG_VALUES[case]
    with pytest.raises(PreconditionError, match=f"^{name} "):
        config_from_dict({"problem": "submod", **bad})


@pytest.mark.parametrize("case", BAD_CONFIG_VALUES)
def test_cli_bad_config_value_is_one_line_and_exit_2(tmp_path, capsys, case):
    name, bad = BAD_CONFIG_VALUES[case]
    out = tmp_path / "never.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": 1, "perms": 1, "out": str(out), **bad}))
    assert main([bad.get("problem", "submod"), "run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"error: {name} " in err
    assert not out.exists()


BOOL_FIELDS = {
    "trials": {"trials": True}, "perms": {"perms": True}, "seed": {"seed": False},
    "adversary seed": {"adversary": {"strategy": "random", "seed": True}},
    "k": {"k": True}, "kmax": {"kmax": True}, "certify_k": {"certify_k": True},
    "t": {"t": True}, "delta": {"delta": True}, "delta_guess": {"delta_guess": False},
}


@pytest.mark.parametrize("name", BOOL_FIELDS)
def test_config_rejects_json_booleans_in_number_fields(name):
    """JSON true is a Python bool, an int subclass: it must not read as 1."""
    with pytest.raises(PreconditionError, match=f"^{name} must be .*; got (True|False)$"):
        config_from_dict(BOOL_FIELDS[name])


def test_cli_config_with_boolean_trials_exits_2(tmp_path, capsys):
    out = tmp_path / "never.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": True, "out": str(out)}))
    assert main(["submod", "run", "--config", str(cfg_path)]) == 2
    assert "error: trials must be an integer >= 1; got True" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("delta", [0.1, "0.1", "1/10", 1])
def test_config_accepts_every_delta_a_tree_reads(tmp_path, delta):
    guess = "known" if delta == 1 else "auto"
    cfg = submod_config(tmp_path, delta=delta, guess=guess, mode="bucketed", trials=1, perms=1)
    assert run_experiment(cfg).exit_code == 0


def test_config_cannot_change_after_construction():
    cfg = config_from_dict({"problem": "matching"})
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.match_mode = "gredy"


def test_seed_derivation_distinct():
    seen = set()
    for t in range(20):
        ts = trial_seed(7, t)
        for p in range(20):
            seen.add(perm_seed(ts, p))
    assert len(seen) == 400


def test_summarize_hand_case():
    s = summarize([1.0, 0.5], failures=0)
    assert s.n == 2 and s.mean == 0.75
    assert math.isclose(s.stddev, 0.3535533905932738)
    half = 1.96 * s.stddev / math.sqrt(2)
    assert math.isclose(s.ci95[0], 0.75 - half) and math.isclose(s.ci95[1], 0.75 + half)
    assert summarize([], failures=3) is None


def test_resolve_out_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "outs"))
    assert resolve_out("r.csv") == str(tmp_path / "outs" / "r.csv")
    assert os.path.isdir(tmp_path / "outs")
    absolute = str(tmp_path / "abs.csv")
    assert resolve_out(absolute) == absolute
    monkeypatch.delenv(OUT_DIR_ENV)
    assert resolve_out("r.csv") == "r.csv"
    assert resolve_out(None) is None
    with pytest.raises(PreconditionError, match="does not exist"):
        resolve_out(str(tmp_path / "missing" / "r.csv"))


# ------------------------------------------------------------- experiments


def submod_config(tmp_path, **over):
    base = dict(
        problem="submod",
        instance={"kind": "random", "params": {"n": 8, "k": 2, "universe": 12}},
        adversary={"strategy": "front"},
        trials=2,
        perms=3,
        seed=5,
        out=str(tmp_path / "out.csv"),
        k=2,
        delta=0.1,
        mode="exact",
        guess="known",
    )
    base.update(over)
    return config_from_dict(base)


def test_submod_experiment_and_replay(tmp_path):
    cfg = submod_config(tmp_path)
    r1 = run_experiment(cfg)
    assert r1.exit_code == 0
    assert r1.summary is not None and r1.summary.failures == 0
    assert len(r1.records) == 6
    blob1 = Path(r1.csv_path).read_bytes()
    r2 = run_experiment(submod_config(tmp_path, out=str(tmp_path / "again.csv")))
    assert Path(r2.csv_path).read_bytes() == blob1  # byte-identical replay, any path

    rows = list(csv.reader(blob1.decode().splitlines()))
    assert tuple(rows[0]) == SUBMOD_COLUMNS
    for row in rows[1:]:
        assert row[-1] == cfg.fingerprint()
        assert 0.0 <= float(row[5]) <= 1.0  # ratio column
        assert float(row[5]) >= 0.5  # the exact-mode floor


def test_submod_wall_time_outside_csv(tmp_path):
    r = run_experiment(submod_config(tmp_path))
    assert all(rec.wall_time_s >= 0 for rec in r.records)
    header = Path(r.csv_path).read_text().splitlines()[0]
    assert "wall" not in header


def test_submod_guess_mode(tmp_path):
    r = run_experiment(submod_config(tmp_path, guess="auto", mode="bucketed"))
    assert r.exit_code == 0
    rows = csv_rows(r.csv_path)
    assert all(row["guess_mode"] == "auto" for row in rows)


def test_matching_experiment(tmp_path):
    cfg = config_from_dict(dict(
        problem="matching",
        instance={"kind": "greedy_trap", "params": {"s": 5}},
        adversary={"strategy": "front"},
        trials=2,
        perms=4,
        seed=9,
        out=str(tmp_path / "m.csv"),
        match_mode="match",
    ))
    r = run_experiment(cfg)
    assert r.exit_code == 0
    rows = csv_rows(r.csv_path)
    assert tuple(rows[0].keys()) == MATCHING_COLUMNS
    for row in rows:
        assert row["algo"] == "match"
        assert int(row["opt_size"]) == 10
        assert float(row["ratio"]) >= 0.5
    # trap recovery well above one half
    assert all(float(row["ratio"]) >= 0.9 for row in rows)


def test_matching_greedy_mode_stalls_on_trap(tmp_path):
    cfg = config_from_dict(dict(
        problem="matching",
        instance={"kind": "greedy_trap", "params": {"s": 5}},
        adversary={"strategy": "front"},
        trials=1,
        perms=3,
        seed=2,
        out=str(tmp_path / "g.csv"),
        match_mode="greedy",
    ))
    r = run_experiment(cfg)
    rows = csv_rows(r.csv_path)
    assert all(float(row["ratio"]) == 0.5 for row in rows)


def test_recurrence_experiment_emit_and_certify(tmp_path):
    out = str(tmp_path / "r.csv")
    cfg = config_from_dict(dict(problem="recurrence", t=0.8, kmax=30,
                                table_mode="float", out=out))
    r = run_experiment(cfg)
    assert r.exit_code == 0
    rows = csv_rows(out)
    assert tuple(rows[0].keys()) == RECURRENCE_COLUMNS
    assert rows[0]["k"] == "1"
    assert abs(float(rows[0]["R(k,k)"]) - 5 / 9) < 1e-12
    assert rows[0]["argmin_tag_at_diag"] == "third"
    assert rows[1]["argmin_tag_at_diag"] == "second"

    ok = config_from_dict(dict(problem="recurrence", t=0.8, kmax=100,
                               table_mode="exact", certify_k=100, bound=0.55, out=None))
    r = run_experiment(ok)
    assert r.exit_code == 0 and r.records[0].columns["verdict"] == "holds"
    bad = config_from_dict(dict(problem="recurrence", t=0.8, kmax=100,
                                table_mode="exact", certify_k=100, bound=0.556, out=None))
    r = run_experiment(bad)
    assert r.exit_code == 1 and r.records[0].columns["verdict"] == "VIOLATED"
    # a bound inside the intervals above EXACT_LIMIT, where no exact table settles it
    inside = str(Fraction(certify_diagonal(0.8, 2001, "0.55").hi))
    unsure = config_from_dict(dict(problem="recurrence", t=0.8, kmax=100,
                                   certify_k=2001, bound=inside, out=None))
    r = run_experiment(unsure)
    assert r.exit_code == 1 and r.records[0].columns["verdict"] == "not certified"


def test_failed_trials_recorded_not_raised(tmp_path, monkeypatch):
    def every_run_fails(*args, **kwargs):
        raise ValueError("planted")

    monkeypatch.setattr(harness, "run_tree_streams", every_run_fails)
    cfg = config_from_dict(dict(
        problem="submod",
        instance={"kind": "random", "params": {"n": 6, "universe": 10}},
        trials=2,
        perms=2,
        seed=0,
        out=str(tmp_path / "f.csv"),
    ))
    r = run_experiment(cfg)
    assert r.exit_code == 1
    assert all(rec.error for rec in r.records)
    assert r.summary is None or r.summary.failures > 0
    # failed rows are kept out of the CSV
    rows = csv_rows(r.csv_path, csv.reader)
    assert len(rows) == 1  # header only


#: failing run -> (the harness name patched to fail it, CLI argv)
RUN_ARGV = {
    "match_run": ("match_run", [
        "matching", "run", "--kind", "greedy_trap", "--params", '{"s": 3}', "--mode", "match"]),
}

PLANTED = pytest.mark.parametrize("exc, code", [
    (InvariantError("planted"), 3),
    (ValueError("InvariantError: only in the message"), 1),
], ids=["invariant", "other"])


@PLANTED
@pytest.mark.parametrize("algo", RUN_ARGV)
def test_failed_run_exit_code_from_exception_type(
    tmp_path, monkeypatch, capsys, algo, exc, code
):
    name, argv = RUN_ARGV[algo]
    real = getattr(harness, name)
    calls = []

    def second_run_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, name, second_run_fails)
    out = str(tmp_path / "runs.csv")
    assert main(argv + ["--trials", "1", "--perms", "3", "--seed", "2", "--out", out]) == code
    rows = csv_rows(out)
    assert [row["perm_index"] for row in rows] == ["0", "2"]
    assert f"{type(exc).__name__}: {exc}" in capsys.readouterr().err


@PLANTED
def test_failed_forest_fails_every_perm_it_holds(tmp_path, monkeypatch, exc, code):
    """A forest that raises gives each perm it holds a failed record with the
    error; the other forests of the trial keep their rows."""
    real, second_seed = harness.run_tree_streams, perm_seed(trial_seed(2, 0), 1)

    def second_stream_fails(streams, *args, **kwargs):
        if any(s.seed == second_seed for s in streams):
            raise exc
        return real(streams, *args, **kwargs)

    monkeypatch.setattr(harness, "FOREST_STREAMS", 2)
    monkeypatch.setattr(harness, "run_tree_streams", second_stream_fails)
    out = str(tmp_path / "runs.csv")
    r = run_experiment(submod_config(tmp_path, k=2, mode="exact", trials=1, perms=5,
                                     seed=2, out=out))
    assert r.exit_code == code
    error = f"{type(exc).__name__}: {exc}"
    assert [rec.error for rec in r.records] == [error] * 2 + [None] * 3
    assert [rec.invariant for rec in r.records] == [code == 3] * 2 + [False] * 3
    assert [row["perm_index"] for row in csv_rows(out)] == ["2", "3", "4"]


def test_failed_load_is_one_record_naming_its_seed(tmp_path, monkeypatch, capsys):
    """A trial whose instance cannot be made gets one failed record with its
    seed and perm_index None; the CLI line says so after the error."""
    columns, load, run = harness.PROBLEMS["submod"]
    bad_seed = trial_seed(3, 1)

    def fails_on_bad_seed(config, t_seed):
        if t_seed == bad_seed:
            raise ValueError("planted")
        return load(config, t_seed)

    monkeypatch.setitem(harness.PROBLEMS, "submod", (columns, fails_on_bad_seed, run))
    argv = ["submod", "run", "--kind", "random", "--params", '{"n": 6, "universe": 10}',
            "--k", "2", "--trials", "2", "--perms", "2", "--seed", "3",
            "--out", str(tmp_path / "runs.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"trial failed: ValueError: planted (seed {bad_seed}, perm None)"
    ]
    r = run_experiment(config_from_dict(dict(
        problem="submod", instance={"kind": "random", "params": {"n": 6, "universe": 10}},
        k=2, trials=2, perms=2, seed=3, out=None,
    )))
    assert [(rec.columns["seed"], rec.columns.get("perm_index"), rec.error) for rec in r.records] == [
        (trial_seed(3, 0), 0, None), (trial_seed(3, 0), 1, None),
        (bad_seed, None, "ValueError: planted"),
    ]


@pytest.mark.parametrize("problem, knobs, forest", [
    ("submod", {"mode": "exact"}, True),
    ("submod", {"mode": "bucketed"}, True),
    ("submod", {"mode": "bucketed", "guess": "auto"}, False),
    ("matching", {"match_mode": "greedy"}, False),
    ("matching", {"match_mode": "match"}, False),
    ("matching", {"match_mode": "guessed"}, False),
], ids=["exact", "bucketed", "auto", "greedy", "match", "guessed"])
def test_every_perm_gets_one_record(tmp_path, monkeypatch, problem, knobs, forest):
    """trials x perms records in run order, whichever batch fails: a failing
    batch is the whole trial in a forest mode and one perm otherwise."""
    columns, load, real = harness.PROBLEMS[problem]
    bad_seed = perm_seed(trial_seed(5, 1), 1)

    def fails_on_bad_seed(config, streams, trial):
        if any(s.seed == bad_seed for s in streams):
            raise ValueError("planted")
        return real(config, streams, trial)

    monkeypatch.setitem(harness.PROBLEMS, problem, (columns, load, fails_on_bad_seed))
    instance = ({"kind": "random", "params": {"n": 8, "universe": 12}} if problem == "submod"
                else {"kind": "greedy_trap", "params": {"s": 3}})
    out = str(tmp_path / "runs.csv")
    r = run_experiment(config_from_dict(dict(
        problem=problem, instance=instance, k=2, trials=2, perms=3, seed=5, out=out, **knobs,
    )))
    assert r.exit_code == 1 and len(r.records) == 2 * 3
    failed = [3, 4, 5] if forest else [4]
    assert [i for i, rec in enumerate(r.records) if rec.error] == failed
    assert all(rec.error == "ValueError: planted" for i, rec in enumerate(r.records) if i in failed)
    assert [(rec.columns["seed"], rec.columns["perm_index"]) for rec in r.records] == [
        (trial_seed(5, i // 3), i % 3) for i in range(6)
    ]
    rows = [(row["seed"], row["perm_index"]) for row in csv_rows(out)]
    assert rows == [(str(trial_seed(5, i // 3)), str(i % 3)) for i in range(6) if i not in failed]


def test_bucketed_run_with_zero_optimum_fails_every_perm(tmp_path, capsys):
    """OPT = 0 leaves bucketing no positive guess g: a precondition, so exit 1,
    and every perm of every batch gets a failed record naming it."""
    path = tmp_path / "empty.jsonl"
    path.write_text("".join(
        json.dumps({"id": i, "role": "good" if i < 3 else "noise", "payload": []}) + "\n"
        for i in range(5)
    ))
    out = tmp_path / "runs.csv"
    argv = ["submod", "run", "--instance", str(path), "--k", "2", "--mode", "bucketed",
            "--trials", "2", "--perms", "3", "--out", str(out)]
    assert main(argv) == 1
    assert out.read_text().splitlines() == [",".join(SUBMOD_COLUMNS)]
    failures = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("trial failed: ")]
    assert len(failures) == 2 * 3
    assert all(line.startswith("trial failed: PreconditionError: bucketing needs a positive "
                               "guess g") for line in failures)
    seeds = [harness.trial_seed(0, t) for t in range(2)]
    assert [line[line.rindex(" (seed "):] for line in failures] == [
        f" (seed {s}, perm {p})" for s in seeds for p in range(3)
    ]


def test_forest_chunks_leave_the_csv_unchanged(tmp_path, monkeypatch):
    """A trial's perms run in forests of at most FOREST_STREAMS streams,
    realized one chunk at a time; chunks of 2 write the same bytes."""
    argv = ["submod", "run", "--kind", "random", "--params", '{"n": 8, "universe": 12}',
            "--k", "2", "--mode", "bucketed", "--trials", "2", "--perms", "5", "--seed", "4"]
    assert main(argv + ["--out", str(tmp_path / "whole.csv")]) == 0
    real, sizes = harness.run_tree_streams, []

    def recorded(streams, *args, **kwargs):
        sizes.append(len(streams))
        return real(streams, *args, **kwargs)

    monkeypatch.setattr(harness, "FOREST_STREAMS", 2)
    monkeypatch.setattr(harness, "run_tree_streams", recorded)
    assert main(argv + ["--out", str(tmp_path / "chunked.csv")]) == 0
    assert sizes == [2, 2, 1, 2, 2, 1]
    whole = (tmp_path / "whole.csv").read_bytes()
    assert (tmp_path / "chunked.csv").read_bytes() == whole
    assert len(whole.splitlines()) == 11


def test_bad_plan_fails_every_perm_of_its_trial(tmp_path, monkeypatch):
    """A plan that build_streams rejects gives each perm of its trial a
    failed record with the error one build_stream call raises; the other
    trial keeps its rows."""
    real, bad_seed, errors = harness.make_plan, trial_seed(4, 1), []

    def bad_second_plan(split, strategy, seed):
        plan = real(split, strategy, seed=seed)
        if seed != bad_seed:
            return plan
        (_, nid), *rest = plan.entries
        bad = InjectionPlan(((split.n_good + 1, nid), *rest))
        with pytest.raises(Exception) as raised:
            build_stream(split, bad, 0)
        errors.append(f"{raised.type.__name__}: {raised.value}")
        return bad

    monkeypatch.setattr(harness, "make_plan", bad_second_plan)
    out = str(tmp_path / "runs.csv")
    r = run_experiment(config_from_dict(dict(
        problem="submod", instance={"kind": "random", "params": {"n": 8, "universe": 12}},
        k=2, mode="bucketed", trials=2, perms=5, seed=4, out=out,
    )))
    assert r.exit_code == 1
    assert errors and errors[0].startswith("PlanValidationError: slot ")
    assert [rec.error for rec in r.records] == [None] * 5 + [errors[0]] * 5
    assert not any(rec.invariant for rec in r.records)
    rows = [(row["seed"], row["perm_index"]) for row in csv_rows(out)]
    assert rows == [(str(trial_seed(4, 0)), str(p)) for p in range(5)]


# ------------------------------------------------------------ instance files


def test_submod_instance_file_round_trip(tmp_path):
    inst, split = generate_submod_instance("random", {"n": 8, "k": 2, "universe": 12}, seed=1)
    plan = make_plan(split, "spread", seed=0)
    path = str(tmp_path / "inst.jsonl")
    write_instance_file(path, split, plan)
    inst2, split2, plan2 = read_submod_instance_file(path)
    assert inst2.rect_of == inst.rect_of
    assert {e.id for e in split2.good} == {e.id for e in split.good}
    assert plan2 == plan


def test_matching_instance_file_round_trip(tmp_path):
    split = InstanceSplit(
        good=(Element(0, payload=(1, 2)), Element(1, payload=(3, 4))),
        noise=(Element(2, payload=(2, 3)),),
    )
    plan = InjectionPlan(((0, 2),))
    path = str(tmp_path / "m.jsonl")
    write_instance_file(path, split, plan)
    split2, plan2 = read_matching_instance_file(path)
    assert [e.payload for e in split2.good] == [Edge(1, 2), Edge(3, 4)]
    assert plan2 == plan


@pytest.mark.parametrize("kind", MATCHING_KINDS)
def test_generated_matching_instance_file_round_trip(tmp_path, kind):
    """A written instance reads back as the same split of Edge payloads and plan."""
    split, _ = generate_matching_instance(kind, {}, seed=4)
    plan = make_plan(split, "random", seed=9)
    path = str(tmp_path / "m.jsonl")
    write_instance_file(path, split, plan)
    split2, plan2 = read_matching_instance_file(path)
    assert (split2, plan2) == (split, plan)
    assert all(type(el.payload) is Edge for el in split2.good + split2.noise)


def test_matching_pairs_read_as_undirected_edges(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(
        '{"id": 0, "role": "good", "payload": [5, 2]}\n'
        '{"id": 1, "role": "noise", "payload": [[1, 2], [3, 4]]}\n'
    )
    split, _ = read_matching_instance_file(str(path))
    assert split.good[0].payload == Edge(2, 5)
    assert split.noise[0].payload == Edge((1, 2), (3, 4))
    assert type(split.noise[0].payload) is Edge


def test_matching_instance_file_may_open_with_a_comment(tmp_path):
    split, _ = generate_matching_instance("greedy_trap", {"s": 3})
    plan = make_plan(split, "spread")
    plain = tmp_path / "m.jsonl"
    write_instance_file(str(plain), split, plan)
    commented = tmp_path / "c.jsonl"
    commented.write_text("# greedy trap, s=3\n" + plain.read_text())
    assert read_matching_instance_file(str(commented)) == (split, plan)
    assert read_matching_instance_file(str(plain)) == (split, plan)
    out = str(tmp_path / "c.csv")
    assert main(["matching", "run", "--instance", str(commented), "--out", out]) == 0


BAD_RECORDS = {
    "role typo": '{"id": 9, "role": "god", "payload": [7, 8]}',
    "missing role": '{"id": 9, "payload": [7, 8]}',
    "missing id": '{"role": "good", "payload": [7, 8]}',
    "missing payload": '{"id": 9, "role": "good"}',
    "not JSON": '{"id": 9, "role": "good", "payload": [7, 8]',
    "not an object": '[9, "good", [7, 8]]',
    "bad slots": '{"slots": [[0]]}',
    "number payload": '{"id": 9, "role": "good", "payload": 5}',
    "string payload": '{"id": 9, "role": "good", "payload": "abc"}',
    "list id": '{"id": [9], "role": "good", "payload": [7, 8]}',
    "object id": '{"id": {"a": 9}, "role": "good", "payload": [7, 8]}',
    "object vertex": '{"id": 9, "role": "good", "payload": [{"a": 7}, 8]}',
    "bool id": '{"id": true, "role": "good", "payload": [7, 8]}',
    "null id": '{"id": null, "role": "good", "payload": [7, 8]}',
    "bool point or vertex": '{"id": 9, "role": "good", "payload": [7, true]}',
    "null point or vertex": '{"id": 9, "role": "good", "payload": [null, 8]}',
    "bool slot id": '{"slots": [[0, true]]}',
    "list slot id": '{"slots": [[0, [9]]]}',
    "text slot": '{"slots": [["a", 9]]}',
    "slot out of range": '{"slots": [[5, 9]]}',
    "repeated id": '{"id": 1, "role": "noise", "payload": [3, 4]}',
    "NaN point or vertex": '{"id": 9, "role": "good", "payload": [NaN, 8]}',
    "Infinity id": '{"id": Infinity, "role": "good", "payload": [7, 8]}',
    "-Infinity slot id": '{"slots": [[0, -Infinity]]}',
    "out-of-range point or vertex": '{"id": 9, "role": "good", "payload": [1e400, 8]}',
    "out-of-range number in a list vertex": '{"id": 9, "role": "good", "payload": [[7, -1e400], 8]}',
}


@pytest.mark.parametrize("read", [read_submod_instance_file, read_matching_instance_file])
@pytest.mark.parametrize("bad", BAD_RECORDS.values(), ids=BAD_RECORDS.keys())
def test_malformed_instance_line_names_file_and_line(tmp_path, read, bad):
    path = tmp_path / "inst.jsonl"
    path.write_text('{"id": 1, "role": "good", "payload": [1, 2]}\n\n' + bad + "\n")
    with pytest.raises(InvalidInstanceError, match="^" + re.escape(f"{path}:3: ")):
        read(str(path))


@pytest.mark.parametrize("read", [read_submod_instance_file, read_matching_instance_file])
def test_second_slots_record_is_rejected(tmp_path, read):
    """Two plans in one file: the second would silently replace the first."""
    path = tmp_path / "inst.jsonl"
    path.write_text('{"id": 1, "role": "good", "payload": [1, 2]}\n'
                    '{"id": 2, "role": "noise", "payload": [3, 4]}\n'
                    '{"slots": [[0, 2]]}\n\n{"slots": [[1, 2]]}\n')
    with pytest.raises(InvalidInstanceError, match="^" + re.escape(
            f"{path}:5: a second slots record; the first is on line 3")):
        read(str(path))


@pytest.mark.parametrize("read", [read_submod_instance_file, read_matching_instance_file])
def test_bool_slot_is_rejected(tmp_path, read):
    """JSON true is no slot, though Python's bool is an int subclass."""
    path = tmp_path / "inst.jsonl"
    records = ('{"id": 1, "role": "good", "payload": [1, 2]}\n'
               '{"id": 2, "role": "noise", "payload": [3, 4]}\n')
    path.write_text(records + '{"slots": [[1, 2]]}\n')
    assert read(str(path))[-1] == InjectionPlan(((1, 2),))
    path.write_text(records + '{"slots": [[true, 2]]}\n')
    with pytest.raises(InvalidInstanceError, match="^" + re.escape(f"{path}:3: slots must be")):
        read(str(path))


@pytest.mark.parametrize("read", [read_submod_instance_file, read_matching_instance_file])
def test_instance_file_without_elements_is_rejected(tmp_path, read):
    path = tmp_path / "empty.jsonl"
    path.write_text('{"slots": []}\n')
    with pytest.raises(InvalidInstanceError, match="^" + re.escape(f"{path}: no element records")):
        read(str(path))


def test_matching_payload_must_be_a_pair(tmp_path):
    """Neither [1, 2, 3] nor the self-loop [4, 4] is an edge; both are coverage sets."""
    for payload, message in (([1, 2, 3], "payload must be a [u, v] pair"), ([4, 4], "self-loop")):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"id": 1, "role": "good", "payload": payload}) + "\n")
        with pytest.raises(InvalidInstanceError, match="^" + re.escape(f"{path}:1: ")):
            read_matching_instance_file(str(path))
        _, split, _ = read_submod_instance_file(str(path))
        assert split.good[0].payload == frozenset(payload)
        config = config_from_dict(dict(problem="matching", instance={"file": str(path)}, out=None))
        with pytest.raises(InvalidInstanceError, match="^" + re.escape(f"{path}:1: {message}")):
            run_experiment(config)


BAD_FILES = {
    "missing": None,
    "slots out of range": b'{"id": 1, "role": "good", "payload": [1, 2]}\n{"slots": [[5, 9]]}\n',
    "not UTF-8": b'{"id": 1, "role": "good", "payload": [1, 2]}\n\xff\n',
}


@pytest.mark.parametrize("problem", ["submod", "matching"])
@pytest.mark.parametrize("bad", BAD_FILES.values(), ids=BAD_FILES.keys())
def test_bad_instance_file_exits_2_once_without_csv(tmp_path, capsys, problem, bad):
    path = tmp_path / "inst.jsonl"
    if bad is not None:
        path.write_bytes(bad)
    out = tmp_path / "never.csv"
    argv = [problem, "run", "--instance", str(path), "--trials", "3", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"error: {path}" in err
    assert not out.exists()


@pytest.mark.parametrize("problem, optimum", [
    ("submod", "brute_force_opt"), ("matching", "exact_max_matching"),
])
def test_instance_file_is_loaded_once_per_experiment(tmp_path, monkeypatch, problem, optimum):
    """Every trial gets the file's one (split, plan, trial data), so OPT is solved
    once; matching also solves its good edges once, to check they hold an optimum."""
    path = str(tmp_path / "inst.jsonl")
    if problem == "submod":
        _, split = generate_submod_instance("random", {"n": 6, "k": 2, "universe": 10}, seed=1)
    else:
        split, _ = generate_matching_instance("greedy_trap", {"s": 3})
    write_instance_file(path, split)
    real, calls = getattr(harness, optimum), []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, optimum, counted)
    cfg = config_from_dict(dict(problem=problem, instance={"file": path}, k=2,
                                trials=3, perms=2, out=None))
    r = run_experiment(cfg)
    assert r.exit_code == 0 and len(r.records) == 6
    assert len(calls) == {"submod": 1, "matching": 2}[problem]


# ---------------------------------------------------------------------- CLI


def test_cli_parser_subcommands():
    p = build_parser()
    args = p.parse_args(["submod", "run", "--kind", "random", "--trials", "2"])
    assert args.command == "submod"
    args = p.parse_args(["recurrence", "--t", "0.8", "--kmax", "50"])
    assert args.command == "recurrence"


def test_cli_submod_run(tmp_path, capsys):
    out = str(tmp_path / "cli.csv")
    rc = main([
        "submod", "run", "--kind", "random",
        "--params", '{"n": 8, "k": 2, "universe": 12}',
        "--adversary", "front", "--trials", "1", "--perms", "2",
        "--seed", "3", "--out", out, "--k", "2", "--mode", "exact",
    ])
    assert rc == 0
    assert os.path.exists(out)
    assert "mean" in capsys.readouterr().out


def test_cli_matching_run_with_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    out = str(tmp_path / "m.csv")
    cfg_path.write_text(json.dumps({
        "problem": "matching",
        "instance": {"kind": "greedy_trap", "params": {"s": 4}},
        "adversary": {"strategy": "front"},
        "trials": 1, "perms": 2, "seed": 0, "out": out,
        "match_mode": "match",
    }))
    rc = main(["matching", "run", "--config", str(cfg_path)])
    assert rc == 0
    rows = csv_rows(out)
    assert rows and all(float(r["ratio"]) >= 0.9 for r in rows)


def test_cli_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out = str(tmp_path / "o.csv")
    cfg_path.write_text(json.dumps({
        "problem": "submod",
        "instance": {"kind": "random", "params": {"n": 6, "k": 2, "universe": 10}},
        "trials": 1, "perms": 1, "seed": 1, "out": out, "mode": "exact", "k": 2,
    }))
    rc = main(["submod", "run", "--config", str(cfg_path), "--seed", "9"])
    assert rc == 0
    rows = csv_rows(out)
    assert rows[0]["seed"].endswith(str(trial_seed(9, 0)))


def test_cli_recurrence_certify(capsys):
    assert main(["recurrence", "--t", "0.8", "--kmax", "60", "--mode", "exact",
                 "--certify", "60", "--bound", "0.5506"]) == 0
    assert "holds" in capsys.readouterr().out
    assert main(["recurrence", "--t", "0.8", "--kmax", "60", "--mode", "exact",
                 "--certify", "60", "--bound", "0.556"]) == 1
    assert ": VIOLATED (min diagonal" in capsys.readouterr().out
    # R(1,1) = 1/2 exactly: the exact table settles what the intervals cannot
    assert main(["recurrence", "--t", "1", "--certify", "5", "--bound", "1/2"]) == 0
    assert ": holds (min diagonal" in capsys.readouterr().out
    # beyond the exact tables' EXACT_LIMIT of 2000
    assert main(["recurrence", "--certify", "2500"]) == 0
    assert ": holds (min diagonal" in capsys.readouterr().out


def test_cli_gen_and_consume(tmp_path):
    inst_path = str(tmp_path / "gen.jsonl")
    rc = main(["gen", "--problem", "submod", "--kind", "random",
               "--params", '{"n": 8, "k": 2, "universe": 12}',
               "--seed", "4", "--plan", "front", "--out", inst_path])
    assert rc == 0
    out = str(tmp_path / "from_file.csv")
    rc = main(["submod", "run", "--instance", inst_path, "--trials", "1",
               "--perms", "2", "--seed", "0", "--out", out, "--k", "2",
               "--mode", "exact"])
    assert rc == 0
    rows = csv_rows(out)
    assert len(rows) == 2


def test_cli_verify(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "[ok]" in out and "[FAIL]" not in out


#: (argv, text its one error line holds); CFG is a file of invalid JSON
ERROR_CASES = [
    (["submod", "run", "--config", "CFG"], "--config CFG: invalid JSON"),
    (["matching", "run", "--kind", "random", "--params", "{bad"], "--params: invalid JSON"),
    (["gen", "--problem", "submod", "--kind", "random", "--params", "{bad", "--out", "x.jsonl"],
     "--params: invalid JSON"),
    (["submod", "run", "--config", "MISSING"], "--config MISSING: No such file"),
    (["gen", "--problem", "submod", "--kind", "mystery", "--out", "x.jsonl"], "mystery"),
    (["recurrence", "--t", "1.5"], "t must lie in (0, 1]"),
    (["recurrence", "--certify", "10001"], "certificate is guarded to k <= 10000"),
    (["recurrence", "--certify", "50", "--bound", "abc"], "bound must be"),
    (["submod", "run", "--kind", "random", "--trials", "3", "--k", "0"], "k must be"),
    (["submod", "run", "--kind", "random", "--delta", "0"], "delta must be"),
    (["submod", "run", "--kind", "random", "--guess", "auto", "--delta", "1"],
     "delta must be below 1 with guess auto"),
    (["matching", "run", "--mode", "guessed", "--delta-guess", "0"], "delta_guess must be"),
    (["matching", "run", "--mode", "guessed", "--delta-guess", "1e-5"],
     "delta_guess must be large enough for at most 10000 live guesses; got 1e-05"),
    (["submod", "run", "--kind", "mystery", "--trials", "3"], "submod kind must be"),
    (["matching", "run", "--kind", "mystery"], "matching kind must be"),
    (["submod", "run", "--kind", "random", "--out", "nodir/s.csv"],
     "output directory nodir does not exist"),
    (["recurrence", "--kmax", "20", "--emit", "nodir/r.csv"],
     "output directory nodir does not exist"),
    (["gen", "--problem", "submod", "--kind", "random", "--out", "nodir/x.jsonl"],
     "output directory nodir does not exist"),
    (["recurrence", "--certify", "50", "--emit", "x.csv"], "writes no CSV; drop --emit"),
    (["recurrence", "--kmax", "5", "--bound", "0.9"], "bound is read only by the certificate"),
    (["submod", "run", "--kind", "random", "--seed", "-1"], "seed must be an integer in"),
    (["gen", "--problem", "matching", "--kind", "random", "--seed", "-1", "--out", "x.jsonl"],
     "seed must be an integer in [0, 2**64); got -1"),
    (["gen", "--problem", "matching", "--kind", "random", "--plan", "random",
      "--plan-seed", "-1", "--out", "x.jsonl"], "plan seed must be an integer in [0, 2**64)"),
    (["recurrence", "--t", "nan"], "t must lie in (0, 1], got nan"),
    (["recurrence", "--t", "inf"], "t must lie in (0, 1], got inf"),
    (["gen", "--problem", "matching", "--kind", "greedy_trap", "--params", '{"size": 100}',
      "--out", "x.jsonl"], "greedy_trap param 'size' is unknown; it takes s"),
    (["gen", "--problem", "matching", "--kind", "greedy_trap", "--params", '{"s": 2.7}',
      "--out", "x.jsonl"], "greedy_trap param s must be an integer; got 2.7"),
    (["gen", "--problem", "matching", "--kind", "greedy_trap", "--params", '{"s": "abc"}',
      "--out", "x.jsonl"], "greedy_trap param s must be an integer; got 'abc'"),
    (["submod", "run", "--kind", "decoy_front", "--params", '{"blocks": 9}'],
     "decoy_front param 'blocks' is unknown"),
    (["matching", "run", "--kind", "random", "--params", '{"p": "0.3"}'],
     "random_bipartite param p must be a number; got '0.3'"),
    (["submod", "run", "--kind", "random", "--params", '{"k": 2, "n": 8}', "--k", "4"],
     "k must equal the instance params' k; got k=4, params k=2"),
    (["matching", "run", "--instance", "NOGOOD", "--trials", "1", "--perms", "2"],
     "NOGOOD: no good element"),
    (["submod", "run", "--instance", "SUBOPT", "--trials", "1", "--perms", "2", "--k", "2"],
     "SUBOPT: the good set must be an optimum 2-set; it is worth 1, the optimum 3"),
    (["matching", "run", "--instance", "MATCHOPT"],
     "MATCHOPT: the good edges must hold a maximum matching; "
     "their largest matching has size 1, the instance's 2"),
    (["submod", "run", "--kind", "random", "--out", ""], "output path must name a file; got ''"),
    (["recurrence", "--kmax", "20", "--emit", "."], "output path must name a file; got '.'"),
    (["matching", "run", "--kind", "random", "--params", ""], "--params: invalid JSON"),
    (["submod", "run", "--instance", ""], "instance must be {'file': path} or "
     "{'kind': name, 'params': {...}}; got {'file': ''}"),
    (["matching", "run", "--instance", ""], "instance must be {'file': path} or "
     "{'kind': name, 'params': {...}}; got {'file': ''}"),
]


@pytest.mark.parametrize(
    "argv, needle", ERROR_CASES, ids=[f"argv{i}" for i in range(len(ERROR_CASES))]
)
def test_cli_invalid_json_flag_is_one_line_and_exit_2(
    tmp_path, monkeypatch, capsys, argv, needle
):
    """A bad flag or a library error outside the trial loop: exit 2, one stderr line."""
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{bad")
    nogood_path = tmp_path / "nogood.jsonl"
    nogood_path.write_text('{"id": 1, "role": "noise", "payload": [1, 2]}\n')
    # good sets that are not an optimum: the noise beats them
    subopt_path = tmp_path / "subopt.jsonl"
    subopt_path.write_text('{"id": 1, "role": "good", "payload": [1]}\n'
                           '{"id": 2, "role": "noise", "payload": [1, 2, 3]}\n')
    matchopt_path = tmp_path / "matchopt.jsonl"
    matchopt_path.write_text('{"id": 1, "role": "good", "payload": [1, 2]}\n'
                             '{"id": 2, "role": "noise", "payload": [3, 4]}\n')
    paths = {"CFG": str(cfg_path), "MISSING": str(tmp_path / "nope.json"),
             "NOGOOD": str(nogood_path), "SUBOPT": str(subopt_path),
             "MATCHOPT": str(matchopt_path)}
    argv = [paths.get(a, a) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("injectstream: error: ")
    assert "Traceback" not in err
    for name, path in paths.items():
        needle = needle.replace(name, path)
    assert needle in err
    # no CSV, no instance file
    assert sorted(os.listdir(tmp_path)) == [
        "cfg.json", "matchopt.jsonl", "nogood.jsonl", "subopt.jsonl"]


@pytest.mark.parametrize("argv, flag", [
    (["matching", "run", "--kind", "greedy_trap", "--k", "2"], "--k 2"),
    (["matching", "run", "--kind", "greedy_trap", "--mode", "guessed", "--delta", "0.5"],
     "--delta 0.5"),
], ids=["k", "delta"])
def test_cli_flag_prefixes_are_not_abbreviations(tmp_path, monkeypatch, capsys, argv, flag):
    """--k is no prefix of --kind and --delta none of --delta-guess: argparse exits 2."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def _names_outside_the_tests() -> set:
    """Names read by the package's modules (not ``__init__.py``), the demos
    and perfbench, as ast names, attributes and import aliases, plus every
    word the README puts in backticks."""
    root = Path(__file__).resolve().parents[1]
    files = [p for p in (root / "src" / "injectstream").glob("*.py") if p.name != "__init__.py"]
    files += [*(root / "demos").glob("*.py"), *(root / "perfbench").glob("*.py")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update((node.name, node.asname))
    for span in re.findall(r"`+([^`]+)`+", (root / "README.md").read_text()):
        names.update(re.findall(r"\w+", span))
    return names


def test_every_exported_name_resolves():
    """Every export exists, and a run, the CLI, a demo, perfbench or the
    README reaches it; what only tests read belongs in ``tests/``."""
    import injectstream

    missing = [name for name in injectstream.__all__ if not hasattr(injectstream, name)]
    assert missing == []
    reached = _names_outside_the_tests()
    assert [name for name in injectstream.__all__ if name not in reached] == []
