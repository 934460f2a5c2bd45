"""Experiment harness: configs, determinism, CSV output, and the CLI."""

import csv
import json
import math
import os
import re

import pytest

from injectstream.cli import build_parser, main
from injectstream import harness
from injectstream.errors import InvalidInstanceError, InvariantError, PreconditionError
from injectstream.generators import generate_submod_instance, make_plan
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
from injectstream.stream_model import Element, InjectionPlan, InstanceSplit


# ------------------------------------------------------------------- config


def test_config_fingerprint_stable_and_sensitive():
    a = ExperimentConfig(problem="submod", seed=3)
    b = ExperimentConfig(problem="submod", seed=3)
    c = ExperimentConfig(problem="submod", seed=4)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert len(a.fingerprint()) == 12


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(PreconditionError):
        config_from_dict({"problem": "submod", "typo_key": 1})


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
    blob1 = open(r1.csv_path, "rb").read()
    r2 = run_experiment(submod_config(tmp_path))
    assert open(r2.csv_path, "rb").read() == blob1  # byte-identical replay

    rows = list(csv.reader(blob1.decode().splitlines()))
    assert tuple(rows[0]) == SUBMOD_COLUMNS
    for row in rows[1:]:
        assert row[-1] == cfg.fingerprint()
        assert 0.0 <= float(row[5]) <= 1.0  # ratio column
        assert float(row[5]) >= 0.5  # the exact-mode floor


def test_submod_wall_time_outside_csv(tmp_path):
    r = run_experiment(submod_config(tmp_path))
    assert all(rec.wall_time_s >= 0 for rec in r.records)
    header = open(r.csv_path).readline()
    assert "wall" not in header


def test_submod_guess_mode(tmp_path):
    r = run_experiment(submod_config(tmp_path, guess="auto", mode="bucketed"))
    assert r.exit_code == 0
    rows = list(csv.DictReader(open(r.csv_path)))
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
        mstar="known",
    ))
    r = run_experiment(cfg)
    assert r.exit_code == 0
    rows = list(csv.DictReader(open(r.csv_path)))
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
    rows = list(csv.DictReader(open(r.csv_path)))
    assert all(float(row["ratio"]) == 0.5 for row in rows)


def test_recurrence_experiment_emit_and_certify(tmp_path):
    out = str(tmp_path / "r.csv")
    cfg = config_from_dict(dict(problem="recurrence", t=0.8, kmax=30,
                                table_mode="float", out=out))
    r = run_experiment(cfg)
    assert r.exit_code == 0
    rows = list(csv.DictReader(open(out)))
    assert tuple(rows[0].keys()) == RECURRENCE_COLUMNS
    assert rows[0]["k"] == "1"
    assert abs(float(rows[0]["R(k,k)"]) - 5 / 9) < 1e-12
    assert rows[0]["argmin_tag_at_diag"] == "third"
    assert rows[1]["argmin_tag_at_diag"] == "second"

    ok = config_from_dict(dict(problem="recurrence", t=0.8, kmax=100,
                               table_mode="exact", certify_k=100, bound=0.55, out=None))
    assert run_experiment(ok).exit_code == 0
    bad = config_from_dict(dict(problem="recurrence", t=0.8, kmax=100,
                                table_mode="exact", certify_k=100, bound=0.556, out=None))
    assert run_experiment(bad).exit_code == 1


def test_failed_trials_recorded_not_raised(tmp_path):
    cfg = config_from_dict(dict(
        problem="submod",
        instance={"file": str(tmp_path / "missing.jsonl")},
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
    rows = list(csv.reader(open(r.csv_path)))
    assert len(rows) == 1  # header only


RUN_ARGV = {
    "run_tree_stream": ["submod", "run", "--kind", "random",
                        "--params", '{"n": 8, "universe": 12}', "--k", "2", "--mode", "exact"],
    "match_run": ["matching", "run", "--kind", "greedy_trap", "--params", '{"s": 3}',
                  "--mode", "match"],
}


@pytest.mark.parametrize("exc, code", [
    (InvariantError("planted"), 3),
    (ValueError("InvariantError: only in the message"), 1),
], ids=["invariant", "other"])
@pytest.mark.parametrize("algo", RUN_ARGV)
def test_failed_run_exit_code_from_exception_type(
    tmp_path, monkeypatch, capsys, algo, exc, code
):
    real = getattr(harness, algo)
    calls = []

    def second_run_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, algo, second_run_fails)
    out = str(tmp_path / "runs.csv")
    argv = RUN_ARGV[algo] + ["--trials", "1", "--perms", "3", "--seed", "2", "--out", out]
    assert main(argv) == code
    rows = list(csv.DictReader(open(out)))
    assert [row["perm_index"] for row in rows] == ["0", "2"]
    assert f"{type(exc).__name__}: {exc}" in capsys.readouterr().err


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
    assert [e.payload for e in split2.good] == [(1, 2), (3, 4)]
    assert plan2 == plan


def test_matching_plain_edge_file(tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text("1 2\n3 4\n# comment\n5 6\n")
    split, plan = read_matching_instance_file(str(path))
    assert plan is None
    assert len(split.good) == 3 and split.noise == ()
    assert split.good[0].payload == (1, 2)


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
}


@pytest.mark.parametrize("read", [read_submod_instance_file, read_matching_instance_file])
@pytest.mark.parametrize("bad", BAD_RECORDS.values(), ids=BAD_RECORDS.keys())
def test_malformed_instance_line_names_file_and_line(tmp_path, read, bad):
    path = tmp_path / "inst.jsonl"
    path.write_text('{"id": 1, "role": "good", "payload": [1, 2]}\n\n' + bad + "\n")
    with pytest.raises(InvalidInstanceError, match="^" + re.escape(f"{path}:3: ")):
        read(str(path))


@pytest.mark.parametrize("read", [read_submod_instance_file, read_matching_instance_file])
def test_instance_file_without_elements_is_rejected(tmp_path, read):
    path = tmp_path / "empty.jsonl"
    path.write_text('{"slots": []}\n')
    with pytest.raises(InvalidInstanceError, match="no element records"):
        read(str(path))


def test_matching_payload_must_be_a_pair(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"id": 1, "role": "good", "payload": [1, 2, 3]}\n')
    with pytest.raises(InvalidInstanceError, match="^" + re.escape(f"{path}:1: ")):
        read_matching_instance_file(str(path))
    # the same record is a valid three-point coverage element
    _, split, _ = read_submod_instance_file(str(path))
    assert split.good[0].payload == frozenset({1, 2, 3})


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
    rows = list(csv.DictReader(open(out)))
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
    rows = list(csv.DictReader(open(out)))
    assert rows[0]["seed"].endswith(str(trial_seed(9, 0)))


def test_cli_recurrence_certify(capsys):
    assert main(["recurrence", "--t", "0.8", "--kmax", "60", "--mode", "exact",
                 "--certify", "60", "--bound", "0.5506"]) == 0
    assert "holds" in capsys.readouterr().out
    assert main(["recurrence", "--t", "0.8", "--kmax", "60", "--mode", "exact",
                 "--certify", "60", "--bound", "0.556"]) == 1


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
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 2


def test_cli_gen_edges_format(tmp_path):
    path = str(tmp_path / "edges.txt")
    rc = main(["gen", "--problem", "matching", "--kind", "random_bipartite",
               "--params", '{"nl": 4, "nr": 4, "p": 0.5}',
               "--seed", "1", "--format", "edges", "--out", path])
    assert rc == 0
    lines = [l for l in open(path).read().splitlines() if l.strip()]
    assert lines and all(len(l.split()) == 2 for l in lines)


def test_cli_verify(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "[ok]" in out and "[FAIL]" not in out


@pytest.mark.parametrize("argv", [
    ["submod", "run", "--config", "CFG"],
    ["matching", "run", "--kind", "random", "--params", "{bad"],
    ["gen", "--problem", "submod", "--kind", "random", "--params", "{bad", "--out", "x.jsonl"],
    ["submod", "run", "--config", "MISSING"],
])
def test_cli_invalid_json_flag_is_one_line_and_exit_2(tmp_path, capsys, argv):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{bad")
    missing = "MISSING" in argv
    paths = {"CFG": str(cfg_path), "MISSING": str(tmp_path / "nope.json")}
    argv = [paths.get(a, a) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    flag = "--config" if "--config" in argv else "--params"
    assert err.count("\n") == 1 and flag in err
    assert ("No such file" if missing else "invalid JSON") in err
    if flag == "--config":
        assert argv[-1] in err


def test_every_exported_name_resolves():
    import injectstream

    missing = [name for name in injectstream.__all__ if not hasattr(injectstream, name)]
    assert missing == []
