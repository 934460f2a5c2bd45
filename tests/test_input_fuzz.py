"""Hypothesis fuzzers for the two ways input reaches the library.

Instance files: one field of a valid submod or matching file (id, role,
payload, point or vertex, slot, noise id) becomes a JSON value of any type,
nested and non-finite values included.  The file must either load and
round-trip through ``write_instance_file`` to equal records, or raise
InvalidInstanceError whose text starts with the file's path.

argv: each flag of ``submod run``, ``matching run``, ``recurrence`` and
``gen`` gets a value of the wrong type on top of a small valid command.  The
CLI must exit 2 with no traceback.  A value the library rejects prints
exactly one ``injectstream: error:`` line; one argparse rejects prints its
usage and then its error line.
"""

import contextlib
import copy
import io
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injectstream.cli import main
from injectstream.errors import InvalidInstanceError
from injectstream.generators import _MATCHING_ALIASES, MATCHING_KINDS, SUBMOD_KINDS
from injectstream.harness import (
    read_matching_instance_file,
    read_submod_instance_file,
    write_instance_file,
)

# ---------------------------------------------------------------------------
# instance files

RECORDS = {  # a valid file of each problem: two good elements, one noise, a plan
    "submod": [
        {"id": 1, "role": "good", "payload": [1, 2]},
        {"id": 2, "role": "good", "payload": [3, 5]},
        {"id": "n", "role": "noise", "payload": [2, 4]},
        {"slots": [[1, "n"]]},
    ],
    "matching": [
        {"id": 1, "role": "good", "payload": [1, 2]},
        {"id": 2, "role": "good", "payload": [3, 4]},
        {"id": "n", "role": "noise", "payload": [2, 5]},
        {"slots": [[1, "n"]]},
    ],
}
READERS = {
    "submod": lambda path: read_submod_instance_file(path)[1:],
    "matching": read_matching_instance_file,
}
# (record, key path) of every field: id, role, payload, point or vertex, slot, noise id
FIELDS = [(r, (key,)) for r in range(3) for key in ("id", "role", "payload")]
FIELDS += [(r, ("payload", j)) for r in range(3) for j in (0, 1)]
FIELDS += [(3, ("slots", 0, 0)), (3, ("slots", 0, 1))]

# stands for a raw JSON text that no Python value dumps to
RAW = "\x00raw"
RAW_TEXTS = ["1e400", "-1e400", "[7, 1e400]", "[[-1e400]]", "NaN", "-Infinity",
             "[Infinity]", '{"a": NaN}', "1" + "0" * 5000]

scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
           | st.sampled_from([1, 2, 1.0, "n", 0, -1, 10**30, "good", "noise"]))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=2),
    max_leaves=5,
)


def _mutated_text(problem: str, field: tuple, value) -> str:
    records = copy.deepcopy(RECORDS[problem])
    record, keys = field
    holder = records[record]
    for key in keys[:-1]:
        holder = holder[key]
    holder[keys[-1]] = RAW if isinstance(value, tuple) else value
    text = "".join(json.dumps(rec) + "\n" for rec in records)
    return text.replace(json.dumps(RAW), value[0]) if isinstance(value, tuple) else text


@settings(max_examples=400, deadline=None)
@given(
    problem=st.sampled_from(list(RECORDS)),
    field=st.sampled_from(FIELDS),
    value=json_values | st.sampled_from(RAW_TEXTS).map(lambda text: (text,)),
)
def test_mutated_instance_file_round_trips_or_names_itself(tmp_path_factory, problem, field,
                                                           value):
    folder = tmp_path_factory.mktemp("instance")
    path, again, third = (str(folder / name) for name in ("f.jsonl", "g.jsonl", "h.jsonl"))
    with open(path, "w") as fh:
        fh.write(_mutated_text(problem, field, value))
    read = READERS[problem]
    try:
        loaded = read(path)
    except InvalidInstanceError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)
        return
    write_instance_file(again, *loaded)
    assert read(again) == loaded
    write_instance_file(third, *read(again))
    with open(again, "rb") as a, open(third, "rb") as b:
        assert a.read() == b.read()


# ---------------------------------------------------------------------------
# argv

SUBMOD = ["submod", "run", "--kind", "random", "--params",
          '{"n": 5, "k": 2, "universe": 6, "max_points": 3}', "--k", "2",
          "--trials", "1", "--perms", "1"]
MATCHING = ["matching", "run", "--kind", "greedy_trap", "--params", '{"s": 3}',
            "--mode", "guessed", "--trials", "1", "--perms", "1"]
RECURRENCE = ["recurrence", "--kmax", "20"]
GEN = ["gen", "--problem", "matching", "--kind", "greedy_trap", "--params", '{"s": 3}',
       "--out", "g.jsonl"]
# a --config flag alone, so that no other flag overrides the field it sets
CONFIGURED = [["submod", "run"], ["matching", "run"]]

argv_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                    max_size=6)
SAMPLES = ["", "1.5", "abc", "nan", "1e3", "[1]", "{}", "true", "null", "0x10", "1/2"]


def _fails(parse, value) -> bool:
    try:
        parse(value)
    except (TypeError, ValueError, ZeroDivisionError):
        return True
    return False


def _unread_by(parse):
    return (argv_text | st.sampled_from(SAMPLES)).filter(lambda text: _fails(parse, text))


NOT_INT = _unread_by(int)
NOT_FLOAT = _unread_by(float) | st.sampled_from(["nan", "inf", "-inf", "1e400"])
NOT_BOUND = _unread_by(Fraction)
KINDS = set(SUBMOD_KINDS + MATCHING_KINDS) | set(_MATCHING_ALIASES)
NOT_KIND = argv_text.filter(lambda text: text.replace("-", "_") not in KINDS)
CHOICE_WORDS = {"exact", "bucketed", "known", "auto", "greedy", "match", "guessed", "float",
                "front", "back", "spread", "random", "submod", "matching"}
NOT_CHOICE = argv_text.filter(lambda text: text not in CHOICE_WORDS)
# output paths that name no file: empty, or a directory (``sub`` is made for each run)
NOT_FILE = st.sampled_from(["", ".", "..", "sub", "sub/"])

# JSON values of the wrong type for an integer, a number, a string or an object
NOT_INT_JSON = json_values.filter(lambda v: isinstance(v, bool) or not isinstance(v, int))
NOT_NUMBER_JSON = json_values.filter(
    lambda v: isinstance(v, bool) or not isinstance(v, (int, float)))
NOT_STR_JSON = json_values.filter(lambda v: not isinstance(v, str))
NOT_OBJECT_JSON = json_values.filter(lambda v: not isinstance(v, dict))


def _params(names):
    """--params text: bad JSON, JSON that is no object, or an object giving
    params of the kind (every one an integer) values that are no integer."""
    wrong = st.dictionaries(st.sampled_from(names), NOT_INT_JSON, min_size=1, max_size=2)
    return (st.sampled_from(["{bad", "", "[", "{'s': 1}"]) | NOT_OBJECT_JSON.map(json.dumps)
            | wrong.map(json.dumps))


# one config field given a value of the wrong type; a string is a number's
# right type for t and delta when it reads as a fraction, and null is right
# for certify_k, bound and out
CONFIG_FIELDS = st.one_of(
    st.tuples(st.sampled_from(["trials", "perms", "seed", "k", "kmax"]), NOT_INT_JSON),
    st.tuples(st.just("certify_k"), NOT_INT_JSON.filter(lambda v: v is not None)),
    st.tuples(st.sampled_from(["t", "delta"]),
              NOT_NUMBER_JSON.filter(lambda v: not isinstance(v, str) or _fails(Fraction, v))),
    st.tuples(st.just("delta_guess"), NOT_NUMBER_JSON),
    st.tuples(st.sampled_from(["mode", "guess", "match_mode", "table_mode"]), NOT_STR_JSON),
    st.tuples(st.just("out"), NOT_STR_JSON.filter(lambda v: v is not None)),
    st.tuples(st.just("bound"), json_values.filter(lambda v: isinstance(v, (bool, list, dict)))),
    st.tuples(st.just("instance"), NOT_OBJECT_JSON
              | st.fixed_dictionaries({"file": NOT_STR_JSON})
              | st.fixed_dictionaries({"kind": st.just("random"), "params": NOT_OBJECT_JSON})),
    st.tuples(st.just("adversary"), NOT_OBJECT_JSON
              | st.fixed_dictionaries({"strategy": NOT_STR_JSON})
              | st.fixed_dictionaries({"seed": NOT_INT_JSON})),
)
CONFIG_TEXT = (NOT_OBJECT_JSON.map(json.dumps)
               | CONFIG_FIELDS.map(lambda kv: json.dumps(dict([kv]))))
# --instance: a path that names no readable file, or a line that is no JSON object
INSTANCE = NOT_FILE | st.just("missing.jsonl") | (
    NOT_OBJECT_JSON.map(json.dumps) | st.sampled_from(["{bad", "[", "NaN"])).map(lambda t: (t,))

RUN_FLAGS = [
    ("--instance", INSTANCE), ("--kind", NOT_KIND), ("--adversary", NOT_CHOICE),
    ("--trials", NOT_INT), ("--perms", NOT_INT), ("--seed", NOT_INT), ("--out", NOT_FILE),
]
ARGV_CASES = (
    [(SUBMOD, flag, values) for flag, values in RUN_FLAGS]
    + [(SUBMOD, "--params", _params(["n", "k", "universe", "max_points"])),
       (SUBMOD, "--k", NOT_INT), (SUBMOD, "--delta", NOT_FLOAT),
       (SUBMOD, "--mode", NOT_CHOICE), (SUBMOD, "--guess", NOT_CHOICE)]
    + [(MATCHING, flag, values) for flag, values in RUN_FLAGS]
    + [(MATCHING, "--params", _params(["s"])), (MATCHING, "--mode", NOT_CHOICE),
       (MATCHING, "--delta-guess", NOT_FLOAT)]
    + [(base, "--config", CONFIG_TEXT.map(lambda t: (t,))) for base in CONFIGURED]
    + [(RECURRENCE, "--t", NOT_FLOAT), (RECURRENCE, "--kmax", NOT_INT),
       (RECURRENCE, "--emit", NOT_FILE), (RECURRENCE, "--mode", NOT_CHOICE),
       (RECURRENCE, "--certify", NOT_INT),
       (RECURRENCE + ["--certify", "20"], "--bound", NOT_BOUND)]
    + [(GEN, "--problem", NOT_CHOICE), (GEN, "--kind", NOT_KIND),
       (GEN, "--params", _params(["s"])), (GEN, "--seed", NOT_INT), (GEN, "--plan", NOT_CHOICE),
       (GEN, "--plan-seed", NOT_INT), (GEN, "--out", NOT_FILE)]
)


@pytest.mark.parametrize("base, flag, values", ARGV_CASES,
                         ids=[f"{base[0]} {flag}" for base, flag, _ in ARGV_CASES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_wrong_type_flag_exits_2_with_one_error_line(tmp_path_factory, base, flag, values, data):
    value = data.draw(values, label=flag)
    folder = tmp_path_factory.mktemp("argv")
    (folder / "sub").mkdir()
    if isinstance(value, tuple):  # the text of a file the flag names
        (folder / "arg.json").write_text(value[0] + "\n")
        value = "arg.json"
    before = sorted(os.listdir(folder))
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        mp.chdir(folder)
        try:
            code = main(base + [flag, value])
        except SystemExit as exc:  # argparse's own rejection
            code = exc.code
    err = err.getvalue()
    assert code == 2, err
    assert "Traceback" not in err
    if err.startswith("usage: "):
        assert err.count(": error: ") == 1 and err.endswith("\n")
        assert err.splitlines()[-1].startswith("injectstream ")
    else:
        assert err.count("\n") == 1 and err.startswith("injectstream: error: "), err
    assert sorted(os.listdir(folder)) == before  # no CSV and no instance file
